"""Benchmark-regression gate: compare a fresh ``tools/bench_engine.py``
run against the committed ``BENCH_pr8.json`` baseline.

``BENCH_pr8.json`` used to be a snapshot nobody compared against — a 2x
slowdown in the compiled interpreter loop or the diffemu planner would
land silently. ``python -m repro.telemetry regress`` closes that gap:

- re-runs the timing harness (or takes ``--current <file>`` to compare
  two existing result documents),
- compares every wall-clock metric both documents share under a
  **noise-aware** threshold: a metric has regressed iff
  ``current > baseline * max_ratio`` **and**
  ``current - baseline > min_seconds`` — the ratio guard catches real
  slowdowns, the absolute guard keeps sub-50ms jitter on tiny timings
  from crying wolf,
- exits with CI-friendly codes: 0 all within threshold, 1 at least one
  regression, 2 malformed/mismatched input (missing file, wrong
  ``bench_schema``, no comparable metrics).

Both documents must carry a matching ``bench_schema`` field (stamped by
``bench_engine.py``); a baseline produced by an older harness is
rejected (exit 2) rather than silently compared against different
semantics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Version of the bench_engine.py result document. bench_engine stamps
#: this into its output; regress refuses to compare mismatched versions.
BENCH_SCHEMA = 1

#: Noise-aware defaults: flag only >1.5x slowdowns that also lose more
#: than 50ms of wall clock.
DEFAULT_MAX_RATIO = 1.5
DEFAULT_MIN_SECONDS = 0.05

#: Dotted paths of the wall-clock metrics worth gating. Only paths
#: present in BOTH documents are compared (a ``--micro-only`` current
#: run compares just the interpreter loops).
TIMING_PATHS: Tuple[str, ...] = (
    "evaluation_seconds.cold_serial",
    "evaluation_seconds.warm_serial",
    "evaluation_seconds.parallel_cold",
    "diff_emulation.cold_grid_seconds",
    "diff_emulation.diff_grid_seconds",
    "interpreter_loops.compiled_seconds",
    "interpreter_loops.predecoded_seconds",
)


class RegressError(ValueError):
    """Malformed or incomparable benchmark documents (CLI exit 2)."""


def _lookup(doc: Dict[str, Any], path: str) -> Optional[float]:
    node: Any = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def check_schema(doc: Dict[str, Any], label: str) -> None:
    """Reject documents from a different (or pre-versioned) harness."""
    if not isinstance(doc, dict):
        raise RegressError(f"{label}: not a JSON object")
    schema = doc.get("bench_schema")
    if schema != BENCH_SCHEMA:
        raise RegressError(
            f"{label}: bench_schema {schema!r} != supported {BENCH_SCHEMA} "
            f"(regenerate with tools/bench_engine.py)"
        )


def compare(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    max_ratio: float = DEFAULT_MAX_RATIO,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    paths: Sequence[str] = TIMING_PATHS,
) -> Dict[str, Any]:
    """Pure comparison of two bench documents. Returns::

        {"ok": bool, "max_ratio": ..., "min_seconds": ...,
         "comparisons": [{"metric", "baseline", "current", "ratio",
                          "delta", "regressed"}, ...]}

    Raises :class:`RegressError` when schemas mismatch or no metric is
    present in both documents.
    """
    check_schema(baseline, "baseline")
    check_schema(current, "current")
    comparisons: List[Dict[str, Any]] = []
    for path in paths:
        base = _lookup(baseline, path)
        cur = _lookup(current, path)
        if base is None or cur is None:
            continue
        ratio = (cur / base) if base > 0 else None
        delta = cur - base
        regressed = (
            base > 0
            and cur > base * max_ratio
            and delta > min_seconds
        )
        comparisons.append({
            "metric": path,
            "baseline": base,
            "current": cur,
            "ratio": round(ratio, 3) if ratio is not None else None,
            "delta": round(delta, 4),
            "regressed": regressed,
        })
    if not comparisons:
        raise RegressError(
            "no timing metric is present in both documents "
            f"(looked for: {', '.join(paths)})"
        )
    return {
        "ok": not any(c["regressed"] for c in comparisons),
        "max_ratio": max_ratio,
        "min_seconds": min_seconds,
        "comparisons": comparisons,
    }


def render_report(result: Dict[str, Any]) -> str:
    """Human/CI-annotation table: one line per compared metric."""
    comparisons = result["comparisons"]
    width = max(len(c["metric"]) for c in comparisons)
    lines = []
    for c in comparisons:
        mark = "REGRESSED" if c["regressed"] else "ok"
        ratio = f"{c['ratio']:.2f}x" if c["ratio"] is not None else "n/a"
        lines.append(
            f"{c['metric'].ljust(width)}  "
            f"{c['baseline']:>8.3f}s -> {c['current']:>8.3f}s  "
            f"({ratio}, {c['delta']:+.3f}s)  {mark}"
        )
    verdict = (
        "all metrics within threshold" if result["ok"]
        else "benchmark regression detected"
    )
    lines.append(
        f"{verdict} (max-ratio {result['max_ratio']}x, "
        f"min-delta {result['min_seconds']}s)"
    )
    return "\n".join(lines)


def load_doc(path: str, label: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise RegressError(f"{label}: no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise RegressError(f"{label}: {path} is not valid JSON ({exc})"
                           ) from None
    if not isinstance(doc, dict):
        raise RegressError(f"{label}: {path} is not a JSON object")
    return doc


def run_bench(
    bench_script: str, extra_args: Sequence[str] = ()
) -> Dict[str, Any]:
    """Run the timing harness in a subprocess, writing its result to a
    temp file, and return the parsed document."""
    if not os.path.exists(bench_script):
        raise RegressError(f"bench harness not found: {bench_script}")
    fd, out_path = tempfile.mkstemp(prefix="repro-regress-", suffix=".json")
    os.close(fd)
    try:
        cmd = [sys.executable, bench_script, "--out", out_path]
        cmd.extend(extra_args)
        proc = subprocess.run(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            raise RegressError(
                f"bench harness exited {proc.returncode}:\n"
                f"{proc.stderr.strip()}"
            )
        return load_doc(out_path, "current")
    finally:
        os.unlink(out_path)
