"""Per-layer tracing for the traced run (``--trace 1``).

Spans are recorded from the benchmark's own code: :class:`Tracer`
replaces each layer's public entry point, *under the name its callers
look it up by*, with a wrapper that records a span around the call. The
program itself is not edited, so an untraced run executes exactly the
code a user runs. Spans stay in memory (id, parent id, layer, start, end,
work counts) and are written out once, at the end.

A span's self time is its duration minus that of its direct children; a
layer's self time is the sum over its spans. Because the set-up and each
op run under one root span, the self times of all layers add up to the
traced wall-clock.

``repro.telemetry`` is enabled only around ``synth-cfg``'s SCHEMATIC
compiles, to read the placer's own ``placer.rcg.*`` counters, and is
suspended again around the profiling runs inside them: telemetry forces
the emulator onto its per-step loop and disables differential emulation,
so it must never be on while anything emulates.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro import telemetry
from repro.emulator.report import ExecutionReport
from repro.staticcheck.findings import Severity

#: (module, attribute path, layer) of every entry point the traced run
#: wraps, besides the ``repro.baselines.COMPILERS`` entries.
#: Each name is the one the caller resolves at call time:
#: ``Schematic.compile`` calls ``apply_inferred_bounds`` and
#: ``collect_profile`` through ``repro.core.placement``'s globals,
#: ``EvaluationContext`` calls the emulator and diffemu through
#: ``repro.experiments.common``'s, ``collect_profile`` runs its profiling
#: executions through ``repro.core.tracing.run_continuous``, and the
#: diffemu cold fallback imports ``run_intermittent`` from
#: ``repro.emulator.interpreter`` when it runs (``repro.emulator.diffemu``
#: has no module-level ``run_intermittent`` to wrap).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.frontend", "compile_source", "frontend"),
    ("repro.programs.base", "compile_source", "frontend"),
    ("repro.core.placement", "apply_inferred_bounds", "analysis.ranges"),
    ("repro.core.placement", "collect_profile", "core.tracing"),
    ("repro.experiments.common", "collect_profile", "core.tracing"),
    ("repro.core.tracing", "run_continuous", "core.tracing"),
    ("repro.baselines", "compile_schematic", "core.placement"),
    ("repro.core.verify", "validate_placement", "core.verify"),
    ("repro.staticcheck.checker", "check_compiled", "staticcheck"),
    ("repro.experiments.common", "run_continuous", "emulator"),
    ("repro.experiments.common", "run_intermittent", "emulator"),
    ("repro.emulator.interpreter", "run_intermittent", "emulator"),
    ("repro.experiments.common", "record_tape", "emulator.diffemu.record"),
    ("repro.experiments.common", "run_diffemu_cell", "emulator.diffemu.cell"),
    # The only ArtifactCache instances in the process are the ones the
    # benchmark injects into EvaluationContext.
    ("repro.runner.cache", "ArtifactCache.get", "runner.cache.get"),
    ("repro.runner.cache", "ArtifactCache.put", "runner.cache.put"),
)

#: ``repro.baselines.COMPILERS`` entries that run SCHEMATIC's placer;
#: the others are the roll-back baselines' own compilers.
PLACER_TECHNIQUES = ("schematic", "rockclimb", "allnvm")
BASELINE_TECHNIQUES = ("ratchet", "mementos", "alfred")

#: The placer's telemetry counters read around ``synth-cfg`` compiles.
_RCG_COUNTERS = {
    "rcg_plans": "placer.rcg.plans_evaluated",
    "rcg_edges_rejected_eb": "placer.rcg.edges_rejected_eb",
}


def _count(layer: str, args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    """Work counts of one call, read from its arguments and result."""
    if layer == "frontend":
        return {"insts": result.instruction_count()}
    if layer == "analysis.ranges":
        return {"blocks": sum(len(f.blocks) for f in args[0].functions.values())}
    if layer == "core.tracing":
        if isinstance(result, ExecutionReport):  # one profiling execution
            return {"insts": result.instructions}
        return {"runs": kwargs["runs"]}  # both callers pass it by keyword
    if layer in ("core.placement", "baselines"):
        return {"compiles": 1, "checkpoints": result.checkpoints_inserted}
    if layer == "core.verify":
        return {"pairs": 1}
    if layer == "staticcheck":
        return {"modules": 1, "error_findings": result.count_at_least(Severity.ERROR)}
    if layer == "emulator":
        return {"runs": 1, "insts": result.instructions}
    if layer == "emulator.diffemu.record":
        return {"tapes": 1}
    if layer == "emulator.diffemu.cell":
        return {"cells": 1, result[1].kind: 1}
    if layer == "runner.cache.get":
        return {"gets": 1, "hits": int(result is not None)}
    if layer == "runner.cache.put":
        return {"puts": 1}
    return {}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (span id, parent id, layer, start s, end s, counts)
        self.spans: List[Tuple[int, int, str, float, float, Dict[str, float]]] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._telemetry_handles: List[telemetry.Telemetry] = []

    # ---------------------------------------------------------- spans

    @contextmanager
    def span(self, layer: str) -> Iterator[Dict[str, float]]:
        """Record one span; the yielded dict collects its work counts."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        counts: Dict[str, float] = {}
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, layer, start, end, counts))

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(layer) as counts:
                result = fn(*args, **kwargs)
                counts.update(_count(layer, args, kwargs, result))
            return result

        return traced

    def _wrap_placer(self, fn: Callable) -> Callable:
        """``synth-cfg``'s SCHEMATIC compile, with telemetry enabled for
        the placer's RCG counters."""
        wrapped = self._wrap("core.placement", fn)

        def traced(*args, **kwargs):
            telemetry.enable()
            try:
                return wrapped(*args, **kwargs)
            finally:
                self._telemetry_handles.append(telemetry.disable())

        return traced

    def _wrap_profiler(self, fn: Callable) -> Callable:
        """Profiling emulates, so telemetry is suspended around it."""
        wrapped = self._wrap("core.tracing", fn)

        def traced(*args, **kwargs):
            handle = telemetry.disable()
            try:
                return wrapped(*args, **kwargs)
            finally:
                if handle is not None:
                    self._telemetry_handles.append(handle)
                    telemetry.enable()

        return traced

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every entry point. Raises when a name is missing: a renamed
        entry point must not silently drop a layer from the trace."""
        from repro import baselines

        missing = [
            f"repro.baselines.COMPILERS[{t!r}]"
            for t in (*PLACER_TECHNIQUES, *BASELINE_TECHNIQUES)
            if t not in baselines.COMPILERS
        ]
        targets = []
        for module_name, path, layer in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            if not hasattr(owner, attr):
                missing.append(f"{module_name}.{path}")
            else:
                targets.append((owner, attr, layer))
        if missing:
            raise RuntimeError(
                "traced run: entry points not found: " + ", ".join(missing)
            )
        for owner, attr, layer in targets:
            original = getattr(owner, attr)
            if owner is baselines and attr == "compile_schematic":
                wrapper = self._wrap_placer(original)
            elif layer == "core.tracing" and attr == "collect_profile":
                wrapper = self._wrap_profiler(original)
            else:
                wrapper = self._wrap(layer, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        for technique, original in list(baselines.COMPILERS.items()):
            layer = (
                "core.placement" if technique in PLACER_TECHNIQUES
                else "baselines"
            )
            self._patches.append((baselines.COMPILERS, technique, original))
            baselines.COMPILERS[technique] = self._wrap(layer, original)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- report

    def layer_totals(self) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
        """(self seconds per layer, summed counts per layer)."""
        child_time: Dict[int, float] = {}
        for _id, parent, _layer, start, end, _c in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        busy: Dict[str, float] = {}
        counts: Dict[str, Dict[str, float]] = {}
        for span_id, _parent, layer, start, end, span_counts in self.spans:
            busy[layer] = busy.get(layer, 0.0) + (end - start) - child_time.get(span_id, 0.0)
            bucket = counts.setdefault(layer, {})
            for key, value in span_counts.items():
                bucket[key] = bucket.get(key, 0) + value
        return busy, counts

    def rcg_counts(self) -> Dict[str, int]:
        return {
            name: sum(h.counter(counter).value for h in self._telemetry_handles)
            for name, counter in _RCG_COUNTERS.items()
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, layer, start, end, counts in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "start_s": start, "dur_s": end - start, "counts": counts,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 where the layer did no work in this workload."""
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    cache_written_mib: float,
    overhead_ratio: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of ``BENCHMARK.json`` (name -> value, unit)."""
    busy, counts = tracer.layer_totals()

    def b(layer: str) -> float:
        return busy.get(layer, 0.0)

    def c(layer: str, key: str) -> float:
        return counts.get(layer, {}).get(key, 0)

    rcg = tracer.rcg_counts()
    placement = b("core.placement")
    cells = c("emulator.diffemu.cell", "cells")
    out: Dict[str, Tuple[float, str]] = {
        "frontend.busy_s": (b("frontend"), "s"),
        "frontend.insts": (c("frontend", "insts"), "count"),
        "analysis.ranges.busy_s": (b("analysis.ranges"), "s"),
        "analysis.ranges.blocks": (c("analysis.ranges", "blocks"), "count"),
        "analysis.ranges.us_per_block": (
            1e6 * _ratio(b("analysis.ranges"), c("analysis.ranges", "blocks")), "us"),
        "core.tracing.busy_s": (b("core.tracing"), "s"),
        "core.tracing.runs": (c("core.tracing", "runs"), "count"),
        "core.tracing.insts": (c("core.tracing", "insts"), "count"),
        "core.tracing.minst_per_s": (
            1e-6 * _ratio(c("core.tracing", "insts"), b("core.tracing")), "M/s"),
        "core.placement.busy_s": (placement, "s"),
        "core.placement.checkpoints": (c("core.placement", "checkpoints"), "count"),
        "core.placement.rcg_plans": (rcg["rcg_plans"], "count"),
        "core.placement.rcg_edges_rejected_eb": (rcg["rcg_edges_rejected_eb"], "count"),
        "core.placement.us_per_plan": (1e6 * _ratio(placement, rcg["rcg_plans"]), "us"),
        "baselines.busy_s": (b("baselines"), "s"),
        "baselines.compiles": (c("baselines", "compiles"), "count"),
        "core.verify.busy_s": (b("core.verify"), "s"),
        "core.verify.pairs": (c("core.verify", "pairs"), "count"),
        "core.verify.ms_per_pair": (
            1e3 * _ratio(b("core.verify"), c("core.verify", "pairs")), "ms"),
        "staticcheck.busy_s": (b("staticcheck"), "s"),
        "staticcheck.modules": (c("staticcheck", "modules"), "count"),
        "staticcheck.error_findings": (c("staticcheck", "error_findings"), "count"),
        "emulator.busy_s": (b("emulator"), "s"),
        "emulator.runs": (c("emulator", "runs"), "count"),
        "emulator.insts": (c("emulator", "insts"), "count"),
        "emulator.minst_per_s": (
            1e-6 * _ratio(c("emulator", "insts"), b("emulator")), "M/s"),
        "emulator.diffemu.record_s": (b("emulator.diffemu.record"), "s"),
        "emulator.diffemu.tapes": (c("emulator.diffemu.record", "tapes"), "count"),
        "emulator.diffemu.cell_s": (b("emulator.diffemu.cell"), "s"),
        "emulator.diffemu.synthesized": (c("emulator.diffemu.cell", "synthesize"), "count"),
        "emulator.diffemu.forked": (c("emulator.diffemu.cell", "fork"), "count"),
        "emulator.diffemu.cold": (c("emulator.diffemu.cell", "cold"), "count"),
        "emulator.diffemu.useful_ratio": (
            _ratio(cells - c("emulator.diffemu.cell", "cold"), cells), "1"),
        "runner.cache.get_s": (b("runner.cache.get"), "s"),
        "runner.cache.gets": (c("runner.cache.get", "gets"), "count"),
        "runner.cache.hit_ratio": (
            _ratio(c("runner.cache.get", "hits"), c("runner.cache.get", "gets")), "1"),
        "runner.cache.put_s": (b("runner.cache.put"), "s"),
        "runner.cache.puts": (c("runner.cache.put", "puts"), "count"),
        "runner.cache.written_mib": (cache_written_mib, "MiB"),
        "experiments.self_s": (b("experiments"), "s"),
        "bench.self_s": (b("bench"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.spanned_ratio": (_ratio(sum(busy.values()), traced_wall_s), "1"),
    }
    return out

