"""Benchmark of the SCHEMATIC reproduction: the compiler and the
evaluation grid.

Run from the repository root::

    python3 perfbench/run.py --workload synth-cfg --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see perfbench/README.md). Human-readable lines go to standard
output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when the run completed (failed ops are counted, not fatal) and 2 when
the run was refused.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run artifact caches.
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Where the traced run writes its spans.
OUT_ROOT = ROOT / ".perfbench_out"

#: Each of these makes a different program run (caching off, translation
#: validation off, an injected slowdown), so a run under them is refused.
REFUSED_ENV = ("REPRO_CACHE", "REPRO_TRANSVAL", "REPRO_BENCH_SLOWDOWN")
#: Set-up repetitions; ``setup_s`` keeps the median build.
SETUP_REPEATS = 3
#: ``op_p90_ms`` needs at least ten distinct ops beyond the 90th percentile.
P90_MIN_OPS = 100


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth-cfg", "eval-cold", "eval-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _refusal():
    """Why this environment cannot give a faithful run, or None."""
    for name in REFUSED_ENV:
        if name in os.environ:
            return f"refusing to run: {name} is set"
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"refusing to run: no repro sources under {SRC}"
    return None


class Phase:
    """One timed phase: latencies per op label, failures as (label,
    reason, raised) and on-clock seconds."""

    def __init__(self) -> None:
        self.latencies = {}
        self.failures = []
        self.clock_s = 0.0
        self.passes = 0
        self.ops = 0

    def op_latencies(self):
        """Each distinct op's best latency over the passes, as ``timeit``
        takes the best of its repeats. A shared host's speed drifts by
        ±25% over seconds, so a cell's median follows whichever speed held
        during most of the run, and the run's median cell sits where
        cached cells of different kernels meet: two sets of ten eval-warm
        runs spread 0.22 and 0.28 of their median. Host load only adds
        time, so the best of a cell's passes is its cost on a quiet host;
        ten eval-warm runs of that spread 0.06. synth-cfg compiles most
        programs once, so most of its ops have one timing."""
        return [min(v) for v in self.latencies.values()]


def _untraced_guard() -> None:
    from repro import telemetry
    from repro.telemetry import metrics

    if telemetry.get() is not None or metrics.get() is not None:
        raise SystemExit(
            "refusing to run: telemetry or the metrics registry is enabled"
        )


def _call(fn, tracer, layer: str):
    """``fn()``, under a root span of ``layer`` when tracing."""
    if tracer is None:
        return fn()
    with tracer.span(layer):
        return fn()


def timed_phase(workload, seconds: float, tracer=None) -> Phase:
    """Run passes of the workload's ops until ``seconds`` of op time have
    elapsed: whole passes for the grid workloads (a partial pass would
    change the op mix), single ops for ``synth-cfg``. Each op's result is
    checked as soon as it returns, off the clock, and then released, so
    memory does not grow with the number of ops a run completes."""
    phase = Phase()
    while phase.clock_s < seconds:
        if tracer is None:
            _untraced_guard()
        phase.passes += 1
        for label, fn in workload.start_pass():
            start = time.perf_counter()
            try:
                value = _call(fn, tracer, workload.root_layer)
                raised = False
            except Exception as exc:  # noqa: BLE001 - a failed op, counted
                value = f"raised {type(exc).__name__}: {exc}"
                raised = True
            elapsed = time.perf_counter() - start
            phase.latencies.setdefault(label, []).append(elapsed)
            phase.ops += 1
            phase.clock_s += elapsed
            if raised:
                workload.record_raise(label, value)
                phase.failures.append((label, value, True))
            else:
                reason = workload.check(label, value)
                if reason is not None:
                    phase.failures.append((label, reason, False))
            if not workload.whole_passes and phase.clock_s >= seconds:
                break
        workload.end_pass()
    return phase


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run(args, tmp: Path):
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402 - needs SRC on the path
    from layers import Tracer, layer_metrics  # noqa: E402

    tracer = Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    import_s = time.perf_counter() - START
    setup_wall = time.perf_counter()
    if tracer is not None:
        tracer.install()
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _call(workload.build, tracer, "bench")
        builds.append(time.perf_counter() - start)
    start = time.perf_counter()
    _call(workload.prepare, tracer, "bench")
    setup_s = import_s + statistics.median(builds) + time.perf_counter() - start
    setup_wall = time.perf_counter() - setup_wall
    if tracer is not None:
        tracer.uninstall()

    phase = timed_phase(workload, args.seconds)
    phases = [phase]
    if tracer is not None:
        tracer.install()
        phases.append(timed_phase(workload, args.seconds, tracer))
        tracer.uninstall()
    extra, digest = workload.finish(
        sum(p.clock_s for p in phases), sum(p.passes for p in phases)
    )
    failures = [f for p in phases for f in p.failures]
    attempted = sum(p.ops for p in phases)
    per_op = phase.op_latencies()
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops / phase.clock_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
    }
    report = dict(end_to_end)
    if len(per_op) >= P90_MIN_OPS:
        report["op_p90_ms"] = (1e3 * _percentile(per_op, 0.9), "ms")
    report.update(extra)
    report["error_ratio"] = (len(failures) / attempted, "1")
    metrics = end_to_end
    if tracer is not None:
        traced = phases[1]
        metrics = layer_metrics(
            tracer,
            traced_wall_s=setup_wall + traced.clock_s,
            cache_written_mib=extra.get("cache_written_mib", (0.0, "MiB"))[0],
            overhead_ratio=(traced.clock_s / traced.ops)
            / (phase.clock_s / phase.ops),
        )
        tracer.write(OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    print(f"workload {args.workload} seed {args.seed}: {phase.ops} ops in "
          f"{phase.passes} passes, {phase.clock_s:.2f} s on the clock")
    for name, (value, unit) in report.items():
        print(f"  {name:<18} {value:12.4f} {unit}")
    for label, reason, _raised in sorted(set(failures)):
        print(f"  failed-op {label}: {reason}")
    print(f"digest {digest}")
    if tracer is not None:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<38} {value:14.4f} {unit}")
    return {
        # An op that raised is a failed op; a wrong output is also incorrect.
        "correct": all(raised for _label, _reason, raised in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    problem = _refusal()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    # A run stopped with SIGTERM still deletes its scratch cache.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
