"""Timing harness for the evaluation engine: cold vs warm vs parallel.

Produces ``BENCH_pr8.json`` with wall-clock timings for

- a **cold** serial evaluation (empty artifact cache),
- a **warm** serial re-run (same cache; everything is a disk hit),
- a **parallel** cold evaluation (``engine.prefill`` with N workers,
  empty cache),
- the **differential-emulation grid**: each wait-mode technique column
  compiled once and swept across capacitor sizes, recharge periods and
  stochastic power traces — cold emulation of every cell vs one snapshot
  tape per column plus synthesized/forked cells
  (:mod:`repro.emulator.diffemu`),
- the interpreter **loop micro-benchmark**: the aes continuous reference
  under the compiled (threaded-code/superinstruction) loop vs the
  per-step pre-decoded reference loop, asserting the two reports are
  byte-identical,

asserting along the way that all evaluation paths produce byte-identical
output. Run from the repository root::

    python tools/bench_engine.py [--benchmarks crc,randmath]
                                 [--jobs auto] [--out BENCH_pr8.json]
                                 [--min-compiled-speedup 2.0]
                                 [--micro-only] [--micro-repeats N]

The output document carries ``bench_schema`` (see
:mod:`repro.telemetry.regress`); ``python -m repro.telemetry regress``
compares a fresh run against a committed baseline with noise-aware
thresholds. ``--micro-only`` runs just the interpreter micro-benchmark —
the gate compares whichever timing paths both documents carry. The
``REPRO_BENCH_SLOWDOWN`` environment variable (seconds) injects sleep
into every timed region, for exercising the gate in tests.

The evaluation workload is the forward-progress table plus the ablation
grid over the selected benchmarks — the same cells `run_all` spends most
of its time on, scaled down so the harness finishes in minutes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform as platform_mod
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.emulator.diffemu import PowerSpec, record_tape, run_cell  # noqa: E402
from repro.emulator.interpreter import run_continuous, run_intermittent  # noqa: E402
from repro.energy import msp430fr5969_platform  # noqa: E402
from repro.experiments import ablations, engine, table3_forward_progress  # noqa: E402
from repro.experiments.common import EvaluationContext  # noqa: E402
from repro.programs import get_benchmark  # noqa: E402
from repro.runner.cache import ArtifactCache  # noqa: E402
from repro.runner.pool import available_cpus, resolve_jobs  # noqa: E402
from repro.telemetry.regress import BENCH_SCHEMA  # noqa: E402


def _injected_slowdown() -> float:
    """Test hook: ``REPRO_BENCH_SLOWDOWN`` (seconds, float) sleeps inside
    every timed region so the ``telemetry regress`` gate can be exercised
    against a synthetically slowed run without slow hardware."""
    try:
        return float(os.environ.get("REPRO_BENCH_SLOWDOWN", "") or 0.0)
    except ValueError:
        return 0.0


def _render_workload(ctx: EvaluationContext) -> str:
    out = io.StringIO()
    out.write(table3_forward_progress.run(ctx).render())
    out.write("\n")
    out.write(ablations.run(ctx).render())
    return out.getvalue()


def _evaluate(benchmarks, cache_root, jobs: int):
    cache = ArtifactCache(cache_root) if cache_root else None
    ctx = EvaluationContext(benchmarks=benchmarks, cache=cache)
    start = time.perf_counter()
    if _injected_slowdown():
        time.sleep(_injected_slowdown())
    if jobs > 1:
        engine.prefill(ctx, jobs, figure8_benchmark=benchmarks[0])
    text = _render_workload(ctx)
    return time.perf_counter() - start, text


# --- differential-emulation grid -------------------------------------------
#
# The workload diff emulation targets: one compiled placement (a *column*)
# evaluated under many power configurations. Wait-mode techniques are the
# paper's design space (SCHEMATIC, ROCKCLIMB, All-NVM); each column is
# compiled once at the EB-for-TBPF budget and swept across capacitor
# headroom multipliers (a Figure-8-style sizing sweep), slower recharge
# periods and seeded stochastic traces. Roll-back baselines gain nothing
# here (their first failure lands near the start, so the replayed suffix
# is the whole run) and are measured by the main workload above, where
# the engine routes them through the same API at cost parity.

DIFFEMU_TECHNIQUES = ("schematic", "rockclimb", "allnvm")
DIFFEMU_COLUMN_TBPF = 10_000
EB_MULTIPLIERS = (0.6, 0.8, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
PERIODIC_TBPF = (20_000, 50_000, 100_000)
STOCHASTIC_MEAN = 30_000.0
STOCHASTIC_SEEDS = (0, 1, 2, 3)


def _diffemu_specs(eb: float):
    specs = [PowerSpec.energy_budget(eb * m) for m in EB_MULTIPLIERS]
    specs += [PowerSpec.periodic(tbpf=t, eb=eb) for t in PERIODIC_TBPF]
    specs += [
        PowerSpec.stochastic(mean_cycles=STOCHASTIC_MEAN, seed=s, eb=eb)
        for s in STOCHASTIC_SEEDS
    ]
    return specs


def _bench_diffemu(benchmarks):
    """Cold-emulate the grid, then diff-emulate it, asserting every cell's
    report is byte-identical. Returns the timing/plan summary."""
    ctx = EvaluationContext(benchmarks=benchmarks)
    columns = []
    for name in ctx.benchmark_names:
        bench = ctx.benchmark(name)
        eb = ctx.eb_for_tbpf(name, DIFFEMU_COLUMN_TBPF)
        platform = ctx.platform_proto.with_eb(eb)
        for technique in DIFFEMU_TECHNIQUES:
            compiled = ctx.compile(technique, name, eb)
            if compiled.feasible:
                columns.append((name, technique, eb, bench, platform,
                                compiled))

    start = time.perf_counter()
    cold_reports = {}
    for name, technique, eb, bench, platform, compiled in columns:
        for i, spec in enumerate(_diffemu_specs(eb)):
            cold_reports[(name, technique, i)] = run_intermittent(
                compiled.module, platform.model, compiled.policy,
                spec.build(), vm_size=platform.vm_size,
                inputs=bench.default_inputs(),
            )
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    kinds = {}
    for name, technique, eb, bench, platform, compiled in columns:
        tape = record_tape(
            compiled.module, platform.model, compiled.policy,
            vm_size=platform.vm_size, inputs=bench.default_inputs(),
        )
        for i, spec in enumerate(_diffemu_specs(eb)):
            report, plan = run_cell(
                compiled.module, platform.model, compiled.policy, spec,
                tape, vm_size=platform.vm_size,
                inputs=bench.default_inputs(),
            )
            kinds[plan.kind] = kinds.get(plan.kind, 0) + 1
            assert repr(report) == repr(cold_reports[(name, technique, i)]), (
                f"diffemu diverged from cold: {name}/{technique} "
                f"{spec.describe()}"
            )
    diff_s = time.perf_counter() - start
    return {
        "columns": len(columns),
        "cells": len(cold_reports),
        "techniques": list(DIFFEMU_TECHNIQUES),
        "column_tbpf": DIFFEMU_COLUMN_TBPF,
        "eb_multipliers": list(EB_MULTIPLIERS),
        "periodic_tbpf": list(PERIODIC_TBPF),
        "stochastic": {
            "mean_cycles": STOCHASTIC_MEAN, "seeds": list(STOCHASTIC_SEEDS),
        },
        "cold_grid_seconds": round(cold_s, 3),
        "diff_grid_seconds": round(diff_s, 3),
        "speedup": round(cold_s / diff_s, 2) if diff_s else None,
        "plans": kinds,
        "reports_byte_identical": True,
    }


def _bench_interpreter(benchmark: str, repeats: int = 3):
    """Time the two interpreter loops on one continuous reference run
    and assert their reports are byte-identical (the compiled loop's
    contract)."""
    import dataclasses

    bench = get_benchmark(benchmark)
    model = msp430fr5969_platform().model
    inputs = bench.default_inputs()
    loops = (("compiled", True), ("predecoded", False))
    timings = {}
    reports = {}
    for label, compiled in loops:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            if _injected_slowdown():
                time.sleep(_injected_slowdown())
            report = run_continuous(
                bench.module, model, inputs=inputs, compiled=compiled
            )
            best = min(best, time.perf_counter() - start)
            assert report.completed
        timings[label] = best
        reports[label] = dataclasses.asdict(report)
    assert reports["compiled"] == reports["predecoded"], (
        f"interpreter loops diverged on {benchmark}"
    )
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", default="crc,randmath",
                        help="comma-separated evaluation subset")
    parser.add_argument("--jobs", default="auto", metavar="N|auto")
    parser.add_argument("--micro-benchmark", default="aes",
                        help="benchmark for the interpreter micro-benchmark")
    parser.add_argument("--micro-only", action="store_true",
                        help="run only the interpreter loop "
                             "micro-benchmark (fast; the telemetry "
                             "regress gate compares whichever timings "
                             "both documents carry)")
    parser.add_argument("--micro-repeats", type=int, default=3,
                        metavar="N",
                        help="best-of-N for the interpreter loops")
    parser.add_argument("--min-compiled-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the compiled loop beats the "
                             "pre-decoded loop by at least this factor "
                             "(CI regression gate)")
    parser.add_argument("--out", default="BENCH_pr8.json")
    args = parser.parse_args(argv)
    benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    jobs = max(2, resolve_jobs(args.jobs))

    if args.micro_only:
        print(f"interpreter micro-benchmark ({args.micro_benchmark}) ...",
              file=sys.stderr)
        micro = _bench_interpreter(
            args.micro_benchmark, repeats=args.micro_repeats
        )
        result = {
            "bench_schema": BENCH_SCHEMA,
            "machine": _machine(),
            "workload": {"benchmarks": [], "sections": []},
            "interpreter_loops": _micro_section(args.micro_benchmark, micro),
            "outputs_byte_identical": True,
        }
        return _finish(result, args)

    cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        print(f"cold serial evaluation of {benchmarks} ...", file=sys.stderr)
        cold_s, cold_text = _evaluate(benchmarks, cache_root, jobs=1)
        print(f"  {cold_s:.2f}s", file=sys.stderr)

        print("warm serial re-run (same cache) ...", file=sys.stderr)
        warm_s, warm_text = _evaluate(benchmarks, cache_root, jobs=1)
        print(f"  {warm_s:.2f}s", file=sys.stderr)
        assert warm_text == cold_text, "warm render diverged from cold"

        shutil.rmtree(cache_root)
        print(f"parallel cold evaluation (jobs={jobs}) ...", file=sys.stderr)
        par_s, par_text = _evaluate(benchmarks, cache_root, jobs=jobs)
        print(f"  {par_s:.2f}s", file=sys.stderr)
        assert par_text == cold_text, "parallel render diverged from serial"

        print("differential-emulation grid (cold vs diff) ...",
              file=sys.stderr)
        diffemu = _bench_diffemu(benchmarks)
        print(
            f"  cold {diffemu['cold_grid_seconds']:.2f}s, "
            f"diff {diffemu['diff_grid_seconds']:.2f}s "
            f"({diffemu['speedup']}x, {diffemu['cells']} cells)",
            file=sys.stderr,
        )

        print(f"interpreter micro-benchmark ({args.micro_benchmark}) ...",
              file=sys.stderr)
        micro = _bench_interpreter(
            args.micro_benchmark, repeats=args.micro_repeats
        )
        print(f"  compiled {micro['compiled']:.3f}s, "
              f"predecoded {micro['predecoded']:.3f}s", file=sys.stderr)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    result = {
        "bench_schema": BENCH_SCHEMA,
        "machine": _machine(),
        "workload": {
            "benchmarks": benchmarks,
            "sections": ["table3_forward_progress", "ablations"],
        },
        "evaluation_seconds": {
            "cold_serial": round(cold_s, 3),
            "warm_serial": round(warm_s, 3),
            "parallel_cold": round(par_s, 3),
            "parallel_jobs": jobs,
        },
        "speedups": {
            "warm_vs_cold": round(cold_s / warm_s, 2) if warm_s else None,
            "parallel_vs_serial": round(cold_s / par_s, 2) if par_s else None,
        },
        "diff_emulation": diffemu,
        "interpreter_loops": _micro_section(args.micro_benchmark, micro),
        "outputs_byte_identical": True,
    }
    if available_cpus() < jobs:
        result["note"] = (
            f"parallel timing ran {jobs} workers on {available_cpus()} "
            "core(s): process fan-out cannot beat serial without real "
            "parallel hardware; the byte-identical assertion is the "
            "meaningful check here (see docs/performance.md)"
        )
    return _finish(result, args)


def _machine():
    return {
        "cpu_count": available_cpus(),
        "python": platform_mod.python_version(),
        "platform": platform_mod.platform(),
    }


def _micro_section(benchmark: str, micro):
    return {
        "benchmark": benchmark,
        "compiled_seconds": round(micro["compiled"], 4),
        "predecoded_seconds": round(micro["predecoded"], 4),
        "compiled_vs_predecoded": round(
            micro["predecoded"] / micro["compiled"], 3
        ),
    }


def _finish(result, args) -> int:
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    compiled_speedup = result["interpreter_loops"]["compiled_vs_predecoded"]
    if (
        args.min_compiled_speedup is not None
        and compiled_speedup < args.min_compiled_speedup
    ):
        print(
            f"FAIL: compiled loop speedup {compiled_speedup}x is below "
            f"the required {args.min_compiled_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
