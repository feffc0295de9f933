"""The benchmark's three workloads.

Each workload exposes the same small surface to the runner:

- ``build()``: the repeatable part of the set-up (building the inputs);
  the runner times it three times and keeps the median;
- ``prepare()``: one-time set-up that a repeat would find warm (the
  ``eval-warm`` cache fill);
- ``start_pass()``: fresh per-pass state, and the pass's ops as
  ``(label, fn)`` pairs;
- ``check(label, value)``: the correctness oracle of one op's result,
  ``None`` when it holds, else the reason (run off the clock);
  ``record_raise(label, reason)`` is told about an op that raised;
- ``end_pass()`` and ``finish()``: accounting; ``finish`` returns the
  workload's own metrics and the run digest.

Every pass starts from empty process-global memos (the compiled-loop
chunk and runner caches, the translation-validation memo), so that each
pass does the same work as the first pass of a fresh process; only the
kernels built during set-up are kept.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import baselines, frontend, programs
from repro.baselines import COMPILERS
from repro.core import verify
from repro.core.placement import SchematicConfig
from repro.emulator import compiled as compiled_loop
from repro.emulator import run_continuous, run_intermittent
from repro.emulator.diffemu import PowerSpec
from repro.energy import msp430fr5969_platform
from repro.experiments.common import TBPF_VALUES, EvaluationContext
from repro.ir.printer import print_module
from repro.programs import get_benchmark
from repro.runner.cache import ArtifactCache
from repro.staticcheck import __main__ as staticcheck_cli
from repro.staticcheck import checker
from repro.staticcheck.findings import Severity

import synth

MIB = 1 << 20

Op = Tuple[str, Callable[[], object]]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def clear_process_memos() -> None:
    """Empty the process-global memos a fresh process starts without."""
    compiled_loop._CHUNK_CACHE.clear()
    compiled_loop._RUNNER_CACHE.clear()
    verify.reset_transval_stats()  # also clears the transval memo


class Workload:
    """Defaults for the optional hooks."""

    def prepare(self) -> None:
        pass

    def end_pass(self) -> None:
        pass


# ---------------------------------------------------------------- synth-cfg

#: Programs generated per run; ops walk the pool in order. A run of the
#: default length compiles about 50, so nearly every op is a distinct
#: program. A smaller pool gives each program several timings, and its
#: best one (see ``Phase.op_latencies``), but the seeds' median programs
#: differ more: a pool of 16 (four passes a run) spread 0.20 on op_p50_ms
#: over five seeds.
POOL = 64
#: The digest covers the first programs of the pool, which every run of
#: a few seconds compiles; how many more a run compiles depends on speed.
DIGEST_PROGRAMS = 8
#: The compile EB is the program's average power times this many cycles
#: (the paper's middle TBPF). At 5000 cycles, 1 in 60 programs of a larger
#: (40-construct) generator had no feasible placement; at 10000, none.
WINDOW_CYCLES = 10_000
#: The static checker's rule policy for SCHEMATIC, taken from the
#: ``repro.staticcheck`` CLI (docs/static-analysis.md): for wait-mode
#: techniques the replay rules are informational, because in-contract
#: replays never happen; the restore rules CONS003/CONS004 keep their
#: severity.
WAIT_MODE_RULES = staticcheck_cli._configure("schematic", [], consistency=True)


class SynthCfg(Workload):
    """Compiler-bound: MiniC source -> placed, certified, validated."""

    name = "synth-cfg"
    root_layer = "bench"
    whole_passes = False

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.platform = msp430fr5969_platform()
        self.programs: List[synth.SynthProgram] = []
        self.modules = []
        self._targets: Dict[str, tuple] = {}
        self._placed: Dict[str, str] = {}

    def build(self) -> None:
        """The programs, and the reference outputs and compile EB of each."""
        clear_process_memos()  # each repeat runs as cold as the first
        self.programs = [synth.generate(self.seed, i) for i in range(POOL)]
        self.modules = [
            frontend.compile_source(p.source, p.name) for p in self.programs
        ]
        for program, module in zip(self.programs, self.modules):
            ref = run_continuous(
                module, self.platform.model, inputs=program.inputs(0)
            )
            eb = ref.energy.total / max(ref.active_cycles, 1) * WINDOW_CYCLES
            self._targets[program.name] = (self.platform.with_eb(eb), ref.outputs)

    def start_pass(self) -> List[Op]:
        clear_process_memos()
        return [(p.name, partial(self._op, p)) for p in self.programs]

    def _op(self, program: synth.SynthProgram):
        platform, _ = self._targets[program.name]
        module = frontend.compile_source(program.source, program.name)
        compiled = baselines.compile_schematic(
            module, platform,
            input_generator=lambda run: program.inputs(run + 1),
            config=SchematicConfig(profile_runs=1),
        )
        report = checker.check_compiled(
            compiled, platform, WAIT_MODE_RULES, consistency=True
        )
        verdict = verify.validate_placement(module, compiled.module)
        return program, compiled, report, verdict

    def check(self, label: str, value) -> Optional[str]:
        program, compiled, report, verdict = value
        # Drop what the previous op and oracle left in the process memos, so
        # memory holds one program's worth however many ops a run completes.
        clear_process_memos()
        placed = _sha(print_module(compiled.module))
        if self._placed.setdefault(label, placed) != placed:
            return "placement differs from an earlier compile of the same program"
        errors = [f for f in report.findings if f.severity >= Severity.ERROR]
        if errors:
            return f"{len(errors)} staticcheck errors, first: {errors[0].render()}"
        if verdict is not True:
            return f"validate_placement returned {verdict!r}"
        platform, expected = self._targets[label]
        run = run_intermittent(
            compiled.module, platform.model, compiled.policy,
            PowerSpec.continuous().build(), vm_size=platform.vm_size,
            inputs=program.inputs(0),
        )
        if not run.completed or run.outputs != expected:
            return "placed program's continuous-power outputs differ"
        return None

    def record_raise(self, label: str, reason: str) -> None:
        self._placed.setdefault(label, reason)

    def finish(self, clock_s: float, passes: int):
        names = [p.name for p in self.programs[:DIGEST_PROGRAMS]]
        return {}, _sha("\n".join(
            f"{name} {self._placed.get(name, 'not compiled')}"
            for name in names
        ))


# ---------------------------------------------------------------- eval grid

#: The ``run_all --quick`` kernels.
KERNELS = ("basicmath", "crc", "fft", "randmath")
WAIT_MODE = ("schematic", "rockclimb", "allnvm")
EB_MULTIPLIERS = (1, 1.25, 1.5, 2, 3, 4, 6, 8)
STOCHASTIC_SEEDS = (0, 1, 2)
#: The ``run_spec`` cells compile at the EB of this TBPF (so they share
#: the ``run_tbpf`` column's placement) and, under stochastic power, draw
#: failures with this mean period in cycles.
SPEC_TBPF = 10_000


def grid_cells() -> List[tuple]:
    """Every cell of one pass: (kind, benchmark, technique, parameter)."""
    cells = []
    for bench in KERNELS:
        for technique in COMPILERS:
            cells += [("tbpf", bench, technique, t) for t in TBPF_VALUES]
        for technique in WAIT_MODE:
            cells += [("budget", bench, technique, m) for m in EB_MULTIPLIERS]
            cells += [("stochastic", bench, technique, s) for s in STOCHASTIC_SEEDS]
    return cells


def cell_label(cell: tuple) -> str:
    kind, bench, technique, param = cell
    return f"{bench}/{technique}/{kind}={param}"


def run_cell(ctx: EvaluationContext, cell: tuple):
    """One grid cell through the public ``EvaluationContext`` API, plus
    its placement (for the digest)."""
    kind, bench, technique, param = cell
    if kind == "tbpf":
        outcome = ctx.run_tbpf(technique, bench, param)
    else:
        eb = ctx.eb_for_tbpf(bench, SPEC_TBPF)
        if kind == "budget":
            spec = PowerSpec.energy_budget(eb * param)
        else:
            spec = PowerSpec.stochastic(mean_cycles=SPEC_TBPF, seed=param, eb=eb)
        outcome = ctx.run_spec(technique, bench, eb, spec)
    return outcome, ctx.compile(technique, bench, outcome.eb)


class _EvalGrid(Workload):
    """Shared machinery of the two grid workloads."""

    root_layer = "experiments"
    whole_passes = True

    def __init__(self, seed: int, tmp: Path) -> None:
        self.tmp = tmp
        # The grid has no random inputs; the seed orders its cells. Each
        # order does the same work per pass, but which cell of a column
        # pays for its first touch (profile, compile, tape, fingerprints)
        # differs. Ten shuffled orders gave a narrower op_p50_ms spread
        # than ten runs of one fixed order (eval-cold 0.07 against 0.25,
        # at equal ops_per_s spread), whose median fell where neighbouring
        # cells' latencies jump.
        self.cells = grid_cells()
        random.Random(f"{self.name}/{seed}").shuffle(self.cells)
        self.labels = {cell_label(c): c for c in self.cells}
        #: label -> outcome hash (or the exception) of the reference pass.
        self.reference: Dict[str, str] = {}
        #: label -> printed-placement hash, from the first pass.
        self.placements: Dict[str, str] = {}
        self.insts = 0
        self.written_bytes = 0

    def build(self) -> None:
        """The kernels, built from source into the benchmark registry."""
        programs._CACHE.clear()
        for name in KERNELS:
            get_benchmark(name).module  # noqa: B018 - compiles the source

    def _context(self, cache: ArtifactCache) -> EvaluationContext:
        return EvaluationContext(benchmarks=list(KERNELS), cache=cache)

    def ops(self, ctx: EvaluationContext) -> List[Op]:
        return [(cell_label(c), partial(run_cell, ctx, c)) for c in self.cells]

    @staticmethod
    def outcome_key(value) -> str:
        return _sha(repr(value[0]))

    def check(self, label: str, value) -> Optional[str]:
        outcome, compiled = value
        if outcome.report is not None:
            self.insts += outcome.report.instructions
        if label not in self.placements:
            self.placements[label] = _sha(print_module(compiled.module))
        return self._check_outcome(label, outcome, self.outcome_key(value))

    def record_raise(self, label: str, reason: str) -> None:
        self.placements.setdefault(label, reason)
        self.reference.setdefault(label, reason)

    def _digest(self) -> str:
        return _sha("\n".join(
            f"{label} {self.reference.get(label)} {self.placements.get(label)}"
            for label in sorted(self.labels)
        ))


class EvalCold(_EvalGrid):
    """Emulator-bound: the grid over an empty artifact cache."""

    name = "eval-cold"

    def start_pass(self) -> List[Op]:
        clear_process_memos()
        self.pass_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        self.cache = ArtifactCache(self.pass_dir)
        return self.ops(self._context(self.cache))

    def _check_outcome(self, label, outcome, key) -> Optional[str]:
        kind, _bench, technique, _param = self.labels[label]
        must_succeed = kind == "budget" or (kind == "tbpf" and technique in WAIT_MODE)
        if must_succeed and not outcome.succeeded:
            return "wait-mode cell with budget >= compile EB did not succeed"
        if self.reference.setdefault(label, key) != key:
            return "outcome differs from the first pass"
        return None

    def end_pass(self) -> None:
        self.written_bytes += self.cache.size_bytes()
        shutil.rmtree(self.pass_dir, ignore_errors=True)

    def finish(self, clock_s: float, passes: int):
        return {
            "sim_minst_per_s": (1e-6 * self.insts / clock_s, "M/s"),
            "cache_written_mib": (self.written_bytes / passes / MIB, "MiB"),
        }, self._digest()


class EvalWarm(_EvalGrid):
    """Cache-read-bound: the grid again, over the cache a cold pass filled."""

    name = "eval-warm"

    def prepare(self) -> None:
        """Fill the cache with one cold pass; its outcomes are the
        reference every warm outcome must equal."""
        clear_process_memos()
        self.cache_dir = self.tmp / "filled"
        ctx = self._context(ArtifactCache(self.cache_dir))
        for label, fn in self.ops(ctx):
            try:
                self.reference[label] = self.outcome_key(fn())
            except Exception as exc:  # noqa: BLE001 - recorded, compared later
                self.reference[label] = f"raised {type(exc).__name__}: {exc}"
        self.filled_bytes = ArtifactCache(self.cache_dir).size_bytes()

    def start_pass(self) -> List[Op]:
        clear_process_memos()
        return self.ops(self._context(ArtifactCache(self.cache_dir)))

    def _check_outcome(self, label, outcome, key) -> Optional[str]:
        if self.reference.get(label) != key:
            return "outcome differs from the cold outcome"
        return None

    def record_raise(self, label: str, reason: str) -> None:
        self.placements.setdefault(label, reason)

    def finish(self, clock_s: float, passes: int):
        written = ArtifactCache(self.cache_dir).size_bytes() - self.filled_bytes
        return {
            "sim_minst_per_s": (1e-6 * self.insts / clock_s, "M/s"),
            "cache_written_mib": (written / passes / MIB, "MiB"),
        }, self._digest()


WORKLOADS = {w.name: w for w in (SynthCfg, EvalCold, EvalWarm)}
