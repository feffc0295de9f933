"""The compiled (threaded-code) interpreter loop must be bit-identical
to the per-step pre-decoded loop, the reference implementation.

``Interpreter._execute_compiled`` runs whole straight-line segments as
fused closures with one batched power/meter transaction per segment
(:mod:`repro.emulator.compiled`). These tests pin the equivalence
contract down from every angle the batching could break:

- report identity across corpus x techniques x power modes, including
  failure placement (``failure_offsets``) and the Fig. 6/7 energy split;
- loop selection: tracing, recording power managers and telemetry run
  on the compiled loop with streams identical to the reference loop's —
  block traces, ``Profile``s and telemetry events included; only a
  ``step_hook`` (or ``compiled=False``) selects the per-step loop;
- crash identity: division by zero, reads of uninitialized registers and
  instruction-budget exhaustion must surface at the same instruction
  with the same accounting, even when they fire mid-segment;
- snapshot/fork (diffemu) resume on top of the compiled loop;
- the segment-structure invariants the codegen relies on.
"""

import dataclasses

import pytest

from repro.emulator import PowerManager
from repro.core import tracing
from repro.emulator.compiled import FUSE_LIMIT, Segment
from repro.emulator.diffemu import PowerSpec, record_tape, run_cell
from repro.emulator.interpreter import (
    Interpreter,
    InterpreterConfig,
    run_continuous,
    run_intermittent,
)
from repro.emulator.runtime import CheckpointPolicy
from repro.energy import msp430fr5969_platform
from repro.errors import EmulationError
from repro.ir.instructions import Checkpoint, CondCheckpoint
from repro.ir.textparser import parse_ir
from repro.testkit.corpus import CORPUS, compile_for, load_program

PLAT = msp430fr5969_platform(eb=3000.0)

CASES = [
    ("sumloop", "schematic"),
    ("warloop", "ratchet"),
    ("branchy", "mementos"),
    ("calls", "rockclimb"),
]

LOOPS = (
    ("compiled", {"compiled": True}),
    ("predecoded", {"compiled": False}),
)


def _asdict(report):
    return dataclasses.asdict(report)


def _powers(eb=3000.0):
    return {
        "energy": lambda: PowerManager.energy_budget(eb),
        "periodic": lambda: PowerManager.periodic(tbpf=20_000, eb=eb),
        "scheduled": lambda: PowerManager.scheduled(
            (500, 1_500, 4_000), eb=eb
        ),
        "stochastic": lambda: PowerManager.stochastic(
            mean_cycles=5_000, seed=3, eb=eb
        ),
    }


@pytest.mark.parametrize("program", ["sumloop", "warloop", "branchy", "calls"])
def test_continuous_tri_loop_identity(program):
    bench = load_program(program)
    reports = {
        name: run_continuous(
            bench.module, PLAT.model, inputs=bench.default_inputs(), **kw
        )
        for name, kw in LOOPS
    }
    assert _asdict(reports["compiled"]) == _asdict(reports["predecoded"])


@pytest.mark.parametrize("program,technique", CASES)
@pytest.mark.parametrize("mode", ["energy", "periodic", "scheduled",
                                  "stochastic"])
def test_intermittent_tri_loop_identity(program, technique, mode):
    """Corpus x technique x power mode: both loops must agree on the
    full report — outputs, energy categories, cycle counts, the number of
    power failures AND where on the timeline each one landed."""
    bench = load_program(program)
    comp = compile_for(
        technique, bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible
    reports = {}
    for name, kw in LOOPS:
        reports[name] = run_intermittent(
            comp.module, PLAT.model, comp.policy, _powers()[mode](),
            vm_size=PLAT.vm_size, inputs=bench.default_inputs(), **kw
        )
    assert _asdict(reports["compiled"]) == _asdict(reports["predecoded"])


def test_mid_segment_failure_placement():
    """Scheduled failures at consecutive offsets force failure points
    into the interior of fused segments; the compiled loop must place
    every failure (and the resulting rollback/restore accounting) at the
    exact per-step boundary."""
    bench = load_program("warloop")
    comp = compile_for(
        "ratchet", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible
    for offset in range(200, 260, 7):
        reports = [
            run_intermittent(
                comp.module, PLAT.model, comp.policy,
                PowerManager.scheduled((offset, offset + 3), eb=3000.0),
                vm_size=PLAT.vm_size, inputs=bench.default_inputs(), **kw
            )
            for _, kw in LOOPS
        ]
        assert _asdict(reports[0]) == _asdict(reports[1]), (
            f"failure placement diverged at offset {offset}"
        )


def _interp(module, inputs=None, **config):
    return Interpreter(
        module, PLAT.model,
        CheckpointPolicy.rollback_mode("continuous"),
        PowerManager.continuous(),
        InterpreterConfig(inputs=dict(inputs or {}), **config),
    )


def test_loop_selection_and_fallbacks():
    """Every observer but a step_hook runs on the compiled loop; a
    step_hook or ``compiled=False`` selects the per-step pre-decoded
    loop."""
    from repro import telemetry

    bench = load_program("sumloop")
    module, inputs = bench.module, bench.default_inputs()

    interp = _interp(module, inputs)
    interp.run()
    assert interp.loop_used == "compiled"

    interp = _interp(module, inputs, compiled=False)
    interp.run()
    assert interp.loop_used == "predecoded"

    hooks = []
    interp = _interp(
        module, inputs, step_hook=lambda label, cyc: hooks.append(label)
    )
    interp.run()
    assert interp.loop_used == "predecoded"
    assert hooks, "the step_hook loop must still deliver the stream"

    blocks = []
    interp = _interp(module, inputs, trace=lambda f, b: blocks.append(b))
    interp.run()
    assert interp.loop_used == "compiled"
    assert blocks

    # A recording power manager enumerates every injectable boundary:
    # peek_block refuses every segment, so the compiled loop steps.
    power = PowerManager.recording()
    interp = Interpreter(
        module, PLAT.model,
        CheckpointPolicy.rollback_mode("continuous"),
        power,
        InterpreterConfig(inputs=dict(inputs)),
    )
    interp.run()
    assert interp.loop_used == "compiled"
    assert len(power.record) == interp.instructions_executed

    telemetry.enable(meta={"tool": "test"})
    try:
        interp = _interp(module, inputs)
        interp.run()
        assert interp.loop_used == "compiled"
    finally:
        telemetry.disable()


def test_step_hook_stream_enumerates_power_boundaries():
    """The step_hook stream announces exactly the steps a recording power
    manager sees on the compiled loop: the n-th hook's pre-step timeline
    is the n-th recorded boundary (what the testkit sweep relies on)."""
    bench = load_program("branchy")
    comp = compile_for(
        "mementos", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible

    def run(**kw):
        power = PowerManager.energy_budget(300.0)
        power.record = []
        interp = Interpreter(
            comp.module, PLAT.model, comp.policy, power,
            InterpreterConfig(
                inputs=bench.default_inputs(), vm_size=PLAT.vm_size, **kw
            ),
        )
        report = interp.run()
        return interp.loop_used, report, power.record

    hooks = []
    hooked_loop, hooked, hooked_record = run(
        step_hook=lambda label, cycles: hooks.append((label, cycles))
    )
    loop, report, record = run()
    assert (hooked_loop, loop) == ("predecoded", "compiled")
    assert report.power_failures > 0
    assert _asdict(report) == _asdict(hooked)
    assert record == hooked_record
    offsets = [0]
    for _label, cycles in hooks[:-1]:
        offsets.append(offsets[-1] + cycles)
    assert offsets == record


def _runtime_events(tm):
    # Runtime events are stamped with the emulated timeline; drop
    # wall-clock span durations before comparing.
    return [
        {k: v for k, v in e.items() if k not in ("dur",)}
        for e in tm.events
        if e.get("kind") == "event"
    ]


def test_telemetry_bypasses_compiled_loop():
    """Enabled telemetry runs on the compiled loop: runtime events fire
    only on cold paths the compiled loop steps through, so a run with
    power failures, restores and reboots records the same event stream
    on both loops."""
    from repro import telemetry

    bench = load_program("calls")
    comp = compile_for(
        "ratchet", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible

    def events(compiled, eb):
        telemetry.enable(meta={"tool": "test"})
        try:
            interp = Interpreter(
                comp.module, PLAT.model, comp.policy,
                PowerManager.energy_budget(eb),
                InterpreterConfig(
                    inputs=bench.default_inputs(), vm_size=PLAT.vm_size,
                    compiled=compiled,
                ),
            )
            report = interp.run()
            assert interp.loop_used == (
                "compiled" if compiled else "predecoded"
            )
            return _asdict(report), _runtime_events(telemetry.get())
        finally:
            telemetry.disable()

    kinds = set()
    for eb in (30.0, 1000.0):
        report, stream = events(True, eb)
        assert report["power_failures"] > 0
        assert (report, stream) == events(False, eb)
        kinds.update(e["name"] for e in stream)
    assert {"power-failure", "reboot", "ckpt-save", "ckpt-restore"} <= kinds


def test_telemetry_streams_unchanged_by_compiled_default():
    """The recorded event stream of a telemetry run must be
    byte-identical whether or not the compiled loop is enabled."""
    from repro import telemetry

    bench = load_program("warloop")

    def events(compiled):
        telemetry.enable(meta={"tool": "test"})
        try:
            interp = _interp(
                bench.module, bench.default_inputs(), compiled=compiled
            )
            interp.run()
            return _runtime_events(telemetry.get())
        finally:
            telemetry.disable()

    assert events(True) == events(False)


def _observed_run(module, inputs, policy, power, compiled):
    """One run under block tracing and telemetry: the (function, block)
    stream, the report and the runtime event stream."""
    from repro import telemetry

    blocks = []
    tm = telemetry.enable(meta={"tool": "test"})
    try:
        interp = Interpreter(
            module, PLAT.model, policy, power,
            InterpreterConfig(
                inputs=dict(inputs), vm_size=PLAT.vm_size, compiled=compiled,
                trace=lambda function, block: blocks.append((function, block)),
            ),
        )
        report = interp.run()
    finally:
        telemetry.disable()
    assert interp.loop_used == ("compiled" if compiled else "predecoded")
    return blocks, _asdict(report), _runtime_events(tm)


@pytest.mark.parametrize("program", sorted(CORPUS))
def test_block_trace_identity_across_corpus(program, monkeypatch):
    """Block tracing on the compiled loop reports every block entry in
    order and exactly once: the (function, block) stream, the profile
    built from it, the report and the telemetry events all equal the
    reference loop's — continuous, and under energy budgets small enough
    to roll back and to reboot (the reboot trace in
    _handle_power_failure)."""
    bench = load_program(program)
    inputs = bench.default_inputs()
    continuous = CheckpointPolicy.rollback_mode("continuous")
    streams = [
        _observed_run(bench.module, inputs, continuous,
                      PowerManager.continuous(), compiled)
        for compiled in (True, False)
    ]
    assert streams[0][0], "a traced run reports at least the entry block"
    assert streams[0] == streams[1]

    profiles = []
    for compiled in (True, False):
        monkeypatch.setattr(
            tracing, "run_continuous",
            lambda *a, _c=compiled, **kw: run_continuous(
                *a, compiled=_c, **kw
            ),
        )
        profiles.append(tracing.collect_profile(
            bench.module, PLAT.model,
            input_generator=bench.input_generator(),
        ))
    assert profiles[0].traces and profiles[0] == profiles[1]

    for technique in ("ratchet", "schematic"):
        comp = compile_for(
            technique, bench.module, PLAT,
            input_generator=bench.input_generator(),
        )
        assert comp.feasible
        for eb in (30.0, 1000.0, 3000.0):
            runs = [
                _observed_run(comp.module, inputs, comp.policy,
                              PowerManager.energy_budget(eb), compiled)
                for compiled in (True, False)
            ]
            assert runs[0] == runs[1], f"{technique} at EB {eb}"
            if technique == "ratchet" and eb == 30.0:
                assert "reboot" in {e["name"] for e in runs[0][2]}


def test_trace_callback_fault_identity():
    """A trace callback that raises leaves the same accounting and frame
    position on both loops — the compiled loop charges the whole segment
    whose control transfer it was reporting."""
    bench = load_program("calls")
    states = {}
    for name, kw in LOOPS:
        for limit in (1, 5, 17, 40):
            calls = []

            def trace(function, block, _calls=calls, _limit=limit):
                _calls.append((function, block))
                if len(_calls) == _limit:
                    raise RuntimeError("trace sink full")

            interp = _interp(
                bench.module, bench.default_inputs(), trace=trace, **kw
            )
            with pytest.raises(RuntimeError, match="trace sink full"):
                interp.run()
            states[name, limit] = (
                calls,
                interp.instructions_executed,
                interp.active_cycles,
                interp.meter.state_dict(),
                interp.power.state_dict(),
                [(f.function.name, f.block, f.index) for f in interp.frames],
            )
    for limit in (1, 5, 17, 40):
        assert states["compiled", limit] == states["predecoded", limit]


DIV_ZERO_IR = """module dz (entry @main)
global @result:u32
global @divisor:u32

func @main() -> void {
.entry:
    %t1:u32 = load.auto @divisor
    %t2:u32 = div 100:i32, %t1:u32
    store.auto @result = %t2:u32
    ret
}
"""

UNINIT_IR = """module ur (entry @main)
global @result:u32

func @main() -> void {
.entry:
    %t1:u32 = add 1:i32, 2:i32
    %t2:u32 = add %t9:u32, 1:i32
    store.auto @result = %t2:u32
    ret
}
"""


@pytest.mark.parametrize(
    "text,inputs,match",
    [
        (DIV_ZERO_IR, {"divisor": [0]}, "division by zero"),
        (UNINIT_IR, None, "uninitialized register %t9"),
    ],
    ids=["div-zero", "uninit-register"],
)
def test_crash_identity(text, inputs, match):
    """Faults raised from inside a fused closure must carry the same
    message and leave the same partially-charged accounting as the
    per-step loop (the reconciliation replay)."""
    module = parse_ir(text)
    states = {}
    for name, kw in LOOPS:
        interp = _interp(module, inputs, **kw)
        with pytest.raises(EmulationError, match=match):
            interp.run()
        states[name] = (
            interp.instructions_executed,
            interp.active_cycles,
            interp.meter.state_dict(),
            interp.frames[-1].index if interp.frames else None,
        )
    assert states["compiled"] == states["predecoded"]


def test_max_instructions_exhaustion_identity():
    bench = load_program("sumloop")
    reports = {
        name: run_continuous(
            bench.module, PLAT.model, inputs=bench.default_inputs(),
            max_instructions=137, **kw
        )
        for name, kw in LOOPS
    }
    assert not reports["compiled"].completed
    assert _asdict(reports["compiled"]) == _asdict(reports["predecoded"])


@pytest.mark.parametrize("mode", ["energy", "periodic", "stochastic"])
def test_diffemu_fork_identity_under_compiled(mode):
    """Snapshot/fork resume must compose with the compiled loop: the
    differential cell (recorded and resumed with compiled=True) must
    reproduce the cold pre-decoded run bit-for-bit."""
    bench = load_program("sumloop")
    comp = compile_for(
        "schematic", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible
    inputs = bench.default_inputs()
    specs = {
        "energy": PowerSpec.energy_budget(3000.0),
        "periodic": PowerSpec.periodic(tbpf=20_000, eb=3000.0),
        "stochastic": PowerSpec.stochastic(
            mean_cycles=5_000, seed=3, eb=3000.0
        ),
    }
    tape = record_tape(
        comp.module, PLAT.model, comp.policy,
        vm_size=PLAT.vm_size, inputs=inputs, compiled=True,
    )
    paired, _plan = run_cell(
        comp.module, PLAT.model, comp.policy, specs[mode], tape,
        vm_size=PLAT.vm_size, inputs=inputs, compiled=True,
    )
    cold = run_intermittent(
        comp.module, PLAT.model, comp.policy, _powers()[mode](),
        vm_size=PLAT.vm_size, inputs=inputs,
        compiled=False,
    )
    assert _asdict(paired) == _asdict(cold)


def test_segment_structure_invariants():
    """compile_blocks must cover exactly the non-checkpoint instruction
    runs: segments start where the per-step path hands over, never span
    a checkpoint, respect the fuse limit per chunk, and carry accounting
    streams of the segment's exact length."""
    bench = load_program("sumloop")
    comp = compile_for(
        "schematic", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    interp = _interp(comp.module, bench.default_inputs())
    interp.run()
    assert interp.loop_used == "compiled"
    ccode = interp._ccode
    assert set(ccode) == set(interp._code), "every decoded block compiles"
    for key, seg_map in ccode.items():
        entries = interp._code[key]
        covered = set()
        for start, seg in seg_map.items():
            assert isinstance(seg, Segment)
            assert seg.start == start
            assert seg.n == len(seg.costs) == len(seg.energies)
            assert seg.n == sum(seg.widths)
            assert len(seg.cpu) == seg.n
            assert seg.vm_n == len(seg.vm_e)
            assert seg.nvm_n == len(seg.nvm_e)
            assert seg.cycles == sum(c[0] for c in seg.costs)
            assert all(w <= FUSE_LIMIT for w in seg.widths)
            for index in range(start, start + seg.n):
                handler, _cost, inst, _label = entries[index]
                assert handler is not None, (
                    "a checkpoint may never sit inside a segment"
                )
                assert not isinstance(inst, (Checkpoint, CondCheckpoint))
                covered.add(index)
            if seg.end_index is not None:
                # Straight-line segment: falls through to the next index.
                assert seg.end_index == start + seg.n
        ckpt_indices = {
            i for i, (handler, _c, _i, _l) in enumerate(entries)
            if handler is None
        }
        assert covered.isdisjoint(ckpt_indices)
        # Segment starts + checkpoints must cover index 0 so a block
        # entered at its head always makes progress.
        assert 0 in covered or 0 in ckpt_indices or not entries


def test_compiled_flag_defaults_on():
    assert InterpreterConfig().compiled is True
