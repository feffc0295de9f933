"""The compiled interpreter loop must be bit-identical to the per-step
pre-decoded loop, and decoding must cover every block.

``Interpreter._decode_module`` turns every basic block into
``(handler, cost, inst, label)`` tuples once at construction; the
per-step loop over those entries (``config.compiled=False``, or any run
with a ``step_hook``) is the differential reference. These tests pin
down:

- identical :class:`ExecutionReport`s (outputs, energy, cycles, failure
  accounting) on both loops, continuous and intermittent;
- a ``step_hook`` stream whose per-step cycle costs account for exactly
  the compiled run's timeline, which the testkit's boundary recording
  depends on.
"""

import dataclasses

import pytest

from repro.emulator import PowerManager
from repro.emulator.interpreter import (
    Interpreter,
    InterpreterConfig,
    run_continuous,
)
from repro.emulator.runtime import CheckpointPolicy
from repro.energy import msp430fr5969_platform
from repro.ir.instructions import Checkpoint, CondCheckpoint
from repro.testkit.corpus import compile_for, load_program

PLAT = msp430fr5969_platform(eb=3000.0)

CASES = [
    ("sumloop", "schematic"),
    ("warloop", "ratchet"),
    ("branchy", "mementos"),
    ("calls", "rockclimb"),
]


def _report_dict(report):
    return dataclasses.asdict(report)


@pytest.mark.parametrize("program", ["sumloop", "warloop", "branchy", "calls"])
def test_continuous_paths_identical(program):
    bench = load_program(program)
    fast = run_continuous(bench.module, PLAT.model,
                          inputs=bench.default_inputs(), compiled=True)
    slow = run_continuous(bench.module, PLAT.model,
                          inputs=bench.default_inputs(), compiled=False)
    assert _report_dict(fast) == _report_dict(slow)


@pytest.mark.parametrize("program,technique", CASES)
def test_intermittent_paths_identical_with_hooks(program, technique):
    bench = load_program(program)
    compiled = compile_for(
        technique, bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert compiled.feasible

    def run(step_hook=None):
        power = PowerManager.energy_budget(3000.0)
        interp = Interpreter(
            compiled.module, PLAT.model, compiled.policy, power,
            InterpreterConfig(
                inputs=bench.default_inputs(), vm_size=PLAT.vm_size,
                step_hook=step_hook,
            ),
        )
        return interp.run(), interp.loop_used, power.timeline

    hooks = []
    slow_report, slow_loop, slow_timeline = run(
        lambda label, cycles: hooks.append((label, cycles))
    )
    fast_report, fast_loop, fast_timeline = run()
    assert (fast_loop, slow_loop) == ("compiled", "predecoded")
    assert _report_dict(fast_report) == _report_dict(slow_report)
    assert sum(cycles for _, cycles in hooks) == fast_timeline == (
        slow_timeline
    ), (
        "the step_hook stream must announce every step of the compiled "
        "run — boundary sweeps would otherwise miss injection sites"
    )


def _interp(module):
    return Interpreter(
        module, PLAT.model,
        CheckpointPolicy.rollback_mode("continuous"),
        PowerManager.continuous(),
        InterpreterConfig(),
    )


def test_decode_covers_every_block_and_flags_checkpoints():
    bench = load_program("sumloop")
    compiled = compile_for(
        "schematic", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    interp = _interp(compiled.module)
    expected = {
        (f.name, label)
        for f in compiled.module.functions.values()
        for label in f.blocks
    }
    assert set(interp._code) == expected
    for (fname, label), entries in interp._code.items():
        block = compiled.module.functions[fname].blocks[label]
        assert len(entries) == len(block.instructions)
        for index, (handler, cost, inst, lab) in enumerate(entries):
            assert inst is block.instructions[index], "decode must bind identity"
            assert lab == f"{fname}:{label}:{index}"
            # None handler <=> checkpoint instruction (routed to
            # _do_checkpoint); everything else must have a dispatcher.
            is_ckpt = isinstance(inst, (Checkpoint, CondCheckpoint))
            assert (handler is None) == is_ckpt
