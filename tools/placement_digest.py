"""Placement manifest: one sha256 per (program, technique, TBPF) placement.

For every corpus and MiBench2 program, each of the six techniques and a
TBPF of 1k and 10k cycles, the program is compiled at the energy budget
of that TBPF (§IV-C: EB = the continuous reference's average energy per
cycle x TBPF) and the sha256 of ``print_module`` of the placed module is
printed — or ``infeasible`` when the technique declares the program
infeasible (Table I). Placer techniques share one profile per program.
Output lines are ``<program> <technique> <tbpf> <digest>``, in a fixed
order. Run from the repository root::

    python tools/placement_digest.py [--programs crc,aes] > placements.sha256

``tests/data/placements.sha256`` is the committed manifest; the sweep
test ``tests/test_placement_manifest.py`` regenerates it and diffs, so
any change to a placement, allocation or baseline transformation shows
up as a named cell.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Iterator, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.baselines import COMPILERS  # noqa: E402
from repro.core.tracing import collect_profile  # noqa: E402
from repro.emulator.interpreter import run_continuous  # noqa: E402
from repro.energy import msp430fr5969_platform  # noqa: E402
from repro.ir.printer import print_module  # noqa: E402
from repro.testkit.corpus import (  # noqa: E402
    WAIT_MODE_TECHNIQUES,
    available_programs,
    compile_for,
    load_program,
)

TBPFS = (1_000, 10_000)
#: Profiling executions per program (the evaluation's own count).
PROFILE_RUNS = 2


def digest_lines(programs: Optional[List[str]] = None) -> Iterator[str]:
    """Yield one manifest line per (program, technique, TBPF) cell."""
    platform = msp430fr5969_platform()
    model = platform.model
    for program in programs or available_programs():
        bench = load_program(program)
        ref = run_continuous(bench.module, model, inputs=bench.default_inputs())
        power = ref.energy.total / max(ref.active_cycles, 1)
        profile = collect_profile(
            bench.module, model,
            input_generator=bench.input_generator(), runs=PROFILE_RUNS,
        )
        for technique in sorted(COMPILERS):
            for tbpf in TBPFS:
                compiled = compile_for(
                    technique, bench.module, platform.with_eb(power * tbpf),
                    profile=profile if technique in WAIT_MODE_TECHNIQUES else None,
                )
                digest = (
                    hashlib.sha256(
                        print_module(compiled.module).encode()
                    ).hexdigest()
                    if compiled.feasible
                    else "infeasible"
                )
                yield f"{program} {technique} {tbpf} {digest}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--programs", default="all",
        help="comma-separated program names, or 'all' (default)",
    )
    args = parser.parse_args(argv)
    programs = None if args.programs == "all" else args.programs.split(",")
    for line in digest_lines(programs):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
