"""Seeded MiniC program generator for the ``synth-cfg`` workload.

Every program is a pure function of ``(seed, index)``. The properties are
drawn so that the placer, not the emulator, does the work:

- **CFG size and construct mix** are fixed (``CONSTRUCTS``: 24
  constructs in ``main``, 110-130 blocks with the helpers); the seed
  draws their order and parameters. SCHEMATIC's analysis grows
  superlinearly with the number of blocks (paper §III-C,
  O(V·(V²+E²))), so the programs are large, and a fixed size keeps the
  seeds comparable: with 24-56 random constructs one op ranged from
  0.2 s to 2.3 s and the per-seed medians did not agree. The size is
  also small enough for a run to compile ~40 programs, because the
  op-latency median of a run is a median over distinct programs; at 40
  constructs a run compiled ~21 and the median spread 7% across seeds.
  Diamonds multiply paths for the path analysis and the RCG, loops
  exercise loop summaries and range inference, calls exercise bottom-up
  function summaries, array sweeps create the per-variable access counts
  that drive the VM allocation.
- **Loop bounds** are small constants (2-6 iterations), half of them as
  ``while`` loops with an ``@maxiter`` annotation and half as ``for``
  loops whose trip count range inference has to prove. Small trip
  counts keep profiling and the output oracle cheap.
- **Global arrays** (2-4 of u8/u16/u32) total at most 1.5 KB in the
  even-indexed programs and more than 2 KB in the odd ones, so half the
  programs fit the 2 KB VM and half do not: the allocator takes a
  different branch on each side. Alternating rather than drawing keeps
  that share the same in every run.
- **Helpers** (``HELPERS`` = 2 functions, each a few diamonds and a loop
  over a by-reference array): calls into them force checkpoints around
  call sites and summaries at the call boundary. No recursion, which the
  translation validator does not cover. The count is fixed for the same
  reason as the size.

Every array index is masked to the array's power-of-two length, so any
input is safe to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

#: Array element types by name -> byte size.
_ELEM_BYTES = {"u8": 1, "u16": 2, "u32": 4}
#: Input buffer length (elements of u8); a power of two.
INBUF = 16
#: How many of each construct ``main`` holds (see the module docstring).
CONSTRUCTS = (("diamond", 9), ("loop", 6), ("nested", 4), ("call", 3), ("sweep", 2))
#: The platform's VM size, and the array total a "fits" program stays
#: under (leaving room for the scalars and the input buffer).
VM_BYTES = 2048
FIT_BYTES = 1536
#: Helper functions per program.
HELPERS = 2


@dataclass(frozen=True)
class SynthProgram:
    """One generated program and how to feed it."""

    name: str
    source: str

    def inputs(self, run: int) -> Dict[str, List[int]]:
        """Inputs for one run: ``run`` selects a distinct, seeded vector
        (the profiling runs and the oracle use different ones)."""
        rng = random.Random(f"{self.name}/inputs/{run}")
        return {
            "seed_in": [rng.randrange(1 << 32)],
            "inbuf": [rng.randrange(256) for _ in range(INBUF)],
        }


def _arrays(rng: random.Random, fits: bool) -> List[list]:
    """[name, type, length] of the global arrays; lengths are powers of
    two so indices can be masked. The largest array is halved, or the
    smallest doubled, until the total lands on the chosen side of the VM."""
    arrays = [
        [f"g{i}", rng.choice(("u8", "u16", "u32")), 1 << rng.randint(5, 8)]
        for i in range(rng.randint(2, 4))
    ]

    def total() -> int:
        return sum(length * _ELEM_BYTES[elem] for _n, elem, length in arrays)

    def size(array) -> int:
        return array[2] * _ELEM_BYTES[array[1]]

    while fits and total() > FIT_BYTES:
        max(arrays, key=size)[2] //= 2
    while not fits and total() <= VM_BYTES:
        min(arrays, key=size)[2] *= 2
    return arrays


def _helper(rng: random.Random, index: int) -> str:
    body = []
    for j in range(rng.randint(2, 4)):
        bit = 1 << rng.randrange(16)
        body.append(
            f"    if ((x & {bit}) != 0) {{ x = x * {rng.randint(3, 97)} + {j}; }}"
            f" else {{ x ^= {rng.randint(1, 1 << 16)}; }}"
        )
    trips = rng.randint(2, 5)
    body.append(
        f"    for (i32 k = 0; k < {trips}; k++) {{\n"
        f"        buf[(x + (u32) k) & (len - 1)] += x >> {rng.randint(1, 7)};\n"
        f"        x += (u32) buf[(u32) k & (len - 1)];\n"
        f"    }}"
    )
    return (
        f"u32 h{index}(u32 x, u32 buf[], u32 len) {{\n"
        + "\n".join(body)
        + "\n    return x;\n}\n"
    )


def _chain(rng: random.Random, kind: str, i: int, arrays) -> str:
    name, _elem, length = rng.choice(arrays)
    mask = length - 1
    trips = rng.randint(2, 6)
    if kind == "diamond":
        bit = 1 << (i % 16)
        return (
            f"    if ((acc & {bit}) != 0) {{\n"
            f"        acc = acc * 3 + {i};\n"
            f"        {name}[acc & {mask}] = acc;\n"
            f"    }} else {{\n"
            f"        acc ^= {i * 17 + 1};\n"
            f"    }}"
        )
    if kind == "loop":
        if rng.random() < 0.5:
            return (
                f"    u32 w{i} = 0;\n"
                f"    @maxiter({trips})\n"
                f"    while (w{i} < {trips}) {{\n"
                f"        acc += {name}[(acc + w{i}) & {mask}] + w{i};\n"
                f"        w{i} += 1;\n"
                f"    }}"
            )
        return (
            f"    for (i32 k{i} = 0; k{i} < {trips}; k{i}++) {{\n"
            f"        acc += (u32) k{i} * {i + 1};\n"
            f"    }}"
        )
    if kind == "nested":
        inner = rng.randint(2, 4)
        return (
            f"    for (i32 a{i} = 0; a{i} < {trips}; a{i}++) {{\n"
            f"        for (i32 b{i} = 0; b{i} < {inner}; b{i}++) {{\n"
            f"            {name}[(acc + (u32) b{i}) & {mask}] += (u32) a{i};\n"
            f"        }}\n"
            f"        acc += {name}[(u32) a{i} & {mask}];\n"
            f"    }}"
        )
    if kind == "call":
        # Helpers take a u32 buffer by reference; pick one of those.
        arr, _e, alen = rng.choice([a for a in arrays if a[1] == "u32"])
        return f"    acc = h{rng.randrange(HELPERS)}(acc, {arr}, {alen});"
    return (
        f"    for (i32 s{i} = 0; s{i} < {INBUF}; s{i}++) {{\n"
        f"        {name}[(u32) s{i} & {mask}] += (u32) inbuf[s{i}] + acc;\n"
        f"    }}"
    )


def generate(seed: int, index: int) -> SynthProgram:
    """The ``index``-th program of the workload seeded by ``seed``."""
    rng = random.Random(f"synth-cfg/{seed}/{index}")
    arrays = _arrays(rng, fits=index % 2 == 0)
    if not any(elem == "u32" for _n, elem, _l in arrays):
        # Call sites need a u32 buffer to pass by reference.
        arrays.append(["g_u32", "u32", 16])
    parts = ["u32 seed_in;", f"u8 inbuf[{INBUF}];", "u32 acc_out;"]
    parts += [f"{elem} {name}[{length}];" for name, elem, length in arrays]
    parts += [_helper(rng, h) for h in range(HELPERS)]
    parts += ["void main() {", "    u32 acc = seed_in;"]
    kinds = [kind for kind, n in CONSTRUCTS for _ in range(n)]
    rng.shuffle(kinds)
    parts += [_chain(rng, kind, i, arrays) for i, kind in enumerate(kinds)]
    parts += ["    acc_out = acc;", "}"]
    return SynthProgram(name=f"synth{seed}_{index}", source="\n".join(parts))
