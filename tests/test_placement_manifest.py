"""Placements are byte-identical to the committed manifest.

``tests/data/placements.sha256`` holds one sha256 of ``print_module`` (or
``infeasible``) per corpus + MiBench2 program x technique x TBPF {1k, 10k},
as printed by ``tools/placement_digest.py``. An optimisation of the placer,
the allocator or a baseline must leave every line as it is; a deliberate
change to placements regenerates the manifest::

    python tools/placement_digest.py > tests/data/placements.sha256
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "placements.sha256"


def _digest_tool():
    spec = importlib.util.spec_from_file_location(
        "placement_digest", ROOT / "tools" / "placement_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.sweep
def test_placements_match_manifest():
    expected = MANIFEST.read_text().splitlines()
    actual = list(_digest_tool().digest_lines())
    changed = [
        f"{want!r} -> {got!r}"
        for want, got in zip(expected, actual) if want != got
    ]
    assert changed == []
    assert len(actual) == len(expected)
