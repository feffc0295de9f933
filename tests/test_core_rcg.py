"""Unit tests for the Reachable Checkpoint Graph solver."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.accesses import AccessCounts
from repro.core.allocation import (
    SegmentContext,
    SegmentPlan,
    _gain,
    plan_segment,
)
from repro.core.rcg import RCG, Boundary, RCGInfeasibleError
from repro.core.region import Atom, AtomKind
from repro.core.summaries import CkptBearing, SharedAlloc
from repro.energy import msp430fr5969_model
from repro.ir import I32, MemorySpace, U8, Variable

MODEL = msp430fr5969_model()


def make_atoms(energies, access_var=None, accesses=0):
    atoms = []
    for i, energy in enumerate(energies):
        atom = Atom(
            uid=i + 1, kind=AtomKind.SLICE, label=f"b{i}", base_energy=energy
        )
        if access_var and accesses:
            atom.counts.add_read(access_var, accesses)
        atoms.append(atom)
    return atoms


def make_ctx(variables=None, capacity=2048):
    return SegmentContext(
        model=MODEL,
        vm_capacity=capacity,
        variables=variables or {"x": Variable("x", I32)},
    )


def solve(atoms, eb, left=None, right=None, ctx=None):
    rcg = RCG(
        ctx or make_ctx(),
        eb,
        atoms,
        left or Boundary(kind="fresh", energy=eb, has_edge=False),
        right or Boundary(kind="fresh", energy=MODEL.save_energy(0),
                          has_edge=False),
        live_at_position=lambda p: set(),
    )
    return rcg.solve()


SAVE0 = MODEL.save_energy(0)
RESTORE0 = MODEL.restore_energy(0)


class TestBasicSolve:
    def test_everything_fits_no_checkpoints(self):
        result = solve(make_atoms([10.0, 10.0, 10.0]), eb=1_000.0)
        assert result.enabled_positions == []
        assert len(result.segments) == 1

    def test_tight_budget_inserts_checkpoint(self):
        # Two 300 nJ atoms with EB=500: they cannot share a segment.
        result = solve(make_atoms([300.0, 300.0]), eb=500.0)
        assert result.enabled_positions == [1]
        assert len(result.segments) == 2

    def test_three_segments_when_needed(self):
        result = solve(make_atoms([300.0, 300.0, 300.0]), eb=450.0)
        assert result.enabled_positions == [1, 2]

    def test_infeasible_atom_raises(self):
        with pytest.raises(RCGInfeasibleError):
            solve(make_atoms([900.0]), eb=500.0)

    def test_minimum_energy_chosen(self):
        # Either one checkpoint (after atom 0 or after atom 1) works;
        # the solver must not enable both.
        result = solve(make_atoms([200.0, 200.0, 200.0]), eb=520.0)
        assert len(result.enabled_positions) == 1

    def test_costs_accumulate(self):
        result = solve(make_atoms([300.0, 300.0]), eb=500.0)
        # exec + one save + one restore, plus boundary effects
        assert result.total_cost >= 600.0


class TestBoundaries:
    def test_left_atom_budget_respected(self):
        # Predecessor left only 100 nJ: a 300 nJ atom cannot run before
        # the first checkpoint; the boundary edge must carry one.
        atoms = make_atoms([300.0])
        left = Boundary(kind="atom", energy=100.0, alloc={}, has_edge=True)
        right = Boundary(kind="fresh", energy=SAVE0, has_edge=False)
        result = solve(atoms, eb=600.0, left=left, right=right)
        assert 0 in result.enabled_positions

    def test_left_atom_flow_through_when_cheap(self):
        atoms = make_atoms([50.0])
        left = Boundary(kind="atom", energy=500.0, alloc={}, has_edge=True)
        right = Boundary(kind="fresh", energy=SAVE0, has_edge=False)
        result = solve(atoms, eb=600.0, left=left, right=right)
        assert result.enabled_positions == []

    def test_right_atom_need_respected(self):
        # The successor needs 400 nJ: a 300 nJ atom flowing into it without
        # a checkpoint would need 300+400 <= budget.
        atoms = make_atoms([300.0])
        right = Boundary(kind="atom", energy=400.0, alloc={}, has_edge=True)
        result = solve(atoms, eb=600.0, right=right)
        assert result.enabled_positions == [1]

    def test_mandatory_right_checkpoint(self):
        atoms = make_atoms([50.0])
        right = Boundary(
            kind="fresh", energy=0.0, has_edge=True, mandatory_ckpt=True
        )
        result = solve(atoms, eb=10_000.0, right=right)
        assert result.enabled_positions == [1]

    def test_mandatory_left_checkpoint(self):
        atoms = make_atoms([50.0])
        left = Boundary(
            kind="atom", energy=1_000.0, alloc={}, has_edge=True,
            mandatory_ckpt=True,
        )
        result = solve(atoms, eb=10_000.0, left=left)
        assert 0 in result.enabled_positions


class TestAllocationInRCG:
    def test_segment_allocation_attached(self):
        variables = {"hot": Variable("hot", I32)}
        ctx = make_ctx(variables=variables)
        atoms = make_atoms([20.0], access_var="hot", accesses=200)
        rcg = RCG(
            ctx,
            5_000.0,
            atoms,
            Boundary(kind="fresh", energy=5_000.0, has_edge=False),
            Boundary(kind="fresh", energy=SAVE0, has_edge=False),
            live_at_position=lambda p: {"hot"},
        )
        result = rcg.solve()
        (segment,) = result.segments
        assert segment.plan.alloc["hot"] is MemorySpace.VM
        assert result.entry_alloc["hot"] is MemorySpace.VM

    def test_exit_dirty_reported_for_fresh_exit(self):
        variables = {"hot": Variable("hot", I32)}
        ctx = make_ctx(variables=variables)
        atoms = make_atoms([20.0])
        atoms[0].counts.add_write("hot", 200, full=True)
        rcg = RCG(
            ctx,
            5_000.0,
            atoms,
            Boundary(kind="fresh", energy=5_000.0, has_edge=False),
            Boundary(kind="fresh", energy=SAVE0, has_edge=False),
            live_at_position=lambda p: {"hot"},
        )
        result = rcg.solve()
        assert "hot" in result.exit_dirty


class TestBarriers:
    def _barrier_atom(self, uid=2):
        atom = Atom(uid=uid, kind=AtomKind.LOOP, label="loop")
        atom.ckpt = CkptBearing(
            e_to_first=100.0,
            e_from_last=100.0,
            internal_energy=500.0,
        )
        return atom

    def test_barrier_forces_checkpoints_on_both_sides(self):
        atoms = make_atoms([50.0])
        atoms.append(self._barrier_atom())
        atoms.extend(make_atoms([60.0]))
        atoms[2].uid = 3
        result = solve(atoms, eb=1_000.0)
        assert 1 in result.enabled_positions  # entry edge of the barrier
        assert 2 in result.enabled_positions  # exit edge of the barrier

    def test_no_segment_spans_barrier(self):
        atoms = make_atoms([50.0])
        atoms.append(self._barrier_atom())
        atoms.extend(make_atoms([60.0]))
        atoms[2].uid = 3
        result = solve(atoms, eb=1_000.0)
        for segment in result.segments:
            assert 2 not in segment.atom_uids  # the barrier's uid

    def test_barrier_too_hungry_is_infeasible(self):
        atom = self._barrier_atom()
        atom.ckpt = CkptBearing(
            e_to_first=2_000.0, e_from_last=100.0, internal_energy=2_100.0
        )
        with pytest.raises(RCGInfeasibleError):
            solve([atom], eb=1_000.0)


# ---------------------------------------------------------------------------
# Incremental segment plans: identity with planning from scratch
# ---------------------------------------------------------------------------

#: Variables of the random segments: scalars, arrays that do and do not fit
#: small capacities, a const table, a pinned and a by-reference variable.
PLAN_VARIABLES = {
    "a": Variable("a", I32),
    "b": Variable("b", I32),
    "c": Variable("c", U8, count=40),
    "d": Variable("d", U8, count=300),
    "k": Variable("k", U8, count=16, is_const=True, init=[0] * 16),
    "p": Variable("p", I32, pinned_nvm=True),
    "r": Variable("r", U8, count=8, is_ref=True),
}
PLAN_NAMES = sorted(PLAN_VARIABLES)
SPACES = (MemorySpace.VM, MemorySpace.NVM)


def _reference_plan(ctx, atoms, live_at_end, has_start_ckpt, has_end_ckpt,
                    allow_packing=True):
    """Test-only oracle: segment planning as a fold over every atom from
    scratch (aggregation, forced union and per-atom energy sum in one
    pass), independent of :class:`SegmentAggregate`."""
    forced = {}
    for atom in atoms:
        if atom.shared is None:
            continue
        for name, space in atom.shared.forced.items():
            if forced.get(name, space) is not space:
                return None
            forced[name] = space
    for name, space in ctx.inherited.items():
        if forced.get(name, space) is not space:
            return None
    counts = AccessCounts()
    for atom in atoms:
        if atom.shared is not None:
            for name in atom.shared.restore_names:
                counts.first_access.setdefault(name, "r")
        counts.merge_sequential(atom.counts)
    private_reserve = max(
        (a.shared.private_reserve for a in atoms if a.shared is not None),
        default=0,
    )
    resident = dict(forced)
    if not has_start_ckpt or not allow_packing:
        for name, space in ctx.inherited.items():
            resident.setdefault(name, space)
    vm_bytes = private_reserve + sum(
        ctx.variables[n].size_bytes
        for n, s in resident.items() if s is MemorySpace.VM
    )
    if vm_bytes > ctx.vm_capacity:
        return None
    candidates = []
    if allow_packing:
        for name in counts.variables():
            var = ctx.variables.get(name)
            if name in resident or var is None or var.pinned_nvm or var.is_ref:
                continue
            gain = _gain(ctx, counts, live_at_end, name, var,
                         has_start_ckpt, has_end_ckpt)
            if gain > 0:
                candidates.append((gain / var.size_bytes, gain, name))
        candidates.sort(key=lambda item: (-item[0], item[2]))
    alloc = dict(resident)
    for _ratio, _gain_value, name in candidates:
        size = ctx.variables[name].size_bytes
        if vm_bytes + size <= ctx.vm_capacity:
            alloc[name] = MemorySpace.VM
            vm_bytes += size
    for name in counts.variables():
        alloc.setdefault(name, MemorySpace.NVM)
    vm_names = tuple(sorted(n for n, s in alloc.items() if s is MemorySpace.VM))
    restore, save = set(), set()
    if has_start_ckpt:
        for name in vm_names:
            if not ctx.trim_with_liveness or counts.first_access.get(name) == "r":
                restore.add(name)
        for atom in atoms:
            if atom.shared is not None:
                restore.update(n for n in atom.shared.restore_names
                               if counts.first_access.get(n) != "w")
    if has_end_ckpt:
        for name in vm_names:
            var = ctx.variables[name]
            if var.is_const:
                continue
            dirty = (
                not ctx.trim_with_liveness
                or counts.writes.get(name, 0) > 0
                or (not has_start_ckpt and name in ctx.inherited)
            )
            if dirty and (not ctx.trim_with_liveness or name in live_at_end):
                save.add(name)
        for atom in atoms:
            if atom.shared is not None:
                save.update(n for n in atom.shared.dirty_names
                            if n in live_at_end)
    return SegmentPlan(
        alloc=alloc,
        vm_names=vm_names,
        exec_energy=sum(atom.energy_under(ctx.model, alloc) for atom in atoms),
        restore_names=tuple(sorted(restore)),
        restore_bytes=sum(ctx.variables[n].size_bytes for n in restore),
        save_names=tuple(sorted(save)),
        save_bytes=sum(ctx.variables[n].size_bytes for n in save),
        vm_bytes=vm_bytes,
        private_reserve=private_reserve,
    )


def _placements(draw, names):
    return {
        name: draw(st.sampled_from(SPACES))
        for name in draw(st.lists(st.sampled_from(names), unique=True,
                                  max_size=4))
    }


@st.composite
def _atom(draw, uid):
    atom = Atom(
        uid=uid, kind=AtomKind.SLICE, label=f"b{uid}",
        base_energy=draw(st.floats(0.0, 400.0, allow_nan=False)),
    )
    for kind, name, count in draw(st.lists(
        st.tuples(st.sampled_from("rwf"), st.sampled_from(PLAN_NAMES),
                  st.integers(1, 300)),
        max_size=6,
    )):
        if kind == "r":
            atom.counts.add_read(name, count)
        else:
            atom.counts.add_write(name, count, full=kind == "f")
    role = draw(st.sampled_from(("slice", "slice", "shared", "barrier")))
    if role == "shared":
        # Inner analyses force few variables, so conflicts are common.
        forced = _placements(draw, ["a", "c", "d"])
        names = sorted(forced)
        atom.shared = SharedAlloc(
            forced=forced,
            vm_names=tuple(n for n in names if forced[n] is MemorySpace.VM),
            restore_names=tuple(draw(st.lists(
                st.sampled_from(PLAN_NAMES), unique=True, max_size=3))),
            dirty_names=tuple(draw(st.lists(
                st.sampled_from(PLAN_NAMES), unique=True, max_size=3))),
            private_reserve=draw(st.sampled_from((0, 0, 8, 64, 900))),
        )
    elif role == "barrier":
        atom.kind = AtomKind.LOOP
        atom.ckpt = CkptBearing(
            e_to_first=draw(st.floats(0.0, 300.0)),
            e_from_last=draw(st.floats(0.0, 300.0)),
            internal_energy=draw(st.floats(0.0, 900.0)),
            entry_forced=_placements(draw, PLAN_NAMES),
            entry_restore=tuple(draw(st.lists(
                st.sampled_from(PLAN_NAMES), unique=True, max_size=2))),
            exit_dirty=tuple(draw(st.lists(
                st.sampled_from(PLAN_NAMES), unique=True, max_size=2))),
        )
    return atom


@st.composite
def _boundary(draw):
    alloc = draw(st.sampled_from((None, "empty", "placed")))
    if alloc is not None:
        alloc = _placements(draw, PLAN_NAMES) if alloc == "placed" else {}
    return Boundary(
        kind=draw(st.sampled_from(("fresh", "atom"))),
        energy=draw(st.floats(0.0, 3_000.0)),
        alloc=alloc,
        has_edge=draw(st.booleans()),
        mandatory_ckpt=draw(st.booleans()),
    )


@st.composite
def _rcg_case(draw):
    n = draw(st.integers(1, 9))
    atoms = [draw(_atom(uid)) for uid in range(1, n + 1)]
    ctx = SegmentContext(
        model=MODEL,
        vm_capacity=draw(st.sampled_from((0, 4, 12, 48, 400, 2048))),
        variables=PLAN_VARIABLES,
        inherited=_placements(draw, PLAN_NAMES),
        trim_with_liveness=draw(st.booleans()),
        gain_amortization=draw(st.sampled_from((1.0, 3.0, 37.5))),
    )
    live = [
        frozenset(draw(st.lists(st.sampled_from(PLAN_NAMES), max_size=5)))
        for _ in range(n + 1)
    ]
    eb = draw(st.floats(200.0, 4_000.0))
    return ctx, eb, atoms, draw(_boundary()), draw(_boundary()), live


def _rcg(case):
    ctx, eb, atoms, left, right, live = case
    return RCG(ctx, eb, atoms, left, right, lambda p: set(live[p]))


def _scratch_plan(rcg, start_pos, end_pos, has_start_ckpt, has_end_ckpt,
                  exact=None):
    """``RCG._plan`` as a from-scratch ``plan_segment`` of its atoms."""
    rcg.stat_plans += 1
    atoms = rcg.atoms[start_pos:end_pos]
    live_at_end = rcg.live_at_position(end_pos)
    if exact is not None:
        ctx = dataclasses.replace(rcg.ctx, inherited=dict(exact))
        return plan_segment(ctx, atoms, live_at_end, has_start_ckpt,
                            has_end_ckpt, allow_packing=False)
    return plan_segment(rcg.ctx, atoms, live_at_end, has_start_ckpt,
                        has_end_ckpt)


def _plan_key(plan):
    if plan is None:
        return None
    return (plan, float.hex(plan.exec_energy))


class TestIncrementalPlans:
    """Every plan the RCG's incremental planner makes equals planning the
    same atoms from scratch, bit for bit, and the graph built from them is
    the one a from-scratch planner builds."""

    @settings(max_examples=400, deadline=None)
    @given(_rcg_case())
    def test_plans_match_from_scratch(self, case):
        rcg = _rcg(case)
        incremental = rcg._plan
        asked = []

        def recording(start_pos, end_pos, has_start_ckpt, has_end_ckpt,
                      exact=None):
            plan = incremental(start_pos, end_pos, has_start_ckpt,
                               has_end_ckpt, exact)
            asked.append((start_pos, end_pos, has_start_ckpt, has_end_ckpt,
                          None if exact is None else dict(exact), plan))
            return plan

        rcg._plan = recording
        rcg.build()

        for start, end, has_start, has_end, exact, plan in asked:
            atoms = rcg.atoms[start:end]
            live_at_end = rcg.live_at_position(end)
            ctx, packing = rcg.ctx, True
            if exact is not None:
                ctx = dataclasses.replace(rcg.ctx, inherited=exact)
                packing = False
            scratch = plan_segment(ctx, atoms, live_at_end, has_start,
                                   has_end, allow_packing=packing)
            oracle = _reference_plan(ctx, atoms, live_at_end, has_start,
                                     has_end, allow_packing=packing)
            cell = (start, end, has_start, has_end, exact)
            assert _plan_key(plan) == _plan_key(scratch), cell
            assert _plan_key(plan) == _plan_key(oracle), cell

        scratch_rcg = _rcg(case)
        scratch_rcg._plan = lambda *args, **kwargs: _scratch_plan(
            scratch_rcg, *args, **kwargs
        )
        scratch_rcg.build()
        assert rcg.stat_plans == scratch_rcg.stat_plans == len(asked)
        assert rcg.stat_edges_rejected_eb == scratch_rcg.stat_edges_rejected_eb
        assert rcg.stat_edges == scratch_rcg.stat_edges
        assert {
            key: (float.hex(info.cost), _plan_key(info.plan), info.save_override)
            for key, info in rcg._edges.items()
        } == {
            key: (float.hex(info.cost), _plan_key(info.plan), info.save_override)
            for key, info in scratch_rcg._edges.items()
        }

    def test_aggregate_rebuilt_when_end_shrinks(self):
        atoms = make_atoms([10.0, 20.0, 30.0], access_var="x", accesses=5)
        rcg = RCG(
            make_ctx(), 1_000.0, atoms,
            Boundary(kind="fresh", energy=1_000.0, has_edge=False),
            Boundary(kind="fresh", energy=SAVE0, has_edge=False),
            live_at_position=lambda p: {"x"},
        )
        long = rcg._plan(0, 3, True, True)
        short = rcg._plan(0, 1, True, True)
        assert _plan_key(short) == _plan_key(
            plan_segment(rcg.ctx, atoms[:1], {"x"}, True, True)
        )
        assert _plan_key(rcg._plan(0, 3, True, True)) == _plan_key(long)
