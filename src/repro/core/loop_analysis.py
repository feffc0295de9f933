"""Loop handling: Algorithm 1 of the paper (§III-B2).

Step 1 analyzes one iteration — the loop body with the back edge removed —
with the ordinary path algorithm. Step 2 decides the back-edge checkpoint:

- if the header and latch memory allocations differ, a checkpoint is needed
  on every back-edge traversal to change allocation (``numit = 1``);
- otherwise save/restore happens once every ``numit`` iterations, where
  ``numit`` is the number of iterations executable within the energy budget
  (we use the safe refinement ``numit = floor((EB - E_save - E_restore) /
  E_loop)`` so the window including the checkpoint traffic itself fits EB);
- when ``numit`` exceeds the loop's maximum trip count, no back-edge
  checkpoint is inserted at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.loops import Loop
from repro.core.allocation import SegmentContext
from repro.core.path_analysis import RegionAnalysis, RegionOutcome
from repro.core.region import InsertPoint, RegionGraph
from repro.core.summaries import CkptBearing, LoopResult, SharedAlloc
from repro.ir.values import MemorySpace

#: Trip-count estimate used only for *cost* weighting when a loop has no
#: known bound (safety never depends on it: unbounded loops always get a
#: conditional back-edge checkpoint). Since the Schematic driver fills
#: ``loop_maxiter`` with proven bounds from the value-range analysis
#: (:func:`repro.analysis.ranges.apply_inferred_bounds`) before any loop
#: is analyzed, this default now applies only to *truly* unbounded loops
#: — data-dependent exits the trip-count deriver cannot bound.
DEFAULT_TRIP_ESTIMATE = 64


def trip_estimate(maxiter: Optional[int]) -> int:
    """The trip count used for cost weighting: the declared-or-inferred
    bound when one exists, :data:`DEFAULT_TRIP_ESTIMATE` otherwise."""
    return maxiter if maxiter is not None else DEFAULT_TRIP_ESTIMATE


@dataclass
class BackedgeCheckpoint:
    """The checkpoint to install on a loop's back edge(s)."""

    every: int  # 1 = checkpoint each iteration; k>1 = conditional
    save_names: Tuple[str, ...]
    restore_names: Tuple[str, ...]
    alloc_after: Dict[str, MemorySpace]
    points: List[InsertPoint]


@dataclass
class LoopAnalysisOutput:
    result: LoopResult
    outcome: RegionOutcome
    backedge: Optional[BackedgeCheckpoint]


def analyze_loop(
    loop: Loop,
    region: RegionGraph,
    paths: List[Tuple[int, ...]],
    ctx: SegmentContext,
    eb: float,
    live_at_edge,
    exit_live,
    force_checkpoint: bool = False,
    max_numit: Optional[int] = None,
) -> LoopAnalysisOutput:
    """Run Algorithm 1 on one loop whose body region is already built."""
    model = ctx.model

    # ---- Step 1: analyze one iteration (back edge removed). -----------------
    analysis = RegionAnalysis(
        region,
        ctx,
        eb,
        live_at_edge=live_at_edge,
        exit_live=exit_live,
        exit_need=model.save_energy(0),
        exit_is_checkpoint=False,
    )
    outcome = analysis.analyze(paths)

    maxiter = loop.maxiter
    back_points = [
        InsertPoint.on_edge(latch, loop.header) for latch in loop.latches
    ]

    entry_alloc = dict(outcome.entry_alloc)
    exit_alloc = dict(outcome.exit_alloc)
    entry_vm = set(outcome.entry_vm)
    exit_vm = set(outcome.exit_vm)

    def latch_vm_set():
        """VM residency at the latch exit(s) — the state the back-edge
        checkpoint actually sees. The canonical region exit may be a
        different (e.g. header) exit with a different allocation."""
        names = set()
        found = False
        for latch in loop.latches:
            if latch in outcome.exit_vm_by_label:
                names |= set(outcome.exit_vm_by_label[latch])
                found = True
        return names if found else set(outcome.exit_vm)

    latch_vm = latch_vm_set()

    def conservative_save(names):
        """The back-edge save set: every non-const VM resident at the
        latch that is live around the loop. Conservative (clean residents
        are saved too) — per-variable dirtiness at a *specific* exit is not
        tracked across paths."""
        return tuple(
            sorted(
                n
                for n in names
                if n in ctx.variables
                and not ctx.variables[n].is_const
                and n in exit_live
            )
        )

    backedge_save = conservative_save(latch_vm)
    save_bytes = sum(ctx.variables[n].size_bytes for n in backedge_save)
    restore_bytes = sum(
        ctx.variables[n].size_bytes
        for n in outcome.entry_restore
        if n in ctx.variables
    )
    save_e = model.save_energy(save_bytes)
    restore_e = model.restore_energy(restore_bytes)

    def worst_boundary_save() -> float:
        """The numit window must leave room for whichever checkpoint ends
        the checkpoint-free span: the back-edge save *or* the enclosing
        checkpoint on any loop-exit edge (which saves that exit's VM
        residents)."""
        worst = save_e
        for names in outcome.exit_vm_by_label.values():
            payload = sum(
                ctx.variables[n].size_bytes
                for n in names
                if n in ctx.variables and not ctx.variables[n].is_const
            )
            worst = max(worst, model.save_energy(payload))
        return worst

    private_reserve = max(
        (
            atom.shared.private_reserve
            for atom in region.atoms.values()
            if atom.shared is not None
        ),
        default=0,
    )

    def shared_summary() -> SharedAlloc:
        # A plain loop shares one allocation region-wide; impose the union
        # of all its atoms' placements (a cold-path-only variable still has
        # a final placement the enclosing segment must match).
        forced = dict(outcome.combined_alloc)
        forced.update(entry_alloc)
        vm_names = tuple(
            sorted(
                {n for n, s in forced.items() if s is MemorySpace.VM}
                | entry_vm
                | exit_vm
            )
        )
        # Dirty set seen by the enclosing segment's ending checkpoint:
        # conservative (every non-const VM resident), since dirtiness at a
        # specific exit is path-dependent.
        dirty = tuple(
            sorted(
                n
                for n in vm_names
                if n in ctx.variables and not ctx.variables[n].is_const
            )
        )
        return SharedAlloc(
            forced=forced,
            vm_names=vm_names,
            restore_names=outcome.entry_restore,
            dirty_names=dirty,
            private_reserve=private_reserve,
        )

    def barrier_summary(
        e_to_first: float, e_from_last: float, internal_energy: float
    ) -> CkptBearing:
        return CkptBearing(
            e_to_first=e_to_first,
            e_from_last=e_from_last,
            internal_energy=internal_energy,
            entry_forced=entry_alloc,
            entry_vm=tuple(sorted(entry_vm)),
            entry_restore=outcome.entry_restore,
            exit_forced=exit_alloc,
            exit_vm=tuple(sorted(exit_vm)),
            exit_dirty=outcome.exit_dirty,
            # Per-exit-point residency: the loop can be left from its
            # header, a break block or its latch, each with a different
            # allocation; checkpoints on the exit edges save accordingly.
            exit_states=dict(outcome.exit_vm_by_label),
            private_reserve=private_reserve,
        )

    trips = trip_estimate(maxiter)
    e_iter = outcome.total_energy

    # ---- Step 2: the back-edge decision. --------------------------------------
    if outcome.plain and eb - worst_boundary_save() - restore_e < e_iter:
        # One iteration plus its back-edge checkpoint traffic does not fit:
        # force checkpoints *inside* the iteration by re-analyzing the body
        # with the back-edge traffic as the exit need.
        analysis = RegionAnalysis(
            region,
            ctx,
            eb,
            live_at_edge=live_at_edge,
            exit_live=exit_live,
            exit_need=save_e + restore_e,
            exit_is_checkpoint=False,
        )
        outcome = analysis.analyze(paths)
        entry_alloc = dict(outcome.entry_alloc)
        exit_alloc = dict(outcome.exit_alloc)
        entry_vm = set(outcome.entry_vm)
        exit_vm = set(outcome.exit_vm)
        latch_vm = latch_vm_set()
        backedge_save = conservative_save(latch_vm)
        save_bytes = sum(ctx.variables[n].size_bytes for n in backedge_save)
        save_e = model.save_energy(save_bytes)
        e_iter = outcome.total_energy

    if outcome.plain:
        allocs_match = entry_vm == latch_vm
        if not allocs_match:
            # Algorithm 1 line 2: allocation changes between latch and
            # header, so a (full) checkpoint every iteration migrates it.
            numit = 1
        else:
            window = eb - worst_boundary_save() - restore_e
            numit = int(window // e_iter) if e_iter > 0 else 1 << 30
            numit = max(numit, 1)
        if max_numit is not None:
            numit = min(numit, max_numit)

        if (
            not force_checkpoint
            and maxiter is not None
            and numit > maxiter
            and allocs_match
        ):
            # No back-edge checkpoint at all (Algorithm 1 lines 7-8).
            total = trips * e_iter
            result = LoopResult(
                header=loop.header,
                maxiter=trips,
                iteration_energy=e_iter,
                numit=None,
                total_energy=total,
                shared=shared_summary(),
            )
            return LoopAnalysisOutput(result=result, outcome=outcome, backedge=None)

        # Conditional (or per-iteration) back-edge checkpoint.
        windows = max((trips + numit - 1) // numit - 1, 0) if numit else 0
        internal = trips * e_iter + windows * (save_e + restore_e)
        e_to_first = min(numit, trips) * e_iter + save_e
        e_from_last = restore_e + min(numit, trips) * e_iter
        result = LoopResult(
            header=loop.header,
            maxiter=trips,
            iteration_energy=e_iter,
            numit=numit,
            total_energy=internal,
            ckpt=barrier_summary(e_to_first, e_from_last, internal),
        )
        backedge = BackedgeCheckpoint(
            every=numit,
            save_names=backedge_save,
            restore_names=outcome.entry_restore,
            alloc_after=entry_alloc,
            points=back_points,
        )
        return LoopAnalysisOutput(result=result, outcome=outcome, backedge=backedge)

    # ---- The body itself contains checkpoints. --------------------------------
    # Can the back edge stay checkpoint-free? Three conditions:
    # (i) allocation is stable across it, (ii) the tail of one iteration
    # plus the head of the next fits the budget, and (iii) *every* path
    # from the header to a latch crosses an internal checkpoint — if some
    # hot path is checkpoint-free, iterating it accumulates energy without
    # bound and no per-junction check can save us.
    chain = outcome.e_from_last + outcome.e_to_first
    if (
        not force_checkpoint
        and entry_vm == latch_vm
        and chain <= eb
        and not _checkpoint_free_latch_path(region, loop, outcome)
    ):
        internal = trips * e_iter
        result = LoopResult(
            header=loop.header,
            maxiter=trips,
            iteration_energy=e_iter,
            numit=None,
            total_energy=internal,
            ckpt=barrier_summary(
                outcome.e_to_first, outcome.e_from_last, internal
            ),
        )
        return LoopAnalysisOutput(result=result, outcome=outcome, backedge=None)

    # Conditional checkpoint on the back edge. The energy window between
    # two back-edge firings only matters along *checkpoint-free* iteration
    # spans — internal checkpoints reset the budget on the paths that cross
    # them. The period therefore derives from the worst checkpoint-free
    # header->latch path, not the full traversal energy.
    e_cf = _checkpoint_free_iteration_energy(region, loop, outcome, ctx)
    if entry_vm != latch_vm:
        numit = 1  # allocation must migrate every iteration
    elif e_cf is None:
        # Every iteration crosses an internal checkpoint; the back edge only
        # needs to break the tail+head junction (chain > eb brought us here).
        numit = 1
    else:
        window = eb - worst_boundary_save() - restore_e
        numit = int(window // e_cf) if e_cf > 0 else 1 << 30
        numit = max(numit, 1)
    if max_numit is not None:
        numit = min(numit, max_numit)

    windows = max((trips + numit - 1) // numit - 1, 0)
    internal = trips * e_iter + windows * (save_e + restore_e)
    # Energy to the first save: either an internal one (outcome.e_to_first)
    # or, along checkpoint-free spans, the back edge after numit iterations.
    cf_span = min(numit, trips) * (e_cf or 0.0)
    e_to_first = max(outcome.e_to_first, cf_span + save_e)
    e_from_last = max(outcome.e_from_last, restore_e + cf_span)
    result = LoopResult(
        header=loop.header,
        maxiter=trips,
        iteration_energy=e_iter,
        numit=numit,
        total_energy=internal,
        ckpt=barrier_summary(e_to_first, e_from_last, internal),
    )
    backedge = BackedgeCheckpoint(
        every=numit,
        save_names=backedge_save,
        restore_names=outcome.entry_restore,
        alloc_after=entry_alloc,
        points=back_points,
    )
    return LoopAnalysisOutput(result=result, outcome=outcome, backedge=backedge)


def _checkpoint_free_edges(region: RegionGraph, outcome: RegionOutcome):
    enabled_edges = {c.edge for c in outcome.checkpoints}

    def successors(uid: int):
        if region.atom(uid).is_barrier:
            return  # crossing a barrier implies internal checkpoints
        for succ in region.succs[uid]:
            if (uid, succ) not in enabled_edges:
                yield succ

    return successors


def _checkpoint_free_latch_path(
    region: RegionGraph, loop: Loop, outcome: RegionOutcome
) -> bool:
    """True if a path from the region entry to a latch exit exists that
    crosses no enabled checkpoint and no barrier atom."""
    successors = _checkpoint_free_edges(region, outcome)
    latch_uids = {region.tail_atom(latch) for latch in loop.latches}
    work = [region.entry_uid]
    seen = set()
    while work:
        uid = work.pop()
        if uid in seen:
            continue
        seen.add(uid)
        if uid in latch_uids and not region.atom(uid).is_barrier:
            return True
        work.extend(successors(uid))
    return False


def _checkpoint_free_iteration_energy(
    region: RegionGraph,
    loop: Loop,
    outcome: RegionOutcome,
    ctx: SegmentContext,
) -> Optional[float]:
    """Worst-case energy of a checkpoint-free header->latch path under the
    final allocations (None when every such path crosses a checkpoint)."""
    successors = _checkpoint_free_edges(region, outcome)
    latch_uids = {region.tail_atom(latch) for latch in loop.latches}

    best: Dict[int, float] = {}
    for uid in region.topological():
        atom = region.atom(uid)
        if atom.is_barrier:
            continue
        if uid == region.entry_uid:
            incoming = 0.0
        else:
            preds = [
                p
                for p in region.preds[uid]
                if p in best and uid in set(successors(p))
            ]
            if not preds:
                continue
            incoming = max(best[p] for p in preds)
        best[uid] = incoming + atom.energy_at(
            ctx.vm_access_cost, ctx.nvm_access_cost,
            outcome.atom_alloc.get(uid, {}),
        )
    values = [best[uid] for uid in latch_uids if uid in best]
    return max(values) if values else None
