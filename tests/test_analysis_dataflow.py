"""Unit tests for the generic forward dataflow solver."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import solve_forward
from repro.errors import AnalysisError
from repro.ir import I32, IRBuilder, Module


def diamond_function():
    """entry -> {left, right} -> join -> ret, plus an unreachable block.

    Returns (func, labels) with labels for left/right/join/dead.
    """
    module = Module("m")
    builder = IRBuilder(module)
    func = builder.start_function("main")
    x = builder.local("x", I32)
    left = builder.new_block("left")
    right = builder.new_block("right")
    join = builder.new_block("join")
    dead = builder.new_block("dead")
    cond = builder.emit_load(x)
    builder.emit_branch(cond, left, right)
    builder.position_at(left)
    builder.emit_jump(join)
    builder.position_at(right)
    builder.emit_jump(join)
    builder.position_at(join)
    builder.emit_ret()
    builder.position_at(dead)
    builder.emit_ret()
    labels = {
        "left": left.label,
        "right": right.label,
        "join": join.label,
        "dead": dead.label,
    }
    return func, labels


def loop_function():
    """entry -> header -> {body -> header, exit}."""
    module = Module("m")
    builder = IRBuilder(module)
    func = builder.start_function("main")
    x = builder.local("x", I32)
    header = builder.new_block("header")
    body = builder.new_block("body")
    exit_ = builder.new_block("exit")
    builder.emit_jump(header)
    builder.position_at(header)
    cond = builder.emit_load(x)
    builder.emit_branch(cond, body, exit_)
    builder.position_at(body)
    builder.emit_jump(header)
    builder.position_at(exit_)
    builder.emit_ret()
    labels = {"header": header.label, "body": body.label, "exit": exit_.label}
    return func, labels


def collect_labels(label, state):
    """Transfer that appends the block's own label to a frozenset state."""
    return state | {label}


class TestSolveForward:
    def test_may_join_collects_both_branches(self):
        func, labels = diamond_function()
        solution = solve_forward(
            CFG(func), frozenset(), collect_labels, lambda a, b: a | b
        )
        join = labels["join"]
        assert solution.block_in[join] == {
            "entry", labels["left"], labels["right"]
        }
        assert solution.block_out[join] == solution.block_in[join] | {join}

    def test_must_join_keeps_only_common_facts(self):
        func, labels = diamond_function()
        solution = solve_forward(
            CFG(func), frozenset(), collect_labels, lambda a, b: a & b
        )
        # Neither branch block is on *every* path into the join.
        assert solution.block_in[labels["join"]] == {"entry"}

    def test_unreachable_block_receives_no_state(self):
        func, labels = diamond_function()
        calls = []

        def transfer(label, state):
            calls.append(label)
            return state | {label}

        solution = solve_forward(
            CFG(func), frozenset(), transfer, lambda a, b: a | b
        )
        assert labels["dead"] not in solution.block_in
        assert labels["dead"] not in solution.block_out
        assert labels["dead"] not in calls

    def test_loop_reaches_fixpoint(self):
        func, labels = loop_function()
        solution = solve_forward(
            CFG(func), frozenset(), collect_labels, lambda a, b: a | b
        )
        # The back edge feeds body facts into the header.
        assert solution.block_in[labels["header"]] == {
            "entry", labels["header"], labels["body"]
        }
        assert solution.passes >= 2  # at least one extra sweep for the loop

    def test_entry_state_seeds_the_entry_block(self):
        func, labels = diamond_function()
        solution = solve_forward(
            CFG(func),
            frozenset({"seed"}),
            collect_labels,
            lambda a, b: a | b,
        )
        assert "seed" in solution.block_in["entry"]
        assert "seed" in solution.block_in[labels["join"]]

    def test_infinite_chain_raises_instead_of_spinning(self):
        func, labels = loop_function()

        def transfer(label, state):
            # Monotone but over an infinite-height lattice: the loop grows
            # the counter forever.
            return state + 1 if label == labels["header"] else state

        with pytest.raises(AnalysisError, match="did not converge"):
            solve_forward(CFG(func), 0, transfer, max)


# ---------------------------------------------------------------------------
# Equivalence with full sweeps
# ---------------------------------------------------------------------------


def full_sweep_solve_forward(
    cfg, entry_state, transfer, join, edge_transfer=None, widen=None,
    widen_at=(),
):
    """Reference oracle: the round-robin solver that re-joins *every*
    block on every sweep. ``solve_forward`` sweeps only dirty blocks and
    must agree with this on states, ``passes`` and the convergence error."""
    order = cfg.reverse_postorder()
    block_in, block_out = {}, {}
    widen_labels = frozenset(widen_at) if widen is not None else frozenset()
    max_passes = 2 * len(order) + 8 + 8 * len(widen_labels)
    passes = 0
    changed = True
    while changed:
        passes += 1
        if passes > max_passes:
            raise AnalysisError(
                f"{cfg.function.name}: dataflow did not converge in "
                f"{max_passes} passes (non-monotone transfer function?)"
            )
        changed = False
        for label in order:
            state = entry_state if label == cfg.entry else None
            for pred in cfg.preds[label]:
                out = block_out.get(pred)
                if out is None:
                    continue
                if edge_transfer is not None:
                    out = edge_transfer(pred, label, out)
                    if out is None:
                        continue
                state = out if state is None else join(state, out)
            if state is None:
                continue
            if label in block_in:
                if state == block_in[label]:
                    continue
                if label in widen_labels:
                    state = widen(block_in[label], state)
                    if state == block_in[label]:
                        continue
            block_in[label] = state
            out_state = transfer(label, state)
            if label not in block_out or out_state != block_out[label]:
                block_out[label] = out_state
                changed = True
    return block_in, block_out, passes


#: The test domain: a tuple of ``len(VARS)`` intervals, each a (lo, hi)
#: pair clamped to [-BOUND, BOUND] — finite height, with widening.
BOUND = 6
VARS = 2


def _clamp(value):
    return max(-BOUND, min(BOUND, value))


interval = st.tuples(
    st.integers(-BOUND, BOUND), st.integers(-BOUND, BOUND)
).map(sorted).map(tuple)

#: Per block and variable: keep, saturating add of a constant, or assign.
block_effect = st.one_of(
    st.tuples(st.just("add"), st.integers(-2, 2)),
    st.just(("keep",)),
    st.tuples(st.just("set"), interval),
)

#: Per edge: pass through, guard one variable (``<= t`` / ``>= t``; empty
#: result makes the edge infeasible for that state), or always infeasible.
edge_effect = st.one_of(
    st.just(("pass",)),
    st.tuples(
        st.sampled_from(["le", "ge"]),
        st.integers(0, VARS - 1),
        st.integers(-BOUND, BOUND),
    ),
    st.just(("drop",)),
)


@st.composite
def dataflow_problems(draw):
    """A random CFG — loops, irreducible and duplicate edges, unreachable
    blocks — plus a pure transfer/edge/widen triple over it."""
    n = draw(st.integers(2, 12))
    terminators = []
    for i in range(n):
        # Falling through to the next block keeps most blocks reachable;
        # the other target is anywhere, so back edges are common.
        fall = st.just(min(i + 1, n - 1))
        anywhere = st.integers(0, n - 1)
        terminators.append(draw(st.one_of(
            st.tuples(st.just("branch"), fall, anywhere),
            st.tuples(st.just("branch"), anywhere, fall),
            st.tuples(st.just("jump"), st.one_of(fall, anywhere)),
            st.just(("ret",)),
        )))
    module = Module("m")
    builder = IRBuilder(module)
    func = builder.start_function("main")
    x = builder.local("x", I32)
    blocks = [func.entry] + [builder.new_block("b") for _ in range(n - 1)]
    for block, term in zip(blocks, terminators):
        builder.position_at(block)
        if term[0] == "ret":
            builder.emit_ret()
        elif term[0] == "jump":
            builder.emit_jump(blocks[term[1]])
        else:
            builder.emit_branch(
                builder.emit_load(x), blocks[term[1]], blocks[term[2]]
            )
    cfg = CFG(func)
    effects = {
        b.label: draw(st.tuples(*[block_effect] * VARS)) for b in blocks
    }
    edges = {(e.src, e.dst): draw(edge_effect) for e in cfg.edges()}
    widen_at = draw(st.one_of(
        st.none(), st.sets(st.sampled_from([b.label for b in blocks]))
    ))
    entry = draw(st.tuples(*[interval] * VARS))
    return cfg, entry, effects, edges, widen_at


def make_domain(effects, edges):
    def transfer(label, state):
        out = []
        for (lo, hi), effect in zip(state, effects[label]):
            if effect[0] == "add":
                lo, hi = _clamp(lo + effect[1]), _clamp(hi + effect[1])
            elif effect[0] == "set":
                lo, hi = effect[1]
            out.append((lo, hi))
        return tuple(out)

    def join(a, b):
        return tuple(
            (min(x[0], y[0]), max(x[1], y[1])) for x, y in zip(a, b)
        )

    def widen(old, new):
        return tuple(
            (o[0] if n[0] >= o[0] else -BOUND, o[1] if n[1] <= o[1] else BOUND)
            for o, n in zip(old, new)
        )

    def edge_transfer(src, dst, state):
        effect = edges[(src, dst)]
        if effect[0] == "pass":
            return state
        if effect[0] == "drop":
            return None
        kind, var, t = effect
        lo, hi = state[var]
        lo, hi = (lo, min(hi, t)) if kind == "le" else (max(lo, t), hi)
        if lo > hi:
            return None
        return state[:var] + ((lo, hi),) + state[var + 1:]

    return transfer, join, widen, edge_transfer


def _outcome(solver, cfg, entry, effects, edges, widen_at):
    transfer, join, widen, edge_transfer = make_domain(effects, edges)
    try:
        return solver(
            cfg, entry, transfer, join,
            edge_transfer=edge_transfer,
            widen=widen if widen_at is not None else None,
            widen_at=widen_at or (),
        )
    except AnalysisError as exc:
        return ("raised", str(exc))


class TestDirtySweepsMatchFullSweeps:
    @settings(max_examples=300, deadline=None)
    @given(dataflow_problems())
    def test_states_and_passes_identical(self, problem):
        cfg, entry, effects, edges, widen_at = problem
        expected = _outcome(
            full_sweep_solve_forward, cfg, entry, effects, edges, widen_at
        )
        got = _outcome(solve_forward, cfg, entry, effects, edges, widen_at)
        if isinstance(got, tuple):
            assert got == expected
        else:
            assert (got.block_in, got.block_out, got.passes) == expected

    def test_settled_chain_is_not_revisited(self):
        """A block none of whose predecessors changed is skipped: after a
        loop settles, the chain behind it is neither re-joined nor
        re-transferred, while a full sweep re-joins all of it each pass."""
        module = Module("m")
        builder = IRBuilder(module)
        func = builder.start_function("main")
        x = builder.local("x", I32)
        header = builder.new_block("header")
        body = builder.new_block("body")
        chain = [builder.new_block("chain") for _ in range(20)]
        builder.emit_jump(header)
        builder.position_at(header)
        builder.emit_branch(builder.emit_load(x), body, chain[0])
        builder.position_at(body)
        builder.emit_jump(header)
        for block, nxt in zip(chain, chain[1:]):
            builder.position_at(block)
            builder.emit_jump(nxt)
        builder.position_at(chain[-1])
        builder.emit_ret()
        cfg = CFG(func)

        def counted(solver):
            transfers, visits = Counter(), Counter()

            def transfer(label, state):
                transfers[label] += 1
                return state | {label}

            def edge_transfer(src, dst, state):
                visits[dst] += 1
                return state

            result = solver(
                cfg, frozenset(), transfer, lambda a, b: a | b,
                edge_transfer=edge_transfer,
            )
            return result, transfers, visits

        dirty, dirty_transfers, dirty_visits = counted(solve_forward)
        (block_in, block_out, passes), full_transfers, full_visits = counted(
            full_sweep_solve_forward
        )
        assert (dirty.block_in, dirty.block_out) == (block_in, block_out)
        # The back edge adds one sweep; a last one confirms nothing changed.
        assert dirty.passes == passes == 3
        assert dirty_transfers == full_transfers
        for block in chain:
            # The chain's in-state changes in the first two sweeps only.
            assert dirty_transfers[block.label] == 2
            assert dirty_visits[block.label] == 2
            assert full_visits[block.label] == 3
