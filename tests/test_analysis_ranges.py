"""Unit tests for the interprocedural value-range analysis.

Covers the interval domain (lattice, wrapping, transfer functions that
mirror the emulator's C semantics), widening termination on
data-dependent loops, trip-count derivation for the monotone
induction-variable shapes the deriver claims, conditional-branch
refinement (infeasible edges), and the interprocedural summaries.
"""

from __future__ import annotations

import pytest

from repro.analysis.ranges import (
    FunctionRanges,
    Interval,
    ModuleRanges,
    apply_inferred_bounds,
    binop_interval,
    infer_module_bounds,
    unop_interval,
)
from repro.frontend import compile_source
from repro.ir.instructions import Opcode, UnaryOpcode
from repro.ir.types import I8, I32, U8, U16, U32
from repro.testkit.corpus import available_programs, load_program


def ranges_for(src: str, func: str = "main") -> FunctionRanges:
    module = compile_source(src, "ranges_test")
    return ModuleRanges(module).functions[func]


class TestIntervalLattice:
    def test_constructors_and_ordering(self):
        assert Interval.point(5) == Interval(5, 5)
        assert Interval.of_values([3, -2, 7]) == Interval(-2, 7)
        assert Interval.of_type(U8) == Interval(0, 255)
        assert Interval.of_type(I8) == Interval(-128, 127)
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_join_meet_contains(self):
        a, b = Interval(0, 10), Interval(5, 20)
        assert a.join(b) == Interval(0, 20)
        assert a.meet(b) == Interval(5, 10)
        assert Interval(0, 3).meet(Interval(5, 9)) is None
        assert a.contains(10) and not a.contains(11)

    def test_wrapped_contiguous_segment(self):
        # [256, 260] wraps to [0, 4] in u8: both ends shift by one modulus.
        assert Interval(256, 260).wrapped(U8) == Interval(0, 4)

    def test_wrapped_seam_straddle_loses_precision(self):
        # [250, 260] wraps to {250..255, 0..4}: not contiguous, so the
        # sound answer is the full type range.
        assert Interval(250, 260).wrapped(U8) == Interval.of_type(U8)

    def test_wrapped_wide_interval_is_top(self):
        assert Interval(0, 256).wrapped(U8) == Interval.of_type(U8)
        assert Interval(0, 255).wrapped(U8) == Interval(0, 255)

    def test_compare_lattice(self):
        lo, hi = Interval(0, 5), Interval(10, 20)
        assert lo.compare(Opcode.LT, hi) == Interval(1, 1)
        assert hi.compare(Opcode.LT, lo) == Interval(0, 0)
        assert Interval(0, 15).compare(Opcode.LT, hi) == Interval(0, 1)
        assert Interval.point(3).compare(Opcode.EQ, Interval.point(3)) \
            == Interval(1, 1)
        assert Interval.point(3).compare(Opcode.NE, Interval.point(3)) \
            == Interval(0, 0)


class TestTransferFunctions:
    def test_add_sub_exact(self):
        assert binop_interval(
            Opcode.ADD, Interval(1, 3), Interval(10, 20)
        ) == Interval(11, 23)
        assert binop_interval(
            Opcode.SUB, Interval(1, 3), Interval(10, 20)
        ) == Interval(-19, -7)

    def test_mul_corners_with_negatives(self):
        assert binop_interval(
            Opcode.MUL, Interval(-2, 3), Interval(-5, 4)
        ) == Interval(-15, 12)

    def test_div_truncates_toward_zero(self):
        # C semantics: -7 / 2 == -3, not Python's floor -4.
        assert binop_interval(
            Opcode.DIV, Interval.point(-7), Interval.point(2)
        ) == Interval.point(-3)
        assert binop_interval(
            Opcode.DIV, Interval.point(7), Interval.point(-2)
        ) == Interval.point(-3)

    def test_rem_magnitude_bound_keeps_dividend_sign(self):
        # C semantics: -7 % 2 == -1. The transfer is a magnitude bound,
        # so it must cover the true result while excluding positives.
        rem = binop_interval(Opcode.REM, Interval.point(-7), Interval.point(2))
        assert rem is not None and rem.contains(-1) and rem.hi <= 0
        rem = binop_interval(Opcode.REM, Interval(0, 100), Interval.point(8))
        assert rem is not None and rem.lo >= 0 and rem.hi <= 7

    def test_shift_amounts(self):
        # In-range shift amounts are exact.
        assert binop_interval(
            Opcode.SHL, Interval.point(1), Interval.point(3)
        ) == Interval.point(8)
        assert binop_interval(
            Opcode.SHR, Interval.point(8), Interval.point(2)
        ) == Interval.point(2)
        # The emulator masks shift amounts with `& 31`: a shift by 33
        # executes as a shift by 1; whatever precision the transfer
        # keeps, it must cover that result.
        masked = binop_interval(
            Opcode.SHL, Interval.point(1), Interval.point(33)
        )
        assert masked is not None and masked.contains(2)

    def test_comparison_binops_return_bits(self):
        out = binop_interval(Opcode.LE, Interval(0, 9), Interval(4, 5))
        assert out is not None and out.lo >= 0 and out.hi <= 1

    def test_unops(self):
        assert unop_interval(UnaryOpcode.NEG, Interval(-3, 5)) \
            == Interval(-5, 3)
        assert unop_interval(UnaryOpcode.NOT, Interval(0, 7)) \
            == Interval(-8, -1)
        assert unop_interval(UnaryOpcode.LNOT, Interval.point(0)) \
            == Interval.point(1)
        assert unop_interval(UnaryOpcode.LNOT, Interval(3, 9)) \
            == Interval.point(0)
        assert unop_interval(UnaryOpcode.LNOT, Interval(0, 9)) \
            == Interval(0, 1)


class TestWideningTermination:
    def test_data_dependent_loop_terminates(self):
        # `n` is an external input (non-const global): the analysis must
        # settle without enumerating iterations, via threshold widening.
        fr = ranges_for("""
            i32 n;
            u32 out;
            void main() {
                i32 i = 0;
                while (i < n) {
                    out = out + 1;
                    i = i + 1;
                }
            }
        """)
        assert fr.solution is not None
        # No static trip bound: n is unknown.
        assert fr.trip_bounds == {}

    def test_nested_loops_terminate_with_sound_bounds(self):
        fr = ranges_for("""
            u32 out;
            void main() {
                for (i32 i = 0; i < 6; i++) {
                    for (i32 j = 0; j < 4; j++) {
                        out = out + 1;
                    }
                }
            }
        """)
        exact = {(b.max_trips, b.exact) for b in fr.trip_bounds.values()}
        assert exact == {(6, True), (4, True)}


class TestTripDerivation:
    def test_upward_for_loop_is_exact(self):
        fr = ranges_for("""
            u32 out;
            void main() {
                for (i32 i = 0; i < 16; i++) { out = out + 1; }
            }
        """)
        (bound,) = fr.trip_bounds.values()
        assert bound.exact and bound.max_trips == 16 == bound.min_trips

    def test_downward_loop_is_exact(self):
        fr = ranges_for("""
            u32 out;
            void main() {
                i32 i = 10;
                while (i > 0) {
                    out = out + 1;
                    i = i - 1;
                }
            }
        """)
        (bound,) = fr.trip_bounds.values()
        assert bound.exact and bound.max_trips == 10

    def test_ne_exit_with_unit_step(self):
        fr = ranges_for("""
            u32 out;
            void main() {
                i32 i = 0;
                while (i != 8) {
                    out = out + 1;
                    i = i + 1;
                }
            }
        """)
        (bound,) = fr.trip_bounds.values()
        assert bound.exact and bound.max_trips == 8

    def test_loop_invariant_variable_bound(self):
        fr = ranges_for("""
            u32 out;
            void main() {
                i32 n = 12;
                i32 i = 0;
                while (i < n) {
                    out = out + 1;
                    i = i + 1;
                }
            }
        """)
        (bound,) = fr.trip_bounds.values()
        assert bound.max_trips == 12

    def test_bound_mutated_in_loop_not_derived(self):
        # `n` is stored inside the loop: not loop-invariant, so no
        # closed-form trip count may be claimed.
        fr = ranges_for("""
            u32 out;
            void main() {
                i32 n = 12;
                i32 i = 0;
                while (i < n) {
                    out = out + 1;
                    i = i + 1;
                    n = n - 1;
                }
            }
        """)
        assert fr.trip_bounds == {}

    def test_non_induction_loop_not_derived(self):
        # Halving is not a constant-step induction pattern.
        fr = ranges_for("""
            u32 x;
            void main() {
                while (x != 0) { x = x >> 1; }
            }
        """)
        assert fr.trip_bounds == {}

    def test_wrapping_counter_is_handled_soundly(self):
        # u8 counter from 250 to 5 via wraparound: the real trip count is
        # 11. The deriver may refuse (the trajectory wraps in-type), but
        # must never claim fewer iterations than actually run.
        fr = ranges_for("""
            u32 out;
            void main() {
                u8 i = 250;
                while (i != 5) {
                    out = out + 1;
                    i = i + 1;
                }
            }
        """)
        for bound in fr.trip_bounds.values():
            assert bound.max_trips >= 11

    def test_multiple_counter_stores_not_derived(self):
        fr = ranges_for("""
            u32 out;
            void main() {
                i32 i = 0;
                while (i < 16) {
                    i = i + 1;
                    if (out > 100) { i = i + 2; }
                    out = out + 1;
                }
            }
        """)
        for bound in fr.trip_bounds.values():
            # If anything is derived it must still be a sound upper
            # bound for the fastest trajectory (step 3 -> at least 6).
            assert bound.max_trips >= 6


class TestRefinement:
    def test_unsigned_negative_compare_is_infeasible(self):
        fr = ranges_for("""
            u32 x;
            u32 out;
            void main() {
                if (x < 0) { out = 1; } else { out = 2; }
            }
        """)
        assert fr.infeasible_edges()
        # The `out = 1` arm is unreachable.
        reachable = set(fr.reachable_blocks())
        assert len(reachable) < len(fr.func.blocks)

    def test_contradictory_nested_guards(self):
        fr = ranges_for("""
            i32 x;
            u32 out;
            void main() {
                if (x < 10) {
                    if (x > 20) { out = 1; }
                }
            }
        """)
        assert fr.infeasible_edges()

    def test_feasible_branches_stay_feasible(self):
        fr = ranges_for("""
            i32 x;
            u32 out;
            void main() {
                if (x < 10) { out = 1; } else { out = 2; }
            }
        """)
        assert fr.infeasible_edges() == []
        assert set(fr.reachable_blocks()) == set(fr.func.blocks)


class TestInterprocedural:
    SRC = """
        u32 g;
        u32 out;
        u32 seven() { return 7; }
        void set_g() { g = 5; }
        void main() {
            set_g();
            if (g > 10) { out = 1; }
            i32 n = (i32) seven();
            i32 i = 0;
            while (i < n) {
                out = out + 1;
                i = i + 1;
            }
        }
    """

    def test_callee_return_interval(self):
        module = compile_source(self.SRC, "interproc")
        mr = ModuleRanges(module)
        assert mr.functions["seven"].return_interval == Interval.point(7)

    def test_global_exit_state_refines_caller(self):
        module = compile_source(self.SRC, "interproc")
        mr = ModuleRanges(module)
        summary = mr.functions["set_g"].summary
        assert "g" in summary.writes
        assert summary.global_exit.get("g") == Interval.point(5)
        # After the call g == 5, so `g > 10` is statically dead.
        assert mr.functions["main"].infeasible_edges()

    def test_trip_bound_through_callee_return(self):
        module = compile_source(self.SRC, "interproc")
        mr = ModuleRanges(module)
        bound = next(iter(mr.functions["main"].trip_bounds.values()))
        assert bound.max_trips == 7


class TestModuleBoundHelpers:
    SRC = """
        u32 out;
        void main() {
            i32 i = 0;
            while (i < 9) {
                out = out + 1;
                i = i + 1;
            }
        }
    """

    def test_infer_module_bounds_keys(self):
        module = compile_source(self.SRC, "helpers")
        bounds = infer_module_bounds(module)
        assert list(bounds.values()) == [9]
        ((fname, header),) = bounds.keys()
        assert fname == "main" and header in module.functions["main"].blocks

    def test_apply_fills_only_missing_entries(self):
        module = compile_source(self.SRC, "helpers")
        func = module.functions["main"]
        assert func.loop_maxiter == {}  # while loops carry no AST bound
        applied = apply_inferred_bounds(module)
        assert list(applied.values()) == [9]
        assert list(func.loop_maxiter.values()) == [9]
        # A declared annotation is never overwritten, even when wrong.
        header = next(iter(func.loop_maxiter))
        func.loop_maxiter[header] = 3
        assert apply_inferred_bounds(module) == {}
        assert func.loop_maxiter[header] == 3

    def test_value_preserving_widths(self):
        # Sanity on the helper the symbolic resolver builds on: the
        # u16 range embeds in i32, i8 does not embed in u8.
        assert Interval.of_type(U16).meet(Interval.of_type(I32)) \
            == Interval.of_type(U16)
        assert Interval.of_type(I8).meet(Interval.of_type(U8)) \
            == Interval(0, 127)

    def test_point_arithmetic_matches_wrapped_execution(self):
        # End-to-end: constants folded through a chain of ops agree with
        # the emulator's result for the same program.
        fr = ranges_for("""
            u32 out;
            void main() {
                u32 a = 7;
                u32 b = a * 13 + 5;
                u32 c = b << 3;
                out = c + 6;
            }
        """)
        from repro.emulator.interpreter import run_continuous
        from tests.helpers import MODEL
        report = run_continuous(fr.module, MODEL)
        expected = report.outputs["out"][0]
        exit_label = [
            lbl for lbl, b in fr.func.blocks.items()
            if not b.successor_labels()
        ][0]
        state = fr.solution.block_out[exit_label]
        out_iv = fr._var_interval(state, fr.module.globals["out"])
        assert out_iv == Interval.point(expected)


#: A two-entry cycle (.a <-> .b): no natural loop, so LoopNest refuses it.
IRREDUCIBLE_IR = """module irr (entry @main)
global @out:u32

func @main() -> void {
.entry:
    %t1:u32 = load.auto @out
    %t2:u8 = lt %t1:u32, 3:i32
    branch %t2:u8 ? .a : .b
.a:
    %t3:u32 = load.auto @out
    %t4:u32 = add %t3:u32, 1:i32
    store.auto @out = %t4:u32
    %t5:u8 = lt %t4:u32, 10:i32
    branch %t5:u8 ? .b : .done
.b:
    %t6:u32 = load.auto @out
    %t7:u32 = add %t6:u32, 2:i32
    store.auto @out = %t7:u32
    jump .a
.done:
    ret
}
"""


class TestInferOnlyWhereMissing:
    """``apply_inferred_bounds`` builds a ``ModuleRanges`` only when some
    loop header lacks a ``loop_maxiter`` entry."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        import repro.analysis.ranges as ranges_mod

        built = []

        class Counting(ranges_mod.ModuleRanges):
            def __init__(self, module):
                built.append(module)
                super().__init__(module)

        monkeypatch.setattr(ranges_mod, "ModuleRanges", Counting)
        return built

    @pytest.mark.parametrize("program", available_programs())
    def test_fully_annotated_module_skips_analysis(self, program,
                                                   constructions):
        module = load_program(program).module
        before = {
            name: dict(func.loop_maxiter)
            for name, func in module.functions.items()
        }
        assert any(before.values())  # the program has annotated loops
        assert apply_inferred_bounds(module) == {}
        assert constructions == []
        assert before == {
            name: func.loop_maxiter for name, func in module.functions.items()
        }

    def test_unannotated_loop_gets_the_inferred_bound(self, constructions):
        src = TestModuleBoundHelpers.SRC.replace(
            "void main() {",
            "void main() {\n for (i32 j = 0; j < 4; j++) { out = out ^ 1; }",
        )
        module = compile_source(src, "mixed")
        func = module.functions["main"]
        assert len(func.loop_maxiter) == 1  # the for loop's bound only
        expected = {
            key: trips
            for key, trips in infer_module_bounds(
                compile_source(src, "mixed")
            ).items()
            if key[1] not in func.loop_maxiter
        }
        constructions.clear()
        assert list(expected.values()) == [9]
        assert apply_inferred_bounds(module) == expected
        assert len(constructions) == 1

    def test_irreducible_function(self, constructions):
        from repro.ir.textparser import parse_ir

        module = parse_ir(IRREDUCIBLE_IR)
        assert infer_module_bounds(module) == {}
        constructions.clear()
        assert apply_inferred_bounds(module) == {}
        assert constructions == []
        assert module.functions["main"].loop_maxiter == {}

    def test_supplied_ranges_are_used_as_given(self, constructions):
        module = load_program("crc").module
        ranges = ModuleRanges(module)
        constructions.clear()
        assert apply_inferred_bounds(module, ranges) == {}
        assert constructions == []


class TestStoredStateInvariant:
    """``FunctionRanges._join`` keeps an entry as it is when both sides
    hold equal intervals, skipping ``_norm``. That is exact only while
    every stored interval is a fixed point of ``_norm`` and never ⊤; an
    assignment that bypasses ``_set`` would break it and fail here."""

    @staticmethod
    def assert_normalized(fr: FunctionRanges, state, where: str) -> None:
        for key, iv in state.items():
            assert key in fr._key_bounds, f"{where}: untyped key {key}"
            assert fr._norm(key, iv) == iv, (
                f"{where}: {key} = {iv} is not normalized (⊤ or unclamped)"
            )

    @pytest.mark.parametrize("name", available_programs())
    def test_stored_intervals_are_norm_fixed_points(self, name, monkeypatch):
        join = FunctionRanges._join

        def checked_join(fr, a, b):
            where = f"{name}/{fr.func.name}: join input"
            self.assert_normalized(fr, a, where)
            self.assert_normalized(fr, b, where)
            return join(fr, a, b)

        monkeypatch.setattr(FunctionRanges, "_join", checked_join)
        mr = ModuleRanges(load_program(name).module)
        for fname, fr in mr.functions.items():
            solution = fr.solution
            for kind, states in (
                ("in", solution.block_in), ("out", solution.block_out)
            ):
                for label, state in states.items():
                    self.assert_normalized(
                        fr, state, f"{name}/{fname} block_{kind}[{label}]"
                    )
            for label in fr.reachable_blocks():
                n = len(fr.func.blocks[label].instructions)
                for index in range(n):
                    self.assert_normalized(
                        fr, fr.state_at(label, index),
                        f"{name}/{fname} .{label}[{index}]",
                    )
