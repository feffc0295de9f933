"""Unit tests for the IRBuilder, BasicBlock, Function and Module."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Const,
    I32,
    IRBuilder,
    Module,
    Opcode,
    Param,
    U8,
    Variable,
)


def build_simple():
    module = Module("m")
    builder = IRBuilder(module)
    func = builder.start_function("main")
    x = builder.local("x", I32)
    builder.emit_store(x, builder.const(4, I32))
    loaded = builder.emit_load(x)
    doubled = builder.emit_binop(Opcode.MUL, loaded, Const(2, I32))
    builder.emit_store(x, doubled)
    builder.emit_ret()
    return module, builder, func


class TestBuilder:
    def test_entry_block_created(self):
        module, _, func = build_simple()
        assert func.entry.label == "entry"
        assert func.entry.is_terminated

    def test_fresh_registers_unique(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        regs = {builder.fresh_reg(I32).name for _ in range(10)}
        assert len(regs) == 10

    def test_cannot_append_after_terminator(self):
        module, builder, func = build_simple()
        with pytest.raises(IRError):
            builder.emit_ret()

    def test_load_array_requires_index(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        arr = builder.local("arr", I32, count=4)
        with pytest.raises(IRError):
            builder.emit_load(arr)

    def test_store_scalar_rejects_index(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        x = builder.local("x", I32)
        with pytest.raises(IRError):
            builder.emit_store(x, Const(1, I32), index=Const(0, I32))

    def test_store_to_const_rejected(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        table = builder.local("t", U8, count=2, is_const=True, init=[1, 2])
        with pytest.raises(IRError):
            builder.emit_store(table, Const(1, U8), index=Const(0, I32))

    def test_comparison_result_is_u8(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        r = builder.emit_binop(Opcode.LT, Const(1, I32), Const(2, I32))
        assert r.type == U8

    def test_local_names_are_mangled(self):
        module, _, func = build_simple()
        assert func.variables["x"].name == "main.x"


class TestBasicBlock:
    def test_successor_labels_branch(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        then = builder.new_block("then")
        done = builder.new_block("done")
        cond = builder.emit_binop(Opcode.EQ, Const(1, I32), Const(1, I32))
        entry = builder.block
        builder.emit_branch(cond, then, done)
        assert set(entry.successor_labels()) == {then.label, done.label}
        builder.position_at(then)
        builder.emit_jump(done)
        assert then.successor_labels() == [done.label]

    def test_branch_same_target_deduplicated(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        target = builder.new_block("t")
        cond = builder.emit_binop(Opcode.EQ, Const(1, I32), Const(1, I32))
        entry = builder.block
        builder.emit_branch(cond, target, target)
        assert entry.successor_labels() == [target.label]


class TestFunction:
    def test_duplicate_block_label_rejected(self):
        module = Module("m")
        builder = IRBuilder(module)
        func = builder.start_function("f")
        with pytest.raises(IRError):
            func.add_block("entry")

    def test_duplicate_variable_rejected(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        builder.local("x", I32)
        with pytest.raises(IRError):
            builder.local("x", I32)

    def test_arg_registers_align_with_params(self):
        func_params = [
            Param("a", I32),
            Param("buf", I32, is_ref=True),
            Param("b", U8),
        ]
        from repro.ir import Function

        func = Function("f", func_params)
        regs = func.arg_registers()
        assert regs[0].name == "arg0" and regs[0].type == I32
        assert regs[1] is None
        assert regs[2].name == "arg2" and regs[2].type == U8

    def test_called_functions_deduplicated(self):
        module = Module("m")
        builder = IRBuilder(module)
        callee = builder.start_function("callee", return_type=I32)
        builder.emit_ret(Const(0, I32))
        caller = builder.start_function("caller")
        builder.emit_call("callee", [], I32)
        builder.emit_call("callee", [], I32)
        builder.emit_ret()
        assert caller.called_functions() == ["callee"]


class TestModule:
    def test_duplicate_global_rejected(self):
        module = Module("m")
        module.add_global(Variable("g", I32))
        with pytest.raises(IRError):
            module.add_global(Variable("g", I32))

    def test_data_footprint_counts_globals_and_locals(self):
        module, _, func = build_simple()
        module.add_global(Variable("g", I32, count=10))
        # main.x (4) + g (40)
        assert module.data_footprint_bytes() == 44

    def test_footprint_excludes_ref_params(self):
        module = Module("m")
        builder = IRBuilder(module)
        func = builder.start_function("f", [Param("buf", I32, is_ref=True)])
        func.add_variable(
            Variable("f.buf", I32, count=2, is_ref=True), bare_name="buf"
        )
        builder.emit_ret()
        assert module.data_footprint_bytes() == 0

    def test_find_variable(self):
        module, _, _ = build_simple()
        assert module.find_variable("main.x").name == "main.x"
        with pytest.raises(IRError):
            module.find_variable("nope")

    def test_clone_is_deep(self):
        module, _, _ = build_simple()
        clone = module.clone()
        clone.functions["main"].blocks["entry"].instructions.pop()
        original = module.functions["main"].blocks["entry"]
        assert original.is_terminated


def _reachable(root):
    """Every object reachable from ``root`` through containers and
    instance attributes, by id (scalars and enum members left out)."""
    import enum

    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (str, int, float, type(None), enum.Enum)
        ):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return seen


def _is_immutable(obj):
    import dataclasses

    if isinstance(obj, (tuple, frozenset)):
        return True
    return dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen


def _corpus_modules():
    from repro.testkit.corpus import available_programs, load_program

    return [pytest.param(name, id=name) for name in available_programs()]


class TestClone:
    """``Module.clone`` is a deep copy: equal text, the module's own
    aliasing kept, no mutable object shared with the source."""

    @pytest.mark.parametrize("program", _corpus_modules())
    def test_clone_over_corpus(self, program):
        from repro.ir.instructions import Call, VarRef
        from repro.ir.printer import print_module
        from repro.testkit.corpus import load_program

        module = load_program(program).module
        clone = module.clone()
        assert print_module(clone) == print_module(module)

        # Every instruction's variable is the clone's own entry.
        for func in clone.functions.values():
            own = dict(clone.globals)
            own.update({v.name: v for v in func.variables.values()})
            for block in func.blocks.values():
                for inst in block:
                    used = inst.var_reads() + inst.var_writes()
                    if isinstance(inst, Call):
                        used += [a.variable for a in inst.args
                                 if isinstance(a, VarRef)]
                    for var in used:
                        assert var is own[var.name], (func.name, str(inst))

        source = _reachable(module)
        shared = [
            obj for key, obj in _reachable(clone).items()
            if key in source and not _is_immutable(obj)
        ]
        assert shared == []
        for name, func in module.functions.items():
            twin = clone.functions[name]
            assert twin.loop_maxiter == func.loop_maxiter
            assert twin.loop_maxiter is not func.loop_maxiter
            assert twin.atomic_ranges == func.atomic_ranges
