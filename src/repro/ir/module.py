"""Modules: the top-level IR container (globals + functions)."""

from __future__ import annotations

import pickle
from typing import Dict, List

from repro.errors import IRError
from repro.ir.function import Function
from repro.ir.values import Variable


class Module:
    """A whole program: global variables and functions.

    Attributes:
        name: module name (used in dumps only).
        globals: name -> global variable.
        functions: name -> function, in insertion order.
        entry: name of the entry function (``main`` by default).
    """

    def __init__(self, name: str = "module", entry: str = "main"):
        self.name = name
        self.entry = entry
        self.globals: Dict[str, Variable] = {}
        self.functions: Dict[str, Function] = {}

    # -- globals -----------------------------------------------------------

    def add_global(self, var: Variable) -> Variable:
        if var.name in self.globals:
            raise IRError(f"module {self.name}: duplicate global {var.name!r}")
        var.is_global = True
        self.globals[var.name] = var
        return var

    # -- functions ---------------------------------------------------------

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise IRError(f"module {self.name}: duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"module {self.name}: no function {name!r}") from None

    @property
    def entry_function(self) -> Function:
        return self.function(self.entry)

    # -- variables ---------------------------------------------------------

    def all_variables(self) -> List[Variable]:
        """Every variable in the module: globals then each function's locals."""
        result = list(self.globals.values())
        for func in self.functions.values():
            result.extend(func.variables.values())
        return result

    def find_variable(self, name: str) -> Variable:
        """Look up a variable by its unique (mangled) name."""
        if name in self.globals:
            return self.globals[name]
        for func in self.functions.values():
            for var in func.variables.values():
                if var.name == name:
                    return var
        raise IRError(f"module {self.name}: no variable {name!r}")

    def data_footprint_bytes(self, include_const: bool = True) -> int:
        """Total data size of the module's variables in bytes.

        Used by the Table I feasibility checks: a technique whose working
        memory is VM can only run the program if this footprint fits.
        By-reference parameters alias caller storage and are excluded.
        """
        total = 0
        for var in self.all_variables():
            if var.is_ref:
                continue
            if var.is_const and not include_const:
                continue
            total += var.size_bytes
        return total

    def clone(self) -> "Module":
        """Deep-copy the module so a transformation pass can rewrite it
        without mutating the caller's program.

        A pickle round trip: like ``copy.deepcopy`` it copies every
        object once and keeps the aliasing inside the module (a ``Load``'s
        variable *is* its clone's ``globals``/``variables`` entry), at a
        third of the cost."""
        return pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def __repr__(self) -> str:
        return (
            f"Module({self.name}, {len(self.globals)} globals, "
            f"{len(self.functions)} functions)"
        )
