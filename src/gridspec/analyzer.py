"""Static analysis: name resolution, type checking, and rule elaboration.

Elaboration instantiates every equation against every concrete cell of
its table by direct enumeration (bounds are small and explicit), so
coverage and overlap verdicts are exact: every derived cell must be
matched by exactly one equation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .ast import (
    BUILTINS,
    AllIndex,
    Binary,
    BooleanLit,
    BoundsDecl,
    Call,
    ConstantPattern,
    ElementRef,
    EquationDecl,
    Expr,
    GuardedVarPattern,
    IndexVar,
    NumberLit,
    SpecDocument,
    TableDecl,
    VarPattern,
    element_refs,
    walk,
)
from .parser import Diagnostic

_NUMERIC_FAMILY = frozenset({"number", "currency", "general"})

_GUARDS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<>": lambda a, b: a != b,
}


class CellId(NamedTuple):
    """One cell of a table.  As a tuple it hashes and compares in C, and
    its natural order, (table, indices), is the evaluation tie-break."""

    table: str
    indices: tuple[int, ...]

    def __str__(self):
        if not self.indices:
            return f"{self.table}[]"
        return f"{self.table}[{','.join(str(i) for i in self.indices)}]"


class RuleInstance(NamedTuple):
    """The equation chosen for a derived cell, and its index-variable bindings."""

    equation: EquationDecl
    substitution: dict[str, int]


class Stencil(NamedTuple):
    """An equation's element references, lowered once by `resolve`: `refs`
    holds `(table, indices, axes, ranged)` per reference in walk order,
    with per dimension the index expression (None for `all`) and the
    table's shared `(dim, low, high)`, and whether any index is `all`;
    `slots` maps the id() of each reference node to its place in `refs`."""

    refs: tuple
    slots: dict[int, int]


@dataclass
class SymbolTable:
    bounds: dict[str, tuple[int, int]]
    tables: dict[str, TableDecl]
    equations_by_table: dict[str, list[EquationDecl]]
    stencils: dict[int, Stencil] = field(repr=False)  # id() of each equation -> its stencil

    def is_input(self, table: str) -> bool:
        return not self.equations_by_table.get(table)

    def table_cells(self, table: str):
        """Enumerate every CellId of a table in row-major index order."""
        decl = self.tables[table]
        ranges = [range(self.bounds[d][0], self.bounds[d][1] + 1) for d in decl.dims]
        for combo in itertools.product(*ranges):
            yield CellId(table, combo)


@dataclass
class CellPlan:
    rules: dict[CellId, RuleInstance]
    inputs: set[CellId]
    symtab: SymbolTable
    # each rule's resolved element references; see evaluator.resolve_references
    references: dict | None = field(default=None, repr=False)


def compatible(declared: str, inferred: str) -> bool:
    if declared == inferred:
        return True
    return declared in _NUMERIC_FAMILY and inferred in _NUMERIC_FAMILY


def resolve(doc: SpecDocument) -> tuple[SymbolTable, list[Diagnostic]]:
    """Build the symbol table and each equation's stencil, reporting name
    and arity problems."""
    diagnostics: list[Diagnostic] = []
    bounds: dict[str, tuple[int, int]] = {}
    tables: dict[str, TableDecl] = {}
    equations: dict[str, list[EquationDecl]] = {}
    stencils: dict[int, Stencil] = {}

    for element in doc.elements:
        if isinstance(element, BoundsDecl):
            if element.name in bounds:
                diagnostics.append(Diagnostic(
                    "error", "DuplicateName",
                    f"bounds '{element.name}' declared more than once", element.pos))
                continue
            if element.low > element.high:
                diagnostics.append(Diagnostic(
                    "error", "InvalidBounds",
                    f"bounds '{element.name}': low bound {element.low} exceeds "
                    f"high bound {element.high}", element.pos))
                continue
            bounds[element.name] = (element.low, element.high)
        elif isinstance(element, TableDecl):
            if element.name in tables:
                diagnostics.append(Diagnostic(
                    "error", "DuplicateName",
                    f"table '{element.name}' declared more than once", element.pos))
                continue
            tables[element.name] = element
            equations[element.name] = []

    # undeclared bounds are an UnknownBounds error, reported below
    table_axes = {name: tuple([(dim, *bounds.get(dim, (1, 0))) for dim in decl.dims])
                  for name, decl in tables.items()}
    for element in doc.elements:
        if isinstance(element, TableDecl):
            for dim in element.dims:
                if dim not in bounds:
                    diagnostics.append(Diagnostic(
                        "error", "UnknownBounds",
                        f"table '{element.name}' references undeclared bounds '{dim}'",
                        element.pos))
        elif isinstance(element, EquationDecl):
            decl = tables.get(element.table)
            if decl is None:
                diagnostics.append(Diagnostic(
                    "error", "UnknownTable",
                    f"equation on undeclared table '{element.table}'", element.pos))
                continue
            if len(element.lhs_patterns) != len(decl.dims):
                diagnostics.append(Diagnostic(
                    "error", "ArityMismatch",
                    f"equation on '{element.table}' has {len(element.lhs_patterns)} "
                    f"index pattern(s) but the table has {len(decl.dims)} dimension(s)",
                    element.pos))
                continue
            equations[element.table].append(element)
            refs = []
            slots = {}
            for ref in element_refs(element.rhs):
                target = tables.get(ref.table)
                if target is None:
                    diagnostics.append(Diagnostic(
                        "error", "UnknownTable",
                        f"reference to undeclared table '{ref.table}'", element.pos))
                elif len(ref.indices) != len(target.dims):
                    diagnostics.append(Diagnostic(
                        "error", "ArityMismatch",
                        f"reference '{ref.table}' has {len(ref.indices)} index "
                        f"expression(s) but the table has {len(target.dims)} dimension(s)",
                        element.pos))
                else:
                    indices = ref.indices
                    ranged = AllIndex in map(type, indices)
                    if ranged:
                        indices = tuple([None if type(index) is AllIndex else index
                                         for index in indices])
                    slots[id(ref)] = len(refs)
                    refs.append((ref.table, indices, table_axes[ref.table], ranged))
            stencils[id(element)] = Stencil(tuple(refs), slots)

    return SymbolTable(bounds, tables, equations, stencils), diagnostics


def typecheck(doc: SpecDocument, symtab: SymbolTable) -> list[Diagnostic]:
    """Check every equation right-hand side against its table's result type."""
    diagnostics: list[Diagnostic] = []
    for element in doc.elements:
        if not isinstance(element, EquationDecl) or element.table not in symtab.tables:
            continue
        bound_vars = {p.name for p in element.lhs_patterns
                      if isinstance(p, (VarPattern, GuardedVarPattern))}
        checker = _TypeChecker(symtab, bound_vars, element, diagnostics)
        inferred = checker.infer(element.rhs, all_ok=False)
        declared = symtab.tables[element.table].result_type
        if inferred is not None and not compatible(declared, inferred):
            diagnostics.append(Diagnostic(
                "error", "TypeMismatch",
                f"equation on '{element.table}' yields {inferred} but the table "
                f"is declared -> {declared}", element.pos))
    return diagnostics


class _TypeChecker:
    def __init__(self, symtab, bound_vars, equation, diagnostics):
        self.symtab = symtab
        self.bound_vars = bound_vars
        self.equation = equation
        self.diagnostics = diagnostics

    def error(self, code, message):
        self.diagnostics.append(Diagnostic("error", code, message, self.equation.pos))

    def infer(self, expr: Expr, all_ok: bool) -> str | None:
        """Infer a semantic type, or None after reporting a diagnostic."""
        if isinstance(expr, NumberLit):
            return "number"
        if isinstance(expr, BooleanLit):
            return "boolean"
        if isinstance(expr, IndexVar):
            if expr.name not in self.bound_vars:
                self.error("UnboundIndexVariable",
                           f"index variable '{expr.name}' is not bound on the left-hand side")
                return None
            return "number"
        if isinstance(expr, AllIndex):
            self.error("MisplacedAll",
                       "'all' is only legal as an index of a sum or match argument")
            return None
        if isinstance(expr, ElementRef):
            return self.infer_ref(expr, all_ok)
        if isinstance(expr, Binary):
            return self.infer_binary(expr)
        if isinstance(expr, Call):
            return self.infer_call(expr)
        raise TypeError(f"unexpected expression node: {expr!r}")

    def infer_ref(self, ref: ElementRef, all_ok: bool) -> str | None:
        decl = self.symtab.tables.get(ref.table)
        if decl is None:
            return None  # already reported by resolve
        for index in ref.indices:
            if isinstance(index, AllIndex):
                if not all_ok:
                    self.error("MisplacedAll",
                               f"'all' index into '{ref.table}' outside a sum or match argument")
                    return None
            else:
                self.check_index_expr(index)
        return decl.result_type

    def check_index_expr(self, expr: Expr):
        for node in walk(expr):
            if isinstance(node, IndexVar) and node.name not in self.bound_vars:
                self.error("UnboundIndexVariable",
                           f"index variable '{node.name}' is not bound on the left-hand side")

    def infer_binary(self, expr: Binary) -> str | None:
        left = self.infer(expr.left, all_ok=False)
        right = self.infer(expr.right, all_ok=False)
        if left is None or right is None:
            return None
        if expr.op in ("+", "-", "*", "/"):
            for side, name in ((left, "left"), (right, "right")):
                if side not in _NUMERIC_FAMILY:
                    self.error("TypeMismatch",
                               f"{name} operand of '{expr.op}' is {side}, expected a number")
                    return None
            if "currency" in (left, right):
                return "currency"
            return "number" if "general" not in (left, right) else "general"
        # comparison: both sides must share a family
        if left in _NUMERIC_FAMILY and right in _NUMERIC_FAMILY:
            return "boolean"
        if left == right:
            return "boolean"
        self.error("TypeMismatch",
                   f"cannot compare {left} with {right} using '{expr.op}'")
        return None

    def infer_call(self, call: Call) -> str | None:
        name = call.func.lower()
        if name not in BUILTINS:
            self.error("UnknownFunction", f"unknown function '{call.func}'")
            return None
        arity = BUILTINS[name]
        if arity is not None and len(call.args) != arity:
            self.error("ArityMismatch",
                       f"'{name}' takes {arity} argument(s), got {len(call.args)}")
            return None
        if name in ("or", "and") and not call.args:
            self.error("ArityMismatch", f"'{name}' needs at least one argument")
            return None

        if name == "if":
            cond = self.infer(call.args[0], all_ok=False)
            if cond is not None and cond != "boolean":
                self.error("BooleanExpected", f"if condition is {cond}, expected boolean")
            then = self.infer(call.args[1], all_ok=False)
            other = self.infer(call.args[2], all_ok=False)
            if then is None or other is None:
                return None
            if then == other:
                return then
            if then in _NUMERIC_FAMILY and other in _NUMERIC_FAMILY:
                return "currency" if "currency" in (then, other) else "general"
            self.error("TypeMismatch",
                       f"if branches disagree: {then} versus {other}")
            return None
        if name in ("or", "and", "not"):
            for arg in call.args:
                argtype = self.infer(arg, all_ok=False)
                if argtype is not None and argtype != "boolean":
                    self.error("BooleanExpected",
                               f"'{name}' argument is {argtype}, expected boolean")
            return "boolean"
        if name == "isna":
            self.infer(call.args[0], all_ok=False)
            return "boolean"
        if name == "sum":
            argtype = self.infer(call.args[0], all_ok=True)
            if argtype is not None and argtype not in _NUMERIC_FAMILY:
                self.error("TypeMismatch", f"sum over {argtype} values")
            return "number"
        if name == "match":
            self.infer(call.args[0], all_ok=False)
            range_arg = call.args[1]
            if not (isinstance(range_arg, ElementRef) and AllIndex in map(type, range_arg.indices)):
                self.error("MisplacedAll",
                           "second argument of match must be an element reference "
                           "with an 'all' index")
            else:
                self.infer(range_arg, all_ok=True)
            third = call.args[2]
            if not (isinstance(third, NumberLit) and third.value == 0):
                self.error("UnsupportedMatchType",
                           "third argument of match must be the literal 0")
            return "general"
        if name == "date":
            for arg in call.args:
                argtype = self.infer(arg, all_ok=False)
                if argtype is not None and argtype not in _NUMERIC_FAMILY:
                    self.error("TypeMismatch",
                               f"date part is {argtype}, expected a number")
            return "date"
        raise AssertionError(name)


def match_patterns(patterns, indices) -> dict[str, int] | None:
    """Unify LHS patterns with concrete indices; return the substitution."""
    subst: dict[str, int] = {}
    for pattern, value in zip(patterns, indices):
        if isinstance(pattern, ConstantPattern):
            if pattern.value != value:
                return None
        elif isinstance(pattern, VarPattern):
            if subst.setdefault(pattern.name, value) != value:
                return None
        else:
            if subst.setdefault(pattern.name, value) != value:
                return None
            if not _GUARDS[pattern.comparator](value, pattern.bound):
                return None
    return subst


def eval_index_expr(expr: Expr, subst: dict[str, int]) -> int:
    if isinstance(expr, NumberLit):
        return int(expr.value)
    if isinstance(expr, IndexVar):
        return subst[expr.name]
    if isinstance(expr, Binary):
        left = eval_index_expr(expr.left, subst)
        right = eval_index_expr(expr.right, subst)
        return left + right if expr.op == "+" else left - right
    raise TypeError(f"not an index expression: {expr!r}")


def elaborate(doc: SpecDocument, symtab: SymbolTable) -> tuple[CellPlan, list[Diagnostic]]:
    """Pick exactly one rule per derived cell by concrete enumeration."""
    diagnostics: list[Diagnostic] = []
    rules: dict[CellId, RuleInstance] = {}
    inputs: set[CellId] = set()
    stencils = symtab.stencils

    for name in symtab.tables:
        equations = symtab.equations_by_table[name]
        if not equations:
            inputs.update(symtab.table_cells(name))
            continue
        for cell in symtab.table_cells(name):
            matches = []
            for equation in equations:
                subst = match_patterns(equation.lhs_patterns, cell.indices)
                if subst is not None:
                    matches.append((equation, subst))
            if not matches:
                diagnostics.append(Diagnostic(
                    "error", "UncoveredCell",
                    f"no equation covers cell {cell}", symtab.tables[name].pos))
                continue
            if len(matches) > 1:
                diagnostics.append(Diagnostic(
                    "error", "OverlappingRules",
                    f"{len(matches)} equations cover cell {cell}", matches[1][0].pos))
                continue
            equation, subst = matches[0]
            rules[cell] = RuleInstance(equation, subst)
            for table, indices, axes, _ in stencils[id(equation)].refs:
                for index, (dim, low, high) in zip(indices, axes):
                    if index is None:
                        continue
                    value = eval_index_expr(index, subst)
                    if not low <= value <= high:
                        diagnostics.append(Diagnostic(
                            "error", "IndexOutOfBounds",
                            f"rule for {cell} references {table} at {dim}={value}, "
                            f"outside {low}..{high}", equation.pos))

    return CellPlan(rules, inputs, symtab), diagnostics


def analyze(doc: SpecDocument, before_elaborate=None):
    """Run the full pipeline; returns (symtab, plan, diagnostics).

    The plan is None when any stage reported an error.  If given,
    `before_elaborate(doc, symtab)` runs between typecheck and elaborate.
    """
    symtab, diagnostics = resolve(doc)
    if _has_errors(diagnostics):
        return symtab, None, diagnostics
    diagnostics.extend(typecheck(doc, symtab))
    if _has_errors(diagnostics):
        return symtab, None, diagnostics
    if before_elaborate is not None:
        before_elaborate(doc, symtab)
    plan, more = elaborate(doc, symtab)
    diagnostics.extend(more)
    return symtab, None if _has_errors(diagnostics) else plan, diagnostics


def _has_errors(diagnostics) -> bool:
    return any(d.severity == "error" for d in diagnostics)
