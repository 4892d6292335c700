"""Static analysis: name resolution, type checking, and rule elaboration.

Every cell has a dense number: its table's base, with tables in name
order, plus the row-major offset of its indices, so numbers sort as
CellIds do.  Elaboration covers each derived table with boxes, one set
per equation: the values its left-hand patterns give each index
variable.  A box's cells and the cells they read have numbers affine in
those values, so coverage and overlap are checked a run of cells at a
time and bounds once per equation, at the corners of its boxes; a table
that fails is enumerated cell by cell for exact diagnostics: every
derived cell must be matched by exactly one equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product
from operator import mul
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
    Hole,
    IndexVar,
    NumberLit,
    SpecDocument,
    TableDecl,
    VarPattern,
    punch,
)
from .parser import Diagnostic

_NUMERIC_FAMILY = frozenset({"number", "currency", "general"})

# The most cells a model may hold: a compile peaks at about 0.75 KB per
# cell over 15 MB, so under 1 GB.  resolve refuses more before making
# anything per cell.
MAX_CELLS = 1_000_000

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


class Extent(NamedTuple):
    """A table's dense cell numbers, `base` to `base + size - 1`: the cell
    at `indices` is `origin + sum(indices[d] * strides[d])`.  `axes` holds
    `(dim, low, high)` per dimension."""

    base: int
    size: int
    origin: int
    strides: tuple[int, ...]
    axes: tuple[tuple[str, int, int], ...]


class Stencil(NamedTuple):
    """An equation lowered once by `resolve`.  `variables` maps its index
    variables, in order of first appearance, to the first dimension each
    binds.  Each index is an affine form `(constant, ((n, coefficient),
    ...))` over the variables numbered in that order, terms that cancel
    left out.  `home` holds the form of each left-hand pattern, and `refs`
    `(ref, indices, extent, ranged)` per element reference, left to right:
    the ElementRef, the forms (None for `all`), its table's Extent and
    whether any index is `all`.  `template` is the right-hand side with
    the reference `refs[n]` made `Hole(n, ranged)` (see ast.punch)."""

    variables: dict[str, int]
    home: tuple
    refs: tuple
    template: Expr


@dataclass
class SymbolTable:
    bounds: dict[str, tuple[int, int]]
    tables: dict[str, TableDecl]
    equations_by_table: dict[str, list[EquationDecl]]
    stencils: dict[int, Stencil] = field(repr=False)  # id() of each equation -> its stencil
    extents: dict[str, Extent] = field(repr=False)    # in name order

    def is_input(self, table: str) -> bool:
        return not self.equations_by_table.get(table)

    def table_cells(self, table: str):
        """Enumerate every CellId of a table in row-major index order."""
        decl = self.tables[table]
        ranges = [range(self.bounds[d][0], self.bounds[d][1] + 1) for d in decl.dims]
        for combo in product(*ranges):
            yield CellId(table, combo)

    @cached_property
    def cells(self) -> list[CellId]:
        """Every cell, by dense number."""
        return [cell for name in self.extents for cell in self.table_cells(name)]

    @cached_property
    def reads(self) -> dict[int, tuple]:
        """Per equation, by id(), the dense numbers each of its references
        reads, `(first, steps, offsets)`: `first + sum(value * step)` over
        its variables' values, plus each offset for a range (None for one
        cell).  Made when first read, which `check` never does."""
        reads, same_steps = {}, {}  # equal steps are kept once
        for key, stencil in self.stencils.items():
            width, read = len(stencil.variables), []
            for _, indices, extent, _ in stencil.refs:
                first, steps, offsets = _dense_read(indices, extent, width)
                read.append((first, same_steps.setdefault(steps, steps), offsets))
            reads[key] = tuple(read)
        return reads


class Box(NamedTuple):
    """Cells of a table that one equation covers: every combination of
    values of its index variables, one range per variable in the order of
    Stencil.variables.  A cell's dense number is `first + sum(value *
    step)` over those values."""

    equation: EquationDecl
    spans: tuple[range, ...]
    first: int
    steps: tuple[int, ...]


def runs(spans, first: int, steps) -> list[range]:
    """The values of `first + sum(value * step)` over a box's cells in
    row-major order: a range per combination of all but the last variable."""
    if not spans:
        return [range(first, first + 1)]
    *outer, inner = spans
    step = steps[-1]
    first += inner.start * step
    starts = ([first + sum(map(mul, values, steps)) for values in product(*outer)]
              if outer else [first])
    return [range(start, start + len(inner) * step, step) for start in starts]


@dataclass
class CellPlan:
    """The region plan: each derived table's boxes and, per dense cell
    number, the box that covers the cell (None for an input cell).  `rules`
    and `inputs` are views of it, made when first read."""

    symtab: SymbolTable
    boxes: dict[str, list[Box]] = field(repr=False)
    owner: list = field(repr=False)

    @cached_property
    def rules(self) -> dict[CellId, RuleInstance]:
        """Each derived cell's rule, tables in declaration order, cells row-major."""
        rules, cells, stencils = {}, self.symtab.cells, self.symtab.stencils
        for name in self.boxes:
            extent = self.symtab.extents[name]
            numbers = slice(extent.base, extent.base + extent.size)
            for cell, box in zip(cells[numbers], self.owner[numbers]):
                if box is not None:
                    variables = stencils[id(box.equation)].variables
                    rules[cell] = RuleInstance(box.equation, {
                        var: cell.indices[d] for var, d in variables.items()})
        return rules

    @cached_property
    def inputs(self) -> set[CellId]:
        return {cell for name in self.symtab.tables if name not in self.boxes
                for cell in self.symtab.table_cells(name)}


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
    # equal variable maps, lowered indices and Holes are kept once: a spec repeats its shapes
    same_variables, same_indices, same_hole = {}, {}, cache(Hole)

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

    extents, base = {}, 0
    for name in sorted(tables):
        # undeclared bounds are an UnknownBounds error, reported below
        axes = tuple([(dim, *bounds.get(dim, (1, 0))) for dim in tables[name].dims])
        strides, size, origin = [], 1, base
        for _, low, high in reversed(axes):
            strides.insert(0, size)
            origin -= low * size
            size *= high - low + 1
        extents[name] = Extent(base, size, origin, tuple(strides), axes)
        base += size
    if base > MAX_CELLS:  # reported at the largest table
        largest = max(tables.values(), key=lambda decl: extents[decl.name].size)
        diagnostics.append(Diagnostic("error", "TooManyCells", f"the tables hold {base:,} "
                                      f"cells, over the limit of {MAX_CELLS:,}", largest.pos))
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
            variables = {}
            for d, pattern in enumerate(element.lhs_patterns):
                if type(pattern) is not ConstantPattern:
                    variables.setdefault(pattern.name, d)
            variables = same_variables.setdefault(tuple(variables.items()), variables)
            positions = {name: n for n, name in enumerate(variables)}
            home = tuple([(p.value, ()) if type(p) is ConstantPattern
                          else (0, ((positions[p.name], 1),)) for p in element.lhs_patterns])
            home = same_indices.setdefault(home, home)
            refs = []

            def hole(ref: Expr) -> Expr:  # a reference's Hole, after lowering it onto refs
                if type(ref) is not ElementRef:
                    return ref
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
                    indices = tuple([None if type(index) is AllIndex else _lower(index, positions)
                                     for index in ref.indices])
                    indices = same_indices.setdefault(indices, indices)
                    refs.append((ref, indices, extents[ref.table], None in indices))
                    return same_hole(len(refs) - 1, None in indices)
                return ref

            template = punch(element.rhs, hole)
            stencils[id(element)] = Stencil(variables, home, tuple(refs), template)

    return SymbolTable(bounds, tables, equations, stencils, extents), diagnostics


def _lower(index: Expr, positions: dict[str, int]) -> tuple:
    """The affine form (see Stencil) of an index expression whose variables
    are numbered by `positions`.  An index only adds and subtracts, so each
    term adds its sign to its variable's coefficient or its value to the
    constant; typecheck reports a variable not in `positions`."""
    if type(index) is IndexVar and index.name in positions:
        return 0, ((positions[index.name], 1),)
    if type(index) is NumberLit:
        return int(index.value), ()
    constant, coefficients, terms = 0, {}, [(index, 1)]
    while terms:
        term, sign = terms.pop()
        if type(term) is Binary:
            terms += [(term.left, sign), (term.right, -sign if term.op == "-" else sign)]
        elif type(term) is IndexVar:
            coefficients[term.name] = coefficients.get(term.name, 0) + sign
        else:
            constant += sign * int(term.value)
    return constant, tuple(sorted([(positions[name], c) for name, c in coefficients.items()
                                   if c and name in positions]))


def index_value(form: tuple, values) -> int:
    """An affine form's value for its variables' values, in Stencil.variables order."""
    return form[0] + sum([c * values[n] for n, c in form[1]])


def _dense_read(indices, extent: Extent, width: int) -> tuple:
    """(first, steps, offsets) of the cells that per-dimension forms, None
    for `all`, read in a table (see SymbolTable.reads): a form adds its
    constant times its dimension's stride to `first`, and each coefficient
    times the stride to its variable's step."""
    first, steps, spans = extent.origin, [0] * width, []
    for index, stride, (_, low, high) in zip(indices, extent.strides, extent.axes):
        if index is None:
            first += stride * low
            spans.append([stride * k for k in range(high - low + 1)])
        else:
            first += stride * index[0]
            for n, coefficient in index[1]:
                steps[n] += stride * coefficient
    return first, tuple(steps), tuple(map(sum, product(*spans))) if spans else None


def typecheck(doc: SpecDocument, symtab: SymbolTable) -> list[Diagnostic]:
    """Check every equation right-hand side against its table's result type."""
    diagnostics: list[Diagnostic] = []
    for element in doc.elements:
        stencil = symtab.stencils.get(id(element))  # None unless a resolved equation
        if stencil is None:
            continue
        checker = _TypeChecker(symtab, stencil.variables, element, diagnostics)
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
            else:  # an index only adds and subtracts: this reports unbound variables alone
                self.infer(index, all_ok=False)
        return decl.result_type

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


def elaborate(doc: SpecDocument, symtab: SymbolTable) -> tuple[CellPlan, list[Diagnostic]]:
    """Pick exactly one rule per derived cell: cover each derived table with
    its equations' boxes, and enumerate a table cell by cell only when its
    boxes may read out of bounds, cover a cell twice or leave one uncovered."""
    diagnostics: list[Diagnostic] = []
    owner = [None] * sum(extent.size for extent in symtab.extents.values())
    boxes: dict[str, list[Box]] = {}
    for name, equations in symtab.equations_by_table.items():
        if not equations:
            continue
        extent = symtab.extents[name]
        cells = slice(extent.base, extent.base + extent.size)
        boxes[name] = []
        if not all(_cover(equation, symtab.stencils[id(equation)], extent, owner, boxes[name])
                   for equation in equations) or None in owner[cells]:
            owner[cells] = [None] * extent.size
            boxes[name] = _cover_cells(name, equations, symtab, owner, diagnostics)
    return CellPlan(symtab, boxes, owner), diagnostics


def _cover(equation: EquationDecl, stencil: Stencil, extent: Extent, owner: list,
           boxes: list) -> bool:
    """Add the boxes an equation's patterns cover to `boxes`, and point each
    of their cells to its box in `owner`.  A constant is one point, or no
    cell outside its dimension.  A variable spans its dimension, and one
    that repeats, as in a[i,i], spans all of them at once, a diagonal; a
    guard cuts its span and `<>` splits it in two.  False if the equation
    may read out of bounds or a box meets a cell already covered."""
    hull, holes = {}, {}
    for pattern, (_, low, high) in zip(equation.lhs_patterns, extent.axes):
        if type(pattern) is ConstantPattern:
            if not low <= pattern.value <= high:
                return True
            continue
        first, last = hull.get(pattern.name, (low, high))
        first, last = max(first, low), min(last, high)
        if type(pattern) is GuardedVarPattern:
            comparator, bound = pattern.comparator, pattern.bound
            if comparator == "<>":
                holes.setdefault(pattern.name, []).append(bound)
            elif comparator[0] == "<":
                last = min(last, bound - (comparator == "<"))
            else:
                first = max(first, bound + (comparator == ">"))
        hull[pattern.name] = (first, last)
    pieces = []
    for name, (first, last) in hull.items():
        if name in holes:
            cuts = [first - 1, *sorted(h for h in holes[name] if first <= h <= last), last + 1]
            pieces.append([range(a + 1, b) for a, b in zip(cuts, cuts[1:]) if a + 1 < b])
        else:
            pieces.append([range(first, last + 1)] if first <= last else [])
        if not pieces[-1]:
            return True
        hull[name] = (pieces[-1][0].start, pieces[-1][-1][-1])
    # an index is affine, so its extremes over the boxes lie at the hull's
    # corners; the hull lists the variables in the order of Stencil.variables
    corners = list(hull.values())
    for _, indices, target, _ in stencil.refs:
        for index, (_, low, high) in zip(indices, target.axes):
            if index is not None:
                least = greatest = index[0]
                for n, coefficient in index[1]:
                    first, last = corners[n]
                    if coefficient < 0:
                        first, last = last, first
                    least += coefficient * first
                    greatest += coefficient * last
                if least < low or greatest > high:
                    return False
    first, steps, _ = _dense_read(stencil.home, extent, len(corners))
    for spans in product(*pieces):
        box = Box(equation, spans, first, steps)
        for run in runs(spans, first, steps):
            cells = slice(run.start, run.stop, run.step)
            if owner[cells].count(None) < len(run):
                return False
            owner[cells] = [box] * len(run)
        boxes.append(box)
    return True


def _cover_cells(name: str, equations, symtab: SymbolTable, owner: list,
                 diagnostics: list[Diagnostic]) -> list[Box]:
    """Cover a table cell by cell, each cell that one equation matches with
    a box of its own, reporting the others and reads out of bounds."""
    boxes, extent = [], symtab.extents[name]
    for number, cell in enumerate(symtab.table_cells(name), extent.base):
        matches = [(equation, subst) for equation in equations
                   if (subst := match_patterns(equation.lhs_patterns, cell.indices)) is not None]
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
        stencil, values = symtab.stencils[id(equation)], tuple(subst.values())
        first, steps, _ = _dense_read(stencil.home, extent, len(values))
        owner[number] = Box(equation, tuple([range(v, v + 1) for v in values]), first, steps)
        boxes.append(owner[number])
        for ref, indices, target, _ in stencil.refs:
            for index, (dim, low, high) in zip(indices, target.axes):
                if index is None:
                    continue
                value = index_value(index, values)
                if not low <= value <= high:
                    diagnostics.append(Diagnostic(
                        "error", "IndexOutOfBounds",
                        f"rule for {cell} references {ref.table} at {dim}={value}, "
                        f"outside {low}..{high}", equation.pos))
    return boxes


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
