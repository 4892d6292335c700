"""Cell-granular evaluation of an elaborated plan.

Runtime values are Blank, Number (optionally tagged as currency),
Boolean, DateValue, or the single NA error.  Arithmetic coerces Blank
to 0; NA propagates through arithmetic and comparison but is absorbed
by isna.  Evaluation walks cells in dependency order, so every read
sees an already-written value.
"""

from __future__ import annotations

import datetime
import heapq
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import count, product
from operator import mul

from .analyzer import CellId, CellPlan, SymbolTable, index_value, runs
from .ast import (
    AGGREGATES,
    BUILTINS,
    Binary,
    BooleanLit,
    Call,
    Expr,
    IndexVar,
    NumberLit,
)
from .errors import CyclicDependency, RuntimeFault, UnknownFunction, UnsupportedMatchType


class Value:
    __slots__ = ()


class Blank(Value):
    __slots__ = ()

    def __repr__(self):
        return "Blank"

    def __eq__(self, other):
        return isinstance(other, Blank)

    def __hash__(self):
        return hash(Blank)


class NAError(Value):
    __slots__ = ()

    def __repr__(self):
        return "#N/A"

    def __eq__(self, other):
        return isinstance(other, NAError)

    def __hash__(self):
        return hash(NAError)


BLANK = Blank()
NA = NAError()


class Number(Value):
    """A real number; the currency tag is presentation only and is
    ignored by equality, comparison, and arithmetic."""

    __slots__ = ("value", "currency")

    def __init__(self, value: float, currency: bool = False):
        self.value = float(value)
        self.currency = currency

    def __repr__(self):
        return f"Number({self.value}{', currency' if self.currency else ''})"

    def __eq__(self, other):
        return isinstance(other, Number) and self.value == other.value

    def __hash__(self):
        return hash((Number, self.value))


@dataclass(frozen=True)
class Boolean(Value):
    value: bool


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@dataclass(frozen=True)
class DateValue(Value):
    """A calendar date; proleptic Gregorian, validated on construction."""

    date: datetime.date

    @classmethod
    def of(cls, year: int, month: int, day: int) -> "DateValue":
        return cls(datetime.date(year, month, day))

    @classmethod
    def read(cls, text: str) -> "DateValue | None":
        """The date written YYYY-MM-DD, the one form that dates are
        written and read in; None for any other text."""
        if _ISO_DATE.fullmatch(text):
            try:
                return cls(datetime.date.fromisoformat(text))
            except ValueError:
                pass
        return None


class _Fault(Exception):
    """Internal: a builtin or operator rejected its operands.

    evaluate() re-raises this as a RuntimeFault naming the cell."""


def is_na(value: Value) -> bool:
    return value is NA or isinstance(value, NAError)


def value_equal(a: Value, b: Value) -> bool:
    """Type-and-value equality; Blank and NA equal nothing (not even
    themselves) for matching purposes."""
    if isinstance(a, (Blank, NAError)) or isinstance(b, (Blank, NAError)):
        return False
    if isinstance(a, Number) and isinstance(b, Number):
        return a.value == b.value
    if isinstance(a, Boolean) and isinstance(b, Boolean):
        return a.value == b.value
    if isinstance(a, DateValue) and isinstance(b, DateValue):
        return a.date == b.date
    return False


class SparseRange(list):
    """The values of those cells of a range that a values document holds,
    in row-major order, with the 1-based position of each in the range.
    The other cells are blank: sum skips them and match finds none."""

    __slots__ = ("positions",)

    def __init__(self, values, positions):
        super().__init__(values)
        self.positions = positions


def _as_number(value: Value) -> float:
    if isinstance(value, Number):
        return value.value
    if isinstance(value, Blank):
        return 0.0
    raise _Fault(f"expected a number, got {value!r}")


def _as_boolean(value: Value) -> bool:
    if isinstance(value, Boolean):
        return value.value
    if isinstance(value, Blank):
        return False
    raise _Fault(f"expected a boolean, got {value!r}")


def apply_binary(op: str, left: Value, right: Value) -> Value:
    """Arithmetic and comparison with Blank-as-zero and NA propagation."""
    if is_na(left) or is_na(right):
        return NA
    if op in ("+", "-", "*", "/"):
        a, b = _as_number(left), _as_number(right)
        if op == "+":
            result = a + b
        elif op == "-":
            result = a - b
        elif op == "*":
            result = a * b
        elif b == 0:
            raise _Fault("division by zero")
        else:
            result = a / b
        return _finite(result)
    # comparisons; operands must share a type
    if isinstance(left, DateValue) and isinstance(right, DateValue):
        a, b = left.date, right.date
    elif isinstance(left, Boolean) and isinstance(right, Boolean):
        a, b = left.value, right.value
    elif isinstance(left, (Number, Blank)) and isinstance(right, (Number, Blank)):
        a, b = _as_number(left), _as_number(right)
    else:
        raise _Fault(f"cannot compare {left!r} with {right!r}")
    result = {
        "=": a == b, "<>": a != b,
        "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
    }[op]
    return Boolean(result)


def apply_builtin(name: str, args: list) -> Value:
    """Apply a builtin other than `if` to evaluated arguments.

    Range-valued arguments (from `all` indices) arrive as Python lists
    of Values.  `if` evaluates only the branch it takes, so eval_expr
    applies it before the branches are evaluated.
    """
    name = name.lower()
    if name in ("or", "and"):
        if any(is_na(a) for a in args):
            return NA
        flags = [_as_boolean(a) for a in args]
        return Boolean(any(flags) if name == "or" else all(flags))
    if name == "not":
        if is_na(args[0]):
            return NA
        return Boolean(not _as_boolean(args[0]))
    if name == "isna":
        return Boolean(is_na(args[0]))
    if name == "sum":
        total = 0.0
        for item in _flatten(args):
            if is_na(item):
                return NA
            if isinstance(item, (Blank, Boolean)):
                continue
            total += _as_number(item)
        return _finite(total)
    if name == "match":
        needle, rng, mode = args
        if not (isinstance(mode, Number) and mode.value == 0):
            raise UnsupportedMatchType("third argument of match must be 0")
        if not isinstance(rng, list):
            rng = [rng]
        if is_na(needle):
            return NA
        positions = rng.positions if isinstance(rng, SparseRange) else count(1)
        for position, item in zip(positions, rng):
            if value_equal(needle, item):
                return Number(position)
        return NA
    if name == "date":
        parts = []
        for part in args:
            if is_na(part):
                return NA
            number = _as_number(part)
            if number != int(number):
                raise _Fault(f"date part {number} is not an integer")
            parts.append(int(number))
        year, month, day = parts
        try:
            return DateValue.of(year, month, day)
        except (ValueError, OverflowError) as exc:
            raise _Fault(f"invalid date({year}, {month}, {day}): {exc}") from None
    raise UnknownFunction(name)


def _finite(number: float) -> Number:
    if not math.isfinite(number):
        raise _Fault(f"result {number} is not a finite number")
    return Number(number)


def _flatten(args):
    for arg in args:
        if isinstance(arg, list):
            yield from arg
        else:
            yield arg


# --- evaluation ------------------------------------------------------------

def eval_expr(expr: Expr, leaf) -> Value:
    """Evaluate a formula: a spec right-hand side or a parsed A1 formula.

    `leaf(node)` gives the value of every node that is not a literal,
    operator or call: an element reference, index variable, cell or
    range.  It returns a list of Values for a range, which only `sum`
    and `match` accept as an argument.  Raises _Fault when an operator
    or builtin rejects its operands."""
    value = _eval(expr, leaf, False)
    if isinstance(value, Blank):
        # a formula whose result is an empty cell yields 0, as in the
        # host application
        return Number(0.0)
    return value


def _eval(expr: Expr, leaf, range_ok: bool):
    if isinstance(expr, NumberLit):
        return Number(expr.value)
    if isinstance(expr, BooleanLit):
        return Boolean(expr.value)
    if isinstance(expr, Binary):
        return apply_binary(expr.op, _eval(expr.left, leaf, False),
                            _eval(expr.right, leaf, False))
    if isinstance(expr, Call):
        name = expr.func.lower()
        if name not in BUILTINS:
            raise UnknownFunction(f"unknown function {name}")
        arity = BUILTINS[name]
        if not expr.args or (arity is not None and len(expr.args) != arity):
            raise _Fault(f"{name} given {len(expr.args)} argument(s)")
        if name == "if":
            cond = _eval(expr.args[0], leaf, False)
            if is_na(cond):
                return NA
            branch = expr.args[1] if _as_boolean(cond) else expr.args[2]
            return _eval(branch, leaf, False)
        aggregate = name in AGGREGATES
        return apply_builtin(name, [_eval(arg, leaf, aggregate) for arg in expr.args])
    value = leaf(expr)
    if isinstance(value, list) and not range_ok:
        raise _Fault("range reference outside sum or match")
    return value


# --- reads, the evaluation order and the dependency graph ------------------

def expand_ref(ref, subst: dict[str, int]):
    """The cells one lowered element reference (see analyzer.Stencil) reads
    under a substitution in the order of Stencil.variables, as plan.rules
    gives it: a CellId, or for a range a tuple of CellIds in row-major
    order over its axes, the order aggregate builtins see."""
    table, indices, extent, ranged = ref
    values = tuple(subst.values())
    if not ranged:
        return CellId(table, tuple([index_value(index, values) for index in indices]))
    spans = [range(low, high + 1) if index is None else (index_value(index, values),)
             for index, (_, low, high) in zip(indices, extent.axes)]
    return tuple([CellId(table, c) for c in product(*spans)])


def _read_numbers(plan: CellPlan, number: int) -> list[int]:
    """Every dense number that cell `number` reads, a range's each, in
    row-major order (see SymbolTable.reads)."""
    box = plan.owner[number]
    if box is None:
        return []
    symtab, indices = plan.symtab, plan.symtab.cells[number].indices
    values = [indices[d] for d in symtab.stencils[id(box.equation)].variables.values()]
    numbers = []
    for first, steps, offsets in symtab.reads[id(box.equation)]:
        first += sum(map(mul, steps, values))
        numbers += [first + offset for offset in offsets or (0,)]
    return numbers


def resolve_references(plan: CellPlan) -> dict[CellId, tuple]:
    """The cells each derived cell reads, in plan.rules order: one entry per
    slot of its equation's stencil, a CellId or, for a range, a plain tuple
    of CellIds (tell them apart by exact type).  Made when asked for;
    evaluation reads dense numbers instead."""
    stencils = plan.symtab.stencils
    return {cell: tuple([expand_ref(ref, subst) for ref in stencils[id(equation)].refs])
            for cell, (equation, subst) in plan.rules.items()}


def order_cells(plan: CellPlan) -> list[int]:
    """The dense numbers of all cells in evaluation order, by Kahn's
    algorithm over a min-heap: of the cells whose reads are all placed, the
    smallest number, which is the smallest (table, indices), goes next.

    An edge is a key `read * width + reader`.  A box's keys for one read
    cell of a reference are affine in its variables' values, so they are
    listed a run at a time, sorted once, and a placed cell's readers are
    the keys between two bisections.  A cell that reads another twice has
    two keys and counts it twice, which places it no differently."""
    owner, dense = plan.owner, plan.symtab.reads
    size = len(owner)
    width = 4 * size + 4  # above any step of a reader's number, so no key step is 0
    indegree = [0] * size
    keys = []
    for boxes in plan.boxes.values():
        for box in boxes:
            first, steps = box.first, box.steps
            reads = [(start + offset, coefficients) for start, coefficients, offsets
                     in dense[id(box.equation)] for offset in offsets or (0,)]
            for run in runs(box.spans, first, steps):
                indegree[run.start:run.stop:run.step] = [len(reads)] * len(run)
            for start, coefficients in reads:
                for run in runs(box.spans, start * width + first,
                                [c * width + step for c, step in zip(coefficients, steps)]):
                    keys += run
    keys.sort()
    ready = [n for n in range(size) if not indegree[n]]  # ascending, so a heap
    order = []
    while ready:
        cell = heapq.heappop(ready)
        order.append(cell)
        low = cell * width
        start = bisect_left(keys, low)
        for key in keys[start:bisect_left(keys, low + width, start)]:
            reader = key - low
            indegree[reader] -= 1
            if not indegree[reader]:
                heapq.heappush(ready, reader)
    if len(order) < size:
        raise CyclicDependency(_find_cycle(plan, {n for n in range(size) if indegree[n]}))
    return order


def _find_cycle(plan: CellPlan, remaining: set[int]) -> list[CellId]:
    """Walk unplaced cells, each to the smallest unplaced cell it reads,
    until one repeats; return the cycle path."""
    start = min(remaining)
    seen = {}
    path = [start]
    cell = start
    while cell not in seen:
        seen[cell] = len(path) - 1
        cell = min(n for n in _read_numbers(plan, cell) if n in remaining)
        path.append(cell)
    return [plan.symtab.cells[n] for n in path[seen[cell]:]]


@dataclass
class DependencyGraph:
    nodes: list[CellId]
    edges: dict[CellId, set[CellId]]  # cell -> cells its rule reads
    topo_order: list[CellId]


def build_graph(plan: CellPlan) -> DependencyGraph:
    """The cell dependency graph and evaluation order as CellIds, made from
    the region plan when asked for; `evaluate` orders dense numbers with
    `order_cells` directly."""
    cells, order = plan.symtab.cells, order_cells(plan)
    numbers = [n for n, box in enumerate(plan.owner)
               if box is not None or cells[n].table not in plan.boxes]
    edges = {cells[n]: {cells[m] for m in _read_numbers(plan, n)} for n in numbers}
    return DependencyGraph([cells[n] for n in numbers], edges, [cells[n] for n in order])


def evaluate(plan: CellPlan, inputs: dict[CellId, Value]) -> dict[CellId, Value]:
    """Evaluate every cell of the plan; returns the complete value grid, in
    evaluation order."""
    symtab = plan.symtab
    cells, stencils, dense = symtab.cells, symtab.stencils, symtab.reads
    currency = {name: decl.result_type == "currency" for name, decl in symtab.tables.items()}
    order = order_cells(plan)
    store: list[Value] = [BLANK] * len(cells)

    def leaf(node):
        # of the cell being evaluated: index variables from its indices,
        # element references from the store
        if isinstance(node, IndexVar):
            return Number(indices[stencil.variables[node.name]])
        first, steps, offsets = reads[stencil.slots.index(id(node))]
        number = first + sum(map(mul, steps, values))
        return store[number] if offsets is None else [store[number + o] for o in offsets]

    for number in order:
        cell, box = cells[number], plan.owner[number]
        if box is None:
            value = inputs.get(cell, BLANK)
        else:
            equation, indices = box.equation, cell.indices
            stencil, reads = stencils[id(equation)], dense[id(equation)]
            values = [indices[d] for d in stencil.variables.values()]
            try:
                value = eval_expr(equation.rhs, leaf)
            except _Fault as exc:
                raise RuntimeFault(cell, str(exc)) from None
        if isinstance(value, Number) and currency[cell.table]:
            value = Number(value.value, currency=True)
        store[number] = value
    return {cells[n]: store[n] for n in order}
