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
from dataclasses import dataclass
from itertools import product

from .analyzer import CellId, CellPlan, eval_index_expr
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
        for position, item in enumerate(rng, start=1):
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


# --- reference resolution and the dependency graph -------------------------

def expand_ref(ref, subst: dict[str, int]):
    """The cells one lowered element reference (see analyzer.Stencil) reads
    under a substitution: a CellId, or for a range a tuple of CellIds in
    row-major order over its axes, the order aggregate builtins see."""
    table, indices, axes, ranged = ref
    if not ranged:
        return CellId(table, tuple([eval_index_expr(index, subst) for index in indices]))
    spans = [range(low, high + 1) if index is None else (eval_index_expr(index, subst),)
             for index, (_, low, high) in zip(indices, axes)]
    return tuple([CellId(table, c) for c in product(*spans)])


def resolve_references(plan: CellPlan) -> dict[CellId, tuple]:
    """The cells each derived cell reads, resolved once and kept on the plan
    for the dependency graph, evaluation and formula rendering: one entry
    per slot of its equation's stencil, a CellId or, for a range, a plain
    tuple of CellIds (tell them apart by exact type).  Cells are the
    plan's own CellId objects."""
    if plan.references is None:
        stencils = plan.symtab.stencils
        own = {cell: cell for cell in plan.rules}
        own.update((cell, cell) for cell in plan.inputs)
        references = {}
        for cell, (equation, subst) in plan.rules.items():
            reads = []
            for ref in stencils[id(equation)].refs:
                cells = expand_ref(ref, subst)
                reads.append(tuple([own[c] for c in cells]) if type(cells) is tuple
                             else own[cells])
            references[cell] = tuple(reads)
        plan.references = references
    return plan.references


@dataclass
class DependencyGraph:
    nodes: list[CellId]
    edges: dict[CellId, set[CellId]]  # cell -> cells its rule reads
    topo_order: list[CellId]


def build_graph(plan: CellPlan) -> DependencyGraph:
    """Build the cell dependency graph and a deterministic topological order.

    Kahn's algorithm over a min-heap: of the cells whose dependencies
    are all placed, the smallest (table, indices) is placed next."""
    nodes = sorted(set(plan.rules) | plan.inputs)
    edges = {cell: set() for cell in nodes}
    for cell, reads in resolve_references(plan).items():
        deps = edges[cell]
        for cells in reads:
            if type(cells) is tuple:
                deps.update(cells)
            else:
                deps.add(cells)

    dependents: dict[CellId, list[CellId]] = {cell: [] for cell in nodes}
    indegree = {}
    for cell in nodes:
        indegree[cell] = len(edges[cell])
        for dep in edges[cell]:
            dependents[dep].append(cell)

    ready = [cell for cell in nodes if indegree[cell] == 0]  # sorted, so a heap
    order: list[CellId] = []
    while ready:
        cell = heapq.heappop(ready)
        order.append(cell)
        for dependent in dependents[cell]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                heapq.heappush(ready, dependent)

    if len(order) != len(nodes):
        raise CyclicDependency(_find_cycle(edges, {c for c in nodes if indegree[c] > 0}))
    return DependencyGraph(nodes, edges, order)


def _find_cycle(edges, remaining):
    """Walk unresolved cells until one repeats; return the cycle path."""
    start = min(remaining)
    seen = {}
    path = [start]
    cell = start
    while cell not in seen:
        seen[cell] = len(path) - 1
        cell = min(d for d in edges[cell] if d in remaining)
        path.append(cell)
    return path[seen[cell]:]


def evaluate(plan: CellPlan, inputs: dict[CellId, Value]) -> dict[CellId, Value]:
    """Evaluate every cell of the plan; returns the complete value grid."""
    symtab = plan.symtab
    graph = build_graph(plan)
    references = resolve_references(plan)
    store: dict[CellId, Value] = {}

    def leaf(node):
        # of the rule instance being evaluated: index variables from its
        # substitution, element references from the store
        if isinstance(node, IndexVar):
            return Number(subst[node.name])
        cells = reads[slots[id(node)]]
        if type(cells) is tuple:
            return [store[c] for c in cells]
        return store[cells]

    for cell in graph.topo_order:
        if cell in plan.inputs:
            value = inputs.get(cell, BLANK)
        else:
            equation, subst = plan.rules[cell]
            reads, slots = references[cell], symtab.stencils[id(equation)].slots
            try:
                value = eval_expr(equation.rhs, leaf)
            except _Fault as exc:
                raise RuntimeFault(cell, str(exc)) from None
        if isinstance(value, Number) and symtab.tables[cell.table].result_type == "currency":
            value = Number(value.value, currency=True)
        store[cell] = value
    return store
