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
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import count, product

from .analyzer import CellId, CellPlan, SymbolTable, index_value, runs
from .ast import (
    AGGREGATES,
    BUILTINS,
    Binary,
    BooleanLit,
    Call,
    Expr,
    Hole,
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


_BOOLEANS = (Boolean(False), Boolean(True))  # indexed by a bool
_ZERO = Number(0.0)
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def apply_binary(op: str, left: Value, right: Value) -> Value:
    """Arithmetic and comparison with Blank-as-zero and NA propagation."""
    if is_na(left) or is_na(right):
        return NA
    if op in _ARITHMETIC:
        a, b = _as_number(left), _as_number(right)
        if op == "/" and b == 0:
            raise _Fault("division by zero")
        return _finite(_ARITHMETIC[op](a, b))
    # comparisons; operands must share a type
    if isinstance(left, DateValue) and isinstance(right, DateValue):
        a, b = left.date, right.date
    elif isinstance(left, Boolean) and isinstance(right, Boolean):
        a, b = left.value, right.value
    elif isinstance(left, (Number, Blank)) and isinstance(right, (Number, Blank)):
        a, b = _as_number(left), _as_number(right)
    else:
        raise _Fault(f"cannot compare {left!r} with {right!r}")
    return _BOOLEANS[_COMPARISONS[op](a, b)]


def apply_builtin(name: str, args: list) -> Value:
    """Apply a builtin other than `if` to evaluated arguments.

    Range-valued arguments (from `all` indices) arrive as Python lists
    of Values.  `if` evaluates only the branch it takes, so a compiled
    template applies it before the branches are evaluated.
    """
    name = name.lower()
    function = _BUILTIN_FUNCTIONS.get(name)
    if function is None:
        raise UnknownFunction(name)
    return function(*args)


def _logical(combine, args) -> Value:
    if any([is_na(a) for a in args]):
        return NA
    return _BOOLEANS[combine([_as_boolean(a) for a in args])]


def _not(value: Value) -> Value:
    if is_na(value):
        return NA
    return _BOOLEANS[not _as_boolean(value)]


def _sum(*args) -> Value:
    total = 0.0
    for arg in args:
        for item in arg if isinstance(arg, list) else (arg,):
            if type(item) is Number:
                total += item.value
            elif is_na(item):
                return NA
            elif not isinstance(item, (Blank, Boolean)):
                total += _as_number(item)
    return _finite(total)


def _match(needle: Value, rng, mode: Value) -> Value:
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


def _date(*args) -> Value:
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


_BUILTIN_FUNCTIONS = {
    "or": lambda *args: _logical(any, args), "and": lambda *args: _logical(all, args),
    "not": _not, "isna": lambda value: _BOOLEANS[is_na(value)],
    "sum": _sum, "match": _match, "date": _date,
}


def _finite(number: float) -> Number:
    if not math.isfinite(number):
        raise _Fault(f"result {number} is not a finite number")
    return Number(number)


# --- compiled templates ----------------------------------------------------
# A compiled node is a partial of one of the functions below, whose last
# argument is the environment.  A partial, unlike a closure, makes no cell
# per name it holds, which leaves the garbage collector less to do when
# thousands of small equations are compiled.

def compile_template(template: Expr, leaf):
    """A formula, a template of Holes (see ast.punch), as one function of
    an environment: a spec right-hand side, whose environment is a cell's
    indices, or a formula shape, whose environment is its bound holes.

    The template is walked once, here.  `leaf(node)` gives the function
    that reads every node that is not a literal, operator or call: a
    Hole, or an index variable.  A ranged Hole's function gives a list of
    Values, which only `sum` and `match` accept as an argument.  Each
    operator and builtin is chosen now; `if` evaluates only the branch it
    takes, and an unknown function, a wrong arity or a range elsewhere
    faults only when its node is reached.  The function raises _Fault
    when an operator or builtin rejects its operands, and gives 0 where
    the formula's result is an empty cell, as the host application
    does."""
    return partial(_blank_is_zero, _compile(template, leaf, False))


def _compile(node: Expr, leaf, range_ok: bool):
    kind = type(node)
    if kind is Binary:
        op = node.op
        left, right = _compile(node.left, leaf, False), _compile(node.right, leaf, False)
        if op in _COMPARISONS:
            return partial(_comparison, op, _COMPARISONS[op], left, right)
        return partial(_arithmetic, op, _ARITHMETIC[op], left, right)
    if kind is Call:
        return _compile_call(node, leaf)
    if kind is NumberLit:
        return partial(_constant, Number(node.value))
    if kind is BooleanLit:
        return partial(_constant, _BOOLEANS[node.value])
    read = leaf(node)
    if range_ok or not (kind is Hole and node.ranged):
        return read
    return partial(_outside, read)


def _compile_call(node: Call, leaf):
    name, count = node.func.lower(), len(node.args)
    if name not in BUILTINS:
        return partial(_raise, UnknownFunction, f"unknown function {name}")
    if not count or BUILTINS[name] not in (None, count):
        return partial(_raise, _Fault, f"{name} given {count} argument(s)")
    args = [_compile(arg, leaf, name in AGGREGATES) for arg in node.args]
    if name == "if":
        return partial(_choose, *args)
    return partial(_call, _BUILTIN_FUNCTIONS[name], args)


def _blank_is_zero(run, env):
    value = run(env)
    return _ZERO if type(value) is Blank else value


def _constant(value, env):
    return value


def _arithmetic(op, combine, left, right, env):
    """Two Numbers are combined here; any other operands, a division by
    zero and a result that is not finite go to apply_binary."""
    a, b = left(env), right(env)
    if type(a) is Number and type(b) is Number and (b.value or op != "/"):
        result = combine(a.value, b.value)
        if result - result == 0:  # finite
            return Number(result)
    return apply_binary(op, a, b)


def _comparison(op, compare, left, right, env):
    a, b = left(env), right(env)
    if type(a) is Number and type(b) is Number:
        return _BOOLEANS[compare(a.value, b.value)]
    return apply_binary(op, a, b)


def _choose(cond, then, other, env):
    flag = cond(env)
    if type(flag) is Boolean:
        return then(env) if flag.value else other(env)
    if is_na(flag):
        return NA
    return then(env) if _as_boolean(flag) else other(env)


def _call(function, args, env):
    return function(*[arg(env) for arg in args])


def _outside(read, env):
    read(env)
    raise _Fault("range reference outside sum or match")


def _raise(error, message, env):
    raise error(message)


# --- reads, the evaluation order and the dependency graph ------------------

def expand_ref(ref, subst: dict[str, int]):
    """The cells one lowered element reference (see analyzer.Stencil) reads
    under a substitution in the order of Stencil.variables, as plan.rules
    gives it: a CellId, or for a range a tuple of CellIds in row-major
    order over its axes, the order aggregate builtins see."""
    node, indices, extent, ranged = ref
    values = tuple(subst.values())
    if not ranged:
        return CellId(node.table, tuple([index_value(index, values) for index in indices]))
    spans = [range(low, high + 1) if index is None else (index_value(index, values),)
             for index, (_, low, high) in zip(indices, extent.axes)]
    return tuple([CellId(node.table, c) for c in product(*spans)])


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
        first += sum(map(operator.mul, steps, values))
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


def _reader(store: list, read: tuple, dims: tuple):
    """The function of a cell's indices that gives what one reference of
    an equation reads there (see SymbolTable.reads), `dims` holding the
    dimension that each of the equation's variables binds."""
    first, steps, offsets = read
    if offsets is None:
        return partial(_read_cell, store, first, steps, dims)
    return partial(_read_cells, store, first, steps, dims, offsets)


def _read_cell(store, first, steps, dims, indices):
    return store[first + sum(map(operator.mul, steps, map(indices.__getitem__, dims)))]


def _read_cells(store, first, steps, dims, offsets, indices):
    start = first + sum(map(operator.mul, steps, map(indices.__getitem__, dims)))
    return [store[start + offset] for offset in offsets]


def _index_number(d, indices):
    return Number(indices[d])


def evaluate(plan: CellPlan, inputs: dict[CellId, Value]) -> dict[CellId, Value]:
    """Evaluate every cell of the plan; returns the complete value grid, in
    evaluation order.  Each equation's template is compiled once, to a
    function of a cell's indices (see compile_template)."""
    symtab = plan.symtab
    cells, stencils, dense = symtab.cells, symtab.stencils, symtab.reads
    currency = {name: decl.result_type == "currency" for name, decl in symtab.tables.items()}
    order = order_cells(plan)
    store: list[Value] = [BLANK] * len(cells)
    programs = {}  # id() of each equation -> its compiled template

    def compiled(key: int):
        stencil, reads = stencils[key], dense[key]
        variables = stencil.variables
        dims = tuple(variables.values())

        def leaf(node):
            if type(node) is IndexVar:
                return partial(_index_number, variables[node.name])
            return _reader(store, reads[node.slot], dims)
        return compile_template(stencil.template, leaf)

    for boxes in plan.boxes.values():
        for box in boxes:
            if id(box.equation) not in programs:
                programs[id(box.equation)] = compiled(id(box.equation))
    owner = plan.owner
    for number in order:
        cell, box = cells[number], owner[number]
        if box is None:
            value = inputs.get(cell, BLANK)
        else:
            try:
                value = programs[id(box.equation)](cell.indices)
            except _Fault as exc:
                raise RuntimeFault(cell, str(exc)) from None
        if type(value) is Number and currency[cell.table]:
            value = Number(value.value, currency=True)
        store[number] = value
    return {cells[n]: store[n] for n in order}
