"""Evaluation of an elaborated plan, a box of cells at a time.

Runtime values are plain: a number is a float, never an int, a boolean a
bool and a date a datetime.date; BLANK and NA are the two singletons.
Currency is a table's type, which only emit reads.  A number never
equals a boolean, though 1.0 == True in Python, so equality and
comparison test types too.  Arithmetic coerces Blank to 0; NA propagates
through arithmetic and comparison but is absorbed by isna.  Evaluation
runs each equation's boxes in an order proved once per box (see
scheduler.schedule), so every read sees an already-written value.  The
per-cell order of order_cells is the exact path for a plan that the
schedule cannot order, and it names the first fault and a cycle.
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
from itertools import chain, count, product

from .analyzer import Box, CellId, CellPlan, index_value, runs
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
from .errors import CyclicDependency, RuntimeFault
from .scheduler import schedule


class Blank:
    __slots__ = ()

    def __repr__(self):
        return "Blank"


class NAError:
    __slots__ = ()

    def __repr__(self):
        return "#N/A"


BLANK = Blank()
NA = NAError()
Value = float | bool | datetime.date | Blank | NAError

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def read_date(text: str) -> datetime.date | None:
    """The date written YYYY-MM-DD, the one form that dates are written and
    read in; None for any other text."""
    if _ISO_DATE.fullmatch(text):
        try:
            return datetime.date.fromisoformat(text)
        except ValueError:
            pass
    return None


class _Fault(Exception):
    """Internal: a builtin or operator rejected its operands.

    evaluate() re-raises this as a RuntimeFault naming the cell."""


def is_na(value: Value) -> bool:
    return value is NA


def value_equal(a: Value, b: Value) -> bool:
    """Type-and-value equality, so 1.0 is not True; Blank and NA equal
    nothing (not even themselves) for matching purposes."""
    return a is not BLANK and a is not NA and type(a) is type(b) and a == b


class SparseRange(list):
    """The values of those cells of a range that a values document holds,
    in row-major order, with the 1-based position of each in the range.
    The other cells are blank: sum skips them and match finds none."""

    __slots__ = ("positions",)

    def __init__(self, values, positions):
        super().__init__(values)
        self.positions = positions


def _as_number(value: Value) -> float:
    if type(value) is float:
        return value
    if value is BLANK:
        return 0.0
    raise _Fault(f"expected a number, got {value!r}")


def _as_boolean(value: Value) -> bool:
    if type(value) is bool:
        return value
    if value is BLANK:
        return False
    raise _Fault(f"expected a boolean, got {value!r}")


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
    # comparisons; operands must share a type, Blank as the number 0
    a = 0.0 if left is BLANK else left
    b = 0.0 if right is BLANK else right
    if type(a) is not type(b) or type(a) not in (float, bool, datetime.date):
        raise _Fault(f"cannot compare {left!r} with {right!r}")
    return _COMPARISONS[op](a, b)


def _logical(combine, args) -> Value:
    if any([is_na(a) for a in args]):
        return NA
    return combine([_as_boolean(a) for a in args])


def _not(value: Value) -> Value:
    if is_na(value):
        return NA
    return not _as_boolean(value)


def _sum(*args) -> Value:
    total = 0.0
    for arg in args:
        for item in arg if isinstance(arg, list) else (arg,):
            if type(item) is float:
                total += item
            elif is_na(item):
                return NA
            elif item is not BLANK and type(item) is not bool:
                total += _as_number(item)
    return _finite(total)


def _match(needle: Value, rng, mode: Value) -> Value:
    if not (type(mode) is float and mode == 0):
        raise _Fault("third argument of match must be 0")
    if not isinstance(rng, list):
        rng = [rng]
    if is_na(needle):
        return NA
    positions = rng.positions if isinstance(rng, SparseRange) else count(1)
    for position, item in zip(positions, rng):
        if value_equal(needle, item):
            return float(position)
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
        return datetime.date(year, month, day)
    except (ValueError, OverflowError) as exc:
        raise _Fault(f"invalid date({year}, {month}, {day}): {exc}") from None


_BUILTIN_FUNCTIONS = {
    "or": lambda *args: _logical(any, args), "and": lambda *args: _logical(all, args),
    "not": _not, "isna": is_na, "sum": _sum, "match": _match, "date": _date,
}


def _finite(number: float) -> float:
    if not math.isfinite(number):
        raise _Fault(f"result {number} is not a finite number")
    return number


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
    faults only when its node is reached.  The function raises _Fault for
    those and where an operator or builtin rejects its operands, and gives
    0 where the formula's result is an empty cell, as the host does."""
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
        return partial(_constant, float(node.value))
    if kind is BooleanLit:
        return partial(_constant, node.value)
    read = leaf(node)
    if range_ok or not (kind is Hole and node.ranged):
        return read
    return partial(_outside, read)


def _compile_call(node: Call, leaf):
    name, count = node.func.lower(), len(node.args)
    if name not in BUILTINS:
        return partial(_raise, f"unknown function {name}")
    if not count or BUILTINS[name] not in (None, count):
        return partial(_raise, f"{name} given {count} argument(s)")
    args = [_compile(arg, leaf, name in AGGREGATES) for arg in node.args]
    if name == "if":
        return partial(_choose, *args)
    return partial(_call, _BUILTIN_FUNCTIONS[name], args)


def _blank_is_zero(run, env):
    value = run(env)
    return 0.0 if value is BLANK else value


def _constant(value, env):
    return value


def _arithmetic(op, combine, left, right, env):
    """Two floats are combined here; any other operands, a division by
    zero and a result that is not finite go to apply_binary."""
    a, b = left(env), right(env)
    if type(a) is float and type(b) is float and (b or op != "/"):
        result = combine(a, b)
        if result - result == 0:  # finite
            return result
    return apply_binary(op, a, b)


def _comparison(op, compare, left, right, env):
    a, b = left(env), right(env)
    if type(a) is float and type(b) is float:
        return compare(a, b)
    return apply_binary(op, a, b)


def _choose(cond, then, other, env):
    flag = cond(env)
    if type(flag) is bool:
        return then(env) if flag else other(env)
    if is_na(flag):
        return NA
    return then(env) if _as_boolean(flag) else other(env)


def _call(function, args, env):
    return function(*[arg(env) for arg in args])


def _outside(read, env):
    read(env)
    raise _Fault("range reference outside sum or match")


def _raise(message, env):
    raise _Fault(message)


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


def _edges(plan: CellPlan) -> tuple[int, list[int]]:
    """The cell graph's edges, ascending, and `width`: a key `read * width +
    reader` for each cell that each derived cell reads, a range's each, in
    the row-major order of Stencil.reads.  A box's keys for one read cell
    of a reference are affine in its variables' values, so they are listed
    a run at a time.  A cell that reads another twice has two keys."""
    width = 4 * len(plan.owner) + 4  # above any step of a reader's number, so no key step is 0
    keys = []
    for boxes in plan.boxes.values():
        for box in boxes:
            for start, coefficients, offsets in box.stencil.reads:
                steps = [c * width + step for c, step in zip(coefficients, box.steps)]
                for offset in offsets or (0,):
                    for run in runs(box.spans, (start + offset) * width + box.first, steps):
                        keys += run
    keys.sort()
    return width, keys


def order_cells(plan: CellPlan) -> list[int]:
    """The dense numbers of all cells in evaluation order, by Kahn's
    algorithm over a min-heap: of the cells whose reads are all placed, the
    smallest number, which is the smallest (table, indices), goes next.
    A placed cell's readers are the keys of _edges between two bisections;
    a cell that reads another twice counts it twice, which places it no
    differently."""
    return _kahn(plan, *_edges(plan))


def _kahn(plan: CellPlan, width: int, keys: list[int]) -> list[int]:
    """order_cells over the edge keys that _edges(plan) gives."""
    size = len(plan.owner)
    indegree = [0] * size
    for box in chain.from_iterable(plan.boxes.values()):  # a key per cell read (see _edges)
        reads = sum([len(offsets or (0,)) for *_, offsets in box.stencil.reads])
        for run in runs(box.spans, box.first, box.steps):
            indegree[run.start:run.stop:run.step] = [reads] * len(run)
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
        raise CyclicDependency(_find_cycle(plan, width, keys, indegree))
    return order


def _find_cycle(plan: CellPlan, width: int, keys: list[int], indegree: list[int]) -> list[CellId]:
    """Walk the cells that order_cells left unplaced, those of indegree
    above 0, from the smallest, each to the smallest unplaced cell it
    reads, until one repeats; return the cycle path."""
    reads = {}  # unplaced cell -> the smallest unplaced cell it reads
    for key in keys:  # ascending, so a reader's first key names its smallest read
        read, reader = divmod(key, width)
        if indegree[read] and indegree[reader]:
            reads.setdefault(reader, read)
    cell, seen = min(reads), {}  # each cell of the walk -> its place in it
    while cell not in seen:
        seen[cell] = len(seen)
        cell = reads[cell]
    return [plan.symtab.cells[n] for n in [*seen][seen[cell]:] + [cell]]


@dataclass
class DependencyGraph:
    nodes: list[CellId]
    edges: dict[CellId, set[CellId]]  # cell -> cells its rule reads
    topo_order: list[CellId]


def build_graph(plan: CellPlan) -> DependencyGraph:
    """The cell dependency graph and evaluation order as CellIds, made from
    the region plan when asked for: the order of order_cells, in which
    `evaluate` reports a fault or a cycle."""
    cells, (width, keys) = plan.symtab.cells, _edges(plan)
    order = _kahn(plan, width, keys)
    nodes = [cells[n] for n, box in enumerate(plan.owner)
             if box is not None or cells[n].table not in plan.boxes]
    edges = {cell: set() for cell in nodes}
    for key in keys:
        read, reader = divmod(key, width)
        edges[cells[reader]].add(cells[read])
    return DependencyGraph(nodes, edges, [cells[n] for n in order])


def _reader(store: list, read: tuple):
    """The function of an equation's variables' values that gives what one
    of its references reads there (see Stencil.reads)."""
    first, steps, offsets = read
    if offsets is None:
        return partial(_read_cell, store, first, steps)
    return partial(_read_cells, store, first, steps, offsets)


def _read_cell(store, first, steps, values):
    return store[first + sum(map(operator.mul, steps, values))]


def _read_cells(store, first, steps, offsets, values):
    start = first + sum(map(operator.mul, steps, values))
    return [store[start + offset] for offset in offsets]


def _index_number(n, values):
    return float(values[n])


def _compiled(stencil, store: list):
    """An equation's template as a function of its variables' values, in
    the order of Stencil.variables, reading `store`."""
    reads, variables = stencil.reads, list(stencil.variables)

    def leaf(node):
        if type(node) is IndexVar:
            return partial(_index_number, variables.index(node.name))
        return _reader(store, reads[node.slot])
    return compile_template(stencil.template, leaf)


def evaluate(plan: CellPlan, inputs: dict[CellId, Value]) -> list[Value]:
    """Evaluate every cell of the plan; returns every cell's value, inputs
    included, by dense number: `zip(plan.symtab.cells, values)` pairs each
    with its cell.  An input cell takes its binding in `inputs`, an int as
    its float, placed at the number Extent.number gives it, or Blank; a
    binding that names no input cell is ignored.  Each equation's template is compiled once, to a
    function of its variables' values (see compile_template), and run over
    its boxes in the order of `schedule`, steps of the plan's one box graph.
    Where there is no schedule, or a cell faults, every cell is evaluated
    again in the order of order_cells, which reports the cycle or the
    fault that it meets first.  Every evaluation failure, an unknown
    function in a plan that skipped typecheck included, is a _Fault,
    reported as a RuntimeFault that names its cell."""
    store: list[Value] = [BLANK] * len(plan.owner)
    extents = plan.symtab.extents
    for (table, indices), value in inputs.items():
        if table in extents and table not in plan.boxes:
            number = extents[table].number(indices)
            if number is not None:
                store[number] = float(value) if type(value) is int else value
    programs = {box.stencil: None for boxes in plan.boxes.values() for box in boxes}
    for stencil in programs:
        programs[stencil] = _compiled(stencil, store)
    steps = schedule(plan)
    if steps is not None:
        try:
            _run(store, programs, steps)
            return store
        except _Fault:
            pass  # evaluated again below, which reports the fault that order_cells meets first
    cells, owner = plan.symtab.cells, plan.owner
    for number in order_cells(plan):
        box = owner[number]
        if box is not None:
            indices = cells[number].indices
            try:
                store[number] = programs[box.stencil](
                    [indices[d] for d in box.stencil.variables.values()])
            except _Fault as exc:
                raise RuntimeFault(cells[number], str(exc)) from None
    return store


def _run(store: list, programs: dict, steps: list) -> None:
    """Evaluate the steps of a schedule, a box as one slice and a sweep a
    slice at a time, and in a slice each member's cells there: those of
    its first slice, moved on by its step on the bound once per slice."""
    for item in steps:
        slices, members = (range(1), [(item, None, 0, 0)]) if type(item) is Box else item
        tasks = []
        for box, n, first, last in members:
            spans, step = list(box.spans), 0
            if n is not None:
                spans[n], step = range(first, first + 1), box.steps[n]
            numbers = chain.from_iterable(runs(spans, box.first, box.steps))
            tasks.append((programs[box.stencil], spans, n, first, last,
                          numbers if n is None else list(numbers), step))  # None: used once
        for s in slices:
            for program, spans, n, first, last, numbers, step in tasks:
                if first <= s <= last:
                    if n is not None:
                        spans[n] = range(s, s + 1)
                    shift = (s - first) * step
                    for number, values in zip(numbers, product(*spans)):
                        store[number + shift] = program(values)
