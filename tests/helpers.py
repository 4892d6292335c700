"""Shared helpers for the test suite: fixture loading, random well-formed
document generators used by the property tests, and reference code that
the flat-list spec parser, the lowering of element references, the region
plan, the per-shape verifier and the per-equation formula templates are
compared against."""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
import re
from pathlib import Path

from gridspec import analyze, evaluate, parse_document
from gridspec.analyzer import CellId
from gridspec.ast import (
    ADDITIVE_OPS,
    GUARD_COMPARATORS,
    MAX_ARITY,
    PRECEDENCE,
    RESULT_TYPES,
    AllIndex,
    Binary,
    BooleanLit,
    BoundsDecl,
    Call,
    Comment,
    ConstantPattern,
    ElementRef,
    EquationDecl,
    GuardedVarPattern,
    IndexVar,
    NumberLit,
    SourcePos,
    SpecDocument,
    TableDecl,
    VarPattern,
    element_refs,
    format_expr,
    format_number,
)
from gridspec.a1 import Address, CellRef, parse_a1_formula, sheet_prefix
from gridspec.cli import load_inputs
from gridspec.errors import (
    CyclicDependency,
    ParseFailure,
    RuntimeFault,
    UnknownFunction,
    UnsupportedMatchType,
)
from gridspec.evaluator import BLANK, Number, _Fault, eval_expr, resolve_references
from gridspec.parser import MAX_EXPRESSION_DEPTH, MAX_INTEGER, Diagnostic
from gridspec.verify import Mismatch, VerifyReport, parse_value_text, values_agree

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.gsx").read_text(encoding="utf-8")


def analyze_fixture(name: str):
    doc = parse_document(fixture_text(name))
    symtab, plan, diagnostics = analyze(doc)
    assert plan is not None, [str(d) for d in diagnostics]
    return doc, symtab, plan


def evaluate_fixture(name: str, inputs_name: str | None = None):
    doc, symtab, plan = analyze_fixture(name)
    inputs = load_inputs(FIXTURES / f"{inputs_name or name}_inputs.csv", symtab)
    values = evaluate(plan, inputs)
    return doc, symtab, plan, inputs, values


# --- random well-formed documents ------------------------------------------

def random_pattern(rng: random.Random, low: int, high: int, var: str):
    kind = rng.randrange(3)
    if kind == 0:
        return ConstantPattern(rng.randint(low, high))
    if kind == 1:
        return VarPattern(var)
    comparator = rng.choice(("<", "<=", ">", ">=", "<>"))
    return GuardedVarPattern(var, comparator, rng.randint(low, high))


def random_document(rng: random.Random, max_dims: int = 2, max_span: int = 6,
                    max_rules: int = 3) -> SpecDocument:
    """A small random document: one or two bounds, an input table, and a
    derived table whose rules may or may not cover its cells.  Either
    table may hold currency; a rule adds to, divides, sums or matches
    over the input table, or is a constant."""
    elements = []
    bounds_names = []
    for index in range(rng.randint(1, 2)):
        low = rng.randint(1, 3)
        high = low + rng.randint(0, max_span - 1)
        name = f"b{index}"
        bounds_names.append((name, low, high))
        elements.append(BoundsDecl(name, low, high))

    dims = tuple(rng.choice(bounds_names) for _ in range(rng.randint(1, max_dims)))
    dim_names = tuple(d[0] for d in dims)
    elements.append(TableDecl("src", dim_names, rng.choice(("number", "currency"))))
    elements.append(TableDecl("out", dim_names, rng.choice(("number", "currency"))))

    variables = [f"i{k}" for k in range(len(dims))]
    for _ in range(rng.randint(1, max_rules)):
        patterns = tuple(random_pattern(rng, low, high, var)
                         for (name, low, high), var in zip(dims, variables))
        bound = [p.name for p in patterns if not isinstance(p, ConstantPattern)]

        def ref(whole=None):
            """src at the rule's own indices, the low bound where a
            variable is unbound, and `all` along dimension `whole`."""
            return ElementRef("src", tuple(
                AllIndex() if k == whole else IndexVar(v) if v in bound
                else NumberLit(dims[k][1]) for k, v in enumerate(variables)))

        whole = rng.randrange(len(dims))
        rhs = rng.choice((
            NumberLit(rng.randint(0, 9)),
            Binary("+", ref(), NumberLit(1)),
            Binary("/", ref(), NumberLit(rng.choice((3, 7, 12)))),
            Binary("/", NumberLit(100), ref()),
            Call("sum", (ref(whole),)),
            Call("match", (ref(), ref(whole), NumberLit(0))),
        ))
        elements.append(EquationDecl("out", patterns, rhs))
    return SpecDocument(tuple(elements))


def random_inputs(rng: random.Random, doc: SpecDocument) -> str:
    """Input CSV records for the `src` table of a random document: whole
    numbers, or cents for currency; about a tenth of the cells blank."""
    decl = next(e for e in doc.elements if isinstance(e, TableDecl) and e.name == "src")
    bounds = {e.name: (e.low, e.high) for e in doc.elements if isinstance(e, BoundsDecl)}
    cells = [()]
    for dim in decl.dims:
        low, high = bounds[dim]
        cells = [c + (i,) for c in cells for i in range(low, high + 1)]
    lines = []
    for cell in cells:
        if rng.random() < 0.1:
            continue
        value = rng.randint(-500, 5000)
        text = f"{value / 100:.2f}" if decl.result_type == "currency" else str(value)
        lines.append(",".join(["src", *map(str, cell), text]))
    return "\n".join(lines) + "\n"


# --- random documents that cover every cell --------------------------------

_COVERING_NAMES = ("alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma", "zeta")
# the sets of dimensions an `all` range may span in a table of each arity:
# along the dimensions down rows its `all` indices must come last
_RANGE_DIMS = {1: [{0}], 2: [{0}, {1}, {0, 1}], 3: [{2}, {1, 2}, {0}, {0, 2}, {0, 1, 2}]}


def covering_document(rng: random.Random) -> SpecDocument:
    """A random document whose equations cover every derived cell exactly
    once and read only cells within bounds, both by construction.

    Tables have 0 to 3 dimensions, names in random order and, now and then,
    the caption name `time`.  A derived table's equations split it by a
    constant with a `<>` catch-all, by a guard and its complement, or by
    its first or last cells set apart, and sometimes around a diagonal
    a[i,i] with the cells off it row by row.  Right-hand sides read input
    tables and the tables derived before them at shifted indices kept in
    bounds by the guards (t-1 under t>low, t+2 under t<high-1), their own
    earlier cells, and `all` ranges in sum and match, so there is no cycle;
    a division by a cell may fault."""
    bounds = []
    for k in range(rng.randint(1, 3)):
        low = rng.randint(0, 3)
        bounds.append((f"b{k}", low, low + rng.randint(0, 4)))
    elements: list = [BoundsDecl(*b) for b in bounds]
    names = rng.sample(_COVERING_NAMES, rng.randint(2, 5))
    if rng.random() < 0.25:
        names[rng.randrange(len(names))] = "time"
    tables = []
    for name in names:
        arity = 1 if name == "time" else rng.choice((0, 1, 1, 2, 2, 3))
        dims = tuple(rng.choice(bounds) for _ in range(arity))
        tables.append((name, dims))
        elements.append(TableDecl(name, tuple(d[0] for d in dims),
                                  rng.choice(("number", "currency", "general"))))
    derived = rng.sample(tables, rng.randint(1, len(tables) - 1))
    readable = [t for t in tables if t not in derived]
    for name, dims in derived:
        for patterns in _covering_patterns(rng, dims):
            rhs = _covering_rhs(rng, name, dims, patterns, readable)
            elements.append(EquationDecl(name, patterns, rhs))
        readable.append((name, dims))
    return SpecDocument(tuple(elements))


def _covering_patterns(rng, dims):
    """Left-hand patterns of equations that partition a table's cells."""
    factors = []  # (dimensions, alternative pattern tuples for them)
    split = list(range(len(dims)))
    pairs = [(d, e) for d in split for e in split[d + 1:] if dims[d] == dims[e]]
    if pairs and rng.random() < 0.5:
        d, e = rng.choice(pairs)
        _, low, high = dims[d]
        factors.append(((d, e), [(VarPattern("i"), VarPattern("i"))] + [
            (ConstantPattern(c), GuardedVarPattern(f"i{e}", "<>", c))
            for c in range(low, high + 1)]))
        split = [k for k in split if k not in (d, e)]
    for d in rng.sample(split, min(len(split), rng.randint(0, 2))):
        _, low, high = dims[d]
        var = f"i{d}"
        scheme = rng.choice(("const", "guard", "first", "last") if high else ("const", "first"))
        if scheme == "const":
            c = rng.randint(low, high)
            options = [ConstantPattern(c), GuardedVarPattern(var, "<>", c)]
        elif scheme == "guard":
            m = rng.randint(low, high)
            cmp = rng.choice(("<", "<="))
            options = [GuardedVarPattern(var, cmp, m),
                       GuardedVarPattern(var, {"<": ">=", "<=": ">"}[cmp], m)]
        elif scheme == "first":
            options = [ConstantPattern(low), GuardedVarPattern(var, ">", low)]
        else:
            options = [GuardedVarPattern(var, "<", high - 1),
                       GuardedVarPattern(var, ">=", high - 1)]
        factors.append(((d,), [(p,) for p in options]))
    covered = {d for dims_of, _ in factors for d in dims_of}
    factors += [((d,), [(VarPattern(f"i{d}"),)]) for d in range(len(dims)) if d not in covered]
    equations = []
    for combo in itertools.product(*[options for _, options in factors]):
        patterns = [None] * len(dims)
        for (dims_of, _), chosen in zip(factors, combo):
            for d, pattern in zip(dims_of, chosen):
                patterns[d] = pattern
        equations.append(tuple(patterns))
    return equations


def _covering_rhs(rng, table, dims, patterns, readable):
    """A right-hand side that reads only cells within bounds."""
    spans = {}  # variable -> (bounds name, lowest value, highest value)
    for pattern, (bound, low, high) in zip(patterns, dims):
        if isinstance(pattern, ConstantPattern):
            continue
        _, first, last = spans.get(pattern.name, (bound, low, high))
        if isinstance(pattern, GuardedVarPattern):
            value, cmp = pattern.bound, pattern.comparator
            first = max(first, value + (cmp == ">") if cmp in (">", ">=") else first)
            last = min(last, value - (cmp == "<") if cmp in ("<", "<=") else last)
        spans[pattern.name] = (bound, first, last)
    if any(first > last for _, first, last in spans.values()):
        return NumberLit(rng.randint(0, 9))  # the equation covers no cell

    def index(bound, low, high):
        choices = [v for v, (b, _, _) in spans.items() if b == bound]
        if not choices or rng.random() < 0.2:
            return NumberLit(rng.randint(low, high))
        var = rng.choice(choices)
        _, first, last = spans[var]
        offset = rng.randint(max(-2, low - first), min(2, high - last))
        return shift(IndexVar(var), offset)

    def shift(expr, offset):
        if offset == 0:
            return expr
        return Binary("+" if offset > 0 else "-", expr, NumberLit(abs(offset)))

    def ref(target, ranged=False):
        name, target_dims = target
        whole = rng.choice(_RANGE_DIMS[len(target_dims)]) if ranged else set()
        return ElementRef(name, tuple(AllIndex() if k in whole else index(*dim)
                                      for k, dim in enumerate(target_dims)))

    def earlier():
        """This table at a cell before the reader's, one variable shifted down."""
        once = [(d, p.name) for d, p in enumerate(patterns)
                if not isinstance(p, ConstantPattern)
                and sum(getattr(q, "name", None) == p.name for q in patterns) == 1
                and spans[p.name][1] > dims[d][1]]
        if not once:
            return None
        d, var = rng.choice(once)
        back = rng.randint(1, min(2, spans[var][1] - dims[d][1]))
        return ElementRef(table, tuple(
            NumberLit(p.value) if isinstance(p, ConstantPattern)
            else shift(IndexVar(p.name), -back if k == d else 0)
            for k, p in enumerate(patterns)))

    def term(depth):
        kind = rng.choice(("number", "var", "ref", "ref", "self", "self", "sum", "match",
                           "arith", "arith", "divide", "if"))
        ranges = [t for t in readable if t[1]]
        if kind == "var" and spans:
            return IndexVar(rng.choice(sorted(spans)))
        if kind == "ref":
            return ref(rng.choice(readable))
        if kind == "self" and (found := earlier()) is not None:
            return found
        if kind == "sum" and ranges:
            return Call("sum", (ref(rng.choice(ranges), ranged=True),))
        if kind == "match" and ranges:
            return Call("match", (term(depth + 1) if depth < 2 else NumberLit(rng.randint(0, 9)),
                                  ref(rng.choice(ranges), ranged=True), NumberLit(0)))
        if depth < 2 and kind == "arith":
            return Binary(rng.choice("+-*"), term(depth + 1), term(depth + 1))
        if kind == "divide":
            if rng.random() < 0.1:  # may divide by zero, or by a blank
                return Binary("/", NumberLit(100), ref(rng.choice(readable)))
            return Binary("/", term(depth + 1) if depth < 2 else ref(rng.choice(readable)),
                          NumberLit(rng.choice((2, 4, 5))))
        if depth < 2 and kind == "if":
            test = Binary(">", ref(rng.choice(readable)), NumberLit(rng.randint(0, 50)))
            return Call("if", (test, term(depth + 1), term(depth + 1)))
        return NumberLit(rng.randint(0, 9))

    return term(0)


def covering_inputs(rng: random.Random, doc: SpecDocument) -> str:
    """Input CSV records for every table without equations: whole numbers,
    or cents for currency; about a tenth of the cells blank."""
    bounds = {e.name: (e.low, e.high) for e in doc.elements if isinstance(e, BoundsDecl)}
    derived = {e.table for e in doc.elements if isinstance(e, EquationDecl)}
    lines = []
    for decl in doc.elements:
        if not isinstance(decl, TableDecl) or decl.name in derived:
            continue
        for cell in itertools.product(*[range(bounds[d][0], bounds[d][1] + 1) for d in decl.dims]):
            if rng.random() < 0.1:
                continue
            value = rng.randint(-500, 5000)
            text = f"{value / 100:.2f}" if decl.result_type == "currency" else str(value)
            lines.append(",".join([decl.name, *map(str, cell), text]))
    return "\n".join(lines) + "\n"


# --- expressions at a given depth ------------------------------------------

DEPTH_SHAPES = ("parentheses", "calls", "operators")


def nested_expression(shape: str, depth: int) -> str:
    """An expression `depth` levels deep (see parser.MAX_EXPRESSION_DEPTH)
    whose levels are all parentheses, all calls, or one flat operator
    chain.  It is boolean for calls and numeric otherwise."""
    if shape == "parentheses":
        return "(" * depth + "1" + ")" * depth
    if shape == "calls":
        return "not(" * depth + "true" + ")" * depth
    return " + ".join(["1"] * (depth + 1))


def nested_spec(shape: str, depth: int) -> str:
    """A one-cell spec whose equation is nested_expression(shape, depth)."""
    result_type = "boolean" if shape == "calls" else "number"
    return f"table a : -> {result_type}.\na[] = {nested_expression(shape, depth)}.\n"


# --- random table shapes for the layout ------------------------------------

def random_shape_spec(rng: random.Random) -> str:
    """Spec source declaring one to three bounds and one to seven input
    tables of 0 to 3 dimensions in random order, so 0-D tables come before,
    between and after the dimensioned ones; about one spec in six declares
    only 0-D tables, and about one in three has a 1-D `time` table."""
    bounds = [(f"b{k}", rng.randint(0, 3)) for k in range(rng.randint(1, 3))]
    lines = [f"bounds {name}: {low} to {low + rng.randint(0, 3)}." for name, low in bounds]
    only_scalars = rng.random() < 1 / 6
    tables = []
    for k in range(rng.randint(1, 7)):
        arity = 0 if only_scalars else rng.randint(0, 3)
        tables.append((f"t{k}", [rng.choice(bounds)[0] for _ in range(arity)]))
    if not only_scalars and rng.random() < 1 / 3:
        tables.insert(rng.randint(0, len(tables)), ("time", [rng.choice(bounds)[0]]))
    for name, dims in tables:
        lines.append(f"table {name} : {' '.join(dims)} -> number.")
    return "\n".join(lines) + "\n"


# --- reference expansion of element references -----------------------------

def reference_index_value(expr, subst) -> int:
    """The value of an index expression under a substitution, by walking it."""
    if isinstance(expr, NumberLit):
        return int(expr.value)
    if isinstance(expr, IndexVar):
        return subst[expr.name]
    left = reference_index_value(expr.left, subst)
    right = reference_index_value(expr.right, subst)
    return left + right if expr.op == "+" else left - right


def reference_expand_ref(ref: ElementRef, subst, symtab) -> list[CellId]:
    """Resolve a reference to concrete cells; `all` spans its dimension.

    Cells are produced in row-major order over the expanded dimensions,
    which is the order aggregate builtins see."""
    decl = symtab.tables[ref.table]
    axes = []
    for index, dim in zip(ref.indices, decl.dims):
        if isinstance(index, AllIndex):
            low, high = symtab.bounds[dim]
            axes.append(range(low, high + 1))
        else:
            axes.append((reference_index_value(index, subst),))
    cells = [CellId(ref.table, ())]
    for axis in axes:
        cells = [CellId(ref.table, c.indices + (i,)) for c in cells for i in axis]
    return cells


def reference_ref_bounds(equation, refs, subst, cell, symtab):
    """Flag substituted RHS references that land outside their table's bounds."""
    for ref in refs:
        decl = symtab.tables.get(ref.table)
        if decl is None or len(ref.indices) != len(decl.dims):
            continue
        for index, dim in zip(ref.indices, decl.dims):
            if isinstance(index, AllIndex):
                continue
            low, high = symtab.bounds[dim]
            value = reference_index_value(index, subst)
            if not low <= value <= high:
                yield Diagnostic(
                    "error", "IndexOutOfBounds",
                    f"rule for {cell} references {ref.table} at {dim}={value}, "
                    f"outside {low}..{high}", equation.pos)


# --- the per-cell plan ----------------------------------------------------
# elaborate, resolve_references, build_graph and evaluate as they were
# before the region plan: a rule instance, a substitution dict, the cells
# read and an edge set for every cell.

def reference_match_patterns(patterns, indices):
    """Unify LHS patterns with concrete indices; return the substitution."""
    subst = {}
    for pattern, value in zip(patterns, indices):
        if isinstance(pattern, ConstantPattern):
            if pattern.value != value:
                return None
        elif subst.setdefault(pattern.name, value) != value:
            return None
        elif isinstance(pattern, GuardedVarPattern) and not {
                "<": value < pattern.bound, "<=": value <= pattern.bound,
                ">": value > pattern.bound, ">=": value >= pattern.bound,
                "<>": value != pattern.bound}[pattern.comparator]:
            return None
    return subst


def _valid_refs(equation, symtab):
    """The element references of an equation that name a declared table
    with the right arity, in walk order: the slots of its stencil."""
    return [ref for ref in element_refs(equation.rhs)
            if ref.table in symtab.tables
            and len(ref.indices) == len(symtab.tables[ref.table].dims)]


def reference_elaborate(doc, symtab):
    """Pick exactly one rule per derived cell by concrete enumeration;
    returns (rules, inputs, diagnostics), with rules mapping each cell to
    its (equation, substitution) in table and row-major order."""
    diagnostics, rules, inputs = [], {}, set()
    for name in symtab.tables:
        equations = symtab.equations_by_table[name]
        if not equations:
            inputs.update(symtab.table_cells(name))
            continue
        for cell in symtab.table_cells(name):
            matches = []
            for equation in equations:
                subst = reference_match_patterns(equation.lhs_patterns, cell.indices)
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
            rules[cell] = (equation, subst)
            diagnostics.extend(reference_ref_bounds(
                equation, _valid_refs(equation, symtab), subst, cell, symtab))
    return rules, inputs, diagnostics


def reference_resolve_references(rules, symtab):
    """The cells each derived cell reads: per slot a CellId or, for a
    range, a tuple of CellIds in row-major order."""
    references = {}
    for cell, (equation, subst) in rules.items():
        reads = []
        for ref in _valid_refs(equation, symtab):
            cells = reference_expand_ref(ref, subst, symtab)
            ranged = any(isinstance(index, AllIndex) for index in ref.indices)
            reads.append(tuple(cells) if ranged else cells[0])
        references[cell] = tuple(reads)
    return references


def reference_build_graph(rules, inputs, references):
    """(nodes, edges, topo_order) by Kahn's algorithm over a min-heap of
    cells; raises CyclicDependency with the path _find_cycle found."""
    nodes = sorted(set(rules) | inputs)
    edges = {cell: set() for cell in nodes}
    for cell, reads in references.items():
        for cells in reads:
            edges[cell].update(cells if type(cells) is tuple else (cells,))
    dependents = {cell: [] for cell in nodes}
    indegree = {}
    for cell in nodes:
        indegree[cell] = len(edges[cell])
        for dep in edges[cell]:
            dependents[dep].append(cell)
    ready = [cell for cell in nodes if indegree[cell] == 0]
    order = []
    while ready:
        cell = heapq.heappop(ready)
        order.append(cell)
        for dependent in dependents[cell]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                heapq.heappush(ready, dependent)
    if len(order) != len(nodes):
        remaining = {c for c in nodes if indegree[c] > 0}
        start = cell = min(remaining)
        seen, path = {}, [start]
        while cell not in seen:
            seen[cell] = len(path) - 1
            cell = min(d for d in edges[cell] if d in remaining)
            path.append(cell)
        raise CyclicDependency(path[seen[cell]:])
    return nodes, edges, order


def reference_evaluate(symtab, rules, inputs, references, order, bindings):
    """Evaluate every cell in `order`; returns the value dict in that order."""
    store = {}
    for cell in order:
        if cell in inputs:
            value = bindings.get(cell, BLANK)
        else:
            equation, subst = rules[cell]
            slots = {id(ref): k for k, ref in enumerate(_valid_refs(equation, symtab))}
            reads = references[cell]

            def leaf(node):
                if isinstance(node, IndexVar):
                    return Number(subst[node.name])
                cells = reads[slots[id(node)]]
                return [store[c] for c in cells] if type(cells) is tuple else store[cells]

            try:
                value = eval_expr(equation.rhs, leaf)
            except _Fault as exc:
                raise RuntimeFault(cell, str(exc)) from None
        if isinstance(value, Number) and symtab.tables[cell.table].result_type == "currency":
            value = Number(value.value, currency=True)
        store[cell] = value
    return store


# --- verify, one parse per formula -----------------------------------------

def reference_verify_grid(formulas, values) -> VerifyReport:
    """One-step check of every formula cell, parsing every formula, and of
    every other cell's text against the values document."""
    report = VerifyReport()
    parsed = {sheet: {at: parse_value_text(text) for at, text in cells.items()}
              for sheet, cells in values.items()}

    def operand(address: Address):
        if address.sheet not in parsed:
            raise _Fault(f"references sheet {address.sheet!r}, "
                         "which the directory does not hold")
        value = parsed[address.sheet].get((address.row, address.column), BLANK)
        if value is None:
            raise _Fault(f"references non-value cell {address}")
        return value

    def leaf(node):
        if isinstance(node, CellRef):
            return operand(node.address)
        return [operand(a) for a in node.addresses()]

    for sheet in sorted(formulas):
        for (row, column), text in sorted(formulas[sheet].items()):
            address = Address(sheet, column, row)
            if not text.startswith("="):
                held = values.get(sheet, {}).get((row, column), "")
                if held != text:
                    report.mismatches.append(Mismatch(address, text, held))
                continue
            stored = parsed.get(sheet, {}).get((row, column), BLANK)
            report.checks += 1
            try:
                computed = eval_expr(parse_a1_formula(text, default_sheet=sheet), leaf)
            except ParseFailure as exc:
                first = exc.diagnostics[0]
                fault = f"does not parse: {first.code} {first.pos} {first.message}"
                report.mismatches.append(Mismatch(address, None, stored, fault))
                continue
            except (_Fault, UnknownFunction, UnsupportedMatchType) as exc:
                report.mismatches.append(Mismatch(address, None, stored, str(exc)))
                continue
            if not values_agree(computed, stored):
                report.mismatches.append(Mismatch(address, computed, stored))
    return report


# --- formula rendering, one walk per cell ----------------------------------

def _format_ref(address: Address, home_sheet: str) -> str:
    if address.sheet == home_sheet:
        return address.a1()
    return f"{sheet_prefix(address.sheet)}{address.a1()}"


def reference_render_formula(cell, plan, layout) -> str:
    """Render a derived cell's rule instance as an A1 formula for the
    cell's sheet, walking its equation once for this cell."""
    equation, subst = plan.rules[cell]
    reads = resolve_references(plan)[cell]
    slots = {id(ref): k for k, ref in enumerate(_valid_refs(equation, plan.symtab))}
    home = layout.cell_address(cell).sheet

    def leaf(expr):
        if isinstance(expr, NumberLit):
            return format_number(expr.value)
        if isinstance(expr, BooleanLit):
            return "TRUE" if expr.value else "FALSE"
        if isinstance(expr, IndexVar):
            return str(subst[expr.name])
        if isinstance(expr, Call):
            return expr.func.upper()
        cells = reads[slots[id(expr)]]
        if type(cells) is not tuple:
            return _format_ref(layout.cell_address(cells), home)
        first, last = layout.cell_address(cells[0]), layout.cell_address(cells[-1])
        return f"{_format_ref(first, home)}:{last.a1()}"

    return "=" + format_expr(equation.rhs, leaf, pad="")


# --- spec parsing, one Token object per token --------------------------------
# The scanner and parser as they were before tokens were scanned into flat
# lists: every token is a _RefToken, whose position is worked out from its
# offset when asked for.

_REF_SPEC_TOKENS = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<comment>--[^\n]*)"
    r"|(?P<symbol>->|<=|>=|<>|[:\[\](),=+\-*/<>.])"
    r"|(?P<decimal>[0-9]+\.[0-9]+)"
    r"|(?P<integer>[0-9]+)"
    r"|(?P<keyword>(?:bounds|table|to|all|true|false)(?![A-Za-z0-9_]))"
    r"|(?P<identifier>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<illegal>[^ \t\r\n]))")
_REF_INDEX_PRECEDENCE = {op: PRECEDENCE[op] for op in ADDITIVE_OPS}
_REF_COMPARISON = PRECEDENCE["="]


class _RefToken:
    __slots__ = ("kind", "text", "offset", "lines")

    def __init__(self, kind, text, offset, lines):
        self.kind, self.text, self.offset, self.lines = kind, text, offset, lines

    @property
    def pos(self) -> SourcePos:
        line = bisect.bisect_right(self.lines, self.offset)
        return SourcePos(line, self.offset - self.lines[line - 1] + 1, self.offset)

    def __str__(self):
        return "end of input" if self.kind == "eoi" else f"'{self.text}'"


def _reference_scan(text: str):
    if text.startswith("\ufeff"):
        text = text[1:]
    lines = [0]
    end = text.find("\n")
    while end >= 0:
        lines.append(end + 1)
        end = text.find("\n", end + 1)
    tokens, comments, illegal = [], [], []
    for match in _REF_SPEC_TOKENS.finditer(text):
        kind = match.lastgroup
        token = _RefToken(kind, match[kind], match.start(kind), lines)
        if kind == "comment":
            comments.append(Comment(token.text[2:].strip(), token.pos))
        elif kind == "illegal":
            illegal.append(Diagnostic("error", "IllegalCharacter",
                                      f"illegal character {token.text!r}", token.pos))
        else:
            tokens.append(token)
    tokens.append(_RefToken("eoi", "", len(text), lines))
    return tokens, comments, illegal


class _RefParseDiagnostic(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.open = 0

    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.current()
        if token.kind != "eoi":
            self.pos += 1
        return token

    def at(self, kind, text=None):
        token = self.tokens[self.pos]
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind, text=None):
        if self.at(kind, text):
            return self.advance()
        return None

    def accept_op(self, ops):
        token = self.tokens[self.pos]
        if token.kind == "symbol" and token.text in ops:
            self.pos += 1
            return token.text
        return None

    def expect(self, kind, text=None, expected=None):
        token = self.accept(kind, text)
        if token is None:
            self.fail(expected or (f"'{text}'" if text else kind))
        return token

    def fail(self, expected):
        token = self.current()
        raise _RefParseDiagnostic(Diagnostic(
            "error", "ParseError", f"expected {expected}, found {token}", token.pos))

    def recover(self):
        while not self.at("eoi"):
            if self.advance().text == ".":
                return

    def element(self):
        if self.at("keyword", "bounds"):
            return self.bounds_decl()
        if self.at("keyword", "table"):
            return self.table_decl()
        if self.at("identifier"):
            return self.equation_decl()
        self.fail("a bounds, table, or equation element")

    def bounds_decl(self):
        start = self.expect("keyword", "bounds").pos
        name = self.expect("identifier", expected="a bounds name").text
        self.expect("symbol", ":")
        low = self.integer("an integer low bound")
        self.expect("keyword", "to")
        high = self.integer("an integer high bound")
        self.expect("symbol", ".", expected="'.' ending the bounds element")
        return BoundsDecl(name, low, high, start)

    def table_decl(self):
        start = self.expect("keyword", "table").pos
        name = self.expect("identifier", expected="a table name").text
        self.expect("symbol", ":")
        dims = []
        while self.at("identifier"):
            dims.append(self.advance().text)
        self.expect("symbol", "->", expected="'->' before the result type")
        type_token = self.current()
        if type_token.kind != "identifier" or type_token.text not in RESULT_TYPES:
            self.fail("a result type (general, number, currency, date or boolean)")
        self.advance()
        self.expect("symbol", ".", expected="'.' ending the table element")
        if len(dims) > MAX_ARITY:
            raise _RefParseDiagnostic(Diagnostic(
                "error", "ParseError",
                f"table '{name}' has {len(dims)} dimensions; at most {MAX_ARITY} supported",
                start))
        return TableDecl(name, tuple(dims), type_token.text, start)

    def equation_decl(self):
        name_token = self.expect("identifier", expected="a table name")
        self.expect("symbol", "[", expected="'[' starting the index patterns")
        patterns = []
        if not self.at("symbol", "]"):
            patterns.append(self.index_pattern())
            while self.accept("symbol", ","):
                patterns.append(self.index_pattern())
        self.expect("symbol", "]")
        self.expect("symbol", "=", expected="'=' between left- and right-hand sides")
        rhs = self.expression()
        self.expect("symbol", ".", expected="'.' ending the equation")
        return EquationDecl(name_token.text, tuple(patterns), rhs, name_token.pos)

    def index_pattern(self):
        if self.at("integer"):
            return ConstantPattern(self.integer())
        name = self.expect("identifier", expected="an index pattern").text
        comparator = self.accept_op(GUARD_COMPARATORS)
        if comparator:
            return GuardedVarPattern(name, comparator, self.integer("an integer guard bound"))
        return VarPattern(name)

    def integer(self, expected="an integer"):
        token = self.expect("integer", expected=expected)
        digits = token.text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_INTEGER)) or int(digits) > MAX_INTEGER:
            raise _RefParseDiagnostic(Diagnostic(
                "error", "ParseError", "integer literal too large", token.pos))
        return int(digits)

    def expression(self):
        return self._operations(self.atom, PRECEDENCE)

    def _operations(self, operand, precedence, floor=0):
        self.depth = 0
        left = operand()
        depth = self.depth
        compared = False
        while True:
            token = self.tokens[self.pos]
            strength = precedence.get(token.text, 0) if token.kind == "symbol" else 0
            if strength <= floor or (compared and strength == _REF_COMPARISON):
                break
            compared = strength == _REF_COMPARISON
            self.pos += 1
            right = self._operations(operand, precedence, strength)
            depth = self._level(max(depth, self.depth), token)
            left = Binary(token.text, left, right)
        self.depth = depth
        return left

    def _level(self, depth, token):
        if depth >= MAX_EXPRESSION_DEPTH:
            raise _RefParseDiagnostic(Diagnostic(
                "error", "ParseError",
                f"expression nested more than {MAX_EXPRESSION_DEPTH} levels deep", token.pos))
        return depth + 1

    def _nested(self, token, func):
        self._level(self.open, token)
        self.open += 1
        try:
            if func is None:
                inside = self.expression()
                self.expect("symbol", ")")
            else:
                inside = Call(func, self._list(self.expression, ")"))
        finally:
            self.open -= 1
        self.depth = self._level(self.depth, token)
        return inside

    def _list(self, item, close):
        items, depth = [], 0
        if not self.at("symbol", close):
            items.append(item())
            depth = self.depth
            while self.accept("symbol", ","):
                items.append(item())
                depth = max(depth, self.depth)
        self.expect("symbol", close)
        self.depth = depth
        return tuple(items)

    def atom(self):
        token = self.current()
        if token.kind in ("integer", "decimal"):
            self.pos += 1
            number = float(token.text)
            if not math.isfinite(number):
                raise _RefParseDiagnostic(Diagnostic(
                    "error", "ParseError", "number literal too large", token.pos))
            return NumberLit(number)
        if token.kind == "keyword" and token.text in ("true", "false"):
            self.pos += 1
            return BooleanLit(token.text == "true")
        if token.kind == "identifier":
            self.pos += 1
            bracket = self.accept_op(("(", "["))
            if bracket == "(":
                return self._nested(token, token.text)
            if bracket == "[":
                return ElementRef(token.text, self._list(self.index_expression, "]"))
            return IndexVar(token.text)
        if self.accept("keyword", "all"):
            return AllIndex()
        if self.accept("symbol", "("):
            return self._nested(token, None)
        self.fail("an expression")

    def index_expression(self):
        if self.accept("keyword", "all"):
            self.depth = 0
            return AllIndex()
        return self._operations(self.index_atom, _REF_INDEX_PRECEDENCE)

    def index_atom(self):
        if self.at("integer"):
            return NumberLit(float(self.integer()))
        if self.at("identifier"):
            return IndexVar(self.advance().text)
        self.fail("an index expression (integer or index variable)")


def reference_parse_document(text: str) -> SpecDocument:
    """Parse a document the way parse_document did with a Token per token."""
    tokens, comments, diagnostics = _reference_scan(text)
    parser = _ReferenceParser(tokens)
    elements = []
    while not parser.at("eoi"):
        try:
            elements.append(parser.element())
        except _RefParseDiagnostic as exc:
            diagnostics.append(exc.diagnostic)
            parser.recover()
    if diagnostics:
        raise ParseFailure(diagnostics)
    return SpecDocument(tuple(elements), tuple(comments))
