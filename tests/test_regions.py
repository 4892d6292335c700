"""The region plan against the per-cell plan it replaced.

Elaboration, the views built from the regions (`plan.rules`,
`resolve_references`, `build_graph`) and evaluation must
give what elaborating, resolving and ordering one cell at a time gave
(helpers.reference_elaborate and the functions after it): the same
diagnostics in the same order, the same rules, reads, edges, order,
values, faults and cycles."""

import importlib.util
import random
import sys
from collections import Counter
from itertools import product
from operator import mul
from pathlib import Path

import pytest

from gridspec import analyzer, cli, evaluator, parse_document
from gridspec.analyzer import Box, CellId, analyze, elaborate, resolve
from gridspec.ast import (
    Binary,
    ConstantPattern,
    ElementRef,
    EquationDecl,
    IndexVar,
    NumberLit,
    SpecDocument,
    TableDecl,
)
from gridspec.cli import load_inputs, main
from gridspec.errors import CyclicDependency, RuntimeFault
from gridspec.evaluator import build_graph, evaluate
from gridspec.layout import emit, plan_layout, render_formula
from gridspec.scheduler import schedule

from helpers import (
    FIXTURES,
    analyze_fixture,
    covering_document,
    covering_inputs,
    fixture_text,
    is_plain,
    random_document,
    random_inputs,
    reference_build_graph,
    reference_elaborate,
    reference_evaluate,
    reference_resolve_references,
    resolve_references,
)
from test_lowering import shifted_document


def compare(doc, bindings) -> str:
    """Assert that the region plan of `doc` agrees with the per-cell plan
    as far as the document gets; returns how far that is."""
    symtab, diagnostics = resolve(doc)
    assert diagnostics == []
    plan, diagnostics = elaborate(doc, symtab)
    rules, inputs, expected = reference_elaborate(doc, symtab)
    assert diagnostics == expected
    assert len(plan.rules) == len(rules)
    assert [(cell, rule.equation, rule.substitution) for cell, rule in plan.rules.items()] == \
        [(cell, equation, subst) for cell, (equation, subst) in rules.items()]
    assert all(plan.rules[cell].equation is equation for cell, (equation, _) in rules.items())
    if any(d.code == "IndexOutOfBounds" for d in diagnostics):
        return "out of bounds"
    references = reference_resolve_references(rules, symtab)
    read = {c for reads in references.values() for r in reads
            for c in (r if type(r) is tuple else (r,))}
    if read <= set(rules) | inputs:  # else no cell plan resolved them either
        resolved = resolve_references(plan)
        assert list(resolved.items()) == list(references.items())
        assert [type(r) for reads in resolved.values() for r in reads] == \
            [type(r) for reads in references.values() for r in reads]
    if diagnostics:
        return "uncovered or overlapping"
    try:
        nodes, edges, order = reference_build_graph(rules, inputs, references)
    except CyclicDependency as expected_cycle:
        for run in (build_graph, lambda plan: evaluate(plan, bindings)):
            with pytest.raises(CyclicDependency) as info:
                run(plan)
            assert info.value.path == expected_cycle.path
            assert str(info.value) == str(expected_cycle)
        return "cycle"
    graph = build_graph(plan)
    assert graph.nodes == nodes
    assert list(graph.edges.items()) == list(edges.items())
    assert graph.topo_order == order
    try:
        want = reference_evaluate(symtab, rules, inputs, references, order, bindings)
    except RuntimeFault as expected_fault:
        with pytest.raises(RuntimeFault) as info:
            evaluate(plan, bindings)
        assert info.value.cell == expected_fault.cell
        assert str(info.value) == str(expected_fault)
        return "fault"
    values = evaluate(plan, bindings)
    assert all(map(is_plain, values)), [v for v in values if not is_plain(v)]
    # repr tells apart what == does not, such as 0.0 and -0.0
    assert {cell: repr(v) for cell, v in zip(symtab.cells, values)} == \
        {cell: repr(v) for cell, v in want.items()}
    return "evaluated"


def bindings_of(doc, text, path):
    path.write_text(text, encoding="utf-8")
    symtab, _ = resolve(doc)
    return load_inputs(path, symtab)


@pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
def test_fixtures(name):
    doc = parse_document(fixture_text(name))
    symtab, _ = resolve(doc)
    bindings = load_inputs(FIXTURES / f"{name}_inputs.csv", symtab)
    assert compare(doc, bindings) == "evaluated"


def test_covering_documents(tmp_path):
    rng = random.Random(20261018)
    outcomes = Counter()
    for trial in range(250):
        doc = covering_document(rng)
        bindings = bindings_of(doc, covering_inputs(rng, doc), tmp_path / f"{trial}.csv")
        outcomes[compare(doc, bindings)] += 1
    assert outcomes["evaluated"] >= 200 and outcomes["fault"] >= 3, outcomes
    assert set(outcomes) <= {"evaluated", "fault"}, outcomes


def test_random_documents(tmp_path):
    """The old draws, most of which leave cells uncovered or overlap."""
    rng = random.Random(2024)
    outcomes = Counter()
    for trial in range(300):
        doc = random_document(rng)
        bindings = bindings_of(doc, random_inputs(rng, doc), tmp_path / f"{trial}.csv")
        outcomes[compare(doc, bindings)] += 1
    assert outcomes["uncovered or overlapping"] >= 150 and outcomes["evaluated"] >= 30, outcomes


def broken(doc, rng):
    """`doc` with one fault of the analysis or of the order: an equation
    dropped or repeated, its references shifted out of bounds, or a read of
    the equation's own cell or of a derived table's cell at its indices."""
    equations = [e for e in doc.elements if isinstance(e, EquationDecl)]
    victim = rng.choice(equations)
    kind = rng.choice(("drop", "repeat", "shift", "self", "other"))
    elements = list(doc.elements)
    if kind == "drop":
        elements.remove(victim)
    elif kind == "repeat":
        elements.append(victim)
    elif kind == "shift":
        return shifted_document(doc, rng)
    else:
        dims = {e.name: e.dims for e in doc.elements if isinstance(e, TableDecl)}
        table = victim.table if kind == "self" else rng.choice(
            sorted({e.table for e in equations if dims[e.table] == dims[victim.table]}))
        indices = tuple(NumberLit(p.value) if isinstance(p, ConstantPattern) else IndexVar(p.name)
                        for p in victim.lhs_patterns)
        rhs = Binary("+", victim.rhs, ElementRef(table, indices))
        elements[elements.index(victim)] = EquationDecl(victim.table, victim.lhs_patterns, rhs)
    return SpecDocument(tuple(elements))


def test_broken_documents(tmp_path):
    """The error paths: uncovered, overlapping and out-of-bounds cells, and cycles."""
    rng = random.Random(1187)
    outcomes = Counter()
    for trial in range(250):
        doc = covering_document(rng)
        bindings = bindings_of(doc, covering_inputs(rng, doc), tmp_path / f"{trial}.csv")
        outcomes[compare(broken(doc, rng), bindings)] += 1
    for outcome in ("uncovered or overlapping", "out of bounds", "cycle"):
        assert outcomes[outcome] >= 20, outcomes


@pytest.mark.parametrize("source, outcome", [
    # `t + t - t` is lowered to `t`, so its bounds are those of the cells it
    # reads, and no cell is out of bounds
    ("table y : b -> number.\ny[ t ] = x[ t + t - t ] + 1.", "evaluated"),
    # a diagonal, cut by a guard on one of its dimensions, with the cells off it
    ("table d : b b -> number.\nd[ i, i>1 ] = x[ i ].\nd[ 1, 1 ] = 0.\n"
     "d[ 1, j<>1 ] = j.\nd[ 2, j<>2 ] = x[ 4 - j ].\nd[ 3, j<>3 ] = sum( x[ all ] ).",
     "evaluated"),
    # a hole in a span, and reads that fall just inside the bounds
    ("table z : b -> number.\nz[ t<>1 ] = x[ t - 1 ].\nz[ 1 ] = x[ 3 ].", "evaluated"),
    ("table z : b -> number.\nz[ t ] = x[ 4 - t ].\nz[ t<>2 ] = 1.", "uncovered or overlapping"),
    ("table z : b -> number.\nz[ t<>2 ] = x[ t + 1 ].\nz[ 2 ] = 1.", "out of bounds"),
    ("table z : b b -> number.\nz[ i<>2, i<>3 ] = 5.\nz[ i, j>1 ] = 1.",
     "uncovered or overlapping"),
])
def test_handpicked(source, outcome):
    doc = parse_document("bounds b: 1 to 3.\ntable x : b -> number.\n" + source + "\n")
    bindings = {CellId("x", (t,)): float(10 * t) for t in (1, 2, 3)}
    assert compare(doc, bindings) == outcome


# The cycle each of these specs reports, as the per-cell plan reported it.
CYCLES = {
    "bounds b: 1 to 3.\ntable x : b -> number.\nx[ t ] = x[ t ].\n":
        "cyclic dependency: x[1] -> x[1]",
    "bounds b: 1 to 4.\ntable a : b -> number.\ntable c : b -> number.\n"
    "a[ t ] = c[ 5 - t ] + 1.\nc[ t ] = a[ t ].\n":
        "cyclic dependency: a[1] -> c[4] -> a[4] -> c[1] -> a[1]",
    "bounds l: 1 to 2.\nbounds t: 1 to 3.\ntable m : l t -> number.\n"
    "m[ l, 1 ] = 1.\nm[ l, t>1 ] = m[ l, t - 1 ] + m[ 3 - l, t ].\n":
        "cyclic dependency: m[1,2] -> m[2,2] -> m[1,2]",
}


@pytest.mark.parametrize("spec", list(CYCLES), ids=["self", "two tables", "2-D"])
def test_cycle_reports(spec, tmp_path, capsys):
    (tmp_path / "spec.gsx").write_text(spec, encoding="utf-8")
    assert main(["compile", str(tmp_path / "spec.gsx"), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: {CYCLES[spec]}\n"


def test_compile_makes_no_rule_per_cell(monkeypatch, tmp_path):
    """Compiling the loans fixture builds no RuleInstance, expands no
    reference and matches no cell against patterns: it works per equation.
    Nor does rendering one cell's formula, which reads the cell's box."""
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(analyzer, "RuleInstance")
    count(evaluator, "expand_ref")
    count(analyzer, "match_patterns")
    assert main(["compile", str(FIXTURES / "loans.gsx"),
                 "--inputs", str(FIXTURES / "loans_inputs.csv"),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert counts == Counter(), counts
    doc, symtab, plan = analyze_fixture("loans")
    cell = symtab.cells[max(n for n, box in enumerate(plan.owner) if box is not None)]
    assert render_formula(cell, plan, plan_layout(doc, symtab)).startswith("=")
    assert counts == Counter(), counts


def test_reads_take_no_reference_scan():
    """Evaluation and emit find each reference's dense read at its Hole's
    slot, so no `index` lookup runs however many references an equation
    has (a scan for the reference node made one per reference read)."""
    terms = " + ".join(["x[ t ] * 0"] * 100)
    doc = parse_document("bounds t: 1 to 20.\ntable x : t -> number.\n"
                         f"table y : t -> number.\ny[ t ] = {terms}.\n")
    symtab, plan, diagnostics = analyze(doc)
    assert diagnostics == []
    layout = plan_layout(doc, symtab)
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ == "index":
            calls.append(arg)

    sys.setprofile(profile)
    try:
        emit(layout, plan, evaluate(plan, {}), doc)
    finally:
        sys.setprofile(None)
    assert calls == []


# The box schedule: (source, the slices of each sweep the schedule makes, or
# None where there is no schedule and order_cells orders every cell, and
# what `compare` finds).  Over `b`, `x[ t ]` holds 10 * t.
SCHEDULES = {
    "reverse recurrence": (
        "table y : b -> number.\ny[ t<3 ] = y[ t + 1 ] + 1.\ny[ 3 ] = x[ 1 ].",
        None, "evaluated"),
    "sweep on the second dimension": (
        "table m : b l -> number.\nm[ t, 2 ] = x[ t ].\nm[ t, l>2 ] = m[ t, l - 1 ] + x[ t ].",
        [(2, 5)], "evaluated"),
    "diagonal": (
        "bounds c: 1 to 3.\ntable d : b c -> number.\nd[ i, i>1 ] = d[ i - 1, i - 1 ] + x[ i ].\n"
        "d[ 1, 1 ] = x[ 1 ].\nd[ 1, j>1 ] = j.\nd[ 2, j<>2 ] = x[ j ].\nd[ 3, j<>3 ] = 0.",
        [(1, 3)], "evaluated"),
    "constant pattern in a sweep": (
        "table p : b -> number.\ntable q : b -> number.\np[ 2 ] = q[ 1 ] + 1.\n"
        "p[ t<>2 ] = x[ t ].\nq[ t ] = p[ t ] * 2.",
        [(1, 3)], "evaluated"),
    "no sweep, acyclic cells": (
        "table s : b b -> number.\ns[ i, 1 ] = x[ i ].\ns[ i, j>1 ] = s[ i, j - 1 ] + s[ 1, 1 ].",
        None, "evaluated"),
    # the sweep reaches y[2] first; order_cells reaches a[3], whose number is smaller
    "fault in a sweep": (
        "table y : b -> number.\ntable a : b -> number.\ny[ 1 ] = x[ 1 ].\n"
        "y[ t>1 ] = y[ t - 1 ] / ( x[ t ] - 20 ).\na[ t ] = 1 / ( x[ t ] - 30 ).",
        [(1, 3)], "fault"),
}


@pytest.mark.parametrize("source, sweeps, outcome", list(SCHEDULES.values()), ids=list(SCHEDULES))
def test_schedules(source, sweeps, outcome):
    doc = parse_document("bounds b: 1 to 3.\nbounds l: 2 to 5.\ntable x : b -> number.\n"
                         + source + "\n")
    bindings = {CellId("x", (t,)): float(10 * t) for t in (1, 2, 3)}
    assert compare(doc, bindings) == outcome
    symtab, plan, diagnostics = analyze(doc)
    assert diagnostics == []
    steps = schedule(plan)
    assert sweeps == (None if steps is None else
                      [(step[0][0], step[0][-1]) for step in steps if type(step) is not Box])
    if outcome == "fault":
        with pytest.raises(RuntimeFault) as info:
            evaluate(plan, bindings)
        assert str(info.value) == "a[3]: division by zero"


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_clean_compile_orders_no_cell(monkeypatch, tmp_path):
    """A clean compile of the fixtures and of the benchmark's workloads
    (seed 1) evaluates on the box schedule: it never calls order_cells and
    makes no CellId list (`symtab.cells`)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    calls, symtabs = [], []
    order_cells, analyze_spec = evaluator.order_cells, cli.analyze
    monkeypatch.setattr(evaluator, "order_cells",
                        lambda plan: calls.append(plan) or order_cells(plan))

    def analyzed(*args, **kwargs):
        result = analyze_spec(*args, **kwargs)
        symtabs.append(result[0])
        return result
    monkeypatch.setattr(cli, "analyze", analyzed)
    models = [(FIXTURES / f"{name}.gsx", FIXTURES / f"{name}_inputs.csv")
              for name in ("cashflow", "borrowing", "loans")]
    for name in ("loans_grid", "cashflow_chain", "many_tables"):
        workload = workloads.GENERATORS[name](1)
        models.append((tmp_path / f"{name}.gsx", tmp_path / f"{name}.csv"))
        models[-1][0].write_text(workload.spec, encoding="utf-8")
        models[-1][1].write_text(workload.inputs, encoding="utf-8")
    for source, inputs in models:
        assert main(["compile", str(source), "--inputs", str(inputs),
                     "--out-dir", str(tmp_path / source.stem)]) == 0
    assert calls == []
    assert len(symtabs) == 6 and not any("cells" in symtab.__dict__ for symtab in symtabs)


def assert_written_before_read(plan) -> bool:
    """Walk schedule(plan) as evaluate runs it: a step at a time, a sweep a
    slice at a time, and in a slice each member's cells there.  Every cell
    that a member reads (Stencil.reads) is an input cell or was written by
    an earlier step, slice or member, and every derived cell is written
    exactly once.  False where there is no schedule."""
    steps = schedule(plan)
    if steps is None:
        return False
    written = [box is None for box in plan.owner]  # input cells hold their values at the start
    writes = Counter()
    for step in steps:
        slices, members = (range(1), [(step, None, 0, 0)]) if type(step) is Box else step
        for s in slices:
            for box, n, first, last in members:
                if not first <= s <= last:
                    continue
                spans = list(box.spans)
                if n is not None:
                    spans[n] = range(s, s + 1)
                cells = []
                for values in product(*spans):
                    for start, strides, offsets in box.stencil.reads:
                        read = start + sum(map(mul, strides, values))
                        for number in (read,) if offsets is None else [read + o for o in offsets]:
                            assert written[number], (box.stencil.equation, values, number)
                    cells.append(box.first + sum(map(mul, box.steps, values)))
                    assert plan.owner[cells[-1]] is box
                for number in cells:
                    written[number] = True
                writes.update(cells)
    assert writes == Counter(n for n, box in enumerate(plan.owner) if box is not None)
    return True


def test_schedule_writes_before_reads(monkeypatch):
    """The schedule's order, checked on its own: comparing values could
    miss an early read, since a blank cell reads as 0."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for name in ("cashflow", "borrowing", "loans"):
        assert assert_written_before_read(analyze_fixture(name)[2])
    for name in ("loans_grid", "cashflow_chain", "many_tables"):
        doc = parse_document(workloads.GENERATORS[name](1).spec)
        assert assert_written_before_read(analyze(doc)[1])
    rng = random.Random(20261018)  # the documents of test_covering_documents
    scheduled = 0
    for trial in range(250):
        doc = covering_document(rng)
        covering_inputs(rng, doc)
        scheduled += assert_written_before_read(analyze(doc)[1])
    assert scheduled >= 200
