"""The region plan against the per-cell plan it replaced.

Elaboration, the views built from the regions (`plan.rules`,
`plan.inputs`, `resolve_references`, `build_graph`) and evaluation must
give what elaborating, resolving and ordering one cell at a time gave
(helpers.reference_elaborate and the functions after it): the same
diagnostics in the same order, the same rules, reads, edges, order,
values, faults and cycles."""

import random
from collections import Counter

import pytest

from gridspec import analyzer, evaluator, parse_document
from gridspec.analyzer import CellId, elaborate, resolve
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
from gridspec.evaluator import Number, build_graph, evaluate, resolve_references
from gridspec.layout import plan_layout, render_formula

from helpers import (
    FIXTURES,
    analyze_fixture,
    covering_document,
    covering_inputs,
    fixture_text,
    random_document,
    random_inputs,
    reference_build_graph,
    reference_elaborate,
    reference_evaluate,
    reference_resolve_references,
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
    assert plan.inputs == inputs
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
    # repr tells a currency Number from a plain one; == does not
    assert [(cell, repr(v)) for cell, v in values.items()] == \
        [(cell, repr(v)) for cell, v in want.items()]
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
    # the bounds of `t + t - t` over 1..3 are wider than the cells it reads:
    # the table is checked again cell by cell, and no cell is out of bounds
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
    bindings = {CellId("x", (t,)): Number(10 * t) for t in (1, 2, 3)}
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
