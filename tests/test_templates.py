"""Emit renders each equation's formula once, as a template, and fills in
each cell's addresses and index values.  Its formulas must equal, cell for
cell, those of a renderer that walks the equation for every cell
(helpers.reference_render_formula)."""

import random

import pytest

from gridspec import analyze, evaluate, parse_document, render_formula
from gridspec.ast import EquationDecl
from gridspec.cli import load_inputs
from gridspec.errors import GridSpecError, LayoutError
from gridspec.evaluator import BLANK
from gridspec.layout import emit, plan_layout

from helpers import (
    covering_document,
    covering_inputs,
    evaluate_fixture,
    random_document,
    random_inputs,
    reference_address,
    reference_render_formula,
)


def assert_reference_formulas(doc, plan, values, caption_table=None):
    """Every formula emit writes is the reference rendering of its cell,
    and every derived cell has one; render_formula agrees too."""
    layout = plan_layout(doc, plan.symtab, caption_table)
    result = emit(layout, plan, values, doc)
    emitted = {(sheet, at): text for sheet, cells in result.formulas.items()
               for at, text in cells.items() if text.startswith("=")}
    expected = {}
    for cell in plan.rules:
        address = reference_address(cell, plan.symtab, layout)
        text = reference_render_formula(cell, plan, layout)
        expected[address.sheet, (address.row, address.column)] = text
        assert render_formula(cell, plan, layout) == text
    assert emitted == expected
    return emitted


@pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
def test_fixtures(name):
    doc, _, plan, inputs, values = evaluate_fixture(name)
    assert assert_reference_formulas(doc, plan, values)


def test_random_documents(tmp_path):
    rng = random.Random(2024)
    compared = 0
    for trial in range(300):
        doc = random_document(rng)
        inputs_path = tmp_path / f"{trial}.csv"
        inputs_path.write_text(random_inputs(rng, doc), encoding="utf-8")
        symtab, plan, _ = analyze(doc)
        if plan is None:
            continue
        inputs = load_inputs(inputs_path, symtab)
        try:
            values = evaluate(plan, inputs)
        except GridSpecError:  # a formula is written whatever its value
            values = {cell: inputs.get(cell, BLANK) for cell in plan.symtab.cells}
        try:
            assert_reference_formulas(doc, plan, values)
        except LayoutError:
            continue
        compared += 1
    assert compared >= 40


def test_covering_documents(tmp_path):
    rng = random.Random(4049)
    for trial in range(200):
        doc = covering_document(rng)
        inputs_path = tmp_path / f"{trial}.csv"
        inputs_path.write_text(covering_inputs(rng, doc), encoding="utf-8")
        symtab, plan, diagnostics = analyze(doc)
        assert plan is not None, diagnostics
        inputs = load_inputs(inputs_path, symtab)
        try:
            values = evaluate(plan, inputs)
        except GridSpecError:  # a formula is written whatever its value
            values = {cell: inputs.get(cell, BLANK) for cell in plan.symtab.cells}
        assert assert_reference_formulas(doc, plan, values)


CAPTION_SPEC = """\
bounds t: 1 to 4.
table base : t -> number.
table q_r : t -> number.
table x : t -> number.
table total : -> number.
q_r[ i ] = base[ i ] + i.
x[ 1 ] = q_r[ 1 ].
x[ i > 1 ] = x[ i - 1 ] + q_r[ i ] * 2.
total[] = sum( q_r[ all ] ) / sum( x[ all ] ).
"""


def test_quoted_caption_sheet(tmp_path):
    """Formulas on the main sheet read the caption sheet 'Q r', one
    range included, and the caption sheet's formulas read the main sheet."""
    doc = parse_document(CAPTION_SPEC)
    symtab, plan, _ = analyze(doc)
    inputs_path = tmp_path / "inputs.csv"
    inputs_path.write_text("".join(f"base,{i},{i * 10}\n" for i in range(1, 5)),
                           encoding="utf-8")
    inputs = load_inputs(inputs_path, symtab)
    formulas = assert_reference_formulas(doc, plan, evaluate(plan, inputs), "q_r")
    assert formulas["Model", (4, 3)] == "=C3+'Q r'!A4*2"
    assert formulas["Model", (2, 4)] == "=SUM('Q r'!A3:A6)/SUM(C3:C6)"
    assert formulas["Q r", (3, 1)] == "=Model!B3+1"


def test_one_template_per_equation(monkeypatch):
    """One emit of the loans fixture formats each equation at most once."""
    import gridspec.layout

    doc, symtab, plan, inputs, values = evaluate_fixture("loans")
    layout = plan_layout(doc, symtab)
    calls = []
    original = gridspec.layout.format_expr

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(gridspec.layout, "format_expr", counted)
    emit(layout, plan, values, doc)
    equations = [e for e in doc.elements if isinstance(e, EquationDecl)]
    assert 0 < len(calls) <= len(equations)
