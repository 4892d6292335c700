"""Emit renders each equation's formula once, as a template, and fills in
each cell's addresses and index values.  Its formulas must equal, cell for
cell, those of a renderer that walks the equation for every cell
(helpers.reference_render_formula)."""

import collections
import random
import sys

import pytest

from gridspec import analyze, evaluate, parse_document, render_formula
from gridspec import layout as layout_module
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
    wide_match,
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
            values = [inputs.get(cell, BLANK) for cell in plan.symtab.cells]
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
            values = [inputs.get(cell, BLANK) for cell in plan.symtab.cells]
        try:
            assert assert_reference_formulas(doc, plan, values)
        except LayoutError:  # MATCH searches one row or one column
            assert wide_match(doc)
            continue
        assert not wide_match(doc)


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


# One document per way a run's addresses are placed: a reversed read steps
# up one column, a transposed block read steps whole columns either way, a
# diagonal read crosses a column boundary within a run, a 0-D read stays put.
PLACEMENT_SPECS = {
    "reversed read": ("""\
bounds t: 1 to 5.
table a : t -> number.
table b : t -> number.
b[ t ] = a[ 6 - t ].
""", "Model", (3, 2), "=A7"),
    "transposed block read": ("""\
bounds l: 1 to 2.
bounds t: 1 to 3.
table x : l t -> number.
table y : t l -> number.
y[ t, l ] = x[ l, t ] + x[ 3 - l, t ].
""", "Model", (10, 2), "=B4+A4"),
    "run across a column boundary": ("""\
bounds l: 1 to 3.
bounds t: 1 to 3.
table x : l t -> number.
table d : t -> number.
d[ t ] = x[ t, t ] + x[ t, 4 - t ].
""", "Model", (11, 1), "=C5+C3"),
    "0-D read, index variable, range and a <>-split box": ("""\
bounds t: 1 to 4.
table rate : -> number.
table a : t -> number.
table y : t -> number.
table total : -> number.
y[ t <> 2 ] = a[ t ] * rate[] + t.
y[ 2 ] = sum( a[ all ] ).
total[] = sum( y[ all ] ) - rate[].
""", "Model", (5, 3), "=B5*A2+3"),
    "range along a block row": ("""\
bounds l: 1 to 3.
bounds t: 1 to 2.
table x : l t -> number.
table s : t -> number.
s[ t ] = sum( x[ all, t ] ) + x[ 3, t ].
""", "Model", (9, 1), "=SUM(A4:C4)+C4"),
    "caption-sheet prefix": ("""\
bounds t: 1 to 3.
table time : t -> number.
table a : t -> number.
time[ t ] = t * 10.
a[ t ] = time[ 4 - t ] + time[ t ].
""", "Model", (3, 2), "=Time!A5+Time!A3"),
}


@pytest.mark.parametrize("name", PLACEMENT_SPECS)
def test_placement_branches(name):
    spec, sheet, at, formula = PLACEMENT_SPECS[name]
    doc = parse_document(spec)
    _, plan, diagnostics = analyze(doc)
    assert plan is not None, diagnostics
    formulas = assert_reference_formulas(doc, plan, evaluate(plan, {}))
    assert formulas[sheet, at] == formula


def counting(monkeypatch, name):
    """Record the arguments of each call of layout's `name`."""
    calls = []
    original = getattr(layout_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(layout_module, name, counted)
    return calls


def test_one_template_per_equation(monkeypatch):
    """Each emit formats the template of each equation that covers a cell
    once, and keeps nothing formatted from one call to the next."""
    formatted = counting(monkeypatch, "format_expr")
    for name in ("cashflow", "borrowing", "loans"):
        doc, symtab, plan, _, values = evaluate_fixture(name)
        layout = plan_layout(doc, symtab)
        stencils = dict.fromkeys(box.stencil for boxes in plan.boxes.values() for box in boxes)
        formatted.clear()
        for calls in (1, 2):
            emit(layout, plan, values, doc)
            assert len(formatted) == calls * len(stencils)
        assert [args[0] for args in formatted] == 2 * [stencil.template for stencil in stencils]


def test_render_formula_uses_the_run_formatter(monkeypatch):
    doc, symtab, plan, _, values = evaluate_fixture("loans")
    layout = plan_layout(doc, symtab)
    emitted = emit(layout, plan, values, doc).formulas
    formatted = counting(monkeypatch, "_format_run")
    for cell in plan.rules:
        address = reference_address(cell, symtab, layout)
        assert render_formula(cell, plan, layout) == emitted[address.sheet][address.row,
                                                                           address.column]
    assert len(formatted) == len(plan.rules)


SCALED_SPEC = """\
bounds t: 1 to {periods}.
bounds l: 1 to 3.
table time : t -> number.
table rate : l -> currency.
table x : l t -> currency.
table total : t -> number.
time[ t ] = t.
x[ l, 1 ] = rate[ l ].
x[ l, t > 1 ] = x[ l, t - 1 ] * rate[ l ] + time[ t ].
total[ t ] = sum( x[ all, t ] ) + time[ {periods} + 1 - t ] + t.
"""


def test_no_call_per_cell():
    """Emit makes no Python call per formula cell: with four times the
    periods, every function but the value texts' is called as often."""
    calls = []
    for periods in (10, 40):
        doc = parse_document(SCALED_SPEC.format(periods=periods))
        _, plan, diagnostics = analyze(doc)
        assert plan is not None, diagnostics
        values = evaluate(plan, {})
        layout = plan_layout(doc, plan.symtab)
        counts = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                counts[frame.f_code] += 1
        sys.setprofile(profile)
        try:
            emit(layout, plan, values, doc)
        finally:
            sys.setprofile(None)
        calls.append(counts)
    per_value = {f.__code__ for f in (layout_module.render_value, layout_module.format_number,
                                      layout_module._currency_text)}
    small, large = calls
    assert large[layout_module._format_run.__code__] > 0
    assert {code.co_name: (small[code], large[code]) for code in small.keys() | large.keys()
            if code not in per_value and small[code] != large[code]} == {}
