import itertools
import random

from hypothesis import given, strategies as st

from gridspec import analyze, evaluate, parse_document
from gridspec.a1 import Address, column_letters, column_number
from gridspec.layout import (
    LayoutOptions,
    emit,
    grid_to_csv,
    csv_to_grid,
    humanize_caption,
    manifest_to_json,
    plan_layout,
    render_value,
)
from gridspec.evaluator import BLANK, NA, Boolean, DateValue, Number

from helpers import evaluate_fixture, random_shape_spec


def compile_fixture(name):
    doc, symtab, plan, inputs, values = evaluate_fixture(name)
    layout = plan_layout(doc, symtab)
    return layout, emit(layout, plan, values, inputs, doc)


class TestColumnNames:
    def test_examples(self):
        assert column_letters(1) == "A"
        assert column_letters(26) == "Z"
        assert column_letters(27) == "AA"
        assert column_letters(52) == "AZ"
        assert column_letters(703) == "AAA"

    @given(st.integers(1, 100_000))
    def test_bijection(self, n):
        assert column_number(column_letters(n)) == n

    def test_address_text(self):
        assert Address("Model", 5, 14).a1() == "E14"


class TestCaptions:
    def test_humanize(self):
        assert humanize_caption("time") == "Time"
        assert humanize_caption("total_cash_at_end_of_period") == \
            "Total cash at end of period"


class TestRegions:
    def test_cashflow_rectangles(self):
        layout, _ = compile_fixture("cashflow")
        rect = {name: (r.sheet, r.a1_range()) for name, r in layout.regions.items()}
        assert rect["time"] == ("Time", "A3:A14")
        assert rect["expenses_during_period"] == ("Model", "B3:B14")
        assert rect["initial_cash"] == ("Model", "C2")
        assert rect["total_cash_at_start_of_period"] == ("Model", "D3:D14")
        assert rect["total_cash_at_end_of_period"] == ("Model", "E3:E14")
        assert layout.caption_column == ("Model", 1, "time")

    def test_loans_rectangles(self):
        layout, _ = compile_fixture("loans")
        rect = {name: r.a1_range() for name, r in layout.regions.items()}
        assert rect["first_that_can_supply_wants"] == "H3:H14"
        assert rect["has_ceiling"] == "B18:B21"
        assert rect["ceiling"] == "C18:C21"
        assert rect["initial_loan"] == "D18:D21"
        assert rect["can_supply_wants"] == "B25:E36"
        assert rect["lent_during_period"] == "G25:J36"
        assert rect["total_loan_at_start_of_period"] == "L25:O36"
        assert rect["total_loan_at_end_of_period"] == "Q25:T36"

    def test_orientations(self):
        layout, _ = compile_fixture("loans")
        assert layout.regions["initial_cash"].orientation == "cell"
        assert layout.regions["ceiling"].orientation == "vertical"
        assert layout.regions["can_supply_wants"].orientation == "block"

    def test_no_caption_table_without_time(self):
        from gridspec import analyze, parse_document

        doc = parse_document(
            "bounds b: 1 to 3.\ntable x : b -> number.\ntable y : b -> number.\n"
            "y[t] = x[t] + 1.")
        symtab, plan, _ = analyze(doc)
        layout = plan_layout(doc, symtab)
        assert layout.caption_column is None
        assert layout.regions["x"].a1_range() == "A3:A5"

    def test_caption_table_override(self):
        doc, symtab, plan, inputs, values = evaluate_fixture("cashflow")
        layout = plan_layout(
            doc, symtab, LayoutOptions(caption_table="expenses_during_period"))
        assert layout.caption_column == ("Model", 1, "expenses_during_period")
        assert layout.regions["expenses_during_period"].sheet == \
            "Expenses during period"
        assert layout.regions["time"].sheet == "Model"


class TestRenderValue:
    def test_examples(self):
        assert render_value(Number(100.0), currency=True) == "100.00"
        assert render_value(Number(3.0)) == "3"
        assert render_value(Boolean(True)) == "TRUE"
        assert render_value(NA) == "#N/A"
        assert render_value(DateValue.of(2009, 1, 1)) == "2009-01-01"
        assert render_value(BLANK) == ""

    def test_number_text_reads_back_exactly(self):
        for value in (10 / 3, 0.1 + 0.2, -2.5, 1e21, 1e-5, 123456.78):
            for currency in (False, True):
                text = render_value(Number(value), currency=currency)
                assert float(text) == value and "e" not in text, text
        assert render_value(Number(1e-5)) == "0.00001"
        assert render_value(Number(10 / 3), currency=True) == "3.3333333333333335"


class TestRenderedFormulas:
    def test_cashflow_formulas(self):
        _, result = compile_fixture("cashflow")
        model = result.formulas["Model"]
        assert model[(3, 4)] == "=C2"          # start[1] = initial cash
        assert model[(4, 4)] == "=E3"          # start[t] = end[t-1]
        assert model[(3, 5)] == "=D3-B3"       # end[t] = start - expenses
        assert result.formulas["Time"][(3, 1)] == "=DATE(2009,1,1)"

    def test_loans_formulas(self):
        _, result = compile_fixture("loans")
        model = result.formulas["Model"]
        assert model[(3, 8)] == "=MATCH(TRUE,B25:E25,0)"
        assert model[(3, 7)] == "=SUM(G25:J25)"
        assert model[(25, 2)] == "=OR(NOT(B18),F3+L25<=C18)"
        assert model[(25, 7)] == "=IF(ISNA(H3),0,IF(1=H3,F3,0))"
        assert model[(26, 12)] == "=Q25"       # loan start[l,t>1] = end[l,t-1]

    def test_literals_and_headers(self):
        _, result = compile_fixture("loans")
        model = result.values["Model"]
        assert model[(2, 3)] == "100.00"       # initial cash input
        assert model[(7, 8)] == "#N/A"         # no loan can supply at t=5
        assert model[(1, 2)] == "Expenses during period"
        assert result.formulas["Model"][(2, 3)] == "100.00"  # inputs are literals

    def test_caption_column_copies_values(self):
        _, result = compile_fixture("cashflow")
        assert result.values["Model"][(3, 1)] == "2009-01-01"
        assert result.formulas["Model"][(3, 1)] == "2009-01-01"  # copy, not a reference


class TestManifest:
    def test_loans_manifest(self):
        _, result = compile_fixture("loans")
        manifest = result.manifest
        assert manifest["sheets"] == ["Model", "Time"]
        entries = {t["name"]: t for t in manifest["tables"]}
        assert entries["expenses_during_period"]["class"] == "input"
        assert entries["total_cash_at_end_of_period"]["class"] == "derived"
        assert entries["can_supply_wants"]["rectangle"] == "B25:E36"
        assert entries["has_ceiling"]["result_type"] == "boolean"
        assert "has_ceiling[l] is true" in entries["has_ceiling"]["comment"]
        assert manifest["caption_column"] == {
            "sheet": "Model", "column": "A", "source": "time"}

    def test_manifest_json_is_stable(self):
        _, result = compile_fixture("cashflow")
        assert manifest_to_json(result.manifest) == manifest_to_json(result.manifest)
        assert manifest_to_json(result.manifest).endswith("\n")


class TestCsvRoundTrip:
    def test_examples(self):
        cells = {(1, 1): "a", (2, 3): 'say "hi", then', (3, 2): "=B2+1"}
        text = grid_to_csv(cells)
        assert text.splitlines()[0] == "a,,"
        assert csv_to_grid(text) == cells

    def test_empty(self):
        assert grid_to_csv({}) == ""
        assert csv_to_grid("") == {}

    def test_lf_line_endings(self):
        text = grid_to_csv({(1, 1): "x", (2, 1): "y"})
        assert "\r" not in text


class TestDeterminism:
    def test_double_emission_is_identical(self):
        layout_a, result_a = compile_fixture("loans")
        layout_b, result_b = compile_fixture("loans")
        for sheet in result_a.formulas:
            assert grid_to_csv(result_a.formulas[sheet]) == \
                grid_to_csv(result_b.formulas[sheet])
            assert grid_to_csv(result_a.values[sheet]) == \
                grid_to_csv(result_b.values[sheet])
        assert manifest_to_json(result_a.manifest) == manifest_to_json(result_b.manifest)


def compile_source(source):
    """Plan and emit a spec whose tables are all inputs, left blank."""
    doc = parse_document(source)
    symtab, plan, diagnostics = analyze(doc)
    assert plan is not None, [str(d) for d in diagnostics]
    layout = plan_layout(doc, symtab)
    return symtab, layout, emit(layout, plan, evaluate(plan, {}), {}, doc)


def sheet_order(cell):
    """Row-major order over the sheet: a block's down dimensions first,
    then its across dimension."""
    return cell.indices[1:] + cell.indices[:1] if len(cell.indices) > 1 else cell.indices


def check_geometry(symtab, layout, manifest):
    regions = layout.regions
    for name in symtab.tables:
        region = regions[name]
        addresses = [layout.cell_address(cell)
                     for cell in sorted(symtab.table_cells(name), key=sheet_order)]
        # one address per cell, all inside the rectangle, which they fill
        assert len(set(addresses)) == len(addresses) == region.width * region.height, name
        for address in addresses:
            assert address.sheet == region.sheet
            assert region.left <= address.column <= region.right, (name, address)
            assert region.top <= address.row <= region.bottom, (name, address)
        spots = [(address.row, address.column) for address in addresses]
        assert spots == sorted(spots), name
        # a cell's dense number places it too: its offset in row-major index order
        for offset, cell in enumerate(symtab.table_cells(name)):
            assert region.at(offset) == region.place(cell.indices), (name, cell)
    for (name, region), (other_name, other) in itertools.combinations(regions.items(), 2):
        assert (region.sheet != other.sheet or region.right < other.left
                or other.right < region.left or region.bottom < other.top
                or other.bottom < region.top), (name, other_name)
    for name, region in regions.items():
        assert not any(other.sheet == region.sheet and other.left <= region.left <= other.right
                       and other.top <= region.header_row <= other.bottom
                       for other in regions.values()), name
        if layout.caption_column is not None and region.sheet == layout.caption_column[0]:
            assert region.left > layout.caption_column[1], name
    assert {t["name"]: (t["sheet"], t["rectangle"]) for t in manifest["tables"]} == \
        {name: (region.sheet, region.a1_range()) for name, region in regions.items()}


class TestGeometry:
    """Every cell of every table has its own address inside its table's
    rectangle; the rectangles fill without overlap; the manifest states them."""

    def test_fixtures(self):
        for name in ("cashflow", "borrowing", "loans"):
            doc, symtab, plan, inputs, values = evaluate_fixture(name)
            layout = plan_layout(doc, symtab)
            check_geometry(symtab, layout, emit(layout, plan, values, inputs, doc).manifest)

    def test_random_shapes(self):
        rng = random.Random(6006)
        for _ in range(300):
            symtab, layout, result = compile_source(random_shape_spec(rng))
            check_geometry(symtab, layout, result.manifest)

    def test_scalars_before_any_dimensioned_table(self):
        _, layout, _ = compile_source(
            "bounds b: 1 to 3.\ntable a : -> number.\ntable x : b -> number.\n"
            "table k : -> number.\ntable y : b b -> number.\n")
        assert {name: (r.a1_range(), r.header_row) for name, r in layout.regions.items()} == {
            "a": ("A2", 1), "x": ("B3:B5", 1), "k": ("C2", 1), "y": ("A9:C11", 7)}

    def test_only_scalars(self):
        _, layout, result = compile_source("table p : -> number.\ntable q : -> boolean.\n")
        assert layout.sheets == ["Model"] and layout.caption_column is None
        assert {name: (r.a1_range(), r.header_row) for name, r in layout.regions.items()} == {
            "p": ("A2", 1), "q": ("B2", 1)}
        assert result.formulas["Model"] == {(1, 1): "P", (1, 2): "Q"}
