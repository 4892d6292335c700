import datetime

import pytest
from hypothesis import given, strategies as st

from gridspec.a1 import Address, CellRef, RangeRef, parse_a1_formula, sheet_prefix
from gridspec.ast import Binary, BooleanLit, Call, NumberLit
from gridspec.errors import ParseFailure
from gridspec.evaluator import BLANK, NA
from gridspec.layout import emit, plan_layout
from gridspec.verify import parse_value_text, values_agree, verify_grid

from helpers import evaluate_fixture, is_plain, range_addresses, same


def compile_fixture(name):
    doc, symtab, plan, inputs, values = evaluate_fixture(name)
    layout = plan_layout(doc, symtab)
    return plan, emit(layout, plan, values, doc)


class TestFormulaParsing:
    def test_arithmetic_with_refs(self):
        expr = parse_a1_formula("=D3-B3", default_sheet="Model")
        assert expr == Binary("-",
                              CellRef(Address("Model", 4, 3)),
                              CellRef(Address("Model", 2, 3)))

    def test_call_with_range(self):
        expr = parse_a1_formula("=MATCH(TRUE,B25:E25,0)", default_sheet="Model")
        assert isinstance(expr, Call) and expr.func == "MATCH"
        rng = expr.args[1]
        assert isinstance(rng, RangeRef)
        assert range_addresses(rng) == [Address("Model", c, 25) for c in range(2, 6)]

    def test_cross_sheet_reference(self):
        expr = parse_a1_formula("=Time!A3+1", default_sheet="Model")
        assert expr.left == CellRef(Address("Time", 1, 3))

    def test_leading_equals_required(self):
        with pytest.raises(Exception):
            parse_a1_formula("D3-B3", default_sheet="Model")


class TestFormulaLexing:
    """The A1 grammar's lexical rules, pinned through the parser."""

    def test_absolute_references(self):
        assert parse_a1_formula("=$A$1") == CellRef(Address("Model", 1, 1))
        assert parse_a1_formula("=Time!$A$3") == CellRef(Address("Time", 1, 3))

    def test_sheet_qualified_range(self):
        expr = parse_a1_formula("=SUM(Time!A1:B2)")
        assert expr == Call("SUM", (RangeRef(Address("Time", 1, 1), Address("Time", 2, 2)),))

    def test_booleans_in_any_case(self):
        assert parse_a1_formula("=true") == BooleanLit(True)
        assert parse_a1_formula("=True") == BooleanLit(True)
        assert parse_a1_formula("=FALSE") == BooleanLit(False)

    def test_whitespace_between_tokens(self):
        assert parse_a1_formula("= 1 +\tA1 ") == \
            Binary("+", NumberLit(1), CellRef(Address("Model", 1, 1)))

    @pytest.mark.parametrize("formula, message, offset", [
        ("=1 + @", "error ParseError 1:5 illegal character '@'", 4),
        ("=1 \u00e9", "error ParseError 1:3 illegal character '\u00e9'", 2),
        ("=1+", "error ParseError 1:3 expected an expression, found end of input", 2),
        ("=A1:", "error ParseError 1:4 expected a cell reference after ':', "
                 "found end of input", 3),
    ])
    def test_diagnostics(self, formula, message, offset):
        with pytest.raises(ParseFailure) as info:
            parse_a1_formula(formula)
        (diagnostic,) = info.value.diagnostics
        assert (str(diagnostic), diagnostic.pos.offset) == (message, offset)


class TestValueParsing:
    def test_examples(self):
        assert parse_value_text("") is BLANK
        assert parse_value_text("#N/A") is NA
        assert same(parse_value_text("TRUE"), True)
        assert same(parse_value_text("100.00"), 100.0)
        assert same(parse_value_text("-5"), -5.0)
        assert same(parse_value_text("2009-01-01"), datetime.date(2009, 1, 1))
        assert parse_value_text("Expenses during period") is None

    @pytest.mark.parametrize("text", ["\u0661\u0662", "5\n", "\uff15", "1e5", "5.", ".5", "+5"])
    def test_only_ascii_decimal_text_is_a_number(self, text):
        assert parse_value_text(text) is None

    def test_agreement_tolerance(self):
        assert values_agree(1.0, 1.0 + 1e-12)
        assert not values_agree(1.0, 1.001)
        assert values_agree(NA, NA)
        assert not values_agree(0.0, False)
        assert not values_agree(1.0, None)


class TestVerifyGrid:
    def test_match_tells_a_number_from_a_boolean(self):
        """MATCH finds TRUE third in 1, 0, TRUE: 1 and 0 are numbers."""
        cells = {(1, 1): "1", (2, 1): "0", (3, 1): "TRUE"}
        formulas = {"Model": {**cells, (4, 1): "=MATCH(TRUE,A1:A3,0)"}}
        report = verify_grid(formulas, {"Model": {**cells, (4, 1): "3"}})
        assert report.checks == 1 and report.ok, [str(m) for m in report.mismatches]
        report = verify_grid(formulas, {"Model": {**cells, (4, 1): "1"}})
        assert [str(m) for m in report.mismatches] == \
            ["Model!A4: formula gives 3.0, document holds 1.0"]

    @pytest.mark.parametrize("name,derived", [
        ("cashflow", 36), ("borrowing", 48), ("loans", 252)])
    def test_fixture_grids_verify_clean(self, monkeypatch, name, derived):
        """Every value verify computes is a float, a bool, a date or NA,
        never an int."""
        computed = []

        def agree(value, stored):
            computed.append(value)
            return values_agree(value, stored)
        monkeypatch.setattr("gridspec.verify.values_agree", agree)
        plan, result = compile_fixture(name)
        report = verify_grid(result.formulas, result.values)
        assert report.ok, [str(m) for m in report.mismatches]
        assert report.checks == len(plan.rules) == derived == len(computed)
        assert all(map(is_plain, computed)), [v for v in computed if not is_plain(v)]

    def test_corrupted_value_is_detected(self):
        _, result = compile_fixture("cashflow")
        cell = (3, 5)  # first end-of-period value
        original = result.values["Model"][cell]
        result.values["Model"][cell] = "96.00"
        report = verify_grid(result.formulas, result.values)
        assert not report.ok
        # the corrupted cell itself disagrees with its formula, and so does
        # the one downstream formula that copies it
        flagged = sorted(m.address.a1() for m in report.mismatches)
        assert flagged == ["D4", "E3"]
        by_addr = {m.address.a1(): m for m in report.mismatches}
        assert same(by_addr["E3"].actual, 96.0)
        result.values["Model"][cell] = original

    def test_corrupted_upstream_input_cascades(self):
        _, result = compile_fixture("cashflow")
        # perturbing an input literal in the values document invalidates
        # every formula reading it, and the literal itself no longer
        # matches its text in the formulas document
        result.values["Model"][(2, 3)] = "101.00"
        report = verify_grid(result.formulas, result.values)
        assert [m.address.a1() for m in report.mismatches] == ["C2", "D3"]
        assert str(report.mismatches[0]) == (
            "Model!C2: formulas document holds '100.00', values document holds '101.00'")

    def test_corrupted_na_detected(self):
        _, result = compile_fixture("loans")
        result.values["Model"][(7, 8)] = "2"  # true value is #N/A
        report = verify_grid(result.formulas, result.values)
        assert any(m.address.a1() == "H7" for m in report.mismatches)


class TestQuotedSheetNames:
    def test_quoted_reference(self):
        assert parse_a1_formula("='Expenses during period'!A3+1") == Binary(
            "+", CellRef(Address("Expenses during period", 1, 3)), NumberLit(1.0))

    def test_quoted_range(self):
        assert parse_a1_formula("=SUM('Total loan'!$B2:C3)") == Call(
            "SUM", (RangeRef(Address("Total loan", 2, 2), Address("Total loan", 3, 3)),))
        assert parse_a1_formula("='Model'!A1") == CellRef(Address("Model", 1, 1))

    @given(st.text(min_size=1).filter(lambda name: "'" not in name))
    def test_written_names_read_back(self, sheet):
        assert parse_a1_formula(f"={sheet_prefix(sheet)}B2") == CellRef(Address(sheet, 2, 2))

    def test_unquoted_name_with_a_space_does_not_parse(self):
        with pytest.raises(ParseFailure):
            parse_a1_formula("=Expenses during period!A3")
