import random

import pytest
from hypothesis import given, settings, strategies as st

from gridspec import ParseFailure, parse_a1_formula, parse_document, parse_expression, tokenize
from gridspec.ast import (
    AllIndex,
    Binary,
    BooleanLit,
    BoundsDecl,
    Call,
    ElementRef,
    EquationDecl,
    GuardedVarPattern,
    IndexVar,
    NumberLit,
    SpecDocument,
    TableDecl,
    pretty_print,
    print_expr,
)
from gridspec.parser import MAX_EXPRESSION_DEPTH

from helpers import DEPTH_SHAPES, fixture_text, nested_expression, nested_spec, random_document


class TestTokenize:
    def test_bounds_line(self):
        tokens = tokenize("bounds time_span: 1 to 12.")
        assert [(t.kind, t.text) for t in tokens] == [
            ("keyword", "bounds"), ("identifier", "time_span"), ("symbol", ":"),
            ("integer", "1"), ("keyword", "to"), ("integer", "12"),
            ("symbol", "."), ("eoi", ""),
        ]

    def test_empty_input(self):
        tokens = tokenize("")
        assert [(t.kind, t.text) for t in tokens] == [("eoi", "")]

    def test_comment_skipped(self):
        tokens = tokenize("-- a note\ntable x : -> number.")
        assert tokens[0].text == "table"
        assert all(t.kind != "symbol" or t.text != "--" for t in tokens)

    def test_decimal_needs_digits_both_sides(self):
        kinds = [(t.kind, t.text) for t in tokenize("1.5 1. .5")]
        assert ("decimal", "1.5") in kinds
        assert ("integer", "1") in kinds
        assert ("symbol", ".") in kinds

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].pos.line, tokens[0].pos.column) == (1, 1)
        assert (tokens[1].pos.line, tokens[1].pos.column) == (2, 3)

    def test_illegal_character(self):
        with pytest.raises(ParseFailure) as info:
            tokenize("table @ x")
        assert info.value.diagnostics[0].code == "IllegalCharacter"
        assert info.value.diagnostics[0].pos.column == 7


class TestParseDocument:
    def test_zero_dim_table(self):
        doc = parse_document("table initial_cash : -> currency.")
        assert doc.elements == (TableDecl("initial_cash", (), "currency"),)

    def test_guarded_recurrence(self):
        doc = parse_document(
            "total_cash_at_start_of_period[ t>1 ] = total_cash_at_end_of_period[ t-1 ].")
        (equation,) = doc.elements
        assert equation.lhs_patterns == (GuardedVarPattern("t", ">", 1),)
        ref = equation.rhs
        assert isinstance(ref, ElementRef)
        assert ref.indices == (Binary("-", IndexVar("t"), NumberLit(1)),)

    def test_missing_result_type(self):
        with pytest.raises(ParseFailure) as info:
            parse_document("table x : a ->.")
        diagnostic = info.value.diagnostics[0]
        assert diagnostic.code == "ParseError"
        assert "result type" in diagnostic.message

    def test_recovery_collects_multiple_diagnostics(self):
        with pytest.raises(ParseFailure) as info:
            parse_document("table x : a ->.\ntable y : ->.\nbounds b: 1 to.")
        assert len(info.value.diagnostics) == 3

    def test_diagnostic_position_inside_element(self):
        source = "bounds b: 1 to 2.\ntable x : b ->.\n"
        with pytest.raises(ParseFailure) as info:
            parse_document(source)
        pos = info.value.diagnostics[0].pos
        assert pos.line == 2
        assert source.splitlines()[pos.line - 1][pos.column - 1] == "."

    def test_comments_retained_with_positions(self):
        doc = parse_document("-- first\nbounds b: 1 to 2.\n-- second\n")
        assert [c.text for c in doc.comments] == ["first", "second"]
        assert doc.comments[1].pos.line == 3

    def test_bom_skipped(self):
        doc = parse_document("﻿bounds b: 1 to 2.")
        assert doc.elements == (BoundsDecl("b", 1, 2),)

    @pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
    def test_fixtures_parse_clean(self, name):
        doc = parse_document(fixture_text(name))
        assert doc.elements

    def test_fixture_counts(self):
        doc = parse_document(fixture_text("cashflow"))
        assert sum(isinstance(e, TableDecl) for e in doc.elements) == 5
        assert sum(isinstance(e, BoundsDecl) for e in doc.elements) == 1
        assert sum(isinstance(e, EquationDecl) for e in doc.elements) == 4


class TestParseExpression:
    def test_nested_calls_and_comparison(self):
        expr = parse_expression("or( not( has_ceiling[l] ), w + s <= ceiling[l] )")
        assert isinstance(expr, Call) and expr.func == "or"
        inner, comparison = expr.args
        assert inner == Call("not", (ElementRef("has_ceiling", (IndexVar("l"),)),))
        assert comparison.op == "<="
        assert comparison.left == Binary("+", IndexVar("w"), IndexVar("s"))

    def test_number(self):
        assert parse_expression("1") == NumberLit(1)

    def test_all_range_argument(self):
        expr = parse_expression("sum( lent_during_period[ all, t ] )")
        assert expr == Call("sum", (ElementRef(
            "lent_during_period", (AllIndex(), IndexVar("t"))),))

    def test_booleans(self):
        assert parse_expression("true") == BooleanLit(True)
        assert parse_expression("false") == BooleanLit(False)

    def test_precedence(self):
        expr = parse_expression("a + b * c = d")
        assert expr.op == "="
        assert expr.left == Binary("+", IndexVar("a"),
                                   Binary("*", IndexVar("b"), IndexVar("c")))

    def test_guard_rejected_in_index_position(self):
        with pytest.raises(ParseFailure):
            parse_expression("x[ t>1 ]")

    def test_operators_associate_left(self):
        a, b, c, d = (IndexVar(n) for n in "abcd")
        assert parse_expression("a - b - c") == Binary("-", Binary("-", a, b), c)
        assert parse_expression("a / b * c - d") == \
            Binary("-", Binary("*", Binary("/", a, b), c), d)
        assert parse_expression("a - b * c + d") == \
            Binary("+", Binary("-", a, Binary("*", b, c)), d)
        assert parse_expression("a < b + c") == Binary("<", a, Binary("+", b, c))

    def test_comparison_joins_two_operands(self):
        with pytest.raises(ParseFailure) as info:
            parse_expression("a < b = c")
        assert "expected end of input, found '='" in str(info.value)
        assert parse_expression("( a < b ) = c").op == "="

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_random_expression_round_trip(self, seed):
        rng = random.Random(seed)

        def expr(depth):
            if depth == 0 or rng.random() < 0.2:
                return rng.choice((NumberLit(rng.randint(0, 9)), IndexVar("t"),
                                   ElementRef("x", (Binary("+", IndexVar("t"), NumberLit(1)),))))
            if rng.random() < 0.2:
                return Call("f", tuple(expr(depth - 1) for _ in range(rng.randint(1, 3))))
            op = rng.choice(("=", "<", "+", "-", "*", "/"))
            return Binary(op, expr(depth - 1), expr(depth - 1))

        tree = expr(5)
        assert parse_expression(print_expr(tree)) == tree


class TestExpressionDepth:
    @pytest.mark.parametrize("shape", DEPTH_SHAPES)
    def test_limit_accepted_by_both_grammars(self, shape):
        text = nested_expression(shape, MAX_EXPRESSION_DEPTH)
        parse_document(nested_spec(shape, MAX_EXPRESSION_DEPTH))
        parse_a1_formula("=" + text)

    @pytest.mark.parametrize("shape", DEPTH_SHAPES)
    def test_one_deeper_rejected_by_both_grammars(self, shape):
        text = nested_expression(shape, MAX_EXPRESSION_DEPTH + 1)
        for parse in (lambda: parse_document(nested_spec(shape, MAX_EXPRESSION_DEPTH + 1)),
                      lambda: parse_a1_formula("=" + text)):
            with pytest.raises(ParseFailure) as info:
                parse()
            (diagnostic,) = info.value.diagnostics
            assert diagnostic.code == "ParseError"
            assert f"more than {MAX_EXPRESSION_DEPTH} levels" in diagnostic.message

    def test_diagnostic_at_offending_token(self):
        chain = nested_expression("operators", MAX_EXPRESSION_DEPTH + 1)
        with pytest.raises(ParseFailure) as info:
            parse_expression(chain)
        # the operator that adds the level past the limit
        assert info.value.diagnostics[0].pos.offset == chain.rindex("+")
        parens = nested_expression("parentheses", 2000)
        with pytest.raises(ParseFailure) as info:
            parse_expression(parens)
        assert info.value.diagnostics[0].pos.offset == MAX_EXPRESSION_DEPTH

    def test_index_expressions_count(self):
        index = " + ".join(["t"] * (MAX_EXPRESSION_DEPTH + 1))
        parse_expression(f"x[ {index} ]")
        with pytest.raises(ParseFailure):
            parse_expression(f"x[ {index} + t ]")

    def test_document_parsing_resumes_after_a_deep_element(self):
        deep = nested_spec("parentheses", 3000)
        with pytest.raises(ParseFailure) as info:
            parse_document(deep + "b[] = 1 1.\n")
        assert [d.pos.line for d in info.value.diagnostics] == [2, 3]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
    def test_fixture_round_trip(self, name):
        doc = parse_document(fixture_text(name))
        again = parse_document(pretty_print(doc))
        assert again.elements == doc.elements
        assert [c.text for c in again.comments] == [c.text for c in doc.comments]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_document_round_trip(self, seed):
        doc = random_document(random.Random(seed))
        again = parse_document(pretty_print(doc))
        assert again.elements == doc.elements

    @pytest.mark.parametrize("value", [0.00001, 1e21, 1.5e-7, 2.5e16])
    def test_extreme_literal_round_trip(self, value):
        doc = SpecDocument((TableDecl("x", (), "number"), TableDecl("y", (), "number"),
                            EquationDecl("y", (), Binary("*", ElementRef("x", ()),
                                                         NumberLit(value)))))
        text = pretty_print(doc)
        assert "e" not in text.split("=")[1]
        assert parse_document(text).elements == doc.elements

    def test_literal_too_large_is_diagnostic(self):
        with pytest.raises(ParseFailure) as info:
            parse_document("table y : -> number.\ny[] = 1" + "0" * 400 + ".\n")
        assert "too large" in str(info.value)

    def test_comment_transparency(self):
        source = fixture_text("cashflow")
        lines = source.splitlines()
        lines.insert(3, "-- an inserted comment line")
        with_comment = parse_document("\n".join(lines))
        assert with_comment.elements == parse_document(source).elements
