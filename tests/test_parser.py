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
from gridspec import parser
from gridspec.parser import MAX_EXPRESSION_DEPTH

from helpers import (
    DEPTH_SHAPES,
    fixture_text,
    nested_expression,
    nested_spec,
    random_document,
    reference_parse_document,
)


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


def lexemes(text):
    return [(t.kind, t.text, t.pos.line, t.pos.column) for t in tokenize(text)]


class TestLexicalRules:
    """The spec grammar's lexical rules, pinned token by token."""

    def test_crlf_counts_cr_as_a_column(self):
        assert lexemes("bounds b: 1 to 2.\r\nx\r\n") == [
            ("keyword", "bounds", 1, 1), ("identifier", "b", 1, 8), ("symbol", ":", 1, 9),
            ("integer", "1", 1, 11), ("keyword", "to", 1, 13), ("integer", "2", 1, 16),
            ("symbol", ".", 1, 17), ("identifier", "x", 2, 1), ("eoi", "", 3, 1),
        ]

    def test_tab_is_one_column(self):
        assert lexemes("\tx\t=\t1.") == [
            ("identifier", "x", 1, 2), ("symbol", "=", 1, 4), ("integer", "1", 1, 6),
            ("symbol", ".", 1, 7), ("eoi", "", 1, 8),
        ]

    def test_offsets_follow_a_stripped_bom(self):
        tokens = tokenize("\ufeffa\n b")
        assert [(t.text, t.pos.line, t.pos.column, t.pos.offset) for t in tokens] == [
            ("a", 1, 1, 0), ("b", 2, 2, 3), ("", 2, 3, 4)]

    def test_only_a_leading_bom_is_stripped(self):
        with pytest.raises(ParseFailure) as info:
            tokenize("\ufeff\ufeff")
        (diagnostic,) = info.value.diagnostics
        assert str(diagnostic) == "error IllegalCharacter 1:1 illegal character '\\ufeff'"

    def test_comment_at_end_of_input(self):
        assert lexemes("a. -- end") == [
            ("identifier", "a", 1, 1), ("symbol", ".", 1, 2), ("eoi", "", 1, 10)]
        (comment,) = parse_document("bounds b: 1 to 2. -- end").comments
        assert (comment.text, comment.pos.line, comment.pos.column, comment.pos.offset) == \
            ("end", 1, 19, 18)

    def test_dots(self):
        assert lexemes("1..2") == [
            ("integer", "1", 1, 1), ("symbol", ".", 1, 2), ("symbol", ".", 1, 3),
            ("integer", "2", 1, 4), ("eoi", "", 1, 5)]
        assert lexemes("a.b") == [
            ("identifier", "a", 1, 1), ("symbol", ".", 1, 2), ("identifier", "b", 1, 3),
            ("eoi", "", 1, 4)]

    def test_two_character_symbols_first(self):
        assert lexemes("x->y<=>=<>") == [
            ("identifier", "x", 1, 1), ("symbol", "->", 1, 2), ("identifier", "y", 1, 4),
            ("symbol", "<=", 1, 5), ("symbol", ">=", 1, 7), ("symbol", "<>", 1, 9),
            ("eoi", "", 1, 11)]

    def test_keywords_are_whole_words(self):
        assert [(t.kind, t.text) for t in tokenize("to tom table_ true1 all")] == [
            ("keyword", "to"), ("identifier", "tom"), ("identifier", "table_"),
            ("identifier", "true1"), ("keyword", "all"), ("eoi", "")]

    def test_every_illegal_character_is_reported(self):
        with pytest.raises(ParseFailure) as info:
            parse_document("bounds b: 1 @ to 2.\ntable x : b # -> number.")
        assert [(str(d), d.pos.offset) for d in info.value.diagnostics] == [
            ("error IllegalCharacter 1:13 illegal character '@'", 12),
            ("error IllegalCharacter 2:13 illegal character '#'", 32)]

    def test_end_of_input_position(self):
        assert lexemes("a\n  ") == [("identifier", "a", 1, 1), ("eoi", "", 2, 3)]
        with pytest.raises(ParseFailure) as info:
            parse_document("bounds b: 1 to\n  ")
        assert str(info.value.diagnostics[0]) == \
            "error ParseError 2:3 expected an integer high bound, found end of input"


# lexically interesting characters, mixed with arbitrary ones
FUZZ_TEXT = st.text(st.one_of(st.sampled_from(list(
    " \t\r\n\x00\ufeff\u00e9.-:=<>[](),+*/!$@#_aZ1tT"
    "bounds table to all true false TRUE A1 Time!$B$2 ")), st.characters()), max_size=80)


def assert_positions_agree(diagnostics, source):
    """Each diagnostic's line and column agree with its offset in `source`."""
    for diagnostic in diagnostics:
        pos = diagnostic.pos
        assert 0 <= pos.offset <= len(source)
        assert pos.line == source.count("\n", 0, pos.offset) + 1
        assert pos.column == pos.offset - source.rfind("\n", 0, pos.offset)


class TestParsersFuzzed:
    """Arbitrary text never escapes as a traceback: each parser returns or
    raises ParseFailure."""

    @given(FUZZ_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_spec_parsers(self, text):
        source = text.removeprefix("\ufeff")  # offsets are counted after a BOM
        for parse in (tokenize, parse_document):
            try:
                parse(text)
            except ParseFailure as exc:
                assert exc.diagnostics
                assert_positions_agree(exc.diagnostics, source)

    @given(FUZZ_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_formula_parser(self, text):
        for formula in ("=" + text, text):
            try:
                parse_a1_formula(formula)
            except ParseFailure as exc:
                (diagnostic,) = exc.diagnostics
                # offsets are counted after the leading '='
                assert_positions_agree([diagnostic], formula[1:])


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


# Each site that reads an integer literal, with the column the literal starts in.
INTEGER_SITES = [
    ("bounds b: 1 to {}.\n", 16),
    ("x[{}] = 1.\n", 3),
    ("x[t<{}] = 1.\n", 5),
    ("y[t] = x[{}].\n", 10),
]


class TestIntegerLiterals:
    """Bounds, constant patterns, guard bounds and index literals read
    integers by one rule: at most 2**53, or a ParseError at the literal."""

    @pytest.mark.parametrize("template, column", INTEGER_SITES)
    @pytest.mark.parametrize("digits", ["9" * 5000, "9" * 400, str(2 ** 53 + 1)])
    def test_too_large_is_a_diagnostic(self, template, column, digits):
        with pytest.raises(ParseFailure) as info:
            parse_document(template.format(digits))
        assert [str(d) for d in info.value.diagnostics] == [
            f"error ParseError 1:{column} integer literal too large"]

    @pytest.mark.parametrize("template, column", INTEGER_SITES)
    def test_largest_and_zero_padded(self, template, column):
        assert parse_document(template.format(2 ** 53)).elements == \
            parse_document(template.format("0" * 5000 + str(2 ** 53))).elements

    def test_values(self):
        bounds, pattern, guarded, reference = parse_document(
            "bounds b: 007 to 9007199254740992.\nx[0] = 1.\nx[t<010] = 1.\ny[t] = x[02].\n"
        ).elements
        assert (bounds.low, bounds.high) == (7, 2 ** 53)
        assert pattern.lhs_patterns[0].value == 0
        assert guarded.lhs_patterns[0] == GuardedVarPattern("t", "<", 10)
        assert reference.rhs == ElementRef("x", (NumberLit(2.0),))


# --- parse_document against the parser that made a Token per token ---------

def assert_parses_as_reference(text):
    """parse_document gives the reference parser's elements and comments,
    at the same positions, or the same diagnostics."""
    try:
        doc = parse_document(text)
    except ParseFailure as exc:
        with pytest.raises(ParseFailure) as reference:
            reference_parse_document(text)
        assert [str(d) for d in exc.diagnostics] == [str(d) for d in reference.value.diagnostics]
        assert exc.diagnostics == reference.value.diagnostics  # offsets too
        return
    reference = reference_parse_document(text)
    assert doc == reference
    assert [e.pos for e in doc.elements] == [e.pos for e in reference.elements]
    assert [c.pos for c in doc.comments] == [c.pos for c in reference.comments]


def commented_tables(rng: random.Random, count: int) -> str:
    """A long spec in the paper's style: every table has a comment, its
    declaration and its equations, each drawn from the expression forms."""
    lines = ["-- periods of the model", "bounds t: 1 to 12.", "bounds k: 1 to 3.",
             "table base : t -> number. -- an input table"]
    forms = ("prev[ i ] + {n}", "prev[ i - 1 ] * {d}", "if( prev[ i ] > {n}, {d}, 0 - prev[ i ] )",
             "sum( prev[ all ] ) / {n}", "( prev[ i ] - {d} ) * ( {n} + i )",
             "match( prev[ i ], prev[ all ], 0 )", "if( not( isna( prev[ i ] ) ) <> false, {n}, {d} )")
    for index in range(count):
        name, prev = f"table_{index}", f"table_{index - 1}" if index else "base"
        lines.append(f"-- {name}: step {index} of the chain")
        lines.append(f"table {name} : t -> number.")
        split = rng.randint(1, 11)
        for pattern, form in ((f"i <= {split}", "prev[ i ]"), (f"i > {split}", rng.choice(forms))):
            rhs = form.format(n=rng.randint(1, 999), d=f"{rng.randint(0, 99)}.{rng.randint(0, 99)}")
            lines.append(f"{name}[ {pattern} ] =\n    {rhs.replace('prev', prev)}."
                         + rng.choice(("", " -- trailing note")))
    return "\n".join(lines) + "\n"


def single_edits(rng: random.Random, text: str, count: int):
    """`count` copies of `text`, each with one character inserted,
    deleted or replaced at random."""
    alphabet = " \t\n.-:=<>[](),+*/@#_aZ19\ufeff"
    for _ in range(count):
        at = rng.randrange(len(text))
        insert = rng.choice(alphabet)
        yield rng.choice((text[:at] + insert + text[at:], text[:at] + text[at + 1:],
                          text[:at] + insert + text[at + 1:]))


class TestAgainstReferenceParser:
    @pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
    def test_fixtures(self, name):
        assert_parses_as_reference(fixture_text(name))

    def test_random_documents(self):
        rng = random.Random(2024)
        for _ in range(300):
            assert_parses_as_reference(pretty_print(random_document(rng)))

    def test_commented_tables(self):
        assert_parses_as_reference(commented_tables(random.Random(7), 300))

    @pytest.mark.parametrize("text", [
        *(nested_spec(shape, depth) for shape in DEPTH_SHAPES
          for depth in (MAX_EXPRESSION_DEPTH, MAX_EXPRESSION_DEPTH + 1)),
        "table y : -> number.\ny[] = 1" + "0" * 400 + ".\n",
        "bounds b: 1 to 9007199254740993.\nbounds c: 0 to 00009007199254740992.\n",
        "table x : a b c d e f g h i j k l m n o p q r s t u v w x y z -> number.",
        "\ufeff-- only a comment\r\n",
    ])
    def test_limits_and_edges(self, text):
        assert_parses_as_reference(text)

    @given(FUZZ_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_text(self, text):
        assert_parses_as_reference(text)

    @pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
    def test_single_character_edits(self, name):
        for text in single_edits(random.Random(name), fixture_text(name), 150):
            assert_parses_as_reference(text)


def test_parse_makes_no_token_per_token(monkeypatch):
    """parse_document scans into flat lists: it may make a Token for an
    element, a comment or a diagnostic at most, never one per token."""
    made = []

    class CountedToken(parser.Token):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parser, "Token", CountedToken)
    doc = parse_document(fixture_text("loans"))
    assert len(made) <= len(doc.elements) + len(doc.comments)
