"""Verify parses each formula shape once and binds the references and
numbers of every other formula of that shape, read by the shape's
anchored pattern.  Its reports must equal, check for check and mismatch
for mismatch, those of a verifier that parses every formula and lists
every address of a range (helpers.reference_verify_grid)."""

import collections
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gridspec import analyze, evaluate, verify
from gridspec.a1 import (
    _A1_TOKENS,
    Address,
    CellRef,
    RangeRef,
    cached_column_number,
    column_letters,
    formula_shape,
    make_template,
    parse_a1_formula,
)
from gridspec.ast import NumberLit
from gridspec.cli import load_inputs, main
from gridspec.errors import GridSpecError, LayoutError, ParseFailure
from gridspec.layout import csv_to_grid, emit, grid_to_csv, plan_layout
from gridspec.parser import scan
from gridspec.verify import verify_grid

from helpers import (
    FIXTURES,
    covering_document,
    covering_inputs,
    evaluate_fixture,
    random_document,
    random_inputs,
    reference_verify_grid,
    walk,
    wide_match,
)


def assert_same_report(formulas, values):
    report, reference = verify_grid(formulas, values), reference_verify_grid(formulas, values)
    assert report.checks == reference.checks
    assert [str(m) for m in report.mismatches] == [str(m) for m in reference.mismatches]
    return report


def tokens(body):
    """The tokens scan reads from a formula body, as (kind, text), with
    illegal characters in place and every decimal and ref text dropped."""
    (kinds, texts, offsets, _, _), _, illegal = scan(body, _A1_TOKENS)
    found = list(zip(offsets, kinds, texts))[:-1]
    ordered = sorted(found + [(pos.offset, "illegal", text) for text, pos in illegal])
    return [(kind, None if kind in ("decimal", "ref") else text) for _, kind, text in ordered]


class TestShapeKey:
    @pytest.mark.parametrize("body, kinds", [
        ("xA1", ["identifier"]),
        ("1A1", ["decimal", "ref"]),
        ("TRUE1", ["ref"]),
        ("A1B", ["ref", "identifier"]),
        ("TRUE", ["keyword"]),
        ("'q r'!A1:Time!$B$2", ["ref", "symbol", "ref"]),
        ("1.5.2", ["decimal", "illegal", "decimal"]),
        ("A0", ["identifier"]),
    ])
    def test_split_reads_as_scan_does(self, body, kinds):
        assert [kind for kind, _ in tokens(body)] == kinds

    @pytest.mark.parametrize("first, second", [
        ("A1+1", "Time!$B$20 + 2.5"),
        ("SUM('q r'!A1:B2)", "SUM(C3:Other!D4)"),
        ("1A1", "2 B3"),
    ])
    def test_same_shape(self, first, second):
        assert formula_shape(first)[0] == formula_shape(second)[0]

    @pytest.mark.parametrize("first, second", [
        ("A1+1", "1+A1"),
        ("xA1", "A1"),
        ("A1B", "A1 C"),
        ("TRUE", "TRUE1"),
        ("A1:B2", "A1,B2"),
        ("1.5", "1.5.2"),
    ])
    def test_other_shape(self, first, second):
        assert formula_shape(first)[0] != formula_shape(second)[0]

    @given(st.lists(st.lists(st.sampled_from(
        ["A1", "xA1", "1", "1.5", ".", "TRUE", "true", "1", "$", "!", "'q r'", "Time",
         ":", "+", "(", ")", ",", " ", " ", "@", "B", "0", "_"]), max_size=8)
        .map("".join), min_size=2, max_size=6))
    def test_one_key_one_token_stream(self, bodies):
        """Bodies of one key read the same tokens but for decimal and ref text."""
        for first, second in itertools.combinations(bodies, 2):
            if formula_shape(first)[0] == formula_shape(second)[0]:
                assert tokens(first) == tokens(second)


def compiled_fixture(name):
    doc, symtab, plan, inputs, values = evaluate_fixture(name)
    return emit(plan_layout(doc, symtab), plan, values, doc)


@pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
def test_fixture_grids(name):
    result = compiled_fixture(name)
    assert assert_same_report(result.formulas, result.values).ok
    # and with every seventh value cell changed, so that mismatches show
    for k, at in enumerate(sorted(result.values["Model"])):
        if k % 7 == 0:
            result.values["Model"][at] = "1"
    assert not assert_same_report(result.formulas, result.values).ok


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
        try:
            layout = plan_layout(doc, symtab)
            inputs = load_inputs(inputs_path, symtab)
            result = emit(layout, plan, evaluate(plan, inputs), doc)
        except GridSpecError:
            continue
        assert assert_same_report(result.formulas, result.values).ok
        cells = sorted(result.values["Model"])
        for at in rng.sample(cells, min(3, len(cells))):
            result.values["Model"][at] = rng.choice(["0", "1", "TRUE", "#N/A", "", "x"])
        assert_same_report(result.formulas, result.values)
        compared += 1
    assert compared >= 40


def test_covering_documents(tmp_path):
    rng = random.Random(3607)
    compared = 0
    for trial in range(200):
        doc = covering_document(rng)
        inputs_path = tmp_path / f"{trial}.csv"
        inputs_path.write_text(covering_inputs(rng, doc), encoding="utf-8")
        symtab, plan, diagnostics = analyze(doc)
        assert plan is not None, diagnostics
        try:
            layout = plan_layout(doc, symtab)
        except LayoutError:  # MATCH searches one row or one column
            assert wide_match(doc)
            compared += 1
            continue
        assert not wide_match(doc)
        inputs = load_inputs(inputs_path, symtab)
        try:
            values = evaluate(plan, inputs)
        except GridSpecError:  # a division by zero
            continue
        result = emit(layout, plan, values, doc)
        assert assert_same_report(result.formulas, result.values).ok
        for sheet, cells in result.values.items():
            for at in rng.sample(sorted(cells), min(2, len(cells))):
                cells[at] = rng.choice(["0", "1", "TRUE", "#N/A", "", "x"])
        assert_same_report(result.formulas, result.values)
        compared += 1
    assert compared >= 190


# Formula shapes with holes: {r} is a cell reference, {c} a corner of a
# range and {n} a number.  Each grid fills a shape several times, so most
# formulas bind a template.  No corner reaches XFD1048576, for the
# reference verifier lists every address of a range; D1000 makes ranges
# of mostly blank cells, which verify skips, and Nowhere is a sheet the
# grids do not hold.
SHAPES = ["{r}", "{r}+{n}", "{n}/{r}", "SUM({c}:{c})", "MATCH({n},{c}:{c},0)",
          "IF({r}>{n},{r},{n})", "{r} * ( {n} - {r} )", "{n}{r}", "x{r}", "{r}B",
          "{c}:{c}", "SUM({r},{n})", "foo({r})", "{n}.{n}", "{r} <>\t{r}",
          "IF(TRUE,{n},{r})", "{r}+", "(({r}))", "-{r}"]
CORNERS = ["A1", "B2", "$A$1", "C$3", "'q r'!A1", "Time!A1", "Time!B2", "D4",
           "XFE1", "A1048577", "A" + "1" * 5000, "AAAA1", "A9999999", "TRUE1",
           "D1000", "TRUE!A1", "_x!B2", "Nowhere!C3"]
REFS = CORNERS + ["XFD1048576"]
NUMBERS = ["0", "1", "2.5", "12", "1" * 400, "0." + "0" * 400 + "1"]
VALUES = ["1", "0", "2.5", "-3", "TRUE", "FALSE", "#N/A", "", "text", "2009-01-01"]
HOLES = {"{r}": REFS, "{c}": CORNERS, "{n}": NUMBERS}


@st.composite
def formula_grids(draw):
    """Formulas of a few shapes over the cells of five sheets; a reference
    may also name a sheet the grids do not hold."""
    values = {"Model": {}, "Time": {}, "q r": {}, "TRUE": {}, "_x": {}}
    for sheet, cells in values.items():
        for row in range(1, 5):
            for column in range(1, 5):
                cells[(row, column)] = draw(st.sampled_from(VALUES))
    formulas = {sheet: {} for sheet in values}
    row = 10
    for shape in draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 4))):
            text = fill(draw, shape)
            sheet = draw(st.sampled_from(sorted(formulas)))
            formulas[sheet][(row, 1)] = "=" + text
            values[sheet][(row, 1)] = draw(st.sampled_from(VALUES))
            row += 1
    return formulas, values


def fill(draw, shape):
    for hole, fillers in HOLES.items():
        while hole in shape:
            shape = shape.replace(hole, draw(st.sampled_from(fillers)), 1)
    return shape


def leaves(expr):
    """The value of each hole token of a parsed formula, as Shape.read gives them."""
    values = []
    for node in walk(expr):
        if isinstance(node, NumberLit):
            values.append(node.value)
        elif isinstance(node, CellRef):
            values.append(node.address)
        elif isinstance(node, RangeRef):
            values += [node.first, node.last]
    return values


def check_binding(first, second, sheet):
    """Reading `second` by the Shape of `first`, a formula whose split has
    the same key, gives the leaves the parse of `second` gives, or None
    exactly where that parse fails: the pattern misses no formula of its
    key."""
    key, parts = formula_shape(first[1:])
    try:
        template, holes = make_template(parse_a1_formula(first, sheet), parts)
    except ParseFailure:
        return
    if formula_shape(second[1:])[0] != key:  # a filler ran into the text next to its hole
        return
    bound = holes.read(second, sheet)
    try:
        expected = leaves(parse_a1_formula(second, sheet))
    except ParseFailure:
        expected = None
    assert bound == expected


@pytest.mark.parametrize("first, second", [
    ("=SUM(A1:B2)", "=SUM(Time!A1:B2)"),
    ("=SUM(A1:B2)", "=SUM('q r'!$A1:Time!B$2)"),
    ("=A1+1", "=XFD1048576+2.5"),
    ("=A1+1", "=A1048577+1"),
    ("=A1+1", "=XFE1+1"),
    pytest.param("=A1+1", "=A1+" + "9" * 400, id="400-digit number"),
])
def test_binding_examples(first, second):
    assert formula_shape(first[1:])[0] == formula_shape(second[1:])[0]
    check_binding(first, second, "Model")


def test_column_memo_keeps_no_long_run():
    """Column letters past a sheet's three are refused before the cache of
    column numbers is read, so a run of any length leaves nothing in it."""
    _, holes = make_template(parse_a1_formula("=A1+B2"), formula_shape("A1+B2")[1])

    def holds(*letters):
        """The cache holds exactly `letters`: as many entries, each a hit."""
        before = cached_column_number.cache_info()
        assert [cached_column_number(text) for text in letters] == [
            {"A": 1, "XFD": 16384, "XFE": 16385}[text] for text in letters]
        after = cached_column_number.cache_info()
        return (before.currsize == after.currsize == len(letters)
                and after.hits == before.hits + len(letters))

    cached_column_number.cache_clear()
    for letters in ("XFDA", "ABCDEFGH", "Z" * 400):
        assert holes.read(f"={letters}1+B2", "Model") is None
        assert holes.read(f"=A1+{letters}2", "Model") is None
    assert holds("A")
    assert holes.read("=XFD1+XFE2", "Model") is None
    assert holds("A", "XFD", "XFE")


@given(st.data(), st.sampled_from(SHAPES), st.sampled_from(["Model", "Time"]))
@settings(max_examples=300)
def test_binding_reads_what_the_parser_reads(data, shape, sheet):
    check_binding(*("=" + fill(data.draw, shape) for _ in range(2)), sheet)


@given(formula_grids())
@settings(max_examples=150, deadline=None)
def test_formula_grids(grid):
    assert_same_report(*grid)


def test_second_formula_of_a_shape_fails():
    """A formula of a parsed shape that fails to parse or faults is
    reported as such, and the next formula of the shape binds it again;
    a shape whose first formula does not parse is parsed again."""
    values = {"Model": {(1, 1): "2", (1, 2): "0", (1, 3): "text"}}
    formulas = {"Model": {(4, 1): "=A1048577*2", (5, 1): "=A1/B1", (6, 1): "=A1/A1048577",
                          (7, 1): "=A1/C1", (8, 1): "=A1/A1", (9, 1): "=1/" + "1" * 400,
                          (10, 1): "=1/A1", (11, 1): "=A1*2"}}
    values["Model"].update({at: "1" for at in formulas["Model"]})
    report = assert_same_report(formulas, values)
    holds = "document holds 1.0"
    assert [str(m) for m in report.mismatches] == [
        "Model!A4: formula faults (does not parse: ParseError 1:1 expected a cell reference "
        f"within A1:XFD1048576, found 'A1048577'), {holds}",
        f"Model!A5: formula faults (division by zero), {holds}",
        "Model!A6: formula faults (does not parse: ParseError 1:4 expected a cell reference "
        f"within A1:XFD1048576, found 'A1048577'), {holds}",
        f"Model!A7: formula faults (references non-value cell Model!C1), {holds}",
        f"Model!A9: formula faults (does not parse: ParseError 1:3 number literal too large), "
        f"{holds}",
        f"Model!A10: formula gives 0.5, {holds}",
        f"Model!A11: formula gives 4.0, {holds}",
    ]


def test_range_end_takes_the_sheet_of_its_start():
    values = {"Model": {(1, 1): "1", (1, 2): "2"}, "Time": {(1, 1): "10", (1, 2): "20"}}
    formulas = {"Model": {(3, 1): "=SUM(A1:B1)", (4, 1): "=SUM(Time!A1:B1)",
                          (5, 1): "=SUM(A1:$B$1)", (6, 1): "=SUM(Time!$A1:B$1)"}}
    values["Model"].update({(3, 1): "3", (4, 1): "30", (5, 1): "3", (6, 1): "30"})
    assert assert_same_report(formulas, values).ok


class TestCrossSheetRange:
    """A range whose end names another sheet than its start does not
    parse, whether its formula is the first of its shape or binds the
    template of an earlier formula of that shape."""

    CROSS = "=SUM('q r'!A1:Time!B1)"

    def directory(self, tmp_path, formulas):
        """An emitted directory whose Model sheet holds `formulas`, pairs of
        a formula and its value, down column A below cells of three sheets."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps({"sheets": ["Model", "Time", "q r"]}),
                                           encoding="utf-8")
        for sheet, text in (("Time", "10,20\n"), ("q r", "100,200\n")):
            for kind in ("formulas", "values"):
                (out / f"{sheet}.{kind}.csv").write_text(text, encoding="utf-8")
        for kind, column in (("formulas", 0), ("values", 1)):
            rows = "".join(f"{pair[column]},\n" for pair in formulas)
            (out / f"Model.{kind}.csv").write_text(f"1,2\n{rows}", encoding="utf-8")
        return out

    @pytest.mark.parametrize("formulas", [[(CROSS, 300)], [("=SUM(A1:B1)", 3), (CROSS, 300)]],
                             ids=["parsed", "bound"])
    def test_mismatch_at_the_cell(self, tmp_path, capsys, formulas):
        assert main(["verify", str(self.directory(tmp_path, formulas))]) == 1
        report = capsys.readouterr().out
        assert f"checked {len(formulas)} cells, 1 mismatch(es)" in report
        assert (f"Model!A{len(formulas) + 1}: formula faults (does not parse: ParseError 1:14 "
                "expected a range end on the sheet of its start, 'q r', found 'Time!B1')"
                ) in report

    def test_pattern_refuses_it(self):
        template, holes = make_template(parse_a1_formula("=SUM(A1:B1)"),
                                        formula_shape("SUM(A1:B1)")[1])
        assert holes.pattern.fullmatch(self.CROSS, 1) is not None
        assert holes.read(self.CROSS, "Model") is None

    def test_end_naming_the_sheet_of_its_start(self):
        values = {"Model": {(1, 1): "1"}, "Time": {(1, 1): "10", (1, 2): "20"}}
        formulas = {"Model": {(2, 1): "=SUM(Time!A1:B1)", (3, 1): "=SUM(Time!A1:Time!B1)",
                              (4, 1): "=SUM(Time!A1:Time!B1)", (5, 1): "=SUM(A1:Model!A1)"}}
        values["Model"].update({(2, 1): "30", (3, 1): "30", (4, 1): "30", (5, 1): "1"})
        assert assert_same_report(formulas, values).ok


class TestReversedRange:
    """A range whose end lies above or left of its start reads the
    rectangle between its corners, as a spreadsheet does, whether its
    formula is parsed or bound by the pattern of the formula above it."""

    VALUES = {(1, 1): "1", (1, 2): "2", (2, 1): "4", (2, 2): "8"}

    @pytest.mark.parametrize("reversed_formula, formula, value", [
        ("=SUM(B1:A1)", "=SUM(A1:B1)", "3"),
        ("=MATCH(2,B1:A1,0)", "=MATCH(2,A1:B1,0)", "2"),
        ("=SUM(B2:A1)", "=SUM(A1:B2)", "15"),
        ("=SUM(A2:B1)", "=SUM(A1:B2)", "15"),
        ("=SUM(Time!B1:A1)", "=SUM(Time!A1:B1)", "30"),
        ("=MATCH(8,B2:A1,0)", "=MATCH(8,A1:B2,0)", "4"),
    ])
    @pytest.mark.parametrize("bound", [False, True], ids=["parsed", "bound"])
    def test_reads_the_rectangle(self, reversed_formula, formula, value, bound):
        formulas = {(5, 1): reversed_formula}
        if bound:  # the same range with its corners in order, above it
            formulas[(4, 1)] = formula
        values = {"Model": self.VALUES | dict.fromkeys(formulas, value),
                  "Time": {(1, 1): "10", (1, 2): "20"}}
        assert assert_same_report({"Model": formulas}, values).ok

    def test_both_paths_give_the_corners_in_order(self):
        formula = "=SUM(Time!B2:A1)"
        corners = [Address("Time", 1, 1), Address("Time", 2, 2)]
        assert leaves(parse_a1_formula(formula)) == corners
        _, holes = make_template(parse_a1_formula("=SUM(A1:B2)"), formula_shape("SUM(A1:B2)")[1])
        assert holes.read(formula, "Model") == corners


# --- the anchored pattern of a shape ----------------------------------------
# Shapes that parse, with keywords, functions, ranges and every comparison,
# and the edits that bend a filled text: other cases, `$`, sheets (a keyword
# among them), tokens that run into a hole, `<` and `>` next to `=` and `>`,
# Unicode whitespace, and the long literals of NUMBERS and CORNERS.
PARSED = ["{r}+{n}", "SUM({c}:{c})", "MATCH({n},{c}:{c},0)", "IF({r}>{n},{r},{n})",
          "IF(TRUE,{n},{r})", "{r} <>\t{r}", "AND({r}<{n},FALSE)", "{r}>={n}",
          "NOT({r}<= {n})", "OR(true,{r}={n})", "(({r}))", "{n}/{r}-{n}*{r}"]
INSERTS = ["$", " ", "\u2003", "\u00a0", "\n", "1", "9" * 400, ".", ".5", "B", "B2", "A1",
           "=", ">", "<", "> ", "< ", "TRUE", "true", "!", "Time!", "TRUE!", "'q r'!", "_",
           "x", "SUM", "("]
PADS = ["", " ", "\t\n", "\u2003", "\u3000\u00a0"]


def bend(draw, text):
    """`text` with a few characters inserted, deleted or put in the other
    case, between pads of whitespace."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "case"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(INSERTS)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + text[at:at + 1].swapcase() + text[at + 1:]
    return draw(st.sampled_from(PADS)) + text + draw(st.sampled_from(PADS))


@given(st.data(), st.sampled_from(PARSED), st.sampled_from(["Model", "Time"]))
@settings(max_examples=400, deadline=None)
def test_pattern_reads_what_the_split_reads(data, shape, sheet):
    """A formula that a shape's pattern matches has the shape's key, and
    the pattern binds the values its parse reads; verify reports it as
    the reference verifier does."""
    first = "=" + fill(data.draw, shape)
    key, parts = formula_shape(first[1:])
    try:
        _, holes = make_template(parse_a1_formula(first, sheet), parts)
    except ParseFailure:  # a filler past the sheet's extents
        return
    second = "=" + bend(data.draw, fill(data.draw, shape))
    if holes.pattern.fullmatch(second, 1) is None:
        return
    assert formula_shape(second[1:])[0] == key
    check_binding(first, second, sheet)
    values = {name: {(row, column): data.draw(st.sampled_from(VALUES))
                     for row in range(1, 5) for column in range(1, 5)}
              for name in ("Model", "Time", "q r")}
    formulas = {sheet: {(10, 1): first, (11, 1): second}}
    values[sheet].update({(10, 1): "1", (11, 1): data.draw(st.sampled_from(VALUES))})
    assert_same_report(formulas, values)


@pytest.mark.parametrize("first, second, hits", [
    ("=A1+1", "= $A$1 +\u20032.5\u3000", True),
    ("=A1+1", "=Time!B2+1", True),
    ("=A1+1", "=TRUE!B2+1", True),
    ("=A1+1", "=TRUE1+1", True),  # a cell in column TRUE, past XFD, which binds refuse
    ("=A1+1", "=A1B2+1", False),
    ("=A1+1", "=A1+1.5.2", False),
    ("=A1+1", "=a1+1", False),
    ("=SUM(A1:B2)", "=SUMA1(A1:B2)", False),
    ("=SUM(A1:B2)", "=sum(A1:B2)", False),
    ("=SUM(A1:B2)", "=SUM ('q r'!A1 : B2)", True),
    ("=IF(TRUE,1,A1)", "=IF(TRUE1,1,A1)", False),
    ("=IF(TRUE,1,A1)", "=IF(True,1,A1)", False),
    ("=IF(TRUE,1,A1)", "=IF(TRUE$1,1,A1)", False),
    ("=A1<1", "=A1<=1", False),
    ("=A1<1", "=A1< =1", False),
    ("=A1<1", "=A1<>1", False),
    ("=A1>1", "=A1>=1", False),
    ("=A1>1", "=A1 >\t1", True),
    ("=A1<=1", "=A1 <= 1", True),
    ("=A1=1", "=A1==1", False),
])
def test_pattern_examples(first, second, hits):
    key, parts = formula_shape(first[1:])
    _, holes = make_template(parse_a1_formula(first), parts)
    assert (holes.pattern.fullmatch(second, 1) is not None) == hits
    if hits:
        assert formula_shape(second[1:])[0] == key
        check_binding(first, second, "Model")


def test_fast_path_splits_once_per_column(tmp_path, monkeypatch):
    """Verifying the compiled loans fixture splits a formula into tokens
    only where the formula before it in its column, on its sheet, has
    another shape key, or none comes before it, and parses one formula
    per shape: every other formula is read by the pattern of the formula
    above it."""
    out = tmp_path / "out"
    assert main(["compile", str(FIXTURES / "loans.gsx"), "--inputs",
                 str(FIXTURES / "loans_inputs.csv"), "--out-dir", str(out)]) == 0
    above, shapes, count, splits = {}, set(), 0, 0
    for sheet in json.loads((out / "manifest.json").read_text(encoding="utf-8"))["sheets"]:
        grid = csv_to_grid((out / f"{sheet}.formulas.csv").read_text(encoding="utf-8"))
        for (_, column), text in sorted(grid.items()):
            if text.startswith("="):
                key = formula_shape(text[1:])[0]
                splits += above.get((sheet, column)) != key
                above[sheet, column] = key
                shapes.add(key)
                count += 1
    calls = collections.Counter()

    def counted(function):
        def call(*args, **kwargs):
            calls[function.__name__] += 1
            return function(*args, **kwargs)
        return call

    for name in ("formula_shape", "parse_a1_formula"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    assert main(["verify", str(out)]) == 0
    assert splits < count
    assert calls["formula_shape"] == splits
    assert calls["parse_a1_formula"] == len(shapes)


class TestRangeCost:
    """A range costs the cells the values document holds in it, never its
    area: a sum and a match over a range of millions of blank cells, or
    over a whole sheet, verify in well under 0.1 s, to what the reference
    verifier computes over the rows that hold cells."""

    @staticmethod
    def reference(formula, cells):
        """The number reference_verify_grid computes for `formula` on a
        sheet of its own, beside sheet Model, which holds `cells`."""
        report = reference_verify_grid({"Check": {(1, 1): formula}},
                                       {"Model": cells, "Check": {(1, 1): "x"}})
        return f"{report.mismatches[0].expected:g}"

    @staticmethod
    def verify_seconds(out):
        """The shortest of three `gridspec verify` runs on `out`, which must pass."""
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            assert main(["verify", str(out)]) == 0
            seconds.append(time.perf_counter() - start)
        return min(seconds)

    @staticmethod
    def write(out, sheet, kind, grid):
        (out / f"{sheet}.{kind}.csv").write_text(grid_to_csv(grid), encoding="utf-8",
                                                 newline="")

    def test_blank_rows_of_the_cashflow_fixture(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compile", str(FIXTURES / "cashflow.gsx"), "--inputs",
                     str(FIXTURES / "cashflow_inputs.csv"), "--out-dir", str(out)]) == 0
        formulas = csv_to_grid((out / "Model.formulas.csv").read_text(encoding="utf-8"))
        values = csv_to_grid((out / "Model.values.csv").read_text(encoding="utf-8"))
        placed = {(1000, 27): "3", (1001, 28): "7", (1002, 52): "4.5", (1002, 53): "7"}
        values.update(placed)
        cells = [at for at, text in sorted(formulas.items()) if text.startswith("=")][-2:]
        for at, name in zip(cells, ["SUM(AA1000:AZ100000)", "MATCH(7,AA1000:AZ100000,0)"]):
            formulas[at] = f"={name}"
            small = name.replace("AA1000:AZ100000", "Model!AA1000:AZ1002")
            values[at] = self.reference(f"={small}", placed)
        assert [values[at] for at in cells] == ["14.5", "28"]
        self.write(out, "Model", "formulas", formulas)
        self.write(out, "Model", "values", values)
        assert self.verify_seconds(out) < 0.1
        assert " 0 mismatch(es)" in capsys.readouterr().out

    def test_whole_sheet(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps({"sheets": ["Check", "Model"]}),
                                           encoding="utf-8")
        placed = {(1, 2): "3", (2, 3): "7", (2, 16384): "TRUE", (3, 16384): "4"}
        formulas = {(1, 1): "=SUM(Model!A1:XFD1048576)", (2, 1): "=MATCH(7,Model!A1:XFD1048576,0)",
                    (3, 1): "=MATCH(TRUE,Model!A1:XFD1048576,0)"}
        values = {at: self.reference(text.replace("1048576", "3"), placed)
                  for at, text in formulas.items()}
        assert values == {(1, 1): "14", (2, 1): "16387", (3, 1): "32768"}
        self.write(out, "Check", "formulas", formulas)
        self.write(out, "Check", "values", values)
        self.write(out, "Model", "formulas", placed)
        self.write(out, "Model", "values", placed)
        assert self.verify_seconds(out) < 0.1
        assert "checked 3 cells, 0 mismatch(es)" in capsys.readouterr().out

    def test_columns_of_a_wide_sheet(self):
        """A tall, narrow range visits the rows of its sheet that hold
        cells, not every cell the sheet holds: a thousand whole-column sums
        and matches over a sheet of 1,000 columns verify in under a second."""
        placed = {(row, column): str(row % 7) for row in range(1, 101) for column in range(1, 1001)}
        expected = {"SUM": self.reference("=SUM(Model!A1:A100)", placed),
                    "MATCH": self.reference("=MATCH(6,Model!A1:A100,0)", placed)}
        assert expected == {"SUM": "297", "MATCH": "6"}
        formulas, values = {}, {}
        for row in range(1, 501):
            column = column_letters(row * 7 % 1000 + 1)
            for at, name in [((row, 1), "SUM"), ((row, 2), "MATCH")]:
                needle = "6," if name == "MATCH" else ""
                formulas[at] = f"={name}({needle}Model!{column}1:{column}1048576{',0' * bool(needle)})"
                values[at] = expected[name]
        start = time.perf_counter()
        report = verify_grid({"Check": formulas}, {"Model": placed, "Check": values})
        assert time.perf_counter() - start < 1
        assert report.checks == 1000 and report.ok


@pytest.mark.parametrize("cells, reason", [
    ({(5, 3): "text", (2, 2): "#N/A"}, "references non-value cell Model!C5"),
    ({(900, 1): "2009-01-01", (2, 2): "1"}, "expected a number, got datetime.date(2009, 1, 1)"),
])
def test_sparse_range_faults_at_the_first_cell(cells, reason):
    """A fault in a range read sparsely names the cell the reference names."""
    formulas = {"Check": {(1, 1): "=SUM(Model!A1:Z1000)", (2, 1): "=MATCH(1,Model!A2:D1000,0)"}}
    values = {"Model": cells, "Check": {(1, 1): "0", (2, 1): "0"}}
    report = assert_same_report(formulas, values)
    assert reason in str(report.mismatches[0])
