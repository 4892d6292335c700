import itertools
import random

import pytest

from gridspec import parse_document
from gridspec.analyzer import (
    CellId,
    analyze,
    elaborate,
    match_patterns,
    resolve,
    typecheck,
)
from gridspec.ast import ConstantPattern, GuardedVarPattern, SpecDocument, VarPattern
from gridspec.cli import main

from helpers import analyze_fixture, fixture_text, random_document


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestResolve:
    def test_fixture_a_counts(self):
        doc = parse_document(fixture_text("cashflow"))
        symtab, diagnostics = resolve(doc)
        assert diagnostics == []
        assert len(symtab.tables) == 5
        assert len(symtab.bounds) == 1
        assert sum(len(v) for v in symtab.stencils.values()) == 4

    def test_duplicate_bounds(self):
        doc = parse_document("bounds time_span: 1 to 12.\nbounds time_span: 1 to 6.")
        _, diagnostics = resolve(doc)
        assert codes(diagnostics) == ["DuplicateName"]

    def test_equation_on_undeclared_table(self):
        doc = parse_document("bounds b: 1 to 3.\nfoo[t] = 1.")
        _, diagnostics = resolve(doc)
        assert codes(diagnostics) == ["UnknownTable"]

    def test_unknown_bounds(self):
        doc = parse_document("table x : nope -> number.")
        _, diagnostics = resolve(doc)
        assert codes(diagnostics) == ["UnknownBounds"]

    def test_lhs_arity_mismatch(self):
        doc = parse_document("bounds b: 1 to 3.\ntable x : b -> number.\nx[i, j] = 1.")
        _, diagnostics = resolve(doc)
        assert codes(diagnostics) == ["ArityMismatch"]

    def test_invalid_bounds_are_not_also_undeclared(self, tmp_path, capsys):
        """Bounds whose low end exceeds the high end are reported once, as
        InvalidBounds; a table over them names no undeclared bounds."""
        spec = tmp_path / "spec.gsx"
        spec.write_text("bounds b: 3 to 1.\ntable x : b -> number.\n", encoding="utf-8")
        assert main(["check", str(spec)]) == 1
        assert capsys.readouterr().out == \
            "error InvalidBounds 1:1 bounds 'b': low bound 3 exceeds high bound 1\n"


def typecheck_source(source):
    doc = parse_document(source)
    symtab, diagnostics = resolve(doc)
    assert diagnostics == []
    return typecheck(doc, symtab)


class TestTypecheck:
    def test_fixtures_clean(self):
        for name in ("cashflow", "borrowing", "loans"):
            doc = parse_document(fixture_text(name))
            symtab, _ = resolve(doc)
            assert typecheck(doc, symtab) == []

    def test_boolean_into_currency_is_mismatch(self):
        source = fixture_text("loans") + \
            "\ntotal_cash_at_end_of_period[t] = has_ceiling[1].\n"
        doc = parse_document(source)
        symtab, _ = resolve(doc)
        assert "TypeMismatch" in codes(typecheck(doc, symtab))

    def test_misplaced_all(self):
        diagnostics = typecheck_source(
            "bounds b: 1 to 3.\ntable y : b -> number.\ntable x : b -> number.\n"
            "x[t] = sum( y[ all ] ) + all.")
        assert "MisplacedAll" in codes(diagnostics)

    def test_all_outside_sum_or_match(self):
        diagnostics = typecheck_source(
            "bounds b: 1 to 3.\ntable y : b -> number.\ntable x : b -> number.\n"
            "x[t] = y[ all ].")
        assert "MisplacedAll" in codes(diagnostics)

    def test_unbound_index_variable(self):
        diagnostics = typecheck_source(
            "bounds b: 1 to 3.\ntable y : b -> number.\ntable x : b -> number.\n"
            "x[1] = y[ t ].")
        assert "UnboundIndexVariable" in codes(diagnostics)

    def test_if_condition_must_be_boolean(self):
        diagnostics = typecheck_source(
            "bounds b: 1 to 3.\ntable x : b -> number.\nx[t] = if( 1, 2, 3 ).")
        assert "BooleanExpected" in codes(diagnostics)

    def test_unknown_function(self):
        diagnostics = typecheck_source(
            "bounds b: 1 to 3.\ntable x : b -> number.\nx[t] = vlookup( 1 ).")
        assert "UnknownFunction" in codes(diagnostics)

    def test_match_third_argument_must_be_zero(self):
        diagnostics = typecheck_source(
            "bounds b: 1 to 3.\ntable y : b -> boolean.\ntable x : b -> general.\n"
            "x[t] = match( true, y[ all ], 1 ).")
        assert "UnsupportedMatchType" in codes(diagnostics)

    def test_numeric_family_compatibility(self):
        assert typecheck_source(
            "bounds b: 1 to 3.\ntable y : b -> currency.\ntable x : b -> general.\n"
            "x[t] = y[ t ] + 1.") == []

    def test_reports_in_source_order(self):
        # `a` is declared first, but the equation on `b` is written first
        diagnostics = typecheck_source(
            "bounds b: 1 to 3.\ntable a : b -> number.\ntable b : b -> number.\n"
            "b[ t ] = true.\na[ t ] = 1 = 1.")
        assert [(d.code, str(d.pos)) for d in diagnostics] == \
            [("TypeMismatch", "4:1"), ("TypeMismatch", "5:1")]

    def test_self_reference_warning(self):
        """An equation that reads its own cell at every cell of its box is
        warned of once, however often it reads it; a read of the same
        table elsewhere, such as a constant index, is not."""
        header = "bounds b: 1 to 3.\ntable x : b -> number.\ntable m : b b -> number.\n"
        diagnostics = typecheck_source(header + "x[ t ] = x[ t ] + x[ t ] + 1.\n"
                                       "m[ i, j ] = m[ i, 1 ].\nm[ i, i ] = m[ i, i ].")
        assert [str(d) for d in diagnostics] == [
            "warning SelfReference 4:1 equation on 'x' reads its own cell at every cell it covers",
            "warning SelfReference 6:1 equation on 'm' reads its own cell at every cell it covers"]
        for near_miss in ("x[ t ] = x[ t - 1 ].", "x[ 1 ] = x[ 2 ].", "x[ t ] = sum( x[ all ] ).",
                          "m[ i, j ] = m[ j, i ].", "x[ t ] = m[ t, t ]."):
            assert typecheck_source(header + near_miss) == [], near_miss

    def test_self_reference_keeps_exit_codes(self, tmp_path, capsys):
        spec = tmp_path / "self.gsx"
        spec.write_text("bounds b: 1 to 3.\ntable x : b -> number.\nx[ t ] = x[ t ] + 1.\n",
                        encoding="utf-8")
        warning = ("warning SelfReference 3:1 equation on 'x' reads its own cell "
                   "at every cell it covers\n")
        assert main(["check", str(spec)]) == 0
        assert capsys.readouterr().out == warning
        assert main(["compile", str(spec), "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr() == (warning, "error: cyclic dependency: x[1] -> x[1]\n")


# Inputs n, d and k, and derived tables x, c and e, one of each result
# type that the cases below need; each case is written on lines 8 on.
DIAGNOSED = ("bounds b: 1 to 3.\ntable n : b -> number.\ntable d : b -> date.\n"
             "table k : b -> boolean.\ntable x : b -> general.\ntable c : b -> boolean.\n"
             "table e : b -> date.\n")


@pytest.mark.parametrize("fragment, diagnostics", [
    ("table x : b -> number.", ["error DuplicateName 8:1 table 'x' declared more than once"]),
    ("x[t] = y[t].", ["error UnknownTable 8:1 reference to undeclared table 'y'"]),
    ("table y : b -> number.\nx[t] = y[t, t].",
     ["error ArityMismatch 9:1 reference 'y' has 2 index expression(s) "
      "but the table has 1 dimension(s)"]),
    ("x[t] = d[t] + 1.", ["error TypeMismatch 8:1 left operand of '+' is date, expected a number"]),
    ("x[t] = 1 + d[t].",
     ["error TypeMismatch 8:1 right operand of '+' is date, expected a number"]),
    ("c[t] = d[t] < 1.", ["error TypeMismatch 8:1 cannot compare date with number using '<'"]),
    ("c[t] = d[t] < d[1].", []),
    ("c[t] = not( k[t], k[t] ).", ["error ArityMismatch 8:1 'not' takes 1 argument(s), got 2"]),
    ("c[t] = and().", ["error ArityMismatch 8:1 'and' needs at least one argument"]),
    ("x[t] = if( k[t], d[t], 1 ).",
     ["error TypeMismatch 8:1 if branches disagree: date versus number"]),
    ("c[t] = or( n[t] ).", ["error BooleanExpected 8:1 'or' argument is number, expected boolean"]),
    ("x[t] = sum( k[ all ] ).", ["error TypeMismatch 8:1 sum over boolean values"]),
    ("x[t] = match( 1, n[ t ], 0 ).",
     ["error MisplacedAll 8:1 second argument of match must be an element reference "
      "with an 'all' index"]),
    ("e[t] = date( k[t], 1, 1 ).",
     ["error TypeMismatch 8:1 date part is boolean, expected a number"]),
])
def test_resolve_and_typecheck_texts(fragment, diagnostics):
    _, _, found = analyze(parse_document(DIAGNOSED + fragment))
    assert [str(d) for d in found] == diagnostics


class TestElaborate:
    def test_fixture_a_rule_selection(self):
        _, symtab, plan = analyze_fixture("cashflow")
        first = plan.rules[CellId("total_cash_at_start_of_period", (1,))]
        assert first.equation.lhs_patterns == (ConstantPattern(1),)
        for t in range(2, 13):
            rule = plan.rules[CellId("total_cash_at_start_of_period", (t,))]
            assert rule.equation.lhs_patterns == (GuardedVarPattern("t", ">", 1),)
            assert rule.substitution == {"t": t}

    def test_removing_base_case_uncovers_cell(self):
        source = fixture_text("cashflow").replace(
            "total_cash_at_start_of_period[ 1 ] =\n  initial_cash[].", "")
        doc = parse_document(source)
        symtab, _ = resolve(doc)
        _, diagnostics = elaborate(doc, symtab)
        assert codes(diagnostics) == ["UncoveredCell"]
        assert "total_cash_at_start_of_period[1]" in diagnostics[0].message

    def test_duplicate_rule_overlaps_on_eleven_cells(self):
        # an unguarded [t] rule overlaps the [t>1] rule at t = 2..12 and
        # the [1] rule at t = 1
        source = fixture_text("cashflow") + \
            "\ntotal_cash_at_start_of_period[ t ] = initial_cash[].\n"
        doc = parse_document(source)
        symtab, _ = resolve(doc)
        _, diagnostics = elaborate(doc, symtab)
        overlaps = [d for d in diagnostics if d.code == "OverlappingRules"]
        assert len(overlaps) == 12

    def test_equal_equations_stay_two(self):
        # equations compare equal whatever their positions; each is still its own rule
        doc = parse_document("bounds b: 1 to 3.\ntable a : b -> number.\n"
                             "a[ t ] = t.\na[ t ] = t.")
        symtab, _ = resolve(doc)
        _, diagnostics = elaborate(doc, symtab)
        assert [(d.code, str(d.pos)) for d in diagnostics] == [("OverlappingRules", "4:1")] * 3

    def test_unguarded_recurrence_runs_out_of_bounds(self):
        source = fixture_text("cashflow").replace("[ t>1 ]", "[ t ]", 1)
        source = source.replace("total_cash_at_start_of_period[ 1 ] =\n  initial_cash[].", "")
        doc = parse_document(source)
        symtab, _ = resolve(doc)
        _, diagnostics = elaborate(doc, symtab)
        assert "IndexOutOfBounds" in codes(diagnostics)

    def test_partition_property_on_fixtures(self):
        for name in ("cashflow", "borrowing", "loans"):
            _, symtab, plan = analyze_fixture(name)
            derived = set(plan.rules)
            inputs = {cell for table, extent in symtab.extents.items() if symtab.is_input(table)
                      for cell in symtab.cells[extent.base:extent.base + extent.size]}
            everything = set(symtab.cells)
            assert derived | inputs == everything
            assert derived & inputs == set()

    def test_substitution_soundness(self):
        for name in ("cashflow", "loans"):
            _, _, plan = analyze_fixture(name)
            for cell, rule in plan.rules.items():
                replayed = match_patterns(rule.equation.lhs_patterns, cell.indices)
                assert replayed == rule.substitution

    def test_determinism_and_order_independence(self):
        doc = parse_document(fixture_text("loans"))
        symtab, _ = resolve(doc)
        plan_one, _ = elaborate(doc, symtab)
        plan_two, _ = elaborate(doc, symtab)
        assert plan_one.rules == plan_two.rules
        # moving the last equation first must not change rule selection
        elements = list(doc.elements)
        equations = [e for e in elements if e.__class__.__name__ == "EquationDecl"]
        reordered = [e for e in elements if e not in equations[-1:]]
        reordered.insert(0, equations[-1])
        doc_two = SpecDocument(tuple(reordered), doc.comments)
        symtab_two, _ = resolve(doc_two)
        plan_three, _ = elaborate(doc_two, symtab_two)
        assert set(plan_three.rules) == set(plan_one.rules)
        for cell in plan_one.rules:
            assert plan_one.rules[cell].equation == plan_three.rules[cell].equation


def naive_elaborate(doc, symtab):
    """Independent oracle: scan every (rule, cell) pair directly."""
    winners = {}
    verdicts = {}
    for name, decl in symtab.tables.items():
        equations = [stencil.equation for stencil in symtab.stencils[name]]
        if not equations:
            continue
        ranges = [range(symtab.bounds[d][0], symtab.bounds[d][1] + 1)
                  for d in decl.dims]
        for combo in itertools.product(*ranges):
            hits = []
            for equation in equations:
                subst = {}
                ok = True
                for pattern, value in zip(equation.lhs_patterns, combo):
                    if isinstance(pattern, ConstantPattern):
                        ok = pattern.value == value
                    elif isinstance(pattern, VarPattern):
                        ok = subst.get(pattern.name, value) == value
                        subst[pattern.name] = value
                    else:
                        ok = subst.get(pattern.name, value) == value
                        subst[pattern.name] = value
                        if ok:
                            ok = {"<": value < pattern.bound,
                                  "<=": value <= pattern.bound,
                                  ">": value > pattern.bound,
                                  ">=": value >= pattern.bound,
                                  "<>": value != pattern.bound}[pattern.comparator]
                    if not ok:
                        break
                if ok:
                    hits.append((equation, subst))
            cell = CellId(name, combo)
            if len(hits) == 1:
                winners[cell] = hits[0]
            else:
                verdicts[cell] = "uncovered" if not hits else "overlapping"
    return winners, verdicts


class TestElaborationOracle:
    def test_random_documents_agree_with_naive_scan(self):
        rng = random.Random(20090617)
        for _ in range(200):
            doc = random_document(rng)
            symtab, diagnostics = resolve(doc)
            assert diagnostics == []
            plan, diagnostics = elaborate(doc, symtab)
            winners, verdicts = naive_elaborate(doc, symtab)
            assert set(plan.rules) == set(winners)
            for cell, (equation, subst) in winners.items():
                assert plan.rules[cell].equation == equation
                assert plan.rules[cell].substitution == subst
            uncovered = {d.message.split("cell ")[-1]
                         for d in diagnostics if d.code == "UncoveredCell"}
            overlapping = {d.message.split("cell ")[-1]
                           for d in diagnostics if d.code == "OverlappingRules"}
            assert uncovered == {str(c) for c, v in verdicts.items() if v == "uncovered"}
            assert overlapping == {str(c) for c, v in verdicts.items() if v == "overlapping"}
