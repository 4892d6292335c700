"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import filecmp
import random

import pytest

from gridspec import evaluate
from gridspec.analyzer import CellId, elaborate, resolve
from gridspec.cli import main
from gridspec.evaluator import is_na

from helpers import (
    FIXTURES,
    analyze_fixture,
    call_builtin,
    evaluate_fixture,
    random_document,
    same,
)
from test_analyzer import naive_elaborate
from test_evaluator import CLOSED_FORM_TEMPLATE, analyze_source, number_at


def verdict(number, text):
    print(f"PASS criterion {number}: {text}")


class TestAcceptance:
    def test_1_cashflow_fixture_values(self):
        _, symtab, _, _, values = evaluate_fixture("cashflow")
        values = dict(zip(symtab.cells, values))
        starts = [number_at(values, "total_cash_at_start_of_period", t)
                  for t in range(1, 13)]
        ends = [number_at(values, "total_cash_at_end_of_period", t)
                for t in range(1, 13)]
        assert starts == [100 - 5 * (t - 1) for t in range(1, 13)]
        assert ends == [95 - 5 * (t - 1) for t in range(1, 13)]
        verdict(1, "cash-flow fixture start/end sequences match the reference grid")

    def test_2_borrowing_fixture_values(self):
        _, symtab, _, _, values = evaluate_fixture("borrowing")
        values = dict(zip(symtab.cells, values))
        for t in range(1, 13):
            want = values[CellId("want_to_borrow_during_period", (t,))]
            borrowed = number_at(values, "actually_borrowed_during_period", t)
            assert borrowed == (want if type(want) is float else 0.0)
        ends = [number_at(values, "total_cash_at_end_of_period", t)
                for t in range(1, 13)]
        assert ends == [95, 90, 85, 80, 95, 90, 85, 90, 85, 80, 75, 70]
        verdict(2, "borrowing fixture mirrors wants and matches the end sequence")

    def test_3_loans_fixture_values(self):
        _, symtab, _, _, values = evaluate_fixture("loans")
        values = dict(zip(symtab.cells, values))
        expected_first = [1, 2, 3, 4, None, 2, 3, 4, None, None, 1, 1]
        for t, want in enumerate(expected_first, start=1):
            got = values[CellId("first_that_can_supply_wants", (t,))]
            assert is_na(got) if want is None else same(got, float(want))
        row_six = [values[CellId("can_supply_wants", (l, 6))] for l in range(1, 5)]
        assert same(row_six, [False, True, True, True])
        nonzero = {(1, 1): 15, (2, 2): 25, (3, 3): 45, (4, 4): 65,
                   (2, 6): 12, (3, 7): 12, (4, 8): 12}
        for l in range(1, 5):
            for t in range(1, 13):
                assert number_at(values, "lent_during_period", l, t) == \
                    nonzero.get((l, t), 0)
        ends = [number_at(values, "total_cash_at_end_of_period", t)
                for t in range(1, 13)]
        assert ends == [110, 130, 170, 230, 225, 232, 239, 246, 241, 236, 231, 226]
        verdict(3, "loans fixture supplier column, truth matrix, lending "
                   "schedule, and end sequence all match")

    def test_4_closed_form_property(self):
        rng = random.Random(1202)
        for _ in range(50):
            cash = rng.randint(0, 1000)
            expense = rng.randint(0, 50)
            periods = rng.randint(1, 24)
            plan = analyze_source(CLOSED_FORM_TEMPLATE.format(n=periods))
            inputs = {CellId("initial_cash", ()): float(cash)}
            for t in range(1, periods + 1):
                inputs[CellId("expenses_during_period", (t,))] = float(expense)
            values = dict(zip(plan.symtab.cells, evaluate(plan, inputs)))
            for t in range(1, periods + 1):
                assert number_at(values, "total_cash_at_end_of_period", t) == \
                    cash - t * expense
        verdict(4, "recurrence equals the closed form C - t*e exactly on "
                   "50 random cash/expense/period draws")

    def test_5_elaboration_oracle(self):
        rng = random.Random(8128)
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
            flagged = {d.message.split("cell ")[-1]: d.code for d in diagnostics
                       if d.code in ("UncoveredCell", "OverlappingRules")}
            expected = {str(c): ("UncoveredCell" if v == "uncovered"
                                 else "OverlappingRules")
                        for c, v in verdicts.items()}
            assert flagged == expected
        verdict(5, "elaboration agrees with the naive rule-by-cell scan on "
                   "200 random documents")

    def test_6_match_oracle(self):
        from gridspec.evaluator import NA

        rng = random.Random(6174)
        for _ in range(1000):
            haystack = [rng.random() < 0.5
                        for _ in range(rng.randint(1, 12))]
            needle = rng.random() < 0.5
            got = call_builtin("match", [needle, haystack, 0.0])
            hits = [k for k, item in enumerate(haystack, start=1)
                    if item == needle]
            assert same(got, float(hits[0]) if hits else NA)
        verdict(6, "match equals a linear scan on 1000 random boolean vectors, "
                   "with NA on absence")

    @pytest.mark.parametrize("name,derived", [
        ("cashflow", 36), ("borrowing", 48), ("loans", 252)])
    def test_7_compile_verify_round_trip(self, name, derived, tmp_path, capsys):
        out = tmp_path / name
        assert main(["compile", str(FIXTURES / f"{name}.gsx"),
                     "--inputs", str(FIXTURES / f"{name}_inputs.csv"),
                     "--out-dir", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        report_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert report_line == f"checked {derived} cells, 0 mismatch(es)"
        _, _, plan = analyze_fixture(name)
        assert len(plan.rules) == derived
        with capsys.disabled():
            verdict(7, f"compile+verify of {name} exits 0 with "
                       f"{derived} checks and 0 mismatches")

    def test_8_conservation_and_ceiling_safety(self):
        def check_invariants(values, inputs):
            for t in range(1, 13):
                borrowed = number_at(values, "actually_borrowed_during_period", t)
                lent = sum(number_at(values, "lent_during_period", l, t)
                           for l in range(1, 5))
                assert borrowed == pytest.approx(lent, abs=1e-9)
                start = number_at(values, "total_cash_at_start_of_period", t)
                end = number_at(values, "total_cash_at_end_of_period", t)
                expenses = inputs.get(CellId("expenses_during_period", (t,)),
                                      0.0)
                assert end == pytest.approx(start - expenses + borrowed,
                                            abs=1e-9)
            for l in range(1, 5):
                ceiling = inputs[CellId("ceiling", (l,))]
                for t in range(1, 13):
                    total = number_at(values, "total_loan_at_end_of_period", l, t)
                    assert total <= ceiling + 1e-9

        _, symtab, _, inputs, values = evaluate_fixture("loans")
        values = dict(zip(symtab.cells, values))
        check_invariants(values, inputs)

        doc, symtab, plan = analyze_fixture("loans")
        rng = random.Random(28)
        for _ in range(100):
            inputs = {CellId("initial_cash", ()): float(rng.randint(0, 500))}
            for t in range(1, 13):
                inputs[CellId("expenses_during_period", (t,))] = \
                    float(rng.randint(0, 30))
                if rng.random() < 0.8:
                    inputs[CellId("want_to_borrow_during_period", (t,))] = \
                        float(rng.randint(0, 60))
            for l in range(1, 5):
                inputs[CellId("has_ceiling", (l,))] = True
                inputs[CellId("ceiling", (l,))] = float(rng.randint(0, 100))
                inputs[CellId("initial_loan", (l,))] = 0.0
            values = dict(zip(plan.symtab.cells, evaluate(plan, inputs)))
            check_invariants(values, inputs)
        verdict(8, "lending conservation, cash balance, and ceiling safety "
                   "hold on the loans fixture and 100 random configurations")

    def test_9_deterministic_compilation(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            assert main(["compile", str(FIXTURES / "loans.gsx"),
                         "--inputs", str(FIXTURES / "loans_inputs.csv"),
                         "--out-dir", str(out)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(first, second, names,
                                                   shallow=False)
        assert mismatch == [] and errors == []
        assert sorted(match) == names
        verdict(9, "two compilations of the loans fixture are byte-identical")
