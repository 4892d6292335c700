import datetime
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridspec import CyclicDependency, RuntimeFault, analyze, evaluate, parse_document
from gridspec.analyzer import CellId
from gridspec.evaluator import (
    BLANK,
    NA,
    Boolean,
    DateValue,
    Number,
    apply_binary,
    apply_builtin,
    build_graph,
    is_na,
    value_equal,
)

from helpers import analyze_fixture, covering_document, evaluate_fixture, random_document


def number_at(values, table, *indices):
    value = values[CellId(table, indices)]
    assert isinstance(value, Number), value
    return value.value


class TestValueAlgebra:
    def test_blank_is_zero_in_arithmetic(self):
        assert apply_binary("+", BLANK, Number(5)) == Number(5)
        assert apply_binary("*", BLANK, Number(5)) == Number(0)
        assert apply_binary("-", Number(3), BLANK) == Number(3)

    def test_na_propagates_through_arithmetic_and_comparison(self):
        assert is_na(apply_binary("+", NA, Number(1)))
        assert is_na(apply_binary("<=", NA, Number(7)))
        assert is_na(apply_binary("=", Number(1), NA))

    def test_currency_tag_invisible_to_comparison(self):
        assert Number(5.0, currency=True) == Number(5.0)
        assert apply_binary("=", Number(5.0, currency=True), Number(5.0)) == Boolean(True)

    def test_blank_and_na_match_nothing(self):
        assert not value_equal(BLANK, BLANK)
        assert not value_equal(NA, NA)
        assert not value_equal(BLANK, Number(0))
        assert value_equal(Number(2), Number(2.0))
        assert not value_equal(Number(1), Boolean(True))

    def test_date_comparison(self):
        jan = DateValue.of(2009, 1, 1)
        feb = DateValue.of(2009, 2, 1)
        assert apply_binary("<", jan, feb) == Boolean(True)


class TestBuiltins:
    def test_or_and_blank_false_na_poison(self):
        assert apply_builtin("or", [Boolean(False), BLANK]) == Boolean(False)
        assert apply_builtin("or", [Boolean(True), NA]) == NA
        assert apply_builtin("and", [Boolean(True), BLANK]) == Boolean(False)

    def test_not(self):
        assert apply_builtin("not", [Boolean(False)]) == Boolean(True)
        assert apply_builtin("not", [NA]) == NA

    def test_isna_absorbs_na(self):
        assert apply_builtin("isna", [NA]) == Boolean(True)
        assert apply_builtin("isna", [Number(3)]) == Boolean(False)
        assert apply_builtin("isna", [BLANK]) == Boolean(False)

    def test_sum_skips_blank_and_boolean(self):
        values = [Number(1), BLANK, Boolean(True), Number(2.5)]
        assert apply_builtin("sum", [values]) == Number(3.5)

    def test_sum_poisoned_by_na(self):
        assert apply_builtin("sum", [[Number(1), NA]]) == NA

    def test_match_finds_first_position(self):
        rng = [Boolean(False), Boolean(True), Boolean(True)]
        assert apply_builtin("match", [Boolean(True), rng, Number(0)]) == Number(2)

    def test_match_absent_is_na(self):
        rng = [Boolean(False), Boolean(False)]
        assert apply_builtin("match", [Boolean(True), rng, Number(0)]) == NA

    def test_match_requires_type_equality(self):
        rng = [Number(1), Boolean(True)]
        assert apply_builtin("match", [Boolean(True), rng, Number(0)]) == Number(2)

    def test_date_builds_and_validates(self):
        assert apply_builtin("date", [Number(2009), Number(2), Number(1)]) == \
            DateValue(datetime.date(2009, 2, 1))
        with pytest.raises(Exception):
            apply_builtin("date", [Number(2009), Number(13), Number(1)])


def analyze_source(source):
    doc = parse_document(source)
    symtab, plan, diagnostics = analyze(doc)
    assert plan is not None, [str(d) for d in diagnostics]
    return plan


class TestDependencyGraph:
    def test_recurrence_edges(self):
        plan = analyze_source(
            "bounds b: 1 to 3.\n"
            "table x : b -> number.\ntable y : b -> number.\n"
            "y[1] = x[1].\ny[t>1] = y[t-1] + x[t].")
        graph = build_graph(plan)
        assert graph.edges[CellId("y", (2,))] == {CellId("y", (1,)), CellId("x", (2,))}
        order = {cell: k for k, cell in enumerate(graph.topo_order)}
        for cell, deps in graph.edges.items():
            for dep in deps:
                assert order[dep] < order[cell]

    def test_direct_cycle_reported_with_path(self):
        plan = analyze_source(
            "bounds b: 1 to 1.\n"
            "table a : b -> number.\ntable c : b -> number.\n"
            "a[t] = c[t].\nc[t] = a[t].")
        with pytest.raises(CyclicDependency) as info:
            build_graph(plan)
        path = info.value.path
        assert path[0] == path[-1]
        assert {CellId("a", (1,)), CellId("c", (1,))} <= set(path)

    def test_aggregate_sees_whole_dimension(self):
        plan = analyze_source(
            "bounds b: 1 to 4.\n"
            "table x : b -> number.\ntable s : b -> number.\n"
            "s[t] = sum( x[ all ] ).")
        graph = build_graph(plan)
        assert graph.edges[CellId("s", (1,))] == {CellId("x", (t,)) for t in range(1, 5)}


def reference_topo_order(graph):
    """The evaluation order rule, kept simple: sort the ready cells by
    (table, indices) and place the smallest, until none are left."""
    indegree = {cell: len(deps) for cell, deps in graph.edges.items()}
    dependents = {cell: [] for cell in graph.nodes}
    for cell, deps in graph.edges.items():
        for dep in deps:
            dependents[dep].append(cell)
    ready = [cell for cell in graph.nodes if indegree[cell] == 0]
    order = []
    while ready:
        ready.sort(key=lambda c: (c.table, c.indices), reverse=True)
        cell = ready.pop()
        order.append(cell)
        for dependent in dependents[cell]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    return order


class TestEvaluationOrder:
    @pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
    def test_fixture_order_is_the_reference_order(self, name):
        _, _, plan = analyze_fixture(name)
        graph = build_graph(plan)
        assert len(graph.topo_order) == len(graph.nodes)
        assert graph.topo_order == reference_topo_order(graph)

    def test_random_document_order_is_the_reference_order(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(400):
            _, plan, _ = analyze(random_document(rng))
            if plan is None:
                continue
            graph = build_graph(plan)
            assert graph.topo_order == reference_topo_order(graph)
            checked += 1
        assert checked >= 40

    def test_covering_document_order_is_the_reference_order(self):
        rng = random.Random(5)
        for _ in range(200):
            _, plan, diagnostics = analyze(covering_document(rng))
            assert plan is not None, diagnostics
            graph = build_graph(plan)
            assert graph.topo_order == reference_topo_order(graph)

    def test_cell_read_twice_is_one_dependency(self):
        plan = analyze_source(
            "bounds b: 1 to 3.\n"
            "table x : b -> number.\ntable y : b -> number.\n"
            "y[ t ] = x[ t ] + x[ t ].")
        graph = build_graph(plan)
        assert graph.edges[CellId("y", (2,))] == {CellId("x", (2,))}
        assert graph.topo_order == [CellId("x", (1,)), CellId("x", (2,)), CellId("x", (3,)),
                                    CellId("y", (1,)), CellId("y", (2,)), CellId("y", (3,))]

    def test_cells_sort_by_table_then_indices(self):
        rng = random.Random(7)
        cells = [CellId(rng.choice("abc"), tuple(rng.randint(1, 12) for _ in range(arity)))
                 for arity in (0, 1, 2) for _ in range(40)]
        assert sorted(cells) == sorted(cells, key=lambda c: (c.table, c.indices))
        assert min(cells) == sorted(cells)[0]

    def test_cell_text(self):
        assert str(CellId("a", ())) == "a[]"
        assert str(CellId("x", (1, 12))) == "x[1,12]"
        assert repr(CellId("x", (1,))) == "CellId(table='x', indices=(1,))"
        assert CellId("x", (1,)) == CellId(table="x", indices=(1,))


class TestRuntimeFaults:
    def test_division_by_zero_names_the_cell(self):
        plan = analyze_source(
            "bounds b: 1 to 2.\ntable x : b -> number.\nx[t] = 1 / 0.")
        with pytest.raises(RuntimeFault) as info:
            evaluate(plan, {})
        assert info.value.cell.table == "x"
        assert "division by zero" in str(info.value)

    def test_boolean_in_arithmetic_faults(self):
        # `general` cells are checked dynamically: a boolean bound to the
        # input slips past typecheck but faults when added
        plan = analyze_source(
            "bounds b: 1 to 1.\ntable g : b -> general.\ntable x : b -> general.\n"
            "x[t] = g[t] + 1.")
        with pytest.raises(RuntimeFault) as info:
            evaluate(plan, {CellId("g", (1,)): Boolean(True)})
        assert info.value.cell == CellId("x", (1,))


class TestFixtureValues:
    def test_cashflow_sequences(self):
        _, _, _, _, values = evaluate_fixture("cashflow")
        ends = [number_at(values, "total_cash_at_end_of_period", t)
                for t in range(1, 13)]
        assert ends == [95 - 5 * (t - 1) for t in range(1, 13)]
        starts = [number_at(values, "total_cash_at_start_of_period", t)
                  for t in range(1, 13)]
        assert starts[0] == 100
        assert starts[1:] == ends[:-1]
        assert values[CellId("time", (3,))] == DateValue(datetime.date(2009, 3, 1))

    def test_borrowing_sequences(self):
        _, _, _, _, values = evaluate_fixture("borrowing")
        ends = [number_at(values, "total_cash_at_end_of_period", t)
                for t in range(1, 13)]
        assert ends == [95, 90, 85, 80, 95, 90, 85, 90, 85, 80, 75, 70]
        borrowed = [number_at(values, "actually_borrowed_during_period", t)
                    for t in range(1, 13)]
        wanted = [values[CellId("want_to_borrow_during_period", (t,))]
                  for t in range(1, 13)]
        for got, want in zip(borrowed, wanted):
            expected = want.value if isinstance(want, Number) else 0.0
            assert got == expected

    def test_loans_first_supplier(self):
        _, _, _, _, values = evaluate_fixture("loans")
        firsts = [values[CellId("first_that_can_supply_wants", (t,))]
                  for t in range(1, 13)]
        expected = [1, 2, 3, 4, None, 2, 3, 4, None, None, 1, 1]
        for got, want in zip(firsts, expected):
            if want is None:
                assert is_na(got)
            else:
                assert got == Number(want)

    def test_loans_lending_schedule(self):
        _, _, _, _, values = evaluate_fixture("loans")
        nonzero = {(1, 1): 15, (2, 2): 25, (3, 3): 45, (4, 4): 65,
                   (2, 6): 12, (3, 7): 12, (4, 8): 12}
        for l in range(1, 5):
            for t in range(1, 13):
                lent = number_at(values, "lent_during_period", l, t)
                assert lent == nonzero.get((l, t), 0)

    def test_loans_cash_sequence(self):
        _, _, _, _, values = evaluate_fixture("loans")
        ends = [number_at(values, "total_cash_at_end_of_period", t)
                for t in range(1, 13)]
        assert ends == [110, 130, 170, 230, 225, 232, 239, 246, 241, 236, 231, 226]

    def test_loans_totals_recurrence(self):
        _, _, _, _, values = evaluate_fixture("loans")
        for l in range(1, 5):
            for t in range(1, 13):
                start = number_at(values, "total_loan_at_start_of_period", l, t)
                end = number_at(values, "total_loan_at_end_of_period", l, t)
                lent = number_at(values, "lent_during_period", l, t)
                assert end == start + lent
                if t > 1:
                    prev = number_at(values, "total_loan_at_end_of_period", l, t - 1)
                    assert start == prev


CLOSED_FORM_TEMPLATE = """\
bounds time_span: 1 to {n}.
table expenses_during_period : time_span -> currency.
table initial_cash : -> currency.
table total_cash_at_start_of_period : time_span -> currency.
table total_cash_at_end_of_period : time_span -> currency.

total_cash_at_start_of_period[ 1 ] = initial_cash[].
total_cash_at_start_of_period[ t>1 ] = total_cash_at_end_of_period[ t-1 ].
total_cash_at_end_of_period[ t ] =
  total_cash_at_start_of_period[ t ] - expenses_during_period[ t ].
"""


class TestClosedForm:
    @given(st.integers(0, 1000), st.integers(0, 50), st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_constant_expense_recurrence(self, cash, expense, periods):
        # integer data keeps every step exact in binary floating point,
        # so the recurrence must equal the closed form digit for digit
        plan = analyze_source(CLOSED_FORM_TEMPLATE.format(n=periods))
        inputs = {CellId("initial_cash", ()): Number(cash, currency=True)}
        for t in range(1, periods + 1):
            inputs[CellId("expenses_during_period", (t,))] = \
                Number(expense, currency=True)
        values = evaluate(plan, inputs)
        for t in range(1, periods + 1):
            assert number_at(values, "total_cash_at_end_of_period", t) == \
                cash - t * expense


class TestMatchOracle:
    def test_thousand_random_vectors(self):
        rng = random.Random(411)
        pool = [Boolean(True), Boolean(False), Number(1), Number(2), BLANK, NA]
        for _ in range(1000):
            haystack = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            needle = rng.choice([Boolean(True), Number(1), Number(2)])
            got = apply_builtin("match", [needle, haystack, Number(0)])
            # oracle: first 1-based position with type-and-value equality
            expected = NA
            for position, item in enumerate(haystack, start=1):
                same_type = type(item) is type(needle)
                if same_type and item == needle:
                    expected = Number(position)
                    break
            assert got == expected
