import datetime
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from gridspec import CyclicDependency, RuntimeFault, analyze, evaluate, parse_document
from gridspec.analyzer import CellId, elaborate, resolve
from gridspec.ast import Binary, Hole
from gridspec.evaluator import (
    BLANK,
    NA,
    _Fault,
    apply_binary,
    build_graph,
    compile_template,
    is_na,
    value_equal,
)
from gridspec.layout import emit, plan_layout
from gridspec.verify import values_agree

from helpers import (
    analyze_fixture,
    call_builtin,
    covering_document,
    evaluate_fixture,
    random_document,
    reference_address,
    same,
)


def number_at(values, table, *indices):
    value = values[CellId(table, indices)]
    assert type(value) is float, value
    return value


class TestValueAlgebra:
    def test_blank_is_zero_in_arithmetic(self):
        assert same(apply_binary("+", BLANK, 5.0), 5.0)
        assert same(apply_binary("*", BLANK, 5.0), 0.0)
        assert same(apply_binary("-", 3.0, BLANK), 3.0)

    def test_na_propagates_through_arithmetic_and_comparison(self):
        assert is_na(apply_binary("+", NA, 1.0))
        assert is_na(apply_binary("<=", NA, 7.0))
        assert is_na(apply_binary("=", 1.0, NA))

    def test_blank_and_na_match_nothing(self):
        assert not value_equal(BLANK, BLANK)
        assert not value_equal(NA, NA)
        assert not value_equal(BLANK, 0.0)
        assert value_equal(2.0, 2.0)
        assert not value_equal(1.0, True)

    def test_date_comparison(self):
        jan = datetime.date(2009, 1, 1)
        feb = datetime.date(2009, 2, 1)
        assert same(apply_binary("<", jan, feb), True)

    @pytest.mark.parametrize("left, right", [
        (1.0, True), (0.0, False), (True, 1.0), (datetime.date(2009, 1, 1), 1.0)])
    def test_comparison_checks_type(self, left, right):
        """A number never equals a boolean or a date, though 1.0 == True in
        Python: no match, no agreement, and `=` and `<>` fault, both in
        apply_binary and on the compiled template's fast path."""
        assert not value_equal(left, right)
        assert not values_agree(left, right)
        for op in ("=", "<>"):
            template = compile_template(Binary(op, Hole(0, False), Hole(1, False)),
                                        lambda hole: itemgetter(hole.slot))
            for run in (lambda: apply_binary(op, left, right), lambda: template((left, right))):
                with pytest.raises(_Fault) as info:
                    run()
                assert str(info.value) == f"cannot compare {left!r} with {right!r}"


class TestBuiltins:
    def test_or_and_blank_false_na_poison(self):
        assert same(call_builtin("or", [False, BLANK]), False)
        assert call_builtin("or", [True, NA]) == NA
        assert same(call_builtin("and", [True, BLANK]), False)

    def test_not(self):
        assert same(call_builtin("not", [False]), True)
        assert call_builtin("not", [NA]) == NA

    def test_isna_absorbs_na(self):
        assert same(call_builtin("isna", [NA]), True)
        assert same(call_builtin("isna", [3.0]), False)
        assert same(call_builtin("isna", [BLANK]), False)

    def test_sum_skips_blank_and_boolean(self):
        values = [1.0, BLANK, True, 2.5]
        assert same(call_builtin("sum", [values]), 3.5)

    def test_sum_poisoned_by_na(self):
        assert call_builtin("sum", [[1.0, NA]]) == NA

    def test_match_finds_first_position(self):
        rng = [False, True, True]
        assert same(call_builtin("match", [True, rng, 0.0]), 2.0)

    def test_match_absent_is_na(self):
        rng = [False, False]
        assert call_builtin("match", [True, rng, 0.0]) == NA

    def test_match_requires_type_equality(self):
        rng = [1.0, True]
        assert same(call_builtin("match", [True, rng, 0.0]), 2.0)

    def test_date_builds_and_validates(self):
        assert same(call_builtin("date", [2009.0, 2.0, 1.0]), datetime.date(2009, 2, 1))
        with pytest.raises(Exception):
            call_builtin("date", [2009.0, 13.0, 1.0])


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
            evaluate(plan, {CellId("g", (1,)): True})
        assert info.value.cell == CellId("x", (1,))

    @pytest.mark.parametrize("equation, reason", [
        ("x[t] = nosuch( t ).", "unknown function nosuch"),
        ("x[t] = match( 1, y[ all ], 1 ).", "third argument of match must be 0"),
    ])
    def test_every_fault_names_its_cell(self, equation, reason):
        """typecheck rejects both equations; evaluated without it, each
        faults as a RuntimeFault at its first cell, as any failure does."""
        doc = parse_document("bounds b: 1 to 3.\ntable x : b -> number.\n"
                             "table y : b -> number.\n" + equation)
        symtab, diagnostics = resolve(doc)
        assert diagnostics == []
        plan, diagnostics = elaborate(doc, symtab)
        assert diagnostics == []
        with pytest.raises(RuntimeFault) as info:
            evaluate(plan, {})
        assert str(info.value) == f"x[1]: {reason}"


class TestInputs:
    def test_int_binding_is_its_float(self):
        """A Python caller may bind an int: it is read as its float, in a
        formula and in the values document, while a bool stays a bool."""
        doc = parse_document(
            "bounds b: 1 to 2.\ntable x : b -> number.\ntable k : b -> general.\n"
            "table y : b -> number.\ny[ t ] = x[ t ] + 1.")
        symtab, plan, diagnostics = analyze(doc)
        assert diagnostics == []
        values = evaluate(plan, {CellId("x", (1,)): 5, CellId("x", (2,)): 7,
                                 CellId("k", (1,)): True})
        assert same(dict(zip(symtab.cells, values)), {
            CellId("x", (1,)): 5.0, CellId("x", (2,)): 7.0,
            CellId("k", (1,)): True, CellId("k", (2,)): BLANK,
            CellId("y", (1,)): 6.0, CellId("y", (2,)): 8.0})
        emit(plan_layout(doc, symtab), plan, values, doc)

    def test_bindings_to_no_input_cell_are_ignored(self):
        # by its indices, x[9] would be the ninth cell on from x[1]: z[1,3];
        # the values are read back from emit's values document
        doc = parse_document(
            "bounds b: 1 to 3.\ntable x : b -> number.\ntable y : b -> number.\n"
            "table z : b b -> number.\ny[ t ] = x[ t ] + 1.")
        symtab, plan, diagnostics = analyze(doc)
        assert diagnostics == []
        values = evaluate(plan, {
            CellId("x", (1,)): 5.0, CellId("y", (2,)): 100.0,
            CellId("x", (9,)): 7.0, CellId("q", (1,)): 3.0,
            CellId("z", (1, 1)): 4.0})
        layout = plan_layout(doc, symtab)
        grid = emit(layout, plan, values, doc).values["Model"]

        def text(table, *indices):
            address = reference_address(CellId(table, indices), symtab, layout)
            return grid.get((address.row, address.column), "")
        assert [text("x", t) for t in (1, 2, 3)] == ["5", "", ""]
        assert [text("y", t) for t in (1, 2, 3)] == ["6", "1", "1"]
        assert [text("z", i, j) for i in (1, 2, 3) for j in (1, 2, 3)] == ["4"] + [""] * 8

    def test_bindings_are_placed_by_dense_number(self):
        """A binding is written at its cell's dense number; one of the
        wrong arity, below or above the bounds, to a derived cell or to an
        unknown table names no input cell and is ignored, and no CellId
        list is made for it."""
        doc = parse_document(
            "bounds b: 1 to 3.\nbounds c: 2 to 3.\ntable x : b c -> number.\n"
            "table y : b -> number.\ny[ t ] = x[ t, 2 ] + x[ t, 3 ].")
        symtab, plan, diagnostics = analyze(doc)
        assert diagnostics == []
        values = evaluate(plan, {
            CellId("x", (2, 3)): 5.0, CellId("x", (3, 2)): 7.0,
            CellId("x", (2,)): 100.0, CellId("x", (2, 3, 1)): 100.0,
            CellId("x", ()): 100.0, CellId("x", (0, 2)): 100.0,
            CellId("x", (2, 1)): 100.0, CellId("x", (2, 4)): 100.0,
            CellId("y", (1,)): 100.0, CellId("q", (1,)): 100.0})
        assert "cells" not in symtab.__dict__
        assert same(dict(zip(symtab.cells, values)), {
            CellId("x", (1, 2)): BLANK, CellId("x", (1, 3)): BLANK,
            CellId("x", (2, 2)): BLANK, CellId("x", (2, 3)): 5.0,
            CellId("x", (3, 2)): 7.0, CellId("x", (3, 3)): BLANK,
            CellId("y", (1,)): 0.0, CellId("y", (2,)): 5.0,
            CellId("y", (3,)): 7.0})


class TestFixtureValues:
    def test_cashflow_sequences(self):
        _, symtab, _, _, values = evaluate_fixture("cashflow")
        values = dict(zip(symtab.cells, values))
        ends = [number_at(values, "total_cash_at_end_of_period", t)
                for t in range(1, 13)]
        assert ends == [95 - 5 * (t - 1) for t in range(1, 13)]
        starts = [number_at(values, "total_cash_at_start_of_period", t)
                  for t in range(1, 13)]
        assert starts[0] == 100
        assert starts[1:] == ends[:-1]
        assert same(values[CellId("time", (3,))], datetime.date(2009, 3, 1))

    def test_borrowing_sequences(self):
        _, symtab, _, _, values = evaluate_fixture("borrowing")
        values = dict(zip(symtab.cells, values))
        ends = [number_at(values, "total_cash_at_end_of_period", t)
                for t in range(1, 13)]
        assert ends == [95, 90, 85, 80, 95, 90, 85, 90, 85, 80, 75, 70]
        borrowed = [number_at(values, "actually_borrowed_during_period", t)
                    for t in range(1, 13)]
        wanted = [values[CellId("want_to_borrow_during_period", (t,))]
                  for t in range(1, 13)]
        for got, want in zip(borrowed, wanted):
            expected = want if type(want) is float else 0.0
            assert got == expected

    def test_loans_first_supplier(self):
        _, symtab, _, _, values = evaluate_fixture("loans")
        values = dict(zip(symtab.cells, values))
        firsts = [values[CellId("first_that_can_supply_wants", (t,))]
                  for t in range(1, 13)]
        expected = [1, 2, 3, 4, None, 2, 3, 4, None, None, 1, 1]
        for got, want in zip(firsts, expected):
            if want is None:
                assert is_na(got)
            else:
                assert same(got, float(want))

    def test_loans_lending_schedule(self):
        _, symtab, _, _, values = evaluate_fixture("loans")
        values = dict(zip(symtab.cells, values))
        nonzero = {(1, 1): 15, (2, 2): 25, (3, 3): 45, (4, 4): 65,
                   (2, 6): 12, (3, 7): 12, (4, 8): 12}
        for l in range(1, 5):
            for t in range(1, 13):
                lent = number_at(values, "lent_during_period", l, t)
                assert lent == nonzero.get((l, t), 0)

    def test_loans_cash_sequence(self):
        _, symtab, _, _, values = evaluate_fixture("loans")
        values = dict(zip(symtab.cells, values))
        ends = [number_at(values, "total_cash_at_end_of_period", t)
                for t in range(1, 13)]
        assert ends == [110, 130, 170, 230, 225, 232, 239, 246, 241, 236, 231, 226]

    def test_loans_totals_recurrence(self):
        _, symtab, _, _, values = evaluate_fixture("loans")
        values = dict(zip(symtab.cells, values))
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
        inputs = {CellId("initial_cash", ()): float(cash)}
        for t in range(1, periods + 1):
            inputs[CellId("expenses_during_period", (t,))] = float(expense)
        values = dict(zip(plan.symtab.cells, evaluate(plan, inputs)))
        for t in range(1, periods + 1):
            assert number_at(values, "total_cash_at_end_of_period", t) == \
                cash - t * expense


class TestMatchOracle:
    def test_thousand_random_vectors(self):
        rng = random.Random(411)
        pool = [True, False, 1.0, 2.0, BLANK, NA]
        for _ in range(1000):
            haystack = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            needle = rng.choice([True, 1.0, 2.0])
            got = call_builtin("match", [needle, haystack, 0.0])
            # oracle: first 1-based position with type-and-value equality
            expected = NA
            for position, item in enumerate(haystack, start=1):
                same_type = type(item) is type(needle)
                if same_type and item == needle:
                    expected = float(position)
                    break
            assert same(got, expected)
