"""Each template is compiled once, to a function, on both sides: evaluate
compiles each equation's template, verify each formula shape's.  The
compiled function must give what walking the tree gives
(helpers.reference_eval_expr): the same value, or the same fault with the
same text.  test_regions and test_shapes compare the two through evaluate
and verify on the fixtures, the random and covering documents and the
shape tests; this file compares them on templates drawn to reach every
operator, builtin and fault, and counts the compiles."""

import datetime
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from gridspec import evaluator, verify
from gridspec.a1 import formula_shape
from gridspec.ast import (
    ADDITIVE_OPS,
    BUILTINS,
    COMPARISON_OPS,
    MULTIPLICATIVE_OPS,
    Binary,
    BooleanLit,
    Call,
    Hole,
    NumberLit,
)
from gridspec.errors import UnknownFunction, UnsupportedMatchType
from gridspec.evaluator import (
    BLANK,
    NA,
    Boolean,
    DateValue,
    Number,
    SparseRange,
    _Fault,
    compile_template,
    evaluate,
)
from gridspec.verify import verify_grid

from helpers import evaluate_fixture, reference_eval_expr
from test_shapes import assert_same_report, compiled_fixture

SCALARS = 4  # env slots 0..3 hold one value each, 4 and 5 a range
OPS = COMPARISON_OPS + ADDITIVE_OPS + MULTIPLICATIVE_OPS
FUNCTIONS = sorted(BUILTINS) + ["IF", "Sum", "nosuch"]


def outcome(run):
    try:
        value = run()
    except (_Fault, UnknownFunction, UnsupportedMatchType) as exc:
        return type(exc).__name__, str(exc)
    return repr(value)


def assert_same(template, env):
    compiled = compile_template(template, lambda hole: itemgetter(hole.slot))
    assert outcome(lambda: compiled(env)) == \
        outcome(lambda: reference_eval_expr(template, lambda hole: env[hole.slot]))


scalars = st.sampled_from([
    Number(0.0), Number(2.0), Number(-1.5), Number(1e308), Number(3.0, currency=True),
    BLANK, NA, Boolean(True), Boolean(False), DateValue(datetime.date(2009, 2, 1))])
ranges = st.one_of(st.lists(scalars, max_size=3), st.lists(scalars, max_size=3).map(
    lambda values: SparseRange(values, [2 * n + 1 for n in range(len(values))])))
leaves = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 2009.0, 1e308]).map(NumberLit),
    st.booleans().map(BooleanLit),
    st.integers(0, SCALARS + 1).map(lambda slot: Hole(slot, slot >= SCALARS)))
templates = st.recursive(leaves, lambda children: st.one_of(
    st.builds(Binary, st.sampled_from(OPS), children, children),
    st.builds(Call, st.sampled_from(FUNCTIONS), st.lists(children, max_size=4).map(tuple))),
    max_leaves=12)
envs = st.tuples(*[scalars] * SCALARS, ranges, ranges)


@given(templates, envs)
@settings(max_examples=1500, deadline=None)
def test_compiled_template_is_the_tree_walk(template, env):
    assert_same(template, env)


def hole(slot):
    return Hole(slot, slot >= SCALARS)


def call(name, *args):
    return Call(name, args)


UNTAKEN = [
    call("nosuch", hole(0)),            # an unknown function
    call("not", hole(0), hole(1)),      # a wrong arity
    call("if", BooleanLit(True), hole(0)),
    Binary("+", hole(4), NumberLit(1)),  # a range outside sum or match
    hole(5),
    call("isna", hole(4)),
]


@pytest.mark.parametrize("fault", UNTAKEN)
@pytest.mark.parametrize("taken", [False, True])
def test_fault_only_in_the_branch_taken(fault, taken):
    env = (Number(1), Number(2), BLANK, NA, [Number(1)], [Number(2)])
    template = call("if", BooleanLit(taken), fault, NumberLit(7))
    assert_same(template, env)
    result = outcome(lambda: compile_template(template, lambda h: itemgetter(h.slot))(env))
    assert (result == "Number(7.0)") is not taken


@pytest.mark.parametrize("template", [Binary(op, hole(0), hole(1)) for op in OPS] + [
    call(name, *[hole(n) for n in range(arity or 2)]) for name, arity in BUILTINS.items()])
@pytest.mark.parametrize("at", [0, 1])
def test_na_through_every_operator(template, at):
    env = [Boolean(True), Number(1), Number(0), Number(1), [], []]
    env[at] = NA
    assert_same(template, env)


@pytest.mark.parametrize("op, left, right", [
    ("+", 1e308, 1e308), ("-", -1e308, 1e308), ("*", 1e308, 10.0), ("/", 1e308, 1e-308),
    ("/", 1.0, 0.0), ("/", 0.0, 0.0)])
def test_two_numbers_that_fault(op, left, right):
    """What the fast path of two Numbers does not take: a division by
    zero and a result that is not finite."""
    template = Binary(op, hole(0), NumberLit(right))
    assert_same(template, (Number(left),))
    with pytest.raises(_Fault):
        compile_template(template, lambda h: itemgetter(h.slot))((Number(left),))


@pytest.mark.parametrize("template", [hole(2), call("if", hole(0), hole(2), NumberLit(1)),
                                      call("IF", BooleanLit(False), NumberLit(1), hole(2))])
def test_blank_result_is_zero(template):
    env = (Boolean(True), NA, BLANK, BLANK, [], [])
    assert_same(template, env)
    assert compile_template(template, lambda h: itemgetter(h.slot))(env) == Number(0)


def test_untaken_faults_in_a_grid():
    """Verify's faults, each in the branch a formula takes and in the one
    it does not: a read of a cell that holds no value, an unknown
    function, a wrong arity and a range outside sum or match."""
    values = {"Model": {(1, 1): "1", (1, 2): "text", (1, 3): "#N/A"}}
    faults = ["B1", "FOO(A1)", "NOT(A1,A1)", "A1:A1", "A1:C1+1", "SUM(A1:B1)"]
    formulas = {}
    for row, fault in enumerate(faults, start=2):
        formulas[(row, 1)] = f"=IF(TRUE,7,{fault})"
        formulas[(row, 2)] = f"=IF(FALSE,7,{fault})"
        values["Model"].update({(row, 1): "7", (row, 2): "7"})
    report = assert_same_report({"Model": formulas}, values)
    assert report.checks == 2 * len(faults)
    assert [str(m.address) for m in report.mismatches] == \
        [f"Model!B{row}" for row in range(2, len(faults) + 2)]
    assert [m.fault for m in report.mismatches] == [
        "references non-value cell Model!B1", "unknown function foo", "not given 2 argument(s)",
        "range reference outside sum or match",
        "references non-value cell Model!B1",  # a range's cells are read before it faults
        "references non-value cell Model!B1"]


def counting(monkeypatch, module):
    compiled = []

    def compile_counted(template, leaf):
        compiled.append(template)
        return compile_template(template, leaf)
    monkeypatch.setattr(module, "compile_template", compile_counted)
    return compiled


@pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
def test_one_compile_per_equation_per_evaluate(monkeypatch, name):
    _, symtab, plan, inputs, values = evaluate_fixture(name)
    compiled = counting(monkeypatch, evaluator)
    for calls in (1, 2):  # nothing compiled is kept from one call to the next
        assert evaluate(plan, inputs) == values
        assert len(compiled) == calls * len(symtab.stencils)
    assert {id(t) for t in compiled} == {id(s.template) for s in symtab.stencils.values()}


@pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
def test_one_compile_per_shape_per_verify(monkeypatch, name):
    result = compiled_fixture(name)
    shapes = {formula_shape(text[1:])[0] for sheet in result.formulas.values()
              for text in sheet.values() if text.startswith("=")}
    compiled = counting(monkeypatch, verify)
    for calls in (1, 2):
        assert verify_grid(result.formulas, result.values).ok
        assert len(compiled) == calls * len(shapes)
