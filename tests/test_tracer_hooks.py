"""The benchmark's tracer replaces gridspec names by wrappers; every name
it lists must exist and be callable, or `perfbench/run.py --trace 1`
breaks.  It also reads what some of those calls return."""

import importlib
import importlib.util
from pathlib import Path

from gridspec.layout import emit, plan_layout, write_outputs
from gridspec.verify import verify_directory

from helpers import analyze_fixture, evaluate_fixture

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_callable():
    tracing = load_tracing()
    hooks = tracing.SPANNED + tracing.COUNTED
    assert hooks
    for namespace, name in hooks:
        module = importlib.import_module(namespace)
        assert callable(getattr(module, name, None)), f"{namespace}.{name}"


def test_rules_count_reads_the_plan():
    """`analyzer.rules` counts `plan.rules` of the plan `elaborate` returned."""
    doc, symtab, plan = analyze_fixture("loans")
    tracer = load_tracing().Tracer()
    tracer.calls["analyzer.elaborate"] = ((doc, symtab), (plan, []))
    derived = len(plan.owner) - plan.owner.count(None)
    assert tracer._measure()["analyzer.rules"] == len(plan.rules) == derived > 0


def test_formula_and_check_counts_read_emit_and_verify(tmp_path):
    """`layout.formulas` counts the formula texts of the EmitResult `emit`
    returned, one per derived cell, and `verify.checks` and
    `verify.mismatches` read the report `verify_directory` returned."""
    doc, symtab, plan, _, values = evaluate_fixture("loans")
    layout = plan_layout(doc, symtab)
    result = emit(layout, plan, values, doc)
    derived = len(plan.owner) - plan.owner.count(None)
    model = result.formulas["Model"]
    model[next(at for at, text in sorted(model.items()) if text.startswith("="))] = "=1+"
    write_outputs(result, tmp_path)
    report = verify_directory(tmp_path)
    tracer = load_tracing().Tracer()
    tracer.calls["layout.emit"] = ((layout, plan, values, doc), result)
    tracer.calls["verify.verify_directory"] = ((tmp_path,), report)
    counts = tracer._measure()
    assert counts["layout.formulas"] == counts["verify.checks"] == report.checks == derived > 0
    assert counts["verify.mismatches"] == len(report.mismatches) == 1
