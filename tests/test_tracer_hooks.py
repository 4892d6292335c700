"""The benchmark's tracer replaces gridspec names by wrappers; every name
it lists must exist and be callable, or `perfbench/run.py --trace 1`
breaks.  It also reads what some of those calls return."""

import importlib
import importlib.util
from pathlib import Path

from helpers import analyze_fixture

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
