"""The benchmark's tracer replaces gridspec names by wrappers; every name
it lists must exist and be callable, or `perfbench/run.py --trace 1`
breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = tracing.SPANNED + tracing.COUNTED
    assert hooks
    for namespace, name in hooks:
        module = importlib.import_module(namespace)
        assert callable(getattr(module, name, None)), f"{namespace}.{name}"
