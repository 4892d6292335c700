"""Spans and counts around the calls into gridspec's modules.

For the traced run only, `Tracer.install` replaces module-level names
with wrappers and `Tracer.uninstall` puts the originals back.  A name is
replaced in the namespace its caller looks it up in: the CLI's imports
for the stages it calls, and the defining module for the calls one
public function makes into another (`build_graph` inside `evaluate`,
`render_formula` inside `emit`, `parse_a1_formula` inside
`verify_grid`, and `csv_to_grid`, which `verify_directory` imports from
`layout` when it runs).  Self times then separate cleanly.

A span is `(name, start, end, parent)`, where parent is the index of the
enclosing span or -1.  Spans and counts stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (namespace the caller looks the name up in, name)
SPANNED = [
    ("gridspec.cli", "parse_document"),
    ("gridspec.cli", "analyze"),
    ("gridspec.analyzer", "resolve"),
    ("gridspec.analyzer", "typecheck"),
    ("gridspec.analyzer", "elaborate"),
    ("gridspec.cli", "load_inputs"),
    ("gridspec.cli", "evaluate"),
    ("gridspec.evaluator", "build_graph"),
    ("gridspec.cli", "plan_layout"),
    ("gridspec.cli", "emit"),
    ("gridspec.layout", "render_formula"),
    ("gridspec.cli", "write_outputs"),
    ("gridspec.cli", "verify_directory"),
    ("gridspec.layout", "csv_to_grid"),
    ("gridspec.verify", "verify_grid"),
    ("gridspec.verify", "parse_a1_formula"),
]
# called too often for a span each; only counted
COUNTED = [
    ("gridspec.analyzer", "match_patterns"),
    ("gridspec.evaluator", "expand_ref"),
    ("gridspec.layout", "expand_ref"),
]


def _layer_name(function) -> str:
    """gridspec.parser.parse_document -> 'parser.parse_document'."""
    return f"{function.__module__.rpartition('.')[2]}.{function.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.operations: list[dict] = []  # per root span: its index and counts
        self.counts: Counter = Counter()
        self.calls: dict[str, tuple] = {}  # span name -> (args, result) of its last call
        self._open = [-1]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for namespace, attribute in SPANNED + COUNTED:
            module = importlib.import_module(namespace)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            if (namespace, attribute) in COUNTED:
                wrapper = self._counted(f"{namespace.rpartition('.')[2]}.{attribute}", original)
            else:
                wrapper = self._spanned(_layer_name(original), original)
            setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def _spanned(self, name, function):
        spans, stack, calls = self.spans, self._open, self.calls

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                # a tuple of atoms, which the garbage collector stops tracking
                spans[index] = (name, start, end, stack[-1])
            calls[name] = (args, result)
            return result
        return traced

    def _counted(self, name, function):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counted

    @contextmanager
    def operation(self, name: str):
        """A root span around one CLI call; counts restart with it."""
        self.counts.clear()
        self.calls.clear()
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, perf_counter(), -1)
            self._open.pop()
            self.operations.append({"span": index, "counts": self._measure()})
            self.calls.clear()

    def _measure(self) -> dict[str, float]:
        """Counts for the operation just ended, from the calls it made."""
        counts = {name: float(n) for name, n in self.counts.items()}
        calls = self.calls
        if "parser.parse_document" in calls:
            counts["parser.source_bytes"] = len(calls["parser.parse_document"][0][0].encode())
        if "analyzer.elaborate" in calls:
            counts["analyzer.rules"] = len(calls["analyzer.elaborate"][1][0].rules)
        if "cli.load_inputs" in calls:
            counts["cli.bindings"] = len(calls["cli.load_inputs"][1])
        if "evaluator.build_graph" in calls:
            graph = calls["evaluator.build_graph"][1]
            counts["evaluator.cells"] = len(graph.nodes)
            counts["evaluator.edges"] = sum(len(deps) for deps in graph.edges.values())
        if "layout.emit" in calls:
            formulas = calls["layout.emit"][1].formulas
            counts["layout.formulas"] = sum(text.startswith("=") for sheet in formulas.values()
                                            for text in sheet.values())
        if "layout.write_outputs" in calls:
            out = Path(calls["layout.write_outputs"][0][1])
            counts["layout.output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        if "verify.verify_directory" in calls:
            report = calls["verify.verify_directory"][1]
            counts["verify.checks"] = report.checks
            counts["verify.mismatches"] = len(report.mismatches)
        return counts

    def self_times(self, root: int) -> dict[str, float]:
        """Seconds per span name in the tree under spans[root], each span's
        duration less the part its child spans cover."""
        spans = self.spans
        in_tree = {root}
        child_time: Counter = Counter()
        for index in range(root + 1, len(spans)):
            _, start, end, parent = spans[index]
            if parent == -1:
                break  # the next operation
            if parent in in_tree:
                in_tree.add(index)
                child_time[parent] += end - start
        totals: Counter = Counter()
        for index in in_tree:
            name, start, end, _ = spans[index]
            totals[name] += end - start - child_time[index]
        return dict(totals)

    def dump(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "operations": self.operations, "spans": self.spans}, handle)
