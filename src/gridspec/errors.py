"""Exception types shared across the toolchain, one per kind of failure;
a RuntimeFault is how evaluate reports the evaluator's internal _Fault."""

from __future__ import annotations


class GridSpecError(Exception):
    """Base class for all toolchain errors."""


class ParseFailure(GridSpecError):
    """Raised when a document cannot be parsed; carries all diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0] if self.diagnostics else None
        super().__init__(str(first) if first else "parse failure")


class CyclicDependency(GridSpecError):
    """A cell depends, directly or transitively, on itself."""

    def __init__(self, path):
        self.path = list(path)
        chain = " -> ".join(str(c) for c in self.path)
        super().__init__(f"cyclic dependency: {chain}")


class RuntimeFault(GridSpecError):
    """Evaluation failed at a specific cell."""

    def __init__(self, cell, reason):
        self.cell = cell
        self.reason = reason
        super().__init__(f"{cell}: {reason}")


class LayoutError(GridSpecError):
    """The tables cannot be laid out as asked."""


class InputError(GridSpecError):
    """A malformed record in an input-bindings CSV file."""

    def __init__(self, code, message):
        self.code = code
        super().__init__(f"{code}: {message}")
