"""Exception types shared across the toolchain."""

from __future__ import annotations


class GridSpecError(Exception):
    """Base class for all toolchain errors."""


class ParseFailure(GridSpecError):
    """Raised when a document cannot be parsed; carries all diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0] if self.diagnostics else None
        super().__init__(str(first) if first else "parse failure")


class AnalysisFailure(GridSpecError):
    """Raised by high-level helpers when analysis reports errors."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__(f"{len(self.diagnostics)} analysis error(s)")


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


class UnknownFunction(GridSpecError):
    pass


class UnsupportedMatchType(GridSpecError):
    pass


class LayoutError(GridSpecError):
    """The tables cannot be laid out as asked."""


class LayoutOverflow(LayoutError):
    pass


class UnmappedCell(GridSpecError):
    pass


class InputError(GridSpecError):
    """A malformed record in an input-bindings CSV file."""

    def __init__(self, code, message):
        self.code = code
        super().__init__(f"{code}: {message}")
