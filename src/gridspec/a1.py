"""A1 notation: column letters, addresses, and the emitted-formula parser.

Formulas are parsed by the specification expression grammar, with cell
and range references in place of element references, which is what lets
the grid verifier re-evaluate emitted formulas one step with the
evaluator's own eval_expr.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .ast import Expr, IndexVar, SourcePos
from .errors import ParseFailure
from .parser import Diagnostic, Parser, scan


def column_letters(number: int) -> str:
    """1-based column number to bijective base-26 letters (1 -> A, 27 -> AA)."""
    if number < 1:
        raise ValueError(f"column number must be >= 1, got {number}")
    letters = ""
    while number:
        number, rem = divmod(number - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def column_number(letters: str) -> int:
    number = 0
    for ch in letters:
        number = number * 26 + (ord(ch.upper()) - ord("A") + 1)
    return number


class Address(NamedTuple):
    sheet: str
    column: int  # 1-based
    row: int     # 1-based

    def a1(self) -> str:
        return f"{column_letters(self.column)}{self.row}"

    def __str__(self):
        return f"{self.sheet}!{self.a1()}"


def sheet_prefix(sheet: str) -> str:
    """`sheet!` as a formula writes it, quoting a name that is not an
    identifier.  Sheet names come from identifiers, so hold no quote."""
    if sheet.isascii() and sheet.isidentifier():
        return f"{sheet}!"
    return f"'{sheet}'!"


@dataclass(frozen=True)
class CellRef(Expr):
    address: Address


@dataclass(frozen=True)
class RangeRef(Expr):
    first: Address
    last: Address

    def addresses(self):
        """All covered addresses in row-major order."""
        for row in range(self.first.row, self.last.row + 1):
            for col in range(self.first.column, self.last.column + 1):
                yield Address(self.first.sheet, col, row)


# The A1 grammar's tokens, for parser.scan: a cell reference is a `ref`
# (tried before keywords, so TRUE1 is a cell) whose sheet is an identifier
# or a quoted name (see sheet_prefix), TRUE and FALSE are keywords
# in any case, whitespace is any Unicode whitespace, and a number is
# always a `decimal`.
_A1_TOKENS = re.compile(
    r"\s*(?:"
    r"(?P<symbol><=|>=|<>|[():,=+\-*/<>])"
    r"|(?P<decimal>[0-9]+(?:\.[0-9]+)?)"
    r"|(?P<ref>(?:(?:(?P<sheet>[A-Za-z_][A-Za-z0-9_]*)|'(?P<quoted>[^']+)')!)?"
    r"\$?(?P<col>[A-Z]+)\$?(?P<row>[1-9][0-9]*))"
    r"|(?P<keyword>(?ai:true|false)(?![A-Za-z0-9_]))"
    r"|(?P<identifier>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<illegal>\S))")


class _A1Parser(Parser):
    """The specification expression grammar over A1 tokens: cell and
    range references take the place of element references."""

    def __init__(self, text: str, default_sheet: str):
        tokens, _, illegal = scan(text, _A1_TOKENS)
        if illegal:
            raise ParseFailure([Diagnostic("error", "ParseError",
                                           f"illegal character {illegal[0].text!r}",
                                           illegal[0].pos)])
        super().__init__(tokens)
        self.default_sheet = default_sheet

    def atom(self) -> Expr:
        token = self.current()
        if token.kind != "ref":
            expr = super().atom()
            if isinstance(expr, IndexVar):
                self.fail("'(' after a function name")
            return expr
        first = self._address(self.default_sheet)
        if not self.accept_op((":",)):
            return CellRef(first)
        if not self.at("ref"):
            self.fail("a cell reference after ':'")
        return RangeRef(first, self._address(first.sheet))

    def _address(self, default_sheet: str) -> Address:
        """Consume the current reference token."""
        match = self.tokens[self.pos].match
        self.pos += 1
        return Address(match["quoted"] or match["sheet"] or default_sheet,
                       column_number(match["col"]), int(match["row"]))


def parse_a1_formula(text: str, default_sheet: str = "Model") -> Expr:
    """Parse a formula beginning with '=' into an expression whose leaves
    are CellRef and RangeRef addresses."""
    if not text.startswith("="):
        raise ParseFailure([Diagnostic(
            "error", "ParseError", "formula must begin with '='", SourcePos(1, 1, 0))])
    return _A1Parser(text[1:], default_sheet).whole_expression()
