"""A1 notation: column letters, addresses, and the emitted-formula parser.

Formulas are parsed by the specification expression grammar, with cell
and range references in place of element references, which is what lets
the grid verifier re-evaluate emitted formulas one step with the
evaluator's own eval_expr.  Formulas that differ only in their references
and numbers have one shape, parsed once to a template with holes, whose
anchored pattern reads the holes of every other formula of the shape.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .ast import Binary, BooleanLit, Call, Expr, IndexVar, NumberLit, SourcePos
from .errors import ParseFailure
from .parser import Diagnostic, Parser, scan

MAX_COLUMNS, MAX_ROWS = 16384, 1048576  # a sheet's extents: A1:XFD1048576


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
    for ch in letters.upper():
        number = number * 26 + ord(ch) - 64  # A is 65
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
# always a `decimal`.  A shape's pattern (see make_template) reuses the
# `decimal` and `ref` alternatives.
_DECIMAL_TEXT = r"[0-9]+(?:\.[0-9]+)?"
_REF_TEXT = (r"(?:(?:(?P<sheet>[A-Za-z_][A-Za-z0-9_]*)|'(?P<quoted>[^']+)')!)?"
             r"\$?(?P<col>[A-Z]+)\$?(?P<row>[1-9][0-9]*)")
_A1_TOKENS = re.compile(
    r"\s*(?:"
    r"(?P<symbol><=|>=|<>|[():,=+\-*/<>])"
    rf"|(?P<decimal>{_DECIMAL_TEXT})"
    rf"|(?P<ref>{_REF_TEXT})"
    r"|(?P<keyword>(?ai:true|false)(?![A-Za-z0-9_]))"
    r"|(?P<identifier>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<illegal>\S))")


class _A1Parser(Parser):
    """The specification expression grammar over A1 tokens: cell and
    range references take the place of element references."""

    def __init__(self, text: str, default_sheet: str):
        stream, _, illegal = scan(text, _A1_TOKENS)
        if illegal:
            word, pos = illegal[0]
            raise ParseFailure([Diagnostic("error", "ParseError",
                                           f"illegal character {word!r}", pos)])
        super().__init__(stream)
        self.default_sheet = default_sheet

    def atom(self) -> Expr:
        if self.kinds[self.pos] != "ref":
            expr = super().atom()
            if isinstance(expr, IndexVar):
                self.fail("'(' after a function name")
            return expr
        first = self._address(self.default_sheet)
        if not self.accept_op((":",)):
            return CellRef(first)
        if not self.at("ref"):
            self.fail("a cell reference after ':'")
        return RangeRef(*_corners(first, self._address(first.sheet, ends_range=True)))

    def _address(self, default_sheet: str, ends_range: bool = False) -> Address:
        """Consume the current reference token; a range's end is on `default_sheet`."""
        match = self.refs[self.pos]
        address = _read_address(*match.group("sheet", "quoted", "col", "row"), default_sheet)
        if address is None:
            self.fail(f"a cell reference within A1:XFD{MAX_ROWS}")
        if ends_range and address.sheet != default_sheet:
            self.fail(f"a range end on the sheet of its start, {default_sheet!r}")
        self.pos += 1
        return address


def _read_address(sheet, quoted, col, row, default_sheet) -> Address | None:
    """The address a `ref` token's groups name, or None past the sheet's extents."""
    if len(col) <= 3 and len(row) <= 7:  # so int() never reads long text
        address = Address(quoted or sheet or default_sheet, column_number(col), int(row))
        if address.column <= MAX_COLUMNS and address.row <= MAX_ROWS:
            return address
    return None


def _corners(first: Address, last: Address) -> tuple[Address, Address]:
    """A range's top-left and bottom-right corners, as a spreadsheet reads
    the rectangle between two ends in any order; both are on `first`'s sheet."""
    if first.column <= last.column and first.row <= last.row:
        return first, last
    return (Address(first.sheet, min(first.column, last.column), min(first.row, last.row)),
            Address(first.sheet, max(first.column, last.column), max(first.row, last.row)))


def parse_a1_formula(text: str, default_sheet: str = "Model") -> Expr:
    """Parse a formula beginning with '=' into an expression whose leaves
    are CellRef and RangeRef addresses."""
    if not text.startswith("="):
        raise ParseFailure([Diagnostic(
            "error", "ParseError", "formula must begin with '='", SourcePos(1, 1, 0))])
    return _A1Parser(text[1:], default_sheet).whole_expression()


# --- formula shapes ---------------------------------------------------------
# re.split by _A1_TOKENS lists, per token, the text before it (empty, for the
# pattern takes whitespace) and then every group, so group g of the token at
# offset `at` of the split is at at + g.
_STRIDE = _A1_TOKENS.groups + 1
_SYMBOL, _DECIMAL, _REF, _KEYWORD, _IDENTIFIER = (
    _A1_TOKENS.groupindex[g] for g in ("symbol", "decimal", "ref", "keyword", "identifier"))
_KEPT = [_A1_TOKENS.groupindex[g] for g in ("symbol", "keyword", "identifier", "illegal")]


def formula_shape(body: str) -> tuple[tuple, list]:
    """(key, split) of a formula's text after '='.  The split reads the
    tokens as scan does; the key is their kinds and texts with every
    `decimal` and `ref` a hole, so formulas of one key parse alike but for
    the leaves at their holes."""
    parts = _A1_TOKENS.split(body)
    return (tuple(map(bool, parts[_DECIMAL::_STRIDE])),
            *[tuple(parts[g::_STRIDE]) for g in _KEPT]), parts


@dataclass(frozen=True)
class Hole(Expr):
    """A template's NumberLit, CellRef or RangeRef leaf: the value bound at
    the hole token `slot`, and for a range the next one too."""
    slot: int
    ranged: bool


# The kind of each hole: a number, a reference, or a reference after ':',
# which ends a range on the sheet of its start.
_NUMBER, _ADDRESS, _RANGE_END = range(3)
# A literal token's pattern ends where scan would end it: `<` and `>` are
# not the start of `<=`, `<>` or `>=`, and a word runs into no letter,
# digit, `_`, `$` or `!`, which would make it (part of) another token.
_WORD_END = r"(?![A-Za-z0-9_$!])"
_SYMBOL_END = {"<": "(?![=>])", ">": "(?!=)"}
_NUMBER_HOLE = f"(?>({_DECIMAL_TEXT}))"
_REF_HOLE = "(?>" + re.sub(r"\(\?P<\w+>", "(", _REF_TEXT) + ")"


class Shape(NamedTuple):
    """What a template reads from a formula of its shape (see
    make_template), verify's one binder.  `kinds` holds the kind of each
    hole.  `pattern` matches, from offset 1 on, exactly the formulas whose
    split has the template's key, with each hole's groups: a number's
    text, or a reference's sheet, quoted sheet, column letters and row."""
    kinds: tuple[int, ...]
    pattern: re.Pattern

    def read(self, formula: str, default_sheet: str) -> list | None:
        """The value of each hole of `formula`, '=' and all: a float or an
        Address, a range's corners in order (see _corners).  None if the
        formula has another shape or a literal the parser reports: a
        number that is not finite, a reference past the sheet's extents or
        a range that ends on another sheet."""
        match = self.pattern.fullmatch(formula, 1)
        if match is None:
            return None
        groups, bound, at = match.groups(), [], 0
        for kind in self.kinds:
            if kind == _NUMBER:
                value = float(groups[at])
                value = value if math.isfinite(value) else None
                at += 1
            else:  # a range ends on the sheet of its start only
                sheet = bound[-1].sheet if kind == _RANGE_END else default_sheet
                value = _read_address(*groups[at:at + 4], sheet)
                at += 4
                if kind == _RANGE_END and value:
                    if value.sheet != sheet:
                        return None
                    bound[-1], value = _corners(bound[-1], value)
            if value is None:
                return None
            bound.append(value)
        return bound


def make_template(expr: Expr, parts: list) -> tuple[Expr, Shape]:
    """A formula parsed to `expr`, whose split is `parts`, with its
    NumberLit, CellRef and RangeRef leaves made Holes, numbered in token
    order; and its Shape, whose pattern is the tokens of `parts` with every
    literal token escaped, `\\s*` around each token and an atomic group
    (greedy as scan is) at each hole."""
    slots = itertools.count()

    def punch(node: Expr) -> Expr:
        if isinstance(node, Binary):
            return Binary(node.op, punch(node.left), punch(node.right))
        if isinstance(node, Call):
            return Call(node.func, tuple(map(punch, node.args)))
        if isinstance(node, BooleanLit):
            return node
        hole = Hole(next(slots), isinstance(node, RangeRef))
        if hole.ranged:
            next(slots)
        return hole

    kinds, tokens = [], []
    for at in range(0, len(parts) - 1, _STRIDE):
        if parts[at + _DECIMAL] or parts[at + _REF]:
            kind = (_NUMBER if parts[at + _DECIMAL] else
                    _RANGE_END if at and parts[at - _STRIDE + _SYMBOL] == ":" else _ADDRESS)
            kinds.append(kind)
            tokens.append(_NUMBER_HOLE if kind == _NUMBER else _REF_HOLE)
        elif text := parts[at + _SYMBOL]:
            tokens.append(re.escape(text) + _SYMBOL_END.get(text, ""))
        else:  # a keyword or an identifier: a parsed formula has no illegal token
            text = parts[at + _KEYWORD] or parts[at + _IDENTIFIER]
            tokens.append(re.escape(text) + _WORD_END)
    pattern = re.compile(r"\s*" + r"\s*".join(tokens) + r"\s*")
    return punch(expr), Shape(tuple(kinds), pattern)
