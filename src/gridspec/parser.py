"""Scanner and recursive-descent parser for specification documents.

The surface syntax has four element kinds, each terminated by a period:

    bounds time_span: 1 to 12.
    table total_cash_at_end_of_period : time_span -> currency.
    total_cash_at_end_of_period[ t ] = total_cash_at_start_of_period[ t ]
        - expenses_during_period[ t ].
    -- a line comment, retained for documentation emission

Whitespace (space, tab, CR and LF) is insignificant inside elements.  A
`.` lexes as part of a decimal literal only with a digit on both sides;
otherwise it is the element terminator.  Any other character outside
the token alphabet is illegal.  The A1 formula parser in a1.py reads its
own tokens with the same `scan` loop.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass

from . import ast
from .ast import (
    AllIndex,
    Binary,
    BooleanLit,
    BoundsDecl,
    Call,
    Comment,
    ConstantPattern,
    ElementRef,
    EquationDecl,
    Expr,
    GuardedVarPattern,
    IndexVar,
    NumberLit,
    SourcePos,
    SpecDocument,
    TableDecl,
    VarPattern,
)
from .errors import ParseFailure

_SPEC_TOKENS = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<comment>--[^\n]*)"
    r"|(?P<symbol>->|<=|>=|<>|[:\[\](),=+\-*/<>.])"  # two-character symbols first
    r"|(?P<decimal>[0-9]+\.[0-9]+)"
    r"|(?P<integer>[0-9]+)"
    r"|(?P<keyword>(?:bounds|table|to|all|true|false)(?![A-Za-z0-9_]))"
    r"|(?P<identifier>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<illegal>[^ \t\r\n]))")

# The deepest expression either grammar accepts.  Each parenthesis, function
# call and binary operator on the path from an expression down to a leaf is
# one level.  The bound keeps every recursive pass over the tree (parsing,
# analysis, evaluation, rendering, verify) well inside Python's recursion limit.
MAX_EXPRESSION_DEPTH = 100

# The largest integer literal: every integer up to it is exactly a double.
MAX_INTEGER = 2 ** 53

_INDEX_PRECEDENCE = {op: ast.PRECEDENCE[op] for op in ast.ADDITIVE_OPS}
_COMPARISON = ast.PRECEDENCE["="]  # the loosest binding, for all comparisons


def position(lines: list[int], offset: int) -> SourcePos:
    """The line and column of `offset`, given the offset at which each
    line of the source starts."""
    line = bisect.bisect_right(lines, offset)
    return SourcePos(line, offset - lines[line - 1] + 1, offset)


class Token:
    """A token of the specification grammar, as `tokenize` lists it."""

    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: SourcePos):
        self.kind = kind  # identifier | integer | decimal | keyword | symbol | eoi
        self.text = text
        self.pos = pos


@dataclass(frozen=True)
class Diagnostic:
    """A problem found while parsing or analysing a document."""

    severity: str  # error | warning
    code: str
    message: str
    pos: SourcePos

    def __str__(self):
        return f"{self.severity} {self.code} {self.pos} {self.message}"


def scan(text: str, pattern: re.Pattern):
    """Split `text` into (stream, comments, illegal) by `pattern`:
    optional whitespace, then one named group per token kind, the last
    an `illegal` group that takes any other non-whitespace character.

    The stream is (kinds, texts, offsets, lines, refs): per token its
    kind, text and offset, in three lists that end with an `eoi` token;
    the offset at which each line of `text` starts; and the match of
    each `ref` token by its index, whose groups the A1 parser decodes.
    Keyword text is lowercased, for A1 reads TRUE and FALSE in any case.
    `comment` and `illegal` tokens are listed apart as (text, SourcePos)."""
    lines = [0]
    end = text.find("\n")
    while end >= 0:
        lines.append(end + 1)
        end = text.find("\n", end + 1)
    kinds, texts, offsets, refs, comments, illegal = [], [], [], {}, [], []
    for match in pattern.finditer(text):
        kind = match.lastgroup
        word = match[kind]
        if kind == "comment" or kind == "illegal":
            side = comments if kind == "comment" else illegal
            side.append((word, position(lines, match.start(kind))))
            continue
        if kind == "keyword":
            word = word.lower()
        elif kind == "ref":
            refs[len(kinds)] = match
        kinds.append(kind)
        texts.append(word)
        offsets.append(match.start(kind))
    kinds.append("eoi")
    texts.append("")
    offsets.append(len(text))
    return (kinds, texts, offsets, lines, refs), comments, illegal


def _scan_spec(text: str):
    """Scan a specification into (stream, comments, diagnostics).  A
    leading byte-order mark is dropped before offsets are counted."""
    if text.startswith("\ufeff"):
        text = text[1:]
    stream, comments, illegal = scan(text, _SPEC_TOKENS)
    return (stream, [Comment(word[2:].strip(), pos) for word, pos in comments],
            [Diagnostic("error", "IllegalCharacter", f"illegal character {word!r}", pos)
             for word, pos in illegal])


def tokenize(text: str) -> list[Token]:
    """Tokenize source text; comments are skipped, never tokens.

    Raises ParseFailure on characters outside the lexical alphabet.
    """
    (kinds, texts, offsets, lines, _), _, diagnostics = _scan_spec(text)
    if diagnostics:
        raise ParseFailure(diagnostics)
    return [Token(kind, word, position(lines, offset))
            for kind, word, offset in zip(kinds, texts, offsets)]


class Parser:
    """Recursive-descent parser over a scanned token stream.  A symbol's
    or keyword's text is never another kind's, so the parser compares the
    text alone where it looks for one."""

    def __init__(self, stream):
        self.kinds, self.texts, self.offsets, self.lines, self.refs = stream
        self.pos = 0
        self.depth = 0  # levels of the expression parsed last
        self.open = 0   # parentheses and calls around the current token

    # --- token plumbing ---

    def position(self, at: int | None = None) -> SourcePos:
        """The position of token `at`, by default the current token."""
        return position(self.lines, self.offsets[self.pos if at is None else at])

    def advance(self) -> str:
        """Consume the current token, unless at the end; return its text."""
        word = self.texts[self.pos]
        if self.kinds[self.pos] != "eoi":
            self.pos += 1
        return word

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.kinds[self.pos] == kind and (text is None or self.texts[self.pos] == text)

    def accept_op(self, ops: tuple[str, ...]) -> str | None:
        """Consume the next token if it is one of the symbols `ops`."""
        word = self.texts[self.pos]
        if word in ops:
            self.pos += 1
            return word
        return None

    def expect(self, kind: str, text: str | None = None, expected: str | None = None) -> str:
        """Consume a token of `kind` (or of text `text`); return its text."""
        at = self.pos
        word = self.texts[at]
        if (word == text) if text is not None else (self.kinds[at] == kind):
            self.pos = at + 1
            return word
        self.fail(expected or (f"'{text}'" if text else kind))

    def error(self, message: str, at: int | None = None) -> ParseFailure:
        """A ParseFailure of one ParseError at token `at`, by default the current."""
        return ParseFailure([Diagnostic("error", "ParseError", message, self.position(at))])

    def fail(self, expected: str):
        found = "end of input" if self.kinds[self.pos] == "eoi" else f"'{self.texts[self.pos]}'"
        raise self.error(f"expected {expected}, found {found}")

    def recover(self):
        """Skip past the next element terminator so parsing can resume."""
        while not self.at("eoi"):
            if self.advance() == ".":
                return

    # --- elements ---

    def element(self):
        if self.at("keyword", "bounds"):
            return self.bounds_decl()
        if self.at("keyword", "table"):
            return self.table_decl()
        if self.at("identifier"):
            return self.equation_decl()
        self.fail("a bounds, table, or equation element")

    def bounds_decl(self) -> BoundsDecl:
        start = self.position()
        self.expect("keyword", "bounds")
        name = self.expect("identifier", expected="a bounds name")
        self.expect("symbol", ":")
        low = self.integer("an integer low bound")
        self.expect("keyword", "to")
        high = self.integer("an integer high bound")
        self.expect("symbol", ".", expected="'.' ending the bounds element")
        return BoundsDecl(name, low, high, start)

    def table_decl(self) -> TableDecl:
        start = self.pos
        self.expect("keyword", "table")
        name = self.expect("identifier", expected="a table name")
        self.expect("symbol", ":")
        dims = []
        while self.at("identifier"):
            dims.append(self.advance())
        self.expect("symbol", "->", expected="'->' before the result type")
        result_type = self.texts[self.pos]
        if result_type not in ast.RESULT_TYPES:
            self.fail("a result type (general, number, currency, date or boolean)")
        self.pos += 1
        self.expect("symbol", ".", expected="'.' ending the table element")
        if len(dims) > ast.MAX_ARITY:
            raise self.error(f"table '{name}' has {len(dims)} dimensions; "
                             f"at most {ast.MAX_ARITY} supported", start)
        return TableDecl(name, tuple(dims), result_type, self.position(start))

    def equation_decl(self) -> EquationDecl:
        start = self.position()
        name = self.expect("identifier", expected="a table name")
        self.expect("symbol", "[", expected="'[' starting the index patterns")
        patterns = []
        if self.texts[self.pos] != "]":
            patterns.append(self.index_pattern())
            while self.texts[self.pos] == ",":
                self.pos += 1
                patterns.append(self.index_pattern())
        self.expect("symbol", "]")
        self.expect("symbol", "=", expected="'=' between left- and right-hand sides")
        rhs = self.expression()
        self.expect("symbol", ".", expected="'.' ending the equation")
        return EquationDecl(name, tuple(patterns), rhs, start)

    def index_pattern(self):
        if self.kinds[self.pos] == "integer":
            return ConstantPattern(self.integer())
        name = self.expect("identifier", expected="an index pattern")
        comparator = self.accept_op(ast.GUARD_COMPARATORS)
        if comparator:
            return GuardedVarPattern(name, comparator, self.integer("an integer guard bound"))
        return VarPattern(name)

    def integer(self, expected: str = "an integer") -> int:
        """Consume an integer literal of at most MAX_INTEGER."""
        at = self.pos
        digits = self.expect("integer", expected=expected).lstrip("0") or "0"
        if len(digits) > len(str(MAX_INTEGER)) or int(digits) > MAX_INTEGER:
            raise self.error("integer literal too large", at)
        return int(digits)

    # --- expressions ---
    # Each method leaves the depth of the expression it returns in
    # self.depth; see MAX_EXPRESSION_DEPTH.

    def expression(self) -> Expr:
        return self._operations(self.atom, ast.PRECEDENCE)

    def _operations(self, operand, precedence: dict[str, int], floor: int = 0) -> Expr:
        """Operands joined by the binary operators in `precedence` that
        bind more tightly than `floor`; `precedence` gives each operator's
        binding strength.  Every operator is left-associative, and a
        comparison joins at most two operands.  A chain of equally binding
        operators is read in a loop, so its length costs no recursion."""
        self.depth = 0
        left = operand()
        depth = self.depth
        compared = False
        texts = self.texts
        while True:
            at = self.pos
            op = texts[at]
            strength = precedence.get(op, 0)
            if strength <= floor or (compared and strength == _COMPARISON):
                break
            compared = strength == _COMPARISON
            self.pos = at + 1
            right = self._operations(operand, precedence, strength)
            depth = self._level(max(depth, self.depth), at)
            left = Binary(op, left, right)
        self.depth = depth
        return left

    def _level(self, depth: int, at: int) -> int:
        """The depth of a node at token `at` over children `depth` deep."""
        if depth >= MAX_EXPRESSION_DEPTH:
            raise self.error(f"expression nested more than {MAX_EXPRESSION_DEPTH} levels deep", at)
        return depth + 1

    def _nested(self, at: int, func: str | None) -> Expr:
        """A parenthesised expression, or the arguments of a call to
        `func`, opened at token `at`.  The nesting is checked on the way
        in, so that the recursion of this parser is bounded too."""
        self._level(self.open, at)
        self.open += 1
        try:
            if func is None:
                inside = self.expression()
                self.expect("symbol", ")")
            else:
                inside = Call(func, self._list(self.expression, ")"))
        finally:
            self.open -= 1
        self.depth = self._level(self.depth, at)
        return inside

    def _list(self, item, close: str) -> tuple[Expr, ...]:
        """Comma-separated items up to the symbol `close`."""
        items, depth = [], 0
        texts = self.texts
        if texts[self.pos] != close:
            items.append(item())
            depth = self.depth
            while texts[self.pos] == ",":
                self.pos += 1
                items.append(item())
                depth = max(depth, self.depth)
        self.expect("symbol", close)
        self.depth = depth
        return tuple(items)

    def atom(self) -> Expr:
        at = self.pos
        kind, word = self.kinds[at], self.texts[at]
        if kind == "identifier":
            self.pos = at + 1
            bracket = self.texts[at + 1]
            if bracket == "(":
                self.pos = at + 2
                return self._nested(at, word)
            if bracket == "[":
                self.pos = at + 2
                return ElementRef(word, self._list(self.index_expression, "]"))
            return IndexVar(word)
        if kind == "integer" or kind == "decimal":
            self.pos = at + 1
            number = float(word)
            if not math.isfinite(number):
                raise self.error("number literal too large", at)
            return NumberLit(number)
        if word == "true" or word == "false":
            self.pos = at + 1
            return BooleanLit(word == "true")
        if word == "all":
            # only legal inside an index position; the analyzer rejects
            # any other placement with MisplacedAll
            self.pos = at + 1
            return AllIndex()
        if word == "(":
            self.pos = at + 1
            return self._nested(at, None)
        self.fail("an expression")

    def whole_expression(self) -> Expr:
        """An expression spanning every token; raises ParseFailure if not."""
        expr = self.expression()
        if not self.at("eoi"):
            self.fail("end of input")
        return expr

    def index_expression(self) -> Expr:
        """Index positions allow only `all`, integers, index variables, + and -."""
        if self.texts[self.pos] == "all":
            self.pos += 1
            self.depth = 0
            return AllIndex()
        return self._operations(self.index_atom, _INDEX_PRECEDENCE)

    def index_atom(self) -> Expr:
        kind = self.kinds[self.pos]
        if kind == "integer":
            return NumberLit(float(self.integer()))
        if kind == "identifier":
            return IndexVar(self.advance())
        self.fail("an index expression (integer or index variable)")


def parse_document(text: str) -> SpecDocument:
    """Parse a full specification document.

    Collects diagnostics across elements (recovery resumes after the
    next `.`) and raises ParseFailure carrying all of them if any error
    was found.
    """
    stream, comments, diagnostics = _scan_spec(text)
    parser = Parser(stream)
    elements = []
    while not parser.at("eoi"):
        try:
            elements.append(parser.element())
        except ParseFailure as exc:
            diagnostics += exc.diagnostics
            parser.recover()
    if diagnostics:
        raise ParseFailure(diagnostics)
    return SpecDocument(tuple(elements), tuple(comments))


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (the equation right-hand-side grammar)."""
    stream, _, diagnostics = _scan_spec(text)
    if diagnostics:
        raise ParseFailure(diagnostics)
    return Parser(stream).whole_expression()
