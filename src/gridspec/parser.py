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


class Token:
    """A token of either grammar.  Its line and column are worked out
    from its offset only when `pos` is asked for."""

    __slots__ = ("kind", "text", "offset", "lines", "match")

    def __init__(self, kind: str, text: str, offset: int, lines: list[int], match=None):
        self.kind = kind  # identifier | integer | decimal | keyword | symbol | eoi | ref
        self.text = text
        self.offset = offset
        self.lines = lines  # the offset at which each line of the source starts
        self.match = match  # the match a `ref` token was read from

    @property
    def pos(self) -> SourcePos:
        line = bisect.bisect_right(self.lines, self.offset)
        return SourcePos(line, self.offset - self.lines[line - 1] + 1, self.offset)

    def __str__(self):
        return "end of input" if self.kind == "eoi" else f"'{self.text}'"


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
    """Split `text` into (tokens, comments, illegal) by `pattern`:
    optional whitespace, then one named group per token kind, the last
    an `illegal` group that takes any other non-whitespace character.
    `comment` and `illegal` tokens go to their own lists, and the token
    list ends with `eoi`.  Keyword text is lowercased, for A1 reads TRUE
    and FALSE in any case; a `ref` token keeps its match, whose groups
    the A1 parser decodes."""
    lines = [0]
    end = text.find("\n")
    while end >= 0:
        lines.append(end + 1)
        end = text.find("\n", end + 1)
    tokens, comments, illegal = [], [], []
    for match in pattern.finditer(text):
        kind = match.lastgroup
        word = match[kind]
        if kind == "keyword":
            word = word.lower()
        token = Token(kind, word, match.start(kind), lines, match if kind == "ref" else None)
        if kind == "comment":
            comments.append(token)
        elif kind == "illegal":
            illegal.append(token)
        else:
            tokens.append(token)
    tokens.append(Token("eoi", "", len(text), lines))
    return tokens, comments, illegal


def _scan_spec(text: str):
    """Scan a specification into (tokens, comments, diagnostics).  A
    leading byte-order mark is dropped before offsets are counted."""
    if text.startswith("\ufeff"):
        text = text[1:]
    tokens, comments, illegal = scan(text, _SPEC_TOKENS)
    return (tokens, [Comment(c.text[2:].strip(), c.pos) for c in comments],
            [Diagnostic("error", "IllegalCharacter", f"illegal character {t.text!r}", t.pos)
             for t in illegal])


def tokenize(text: str) -> list[Token]:
    """Tokenize source text; comments are skipped, never tokens.

    Raises ParseFailure on characters outside the lexical alphabet.
    """
    tokens, _, diagnostics = _scan_spec(text)
    if diagnostics:
        raise ParseFailure(diagnostics)
    return tokens


class _ParseDiagnostic(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class Parser:
    """Recursive-descent parser over a token stream."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # levels of the expression parsed last
        self.open = 0   # parentheses and calls around the current token

    # --- token plumbing ---

    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current()
        if token.kind != "eoi":
            self.pos += 1
        return token

    def at(self, kind: str, text: str | None = None) -> bool:
        token = self.tokens[self.pos]
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.advance()
        return None

    def accept_op(self, ops: tuple[str, ...]) -> str | None:
        """Consume the next token if it is one of the symbols `ops`."""
        token = self.tokens[self.pos]
        if token.kind == "symbol" and token.text in ops:
            self.pos += 1
            return token.text
        return None

    def expect(self, kind: str, text: str | None = None, expected: str | None = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            self.fail(expected or (f"'{text}'" if text else kind))
        return token

    def fail(self, expected: str):
        token = self.current()
        raise _ParseDiagnostic(Diagnostic(
            "error", "ParseError", f"expected {expected}, found {token}", token.pos))

    def recover(self):
        """Skip past the next element terminator so parsing can resume."""
        while not self.at("eoi"):
            if self.advance().text == ".":
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
        start = self.expect("keyword", "bounds").pos
        name = self.expect("identifier", expected="a bounds name").text
        self.expect("symbol", ":")
        low = self.integer("an integer low bound")
        self.expect("keyword", "to")
        high = self.integer("an integer high bound")
        self.expect("symbol", ".", expected="'.' ending the bounds element")
        return BoundsDecl(name, low, high, start)

    def table_decl(self) -> TableDecl:
        start = self.expect("keyword", "table").pos
        name = self.expect("identifier", expected="a table name").text
        self.expect("symbol", ":")
        dims = []
        while self.at("identifier"):
            dims.append(self.advance().text)
        self.expect("symbol", "->", expected="'->' before the result type")
        type_token = self.current()
        if type_token.kind != "identifier" or type_token.text not in ast.RESULT_TYPES:
            self.fail("a result type (general, number, currency, date or boolean)")
        self.advance()
        self.expect("symbol", ".", expected="'.' ending the table element")
        if len(dims) > ast.MAX_ARITY:
            raise _ParseDiagnostic(Diagnostic(
                "error", "ParseError",
                f"table '{name}' has {len(dims)} dimensions; at most {ast.MAX_ARITY} supported",
                start))
        return TableDecl(name, tuple(dims), type_token.text, start)

    def equation_decl(self) -> EquationDecl:
        name_token = self.expect("identifier", expected="a table name")
        self.expect("symbol", "[", expected="'[' starting the index patterns")
        patterns = []
        if not self.at("symbol", "]"):
            patterns.append(self.index_pattern())
            while self.accept("symbol", ","):
                patterns.append(self.index_pattern())
        self.expect("symbol", "]")
        self.expect("symbol", "=", expected="'=' between left- and right-hand sides")
        rhs = self.expression()
        self.expect("symbol", ".", expected="'.' ending the equation")
        return EquationDecl(name_token.text, tuple(patterns), rhs, name_token.pos)

    def index_pattern(self):
        if self.at("integer"):
            return ConstantPattern(self.integer())
        name = self.expect("identifier", expected="an index pattern").text
        comparator = self.accept_op(ast.GUARD_COMPARATORS)
        if comparator:
            return GuardedVarPattern(name, comparator, self.integer("an integer guard bound"))
        return VarPattern(name)

    def integer(self, expected: str = "an integer") -> int:
        """Consume an integer literal of at most MAX_INTEGER."""
        token = self.expect("integer", expected=expected)
        digits = token.text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_INTEGER)) or int(digits) > MAX_INTEGER:
            raise _ParseDiagnostic(Diagnostic(
                "error", "ParseError", "integer literal too large", token.pos))
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
        while True:
            token = self.tokens[self.pos]
            strength = precedence.get(token.text, 0) if token.kind == "symbol" else 0
            if strength <= floor or (compared and strength == _COMPARISON):
                break
            compared = strength == _COMPARISON
            self.pos += 1
            right = self._operations(operand, precedence, strength)
            depth = self._level(max(depth, self.depth), token)
            left = Binary(token.text, left, right)
        self.depth = depth
        return left

    def _level(self, depth: int, token: Token) -> int:
        """The depth of a node at `token` over children `depth` deep."""
        if depth >= MAX_EXPRESSION_DEPTH:
            raise _ParseDiagnostic(Diagnostic(
                "error", "ParseError",
                f"expression nested more than {MAX_EXPRESSION_DEPTH} levels deep", token.pos))
        return depth + 1

    def _nested(self, token: Token, func: str | None) -> Expr:
        """A parenthesised expression, or the arguments of a call to
        `func`, opened at `token`.  The nesting is checked on the way in,
        so that the recursion of this parser is bounded too."""
        self._level(self.open, token)
        self.open += 1
        try:
            if func is None:
                inside = self.expression()
                self.expect("symbol", ")")
            else:
                inside = Call(func, self._list(self.expression, ")"))
        finally:
            self.open -= 1
        self.depth = self._level(self.depth, token)
        return inside

    def _list(self, item, close: str) -> tuple[Expr, ...]:
        """Comma-separated items up to the symbol `close`."""
        items, depth = [], 0
        if not self.at("symbol", close):
            items.append(item())
            depth = self.depth
            while self.accept("symbol", ","):
                items.append(item())
                depth = max(depth, self.depth)
        self.expect("symbol", close)
        self.depth = depth
        return tuple(items)

    def atom(self) -> Expr:
        token = self.current()
        if token.kind in ("integer", "decimal"):
            self.pos += 1
            number = float(token.text)
            if not math.isfinite(number):
                raise _ParseDiagnostic(Diagnostic(
                    "error", "ParseError", "number literal too large", token.pos))
            return NumberLit(number)
        if token.kind == "keyword" and token.text in ("true", "false"):
            self.pos += 1
            return BooleanLit(token.text == "true")
        if token.kind == "identifier":
            self.pos += 1
            bracket = self.accept_op(("(", "["))
            if bracket == "(":
                return self._nested(token, token.text)
            if bracket == "[":
                return ElementRef(token.text, self._list(self.index_expression, "]"))
            return IndexVar(token.text)
        if self.accept("keyword", "all"):
            # only legal inside an index position; the analyzer rejects
            # any other placement with MisplacedAll
            return AllIndex()
        if self.accept("symbol", "("):
            return self._nested(token, None)
        self.fail("an expression")

    def whole_expression(self) -> Expr:
        """An expression spanning every token; raises ParseFailure if not."""
        try:
            expr = self.expression()
            if not self.at("eoi"):
                self.fail("end of input")
        except _ParseDiagnostic as exc:
            raise ParseFailure([exc.diagnostic]) from None
        return expr

    def index_expression(self) -> Expr:
        """Index positions allow only `all`, integers, index variables, + and -."""
        if self.accept("keyword", "all"):
            self.depth = 0
            return AllIndex()
        return self._operations(self.index_atom, _INDEX_PRECEDENCE)

    def index_atom(self) -> Expr:
        if self.at("integer"):
            return NumberLit(float(self.integer()))
        if self.at("identifier"):
            return IndexVar(self.advance().text)
        self.fail("an index expression (integer or index variable)")


def parse_document(text: str) -> SpecDocument:
    """Parse a full specification document.

    Collects diagnostics across elements (recovery resumes after the
    next `.`) and raises ParseFailure carrying all of them if any error
    was found.
    """
    tokens, comments, diagnostics = _scan_spec(text)
    parser = Parser(tokens)
    elements = []
    while not parser.at("eoi"):
        try:
            elements.append(parser.element())
        except _ParseDiagnostic as exc:
            diagnostics.append(exc.diagnostic)
            parser.recover()
    if diagnostics:
        raise ParseFailure(diagnostics)
    return SpecDocument(tuple(elements), tuple(comments))


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (the equation right-hand-side grammar)."""
    return Parser(tokenize(text)).whole_expression()
