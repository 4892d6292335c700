"""Tokenizer and recursive-descent parser for specification documents.

The surface syntax has four element kinds, each terminated by a period:

    bounds time_span: 1 to 12.
    table total_cash_at_end_of_period : time_span -> currency.
    total_cash_at_end_of_period[ t ] = total_cash_at_start_of_period[ t ]
        - expenses_during_period[ t ].
    -- a line comment, retained for documentation emission

Whitespace and newlines are insignificant inside elements.  A `.` lexes
as part of a decimal literal only with a digit on both sides; otherwise
it is the element terminator.
"""

from __future__ import annotations

import math
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

KEYWORDS = ("bounds", "table", "to", "all", "true", "false")

# longest first so that <= beats < and -> beats -
SYMBOLS = ("->", "<=", ">=", "<>", ":", "[", "]", "(", ")", ",",
           "=", "+", "-", "*", "/", "<", ">", ".")

# The deepest expression either grammar accepts.  Each parenthesis, function
# call and binary operator on the path from an expression down to a leaf is
# one level.  The bound keeps every recursive pass over the tree (parsing,
# analysis, evaluation, rendering, verify) well inside Python's recursion limit.
MAX_EXPRESSION_DEPTH = 100

_INDEX_PRECEDENCE = {op: ast.PRECEDENCE[op] for op in ast.ADDITIVE_OPS}
_COMPARISON = ast.PRECEDENCE["="]  # the loosest binding, for all comparisons

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


@dataclass(slots=True)
class Token:
    kind: str  # identifier | integer | decimal | keyword | symbol | eoi
    text: str
    pos: SourcePos

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


def _scan(text: str):
    """Scan source text into (tokens, comments, diagnostics)."""
    if text.startswith("\ufeff"):
        text = text[1:]
    tokens: list[Token] = []
    comments: list[Comment] = []
    diagnostics: list[Diagnostic] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def pos():
        return SourcePos(line, col, i)

    def advance(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if text.startswith("--", i):
            start = pos()
            end = text.find("\n", i)
            end = n if end < 0 else end
            comments.append(Comment(text[i + 2:end].strip(), start))
            advance(end - i)
            continue
        if ch in _IDENT_START:
            start = pos()
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "identifier"
            tokens.append(Token(kind, word, start))
            advance(j - i)
            continue
        if ch in _DIGITS:
            start = pos()
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            # a dot continues the literal only with a digit after it
            if j < n - 1 and text[j] == "." and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                tokens.append(Token("decimal", text[i:j], start))
            else:
                tokens.append(Token("integer", text[i:j], start))
            advance(j - i)
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("symbol", sym, pos()))
                advance(len(sym))
                break
        else:
            diagnostics.append(Diagnostic(
                "error", "IllegalCharacter", f"illegal character {ch!r}", pos()))
            advance()
    tokens.append(Token("eoi", "", pos()))
    return tokens, comments, diagnostics


def tokenize(text: str) -> list[Token]:
    """Tokenize source text; comments are skipped, never tokens.

    Raises ParseFailure on characters outside the lexical alphabet.
    """
    tokens, _, diagnostics = _scan(text)
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
        low = int(self.expect("integer", expected="an integer low bound").text)
        self.expect("keyword", "to")
        high = int(self.expect("integer", expected="an integer high bound").text)
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
            return ConstantPattern(int(self.advance().text))
        name = self.expect("identifier", expected="an index pattern").text
        comparator = self.accept_op(ast.GUARD_COMPARATORS)
        if comparator:
            bound = int(self.expect("integer", expected="an integer guard bound").text)
            return GuardedVarPattern(name, comparator, bound)
        return VarPattern(name)

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
        if self.accept("keyword", "all"):
            # only legal inside an index position; the analyzer rejects
            # any other placement with MisplacedAll
            return AllIndex()
        if self.accept("symbol", "("):
            return self._nested(token, None)
        if token.kind == "identifier":
            self.pos += 1
            if self.accept("symbol", "("):
                return self._nested(token, token.text)
            if self.accept("symbol", "["):
                return ElementRef(token.text, self._list(self.index_expression, "]"))
            return IndexVar(token.text)
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
            return NumberLit(float(self.advance().text))
        if self.at("identifier"):
            return IndexVar(self.advance().text)
        self.fail("an index expression (integer or index variable)")


def parse_document(text: str) -> SpecDocument:
    """Parse a full specification document.

    Collects diagnostics across elements (recovery resumes after the
    next `.`) and raises ParseFailure carrying all of them if any error
    was found.
    """
    tokens, comments, diagnostics = _scan(text)
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
