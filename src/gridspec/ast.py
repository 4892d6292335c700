"""Syntax tree for specification documents.

Node equality is structural: source positions never participate in
comparisons, so a pretty-printed and re-parsed document compares equal
to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal


@dataclass(frozen=True)
class SourcePos:
    line: int        # 1-based
    column: int      # 1-based
    offset: int      # 0-based byte offset

    def __str__(self):
        return f"{self.line}:{self.column}"


_NOPOS = SourcePos(1, 1, 0)


# --- expressions -----------------------------------------------------------

class Expr:
    """Base class for right-hand-side expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class NumberLit(Expr):
    value: float


@dataclass(frozen=True)
class BooleanLit(Expr):
    value: bool


@dataclass(frozen=True)
class IndexVar(Expr):
    name: str


@dataclass(frozen=True)
class AllIndex(Expr):
    """The `all` marker: a whole-dimension range inside an element reference."""


@dataclass(frozen=True)
class ElementRef(Expr):
    table: str
    indices: tuple[Expr, ...]


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # one of + - * / = <> < <= > >=
    left: Expr
    right: Expr


COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
ADDITIVE_OPS = ("+", "-")
MULTIPLICATIVE_OPS = ("*", "/")


# --- equation left-hand-side patterns --------------------------------------

@dataclass(frozen=True)
class ConstantPattern:
    value: int


@dataclass(frozen=True)
class VarPattern:
    name: str


@dataclass(frozen=True)
class GuardedVarPattern:
    name: str
    comparator: str  # one of < <= > >= <>
    bound: int


IndexPattern = ConstantPattern | VarPattern | GuardedVarPattern

GUARD_COMPARATORS = ("<", "<=", ">", ">=", "<>")


# --- documentation elements ------------------------------------------------

RESULT_TYPES = ("general", "number", "currency", "date", "boolean")

MAX_ARITY = 3


@dataclass(frozen=True)
class BoundsDecl:
    name: str
    low: int
    high: int
    pos: SourcePos = field(compare=False, default=_NOPOS)


@dataclass(frozen=True)
class TableDecl:
    name: str
    dims: tuple[str, ...]
    result_type: str
    pos: SourcePos = field(compare=False, default=_NOPOS)


@dataclass(frozen=True)
class EquationDecl:
    table: str
    lhs_patterns: tuple[IndexPattern, ...]
    rhs: Expr
    pos: SourcePos = field(compare=False, default=_NOPOS)


Element = BoundsDecl | TableDecl | EquationDecl


@dataclass(frozen=True)
class Comment:
    text: str
    pos: SourcePos = field(compare=False, default=_NOPOS)


@dataclass(frozen=True)
class SpecDocument:
    elements: tuple[Element, ...]
    comments: tuple[Comment, ...] = ()


# --- traversal -------------------------------------------------------------

def walk(expr: Expr) -> list[Expr]:
    """Every node of an expression, parents before their children (operands,
    arguments, indices), and children left to right."""
    nodes, stack = [], [expr]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if type(node) is Binary:
            stack += (node.right, node.left)
        elif type(node) is Call:
            stack += node.args[::-1]
        elif type(node) is ElementRef:
            stack += node.indices[::-1]
    return nodes


def element_refs(expr: Expr) -> list[ElementRef]:
    """The element references in an expression, in walk order."""
    return [node for node in walk(expr) if type(node) is ElementRef]


# --- builtins --------------------------------------------------------------

# name -> argument count; None for one or more
BUILTINS = {
    "if": 3, "or": None, "and": None, "not": 1,
    "isna": 1, "sum": 1, "match": 3, "date": 3,
}

# builtins whose arguments may be ranges (`all` indices)
AGGREGATES = ("sum", "match")


# --- pretty printing -------------------------------------------------------

# binding strength of each binary operator, for the parser and printers
PRECEDENCE = {op: 1 for op in COMPARISON_OPS}
PRECEDENCE.update({op: 2 for op in ADDITIVE_OPS})
PRECEDENCE.update({op: 3 for op in MULTIPLICATIVE_OPS})


def format_number(value: float) -> str:
    """Render a finite number in positional notation, never exponent form:
    integer form where it is exact, otherwise the shortest digits that
    read back as the same float."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    text = repr(value)
    if "e" in text:
        text = format(Decimal(text), "f")
    return text


def format_expr(expr: Expr, leaf, pad: str = " ", parent_prec: int = 0) -> str:
    """Text of an expression with the fewest parentheses that keep its
    structure.  Operators and calls are laid out here, with `pad` around
    operators and inside brackets; `leaf(node)` gives the text of every
    other node, and of a call's function name."""
    if isinstance(expr, Binary):
        prec = PRECEDENCE[expr.op]
        # comparison is non-associative; - and / are left-associative
        left = format_expr(expr.left, leaf, pad,
                           prec if expr.op in COMPARISON_OPS else prec - 1)
        right = format_expr(expr.right, leaf, pad, prec)
        text = f"{left}{pad}{expr.op}{pad}{right}"
        return f"({pad}{text}{pad})" if prec <= parent_prec else text
    if isinstance(expr, Call):
        args = f",{pad}".join(format_expr(a, leaf, pad) for a in expr.args)
        return f"{leaf(expr)}({pad}{args}{pad})"
    return leaf(expr)


def print_expr(expr: Expr) -> str:
    return format_expr(expr, _spec_leaf)


def _spec_leaf(expr: Expr) -> str:
    if isinstance(expr, NumberLit):
        return format_number(expr.value)
    if isinstance(expr, BooleanLit):
        return "true" if expr.value else "false"
    if isinstance(expr, IndexVar):
        return expr.name
    if isinstance(expr, AllIndex):
        return "all"
    if isinstance(expr, ElementRef):
        if not expr.indices:
            return f"{expr.table}[]"
        return f"{expr.table}[ {', '.join(print_expr(i) for i in expr.indices)} ]"
    if isinstance(expr, Call):
        return expr.func
    raise TypeError(f"unprintable expression node: {expr!r}")


def print_pattern(pattern: IndexPattern) -> str:
    if isinstance(pattern, ConstantPattern):
        return str(pattern.value)
    if isinstance(pattern, VarPattern):
        return pattern.name
    return f"{pattern.name}{pattern.comparator}{pattern.bound}"


def print_element(element: Element) -> str:
    if isinstance(element, BoundsDecl):
        return f"bounds {element.name}: {element.low} to {element.high}."
    if isinstance(element, TableDecl):
        dims = " ".join(element.dims)
        dims = f"{dims} " if dims else ""
        return f"table {element.name} : {dims}-> {element.result_type}."
    if isinstance(element, EquationDecl):
        if element.lhs_patterns:
            lhs = ", ".join(print_pattern(p) for p in element.lhs_patterns)
            lhs = f"{element.table}[ {lhs} ]"
        else:
            lhs = f"{element.table}[]"
        return f"{lhs} = {print_expr(element.rhs)}."
    raise TypeError(f"unprintable element: {element!r}")


def pretty_print(doc: SpecDocument) -> str:
    """Render a document to source text that re-parses structurally equal.

    Elements and retained comments are interleaved in source order.
    """
    items: list[tuple[SourcePos, str]] = []
    for element in doc.elements:
        items.append((element.pos, print_element(element)))
    for comment in doc.comments:
        for line in comment.text.splitlines() or [""]:
            items.append((comment.pos, f"-- {line}".rstrip()))
    items.sort(key=lambda item: item[0].offset)
    return "\n".join(text for _, text in items) + "\n"
