"""Compiler toolchain for spreadsheet specification documents.

Parses pseudo-code specs (bounds, tables, equations, comments),
statically verifies them, evaluates them as cell-level dataflow
programs, compiles them to A1-notation grids with a layout manifest,
and differentially verifies the emitted grids.
"""

from .analyzer import CellId, CellPlan, RuleInstance, SymbolTable, analyze, elaborate, resolve, typecheck
from .ast import SpecDocument, pretty_print
from .errors import (
    AnalysisFailure,
    CyclicDependency,
    GridSpecError,
    InputError,
    LayoutError,
    LayoutOverflow,
    ParseFailure,
    RuntimeFault,
    UnknownFunction,
    UnmappedCell,
    UnsupportedMatchType,
)
from .evaluator import (
    BLANK,
    NA,
    Blank,
    Boolean,
    DateValue,
    NAError,
    Number,
    Value,
    apply_builtin,
    build_graph,
    compile_template,
    evaluate,
)
from .layout import (
    Layout,
    LayoutOptions,
    emit,
    humanize_caption,
    plan_layout,
    render_formula,
    write_outputs,
)
from .a1 import Address, parse_a1_formula
from .parser import Diagnostic, parse_document, parse_expression, tokenize
from .verify import verify_directory, verify_grid

__version__ = "0.1.0"
