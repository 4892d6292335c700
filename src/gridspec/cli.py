"""Command-line front end with CI-stable exit codes.

Exit codes: 0 success, 1 specification or verification errors,
2 I/O failure, 3 runtime fault or cyclic dependency.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from pathlib import Path

from .analyzer import CellId, SymbolTable, analyze
from .errors import (
    CyclicDependency,
    GridSpecError,
    InputError,
    LayoutError,
    ParseFailure,
    RuntimeFault,
)
from .evaluator import Boolean, DateValue, Number, Value, evaluate
from .layout import LayoutOptions, emit, grid_to_csv, plan_layout, write_outputs
from .parser import parse_document
from .verify import verify_directory

EXIT_OK = 0
EXIT_SPEC_ERROR = 1
EXIT_IO_ERROR = 2
EXIT_RUNTIME_ERROR = 3

_INDEX_TEXT = re.compile(r"[+-]?[0-9]+")  # ASCII digits only, as a spec writes them


def load_inputs(path, symtab: SymbolTable) -> dict[CellId, Value]:
    """Read input-cell bindings from a CSV of `table, i1, ..., ik, value`
    records.  A leading byte-order mark is skipped."""
    bindings: dict[CellId, Value] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for line, record in enumerate(csv.reader(handle), start=1):
            if not record or all(f.strip() == "" for f in record):
                continue
            record = [f.strip() for f in record]
            table = record[0]
            decl = symtab.tables.get(table)
            if decl is None:
                raise InputError("UnknownTable", f"line {line}: unknown table '{table}'")
            if not symtab.is_input(table):
                raise InputError("BindingToDerivedTable",
                                 f"line {line}: table '{table}' is derived, not input")
            arity = len(decl.dims)
            if len(record) != arity + 2:
                raise InputError("BadArity",
                                 f"line {line}: '{table}' needs {arity} index field(s) "
                                 f"and one value, got {len(record) - 1} field(s)")
            indices = []
            for dim, text in zip(decl.dims, record[1:1 + arity]):
                try:
                    index = int(text) if _INDEX_TEXT.fullmatch(text) else None
                except ValueError:  # more digits than int() reads
                    index = None
                if index is None:
                    raise InputError("BadValue", f"line {line}: index {text!r} is not an integer")
                low, high = symtab.bounds[dim]
                if not low <= index <= high:
                    raise InputError("BadValue",
                                     f"line {line}: index {index} outside {dim} = {low}..{high}")
                indices.append(index)
            cell = CellId(table, tuple(indices))
            if cell in bindings:
                raise InputError("DuplicateBinding", f"line {line}: {cell} bound twice")
            bindings[cell] = _parse_binding_value(record[-1], decl.result_type, line)
    return bindings


def _parse_binding_value(text: str, result_type: str, line: int) -> Value:
    if text in ("true", "false"):
        if result_type != "boolean":
            raise InputError("BadValue",
                             f"line {line}: boolean value for a {result_type} table")
        return Boolean(text == "true")
    date = DateValue.read(text)
    if date is not None:
        if result_type != "date":
            raise InputError("BadValue",
                             f"line {line}: date value for a {result_type} table")
        return date
    try:
        number = float(text)
    except ValueError:
        raise InputError("BadValue", f"line {line}: unparseable value {text!r}") from None
    if not math.isfinite(number):
        raise InputError("BadValue", f"line {line}: value {text!r} is not a finite number")
    if result_type in ("boolean", "date"):
        raise InputError("BadValue",
                         f"line {line}: numeric value for a {result_type} table")
    return Number(number, currency=result_type == "currency")


def _print_diagnostics(diagnostics):
    for diagnostic in diagnostics:
        print(diagnostic)


def _load_and_analyze(spec_path, caption_table=None):
    """Returns (doc, symtab, plan, layout) or an int exit code after
    printing.  The layout is planned from the declarations and stencils
    alone, before elaboration, so a grid too large for a sheet is
    reported before any cell is enumerated."""
    try:
        text = Path(spec_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    try:
        doc = parse_document(text)
    except ParseFailure as exc:
        _print_diagnostics(exc.diagnostics)
        return EXIT_SPEC_ERROR
    layouts = []
    try:
        symtab, plan, diagnostics = analyze(doc, lambda doc, symtab: layouts.append(
            plan_layout(doc, symtab, LayoutOptions(caption_table=caption_table))))
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    _print_diagnostics(diagnostics)
    if plan is None:
        return EXIT_SPEC_ERROR
    return doc, symtab, plan, layouts[0]


def cmd_check(args) -> int:
    result = _load_and_analyze(args.spec)
    return result if isinstance(result, int) else EXIT_OK


def _compile_grids(args):
    """Analyze, lay out, evaluate and emit a spec; returns the EmitResult
    or an int exit code after printing."""
    result = _load_and_analyze(args.spec, args.caption_table)
    if isinstance(result, int):
        return result
    doc, symtab, plan, layout = result
    inputs = {}
    if args.inputs:
        try:
            inputs = load_inputs(args.inputs, symtab)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            print(f"error: cannot read {args.inputs}: {exc}", file=sys.stderr)
            return EXIT_IO_ERROR
        except InputError as exc:
            print(f"error {exc}", file=sys.stderr)
            return EXIT_SPEC_ERROR
    try:
        values = evaluate(plan, inputs)
    except (CyclicDependency, RuntimeFault) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    return emit(layout, plan, values, inputs, doc)


def cmd_eval(args) -> int:
    emitted = _compile_grids(args)
    if isinstance(emitted, int):
        return emitted
    try:
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for sheet, cells in emitted.values.items():
                (out / f"{sheet}.values.csv").write_text(
                    grid_to_csv(cells), encoding="utf-8", newline="")
        elif args.out:
            from .layout import MAIN_SHEET
            values = emitted.values  # no sheet, for a spec without tables: an empty CSV
            sheet = MAIN_SHEET if MAIN_SHEET in values else next(iter(values), None)
            Path(args.out).write_text(grid_to_csv(values.get(sheet, {})),
                                      encoding="utf-8", newline="")
        else:
            print("error: eval needs --out or --out-dir", file=sys.stderr)
            return EXIT_IO_ERROR
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    return EXIT_OK


def cmd_compile(args) -> int:
    emitted = _compile_grids(args)
    if isinstance(emitted, int):
        return emitted
    try:
        write_outputs(emitted, args.out_dir)
    except OSError as exc:
        print(f"error: cannot write {args.out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        report = verify_directory(args.directory)
    except (OSError, GridSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(f"checked {report.checks} cells, {len(report.mismatches)} mismatch(es)")
    for mismatch in report.mismatches[:20]:
        print(f"  {mismatch}")
    return EXIT_OK if report.ok else EXIT_SPEC_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridspec",
        description="Check, evaluate, compile, and verify spreadsheet "
                    "specification documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and statically verify a spec")
    check.add_argument("spec")
    check.set_defaults(func=cmd_check)

    evaluate_cmd = sub.add_parser("eval", help="evaluate a spec to value grids")
    evaluate_cmd.add_argument("spec")
    evaluate_cmd.add_argument("--inputs")
    evaluate_cmd.add_argument("--out")
    evaluate_cmd.add_argument("--out-dir")
    evaluate_cmd.add_argument("--caption-table")
    evaluate_cmd.set_defaults(func=cmd_eval)

    compile_cmd = sub.add_parser("compile", help="compile a spec to formula "
                                                 "grids, value grids, and a manifest")
    compile_cmd.add_argument("spec")
    compile_cmd.add_argument("--inputs")
    compile_cmd.add_argument("--out-dir", required=True)
    compile_cmd.add_argument("--caption-table")
    compile_cmd.set_defaults(func=cmd_compile)

    verify_cmd = sub.add_parser("verify", help="differentially verify an "
                                               "emitted directory")
    verify_cmd.add_argument("directory")
    verify_cmd.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
