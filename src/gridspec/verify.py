"""Differential verification of emitted grids.

Every formula cell is re-evaluated one step: the formula is parsed, the
values document supplies the value at each referenced address, the
result is computed by the evaluator's own eval_expr and compared to the
cell's own entry in the values document.  A formula that does not
parse, calls an unknown function, reads a cell that holds no value or a
sheet the directory does not hold, or whose operands make it fault is a
mismatch that names the reason.  Numbers compare within relative
tolerance 1e-9; booleans, dates, and NA compare exactly.  Every other
cell of the formulas document must hold the same text in the values
document; a cell only the values document holds is not checked.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .a1 import Address, Hole, formula_shape, make_template, parse_a1_formula
from .errors import ParseFailure, UnknownFunction, UnsupportedMatchType
from .evaluator import (
    BLANK,
    NA,
    Boolean,
    DateValue,
    Number,
    SparseRange,
    Value,
    _Fault,
    eval_expr,
    is_na,
)
from .layout import Grid

REL_TOLERANCE = 1e-9

_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")  # the whole text, ASCII digits only


def parse_value_text(text: str) -> Value | None:
    """Parse a values-document cell back into a runtime Value.

    Returns None for caption text, which is not a value."""
    if text == "":
        return BLANK
    if text == "#N/A":
        return NA
    if text == "TRUE":
        return Boolean(True)
    if text == "FALSE":
        return Boolean(False)
    if _NUMBER_RE.fullmatch(text):
        return Number(float(text))
    return DateValue.read(text)


@dataclass
class Mismatch:
    address: Address
    expected: Value | str | None  # one-step value of the formula, or a constant's text
    actual: Value | str | None  # what the values document holds
    fault: str = ""  # why one-step evaluation failed, when expected is None

    def __str__(self):
        if isinstance(self.expected, str):
            return (f"{self.address}: formulas document holds {self.expected!r}, "
                    f"values document holds {self.actual!r}")
        gives = f"faults ({self.fault})" if self.fault else f"gives {self.expected!r}"
        return f"{self.address}: formula {gives}, document holds {self.actual!r}"


@dataclass
class VerifyReport:
    checks: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def values_agree(computed: Value, stored: Value | None) -> bool:
    if stored is None:
        return False
    if isinstance(computed, Number) and isinstance(stored, Number):
        return math.isclose(computed.value, stored.value,
                            rel_tol=REL_TOLERANCE, abs_tol=REL_TOLERANCE)
    if is_na(computed):
        return is_na(stored)
    return type(computed) is type(stored) and computed == stored


def _by_row(cells) -> tuple[list[int], dict[int, list[int]]]:
    """The rows that hold cells, ascending, and each such row's columns,
    ascending."""
    columns = {}
    for row, column in cells:
        columns.setdefault(row, []).append(column)
    for held in columns.values():
        held.sort()
    return sorted(columns), columns


class _Sheets(dict):
    """Parsed cells by sheet; reading a sheet not held faults, naming it."""

    def __missing__(self, sheet: str):
        raise _Fault(f"references sheet {sheet!r}, which the directory does not hold")


def verify_grid(formulas: Grid, values: Grid) -> VerifyReport:
    """One-step check of every formula cell against the values document.
    Each formula shape is parsed once, to a template whose Shape has an
    anchored pattern (see a1.make_template), and every formula is bound
    by a Shape's pattern alone: that of the formula above it in its
    column, else of the formula checked before it, else of the template
    its shape's key finds.  Only a formula that the first two miss is
    split into tokens (a1.formula_shape), to find that key, and only a
    formula that the key's template refuses or that has a new key is
    parsed.  A range costs one lookup per row of its sheet that holds a
    cell among the range's rows, plus the cells held inside it: bounded by
    the cells the sheet holds, never by its area."""
    report = VerifyReport()
    # each cell's text is parsed once, however many formulas read it
    parsed = _Sheets({sheet: {at: parse_value_text(text) for at, text in cells.items()}
                      for sheet, cells in values.items()})
    by_row = {}  # sheet -> its cells by row, see _by_row; made for a sheet's first range
    templates = {}  # shape key -> (template, Shape), see a1.make_template
    above = {}  # column -> the template of the last formula read in it, on this sheet
    before = None  # the template of the last formula read
    bound = []  # the values at the holes of the formula being checked

    def read(text: str, sheet: str, column: int):
        """The template of a formula and the values at its holes.  Raises
        ParseFailure for a formula that does not parse."""
        nonlocal before
        tried = None
        for template in (above.get(column), before):
            if template is not None and template is not tried:
                found = template[1].read(text, sheet)
                if found is not None:
                    break
                tried = template
        else:
            key, parts = formula_shape(text[1:])
            template = templates.get(key)
            found = template and template[1].read(text, sheet)
            if found is None:  # a new shape, or a literal the parser reports
                template = templates[key] = make_template(
                    parse_a1_formula(text, default_sheet=sheet), parts)
                found = template[1].read(text, sheet)
        above[column] = before = template
        return template, found

    def operand(sheet: str, at: tuple[int, int]) -> Value:
        value = parsed[sheet].get(at, BLANK)
        if value is None:
            raise _Fault(f"references non-value cell {Address(sheet, at[1], at[0])}")
        return value

    def cells_in(first: Address, last: Address) -> SparseRange:
        """The values of the cells the values document holds in a range, in
        row-major order, each with its position in the range.  Only the
        sheet's rows that hold a cell within the range's rows are visited."""
        sheet = first.sheet
        if sheet not in by_row:
            by_row[sheet] = _by_row(parsed[sheet])
        rows, columns = by_row[sheet]
        width = last.column - first.column + 1
        values, positions = [], []
        for row in rows[bisect_left(rows, first.row):bisect_right(rows, last.row)]:
            held = columns[row]
            offset = (row - first.row) * width - first.column + 1
            for column in held[bisect_left(held, first.column):bisect_right(held, last.column)]:
                values.append(operand(sheet, (row, column)))
                positions.append(offset + column)
        return SparseRange(values, positions)

    def leaf(hole: Hole) -> Value | list[Value]:
        value = bound[hole.slot]
        if hole.ranged:
            return cells_in(value, bound[hole.slot + 1])
        if isinstance(value, float):
            return Number(value)
        return operand(value.sheet, (value.row, value.column))

    for sheet in sorted(formulas):
        above.clear()
        stored_on_sheet, texts = parsed.get(sheet, {}), values.get(sheet, {})
        for (row, column), text in sorted(formulas[sheet].items()):
            if not text.startswith("="):
                if (held := texts.get((row, column), "")) != text:
                    report.mismatches.append(Mismatch(Address(sheet, column, row), text, held))
                continue
            stored = stored_on_sheet.get((row, column), BLANK)
            report.checks += 1
            try:
                template, bound = read(text, sheet, column)
                computed = eval_expr(template[0], leaf)
            except ParseFailure as exc:
                first = exc.diagnostics[0]
                fault = f"does not parse: {first.code} {first.pos} {first.message}"
                mismatch = Mismatch(Address(sheet, column, row), None, stored, fault)
            except (_Fault, UnknownFunction, UnsupportedMatchType) as exc:
                mismatch = Mismatch(Address(sheet, column, row), None, stored, str(exc))
            else:
                if values_agree(computed, stored):
                    continue
                mismatch = Mismatch(Address(sheet, column, row), computed, stored)
            report.mismatches.append(mismatch)
    return report


def verify_directory(out_dir) -> VerifyReport:
    """Load an emitted directory (manifest plus per-sheet CSVs) and verify.
    Raises ValueError for a manifest or CSV that cannot be read as one."""
    import csv
    import json
    from pathlib import Path

    from .layout import csv_to_grid

    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(str(manifest_path))
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"{manifest_path}: {exc}") from None
    sheets = manifest.get("sheets") if isinstance(manifest, dict) else None
    if not (isinstance(sheets, list) and all(
            isinstance(s, str) and s and "/" not in s and "\\" not in s for s in sheets)):
        raise ValueError(f"{manifest_path}: expected an object whose 'sheets' lists "
                         "sheet names without path separators")

    def grid(path: Path) -> dict[tuple[int, int], str]:
        try:
            return csv_to_grid(path.read_text(encoding="utf-8"))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: {exc}") from None

    formulas: Grid = {}
    values: Grid = {}
    for sheet in sheets:
        formulas[sheet] = grid(out / f"{sheet}.formulas.csv")
        values[sheet] = grid(out / f"{sheet}.values.csv")
    return verify_grid(formulas, values)
