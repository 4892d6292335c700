"""Differential verification of emitted grids.

Every formula cell is re-evaluated one step: the formula is parsed, the
values document supplies the value at each referenced address, the
result is computed by the evaluator's own eval_expr and compared to the
cell's own entry in the values document.  A formula that does not
parse, calls an unknown function, reads a cell that holds no value, or
whose operands make it fault is a mismatch that names the reason.
Numbers compare within relative tolerance 1e-9; booleans, dates, and NA
compare exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .a1 import Address, Hole, RangeRef, bind_holes, formula_shape, make_template, parse_a1_formula
from .errors import ParseFailure, UnknownFunction, UnsupportedMatchType
from .evaluator import (
    BLANK,
    NA,
    Boolean,
    DateValue,
    Number,
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
    expected: Value | None  # what one-step evaluation of the formula produces
    actual: Value | None  # what the values document holds
    fault: str = ""  # why one-step evaluation failed, when expected is None

    def __str__(self):
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


def verify_grid(formulas: Grid, values: Grid) -> VerifyReport:
    """One-step check of every formula cell against the values document.
    Each formula shape is parsed once (see a1.formula_shape); every other
    formula of the shape binds the holes of its template from its own text."""
    report = VerifyReport()
    # each cell's text is parsed once, however many formulas read it
    parsed = {sheet: {at: parse_value_text(text) for at, text in cells.items()}
              for sheet, cells in values.items()}
    templates = {}  # shape key -> (template, hole token offsets), see a1.make_template
    bound = []  # the values at the holes of the formula being checked

    def operand(address: Address) -> Value:
        value = parsed.get(address.sheet, {}).get((address.row, address.column), BLANK)
        if value is None:
            raise _Fault(f"references non-value cell {address}")
        return value

    def leaf(hole: Hole) -> Value | list[Value]:
        value = bound[hole.slot]
        if hole.ranged:
            return [operand(a) for a in RangeRef(value, bound[hole.slot + 1]).addresses()]
        return Number(value) if isinstance(value, float) else operand(value)

    for sheet in sorted(formulas):
        for (row, column), text in sorted(formulas[sheet].items()):
            if not text.startswith("="):
                continue
            address = Address(sheet, column, row)
            stored = parsed.get(sheet, {}).get((row, column), BLANK)
            report.checks += 1
            key, parts = formula_shape(text[1:])
            template = templates.get(key)
            try:
                bound = template and bind_holes(template[1], parts, sheet)
                if bound is None:  # a new shape, or a literal the parser reports
                    template = templates[key] = make_template(
                        parse_a1_formula(text, default_sheet=sheet), parts)
                    bound = bind_holes(template[1], parts, sheet)
                computed = eval_expr(template[0], leaf)
            except ParseFailure as exc:
                first = exc.diagnostics[0]
                fault = f"does not parse: {first.code} {first.pos} {first.message}"
                report.mismatches.append(Mismatch(address, None, stored, fault))
                continue
            except (_Fault, UnknownFunction, UnsupportedMatchType) as exc:
                report.mismatches.append(Mismatch(address, None, stored, str(exc)))
                continue
            if not values_agree(computed, stored):
                report.mismatches.append(Mismatch(address, computed, stored))
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
