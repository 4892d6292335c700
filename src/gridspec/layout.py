"""Grid layout, A1 formula rendering, and emission of the output documents.

Tables are grouped into row bands by their dimension signature: all
tables over the same bounds tuple share data rows, so one period lies
on one row everywhere within a band.  Each band is a header row, one
spare row (zero-dimensional tables live there), and the data rows;
successive bands are separated by a single blank row.  2-D tables run
their first dimension horizontally across contiguous columns, which is
what makes MATCH and SUM ranges possible.

The designated caption table is placed on its own sheet and its values
are copied (not referenced) into column A of the main sheet alongside
every band that runs vertically over the caption bounds.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .a1 import Address, column_letters
from .analyzer import CellId, CellPlan, RuleInstance, SymbolTable
from .ast import (
    BooleanLit,
    Call,
    Comment,
    Expr,
    IndexVar,
    NumberLit,
    SpecDocument,
    TableDecl,
    format_expr,
    format_number,
)
from .errors import LayoutOverflow, UnmappedCell
from .evaluator import (
    BLANK,
    Blank,
    Boolean,
    DateValue,
    NAError,
    Number,
    ResolvedRefs,
    Value,
    expand_ref,  # not called here; perfbench/tracing.py counts calls through this name
    resolve_references,
)

MAIN_SHEET = "Model"
MAX_COLUMNS = 16384
MAX_ROWS = 1048576


def humanize_caption(name: str) -> str:
    """Identifier to header text: underscores to spaces, first letter upper."""
    text = name.replace("_", " ")
    return text[:1].upper() + text[1:]


@dataclass
class LayoutOptions:
    caption_table: str | None = None  # default: a table named "time", if any


@dataclass
class Region:
    sheet: str
    top: int          # first data row
    left: int         # first column
    width: int
    height: int
    orientation: str  # cell | vertical | block
    header_row: int

    @property
    def bottom(self) -> int:
        return self.top + self.height - 1

    @property
    def right(self) -> int:
        return self.left + self.width - 1

    def a1_range(self) -> str:
        first = f"{column_letters(self.left)}{self.top}"
        if self.width == 1 and self.height == 1:
            return first
        return f"{first}:{column_letters(self.right)}{self.bottom}"


@dataclass
class Layout:
    sheets: list[str]
    regions: dict[str, Region]
    row_band: dict[str, int]  # vertical bounds name -> first data row of its first band
    caption_column: tuple[str, int, str] | None  # (sheet, column, source table)
    caption_rows: list[int] = field(default_factory=list)  # band start rows mirrored
    symtab: SymbolTable | None = None

    def cell_address(self, cell: CellId) -> Address:
        region = self.regions.get(cell.table)
        if region is None:
            raise UnmappedCell(str(cell))
        decl = self.symtab.tables[cell.table]
        if not decl.dims:
            return Address(region.sheet, region.left, region.top)
        if len(decl.dims) == 1:
            low, _ = self.symtab.bounds[decl.dims[0]]
            return Address(region.sheet, region.left,
                           region.top + cell.indices[0] - low)
        # first dimension horizontal, the rest vertical in row-major order
        col_low, _ = self.symtab.bounds[decl.dims[0]]
        column = region.left + cell.indices[0] - col_low
        row_offset = 0
        for dim, index in zip(decl.dims[1:], cell.indices[1:]):
            low, high = self.symtab.bounds[dim]
            row_offset = row_offset * (high - low + 1) + (index - low)
        return Address(region.sheet, column, region.top + row_offset)


def _vertical_size(decl: TableDecl, symtab: SymbolTable) -> int:
    if not decl.dims:
        return 1
    dims = decl.dims if len(decl.dims) == 1 else decl.dims[1:]
    size = 1
    for dim in dims:
        low, high = symtab.bounds[dim]
        size *= high - low + 1
    return size


def _width(decl: TableDecl, symtab: SymbolTable) -> int:
    if len(decl.dims) < 2:
        return 1
    low, high = symtab.bounds[decl.dims[0]]
    return high - low + 1


def plan_layout(doc: SpecDocument, symtab: SymbolTable,
                options: LayoutOptions | None = None) -> Layout:
    """Assign every table a sheet, rectangle, and orientation."""
    options = options or LayoutOptions()
    declared = [t for t in doc.elements if isinstance(t, TableDecl)]
    caption_name = options.caption_table
    if caption_name is None and any(t.name == "time" for t in declared):
        caption_name = "time"

    regions: dict[str, Region] = {}
    sheets: list[str] = []
    row_band: dict[str, int] = {}
    caption_column = None
    caption_rows: list[int] = []

    caption_decl = symtab.tables.get(caption_name) if caption_name else None
    main_tables = [t for t in declared if t.name != caption_name]

    if main_tables:
        sheets.append(MAIN_SHEET)
    if caption_decl is not None:
        caption_sheet = humanize_caption(caption_decl.name)
        sheets.append(caption_sheet)
        regions[caption_decl.name] = Region(
            caption_sheet, top=3, left=1, width=_width(caption_decl, symtab),
            height=_vertical_size(caption_decl, symtab),
            orientation=_orientation(caption_decl), header_row=1)
        if main_tables:
            caption_column = (MAIN_SHEET, 1, caption_decl.name)

    # group main-sheet tables into bands by dimension signature, in order
    # of first appearance; 0-dim tables join the first band
    bands: list[tuple[tuple[str, ...], list[TableDecl]]] = []
    zero_dim: list[TableDecl] = []
    by_signature: dict[tuple[str, ...], list[TableDecl]] = {}
    order: list[tuple[str, ...]] = []
    for decl in main_tables:
        if not decl.dims:
            zero_dim.append(decl)
            continue
        signature = decl.dims
        if signature not in by_signature:
            by_signature[signature] = []
            order.append(signature)
        by_signature[signature].append(decl)
    for signature in order:
        bands.append((signature, by_signature[signature]))
    if zero_dim:
        if bands:
            # interleave by declaration order within the first band
            signature, members = bands[0]
            merged = [t for t in main_tables if t in members or t in zero_dim]
            bands[0] = (signature, merged)
        else:
            bands.append(((), zero_dim))

    first_column = 2 if caption_column else 1
    header_row = 1
    for signature, members in bands:
        spare_row = header_row + 1
        data_row = spare_row + 1
        height = 0
        column = first_column
        for decl in members:
            if not decl.dims:
                regions[decl.name] = Region(
                    MAIN_SHEET, top=spare_row, left=column, width=1, height=1,
                    orientation="cell", header_row=header_row)
                column += 1
                continue
            width = _width(decl, symtab)
            table_height = _vertical_size(decl, symtab)
            height = max(height, table_height)
            regions[decl.name] = Region(
                MAIN_SHEET, top=data_row, left=column, width=width,
                height=table_height, orientation=_orientation(decl),
                header_row=header_row)
            column += width
            if width > 1:
                column += 1  # blank separator column after a block
        if signature:
            vertical_bounds = signature[-1] if len(signature) > 1 else signature[0]
            row_band.setdefault(vertical_bounds, data_row)
            if (caption_decl is not None and caption_decl.dims
                    and signature[-len(caption_decl.dims):] == caption_decl.dims):
                caption_rows.append(data_row)
        header_row = data_row + max(height, 0) + 1  # one blank row between bands

    layout = Layout(sheets, regions, row_band, caption_column, caption_rows, symtab)
    for region in regions.values():
        if region.right > MAX_COLUMNS or region.bottom > MAX_ROWS:
            raise LayoutOverflow(
                f"layout exceeds sheet extents at {region.sheet}!{region.a1_range()}")
    return layout


def _orientation(decl: TableDecl) -> str:
    if not decl.dims:
        return "cell"
    return "vertical" if len(decl.dims) == 1 else "block"


# --- formula rendering -----------------------------------------------------

def _format_ref(address: Address, home_sheet: str) -> str:
    if address.sheet == home_sheet:
        return address.a1()
    return f"{address.sheet}!{address.a1()}"


def render_formula(rule: RuleInstance, refs: ResolvedRefs, layout: Layout) -> str:
    """Render a rule instance as an A1 formula for its cell's sheet, given
    the rule's resolved references (see evaluator.resolve_references)."""
    home = layout.cell_address(rule.cell).sheet

    def leaf(expr: Expr) -> str:
        if isinstance(expr, NumberLit):
            return format_number(expr.value)
        if isinstance(expr, BooleanLit):
            return "TRUE" if expr.value else "FALSE"
        if isinstance(expr, IndexVar):
            return str(rule.substitution[expr.name])
        if isinstance(expr, Call):
            return expr.func.upper()
        cells = refs[expr]
        if isinstance(cells, CellId):
            return _format_ref(layout.cell_address(cells), home)
        # a range lists its cells row-major, so the first and last are corners
        first, last = layout.cell_address(cells[0]), layout.cell_address(cells[-1])
        return f"{_format_ref(first, home)}:{last.a1()}"

    return "=" + format_expr(rule.equation.rhs, leaf, pad="")


# --- value rendering and emission ------------------------------------------

def render_value(value: Value, currency: bool = False) -> str:
    """Machine-readable value text that reads back as the same value:
    currency to two decimals without a symbol where that is exact, other
    numbers in positional notation, booleans TRUE/FALSE, NA as #N/A,
    dates ISO, blanks empty."""
    if isinstance(value, Blank):
        return ""
    if isinstance(value, NAError):
        return "#N/A"
    if isinstance(value, Boolean):
        return "TRUE" if value.value else "FALSE"
    if isinstance(value, DateValue):
        return value.date.isoformat()
    if isinstance(value, Number):
        if currency or value.currency:
            text = f"{value.value:.2f}"
            if float(text) == value.value:
                return text
        return format_number(value.value)
    raise TypeError(f"unrenderable value: {value!r}")


Grid = dict[str, dict[tuple[int, int], str]]  # sheet -> (row, column) -> text


@dataclass
class EmitResult:
    formulas: Grid
    values: Grid
    manifest: dict


def emit(layout: Layout, plan: CellPlan, values: dict[CellId, Value],
         inputs: dict[CellId, Value], doc: SpecDocument | None = None) -> EmitResult:
    """Produce the formula grid, the parallel values grid, and the manifest."""
    symtab = plan.symtab
    formulas: Grid = {sheet: {} for sheet in layout.sheets}
    value_doc: Grid = {sheet: {} for sheet in layout.sheets}

    def put(sheet, row, column, formula_text, value_text):
        if formula_text:
            formulas[sheet][(row, column)] = formula_text
        if value_text:
            value_doc[sheet][(row, column)] = value_text

    # headers
    for name, region in layout.regions.items():
        caption = humanize_caption(name)
        put(region.sheet, region.header_row, region.left, caption, caption)

    # caption column: header plus copied values next to matching bands
    if layout.caption_column is not None:
        sheet, column, source = layout.caption_column
        header = humanize_caption(source)
        put(sheet, 1, column, header, header)
        source_decl = symtab.tables[source]
        low, high = symtab.bounds[source_decl.dims[0]]
        for band_top in layout.caption_rows:
            for index in range(low, high + 1):
                text = render_value(values.get(CellId(source, (index,)), BLANK))
                put(sheet, band_top + index - low, column, text, text)

    # table cells
    references = resolve_references(plan)
    for name in symtab.tables:
        decl = symtab.tables[name]
        currency = decl.result_type == "currency"
        for cell in symtab.table_cells(name):
            address = layout.cell_address(cell)
            if cell in plan.inputs:
                text = render_value(inputs.get(cell, BLANK), currency)
                put(address.sheet, address.row, address.column, text, text)
            else:
                formula = render_formula(plan.rules[cell], references[cell], layout)
                put(address.sheet, address.row, address.column, formula,
                    render_value(values[cell], currency))

    manifest = build_manifest(layout, symtab, doc)
    return EmitResult(formulas, value_doc, manifest)


def build_manifest(layout: Layout, symtab: SymbolTable,
                   doc: SpecDocument | None) -> dict:
    comments = _attach_comments(doc) if doc is not None else {}
    tables = []
    for name, decl in symtab.tables.items():
        region = layout.regions.get(name)
        if region is None:
            continue
        tables.append({
            "name": name,
            "sheet": region.sheet,
            "rectangle": region.a1_range(),
            "orientation": region.orientation,
            "result_type": decl.result_type,
            "class": "input" if symtab.is_input(name) else "derived",
            "comment": comments.get(name, ""),
        })
    entry = {"sheets": layout.sheets, "tables": tables}
    if layout.caption_column is not None:
        sheet, column, source = layout.caption_column
        entry["caption_column"] = {
            "sheet": sheet, "column": column_letters(column), "source": source}
    return entry


def _attach_comments(doc: SpecDocument) -> dict[str, str]:
    """Attach each comment to the table declared most recently before it."""
    events: list[tuple[int, int, object]] = []
    for element in doc.elements:
        if isinstance(element, TableDecl):
            events.append((element.pos.offset, 0, element))
    for comment in doc.comments:
        events.append((comment.pos.offset, 1, comment))
    events.sort(key=lambda e: (e[0], e[1]))
    attached: dict[str, list[str]] = {}
    current: str | None = None
    for _, _, item in events:
        if isinstance(item, TableDecl):
            current = item.name
        elif isinstance(item, Comment) and current is not None:
            attached.setdefault(current, []).append(item.text)
    return {name: "\n".join(lines) for name, lines in attached.items()}


# --- serialization ---------------------------------------------------------

def grid_to_csv(cells: dict[tuple[int, int], str]) -> str:
    """Render one sheet's sparse cells as a rectangular RFC-4180 CSV."""
    if not cells:
        return ""
    max_row = max(row for row, _ in cells)
    max_col = max(col for _, col in cells)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in range(1, max_row + 1):
        writer.writerow([cells.get((row, col), "") for col in range(1, max_col + 1)])
    return out.getvalue()


def csv_to_grid(text: str) -> dict[tuple[int, int], str]:
    cells: dict[tuple[int, int], str] = {}
    for row_index, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        for col_index, cell_text in enumerate(record, start=1):
            if cell_text != "":
                cells[(row_index, col_index)] = cell_text
    return cells


def manifest_to_json(manifest: dict) -> str:
    return json.dumps(manifest, indent=2) + "\n"


def write_outputs(result: EmitResult, out_dir) -> None:
    """Write per-sheet CSVs and the manifest (UTF-8, LF line endings)."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for sheet, cells in result.formulas.items():
        (out / f"{sheet}.formulas.csv").write_text(grid_to_csv(cells),
                                                   encoding="utf-8", newline="")
    for sheet, cells in result.values.items():
        (out / f"{sheet}.values.csv").write_text(grid_to_csv(cells),
                                                 encoding="utf-8", newline="")
    (out / "manifest.json").write_text(manifest_to_json(result.manifest),
                                       encoding="utf-8", newline="")
