"""Grid layout, A1 formula rendering, and emission of the output documents.

One axis rule places every table: a table of two or more dimensions runs
its first dimension across contiguous columns, which is what makes MATCH
and SUM ranges possible, and its other dimensions down rows in row-major
order; any other table runs down one column (a 0-D table is one cell).
So a cell's column and row are each linear in its indices.

Tables are grouped into row bands by their dimension signature, in order
of first appearance, and 0-D tables join the first band: all tables over
the same bounds tuple share data rows, so one period lies on one row
everywhere within a band.  Each band is a header row, one spare row
(zero-dimensional tables live there), and the data rows; successive
bands are separated by a single blank row.

The caption table (by default a 1-D table named `time`, if any; it must
have one dimension) is placed on its own sheet and its values are copied
(not referenced) into column A of the main sheet alongside every band
whose last dimension is the caption's.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from operator import mul

from .a1 import MAX_COLUMNS, MAX_ROWS, Address, column_letters, sheet_prefix
from .analyzer import CellId, CellPlan, SymbolTable
from .ast import (
    BooleanLit,
    Call,
    Comment,
    EquationDecl,
    Expr,
    IndexVar,
    NumberLit,
    SpecDocument,
    TableDecl,
    element_refs,
    format_expr,
    format_number,
    print_expr,
)
from .errors import LayoutError, LayoutOverflow, UnmappedCell
from .evaluator import (
    BLANK,
    Blank,
    Boolean,
    DateValue,
    NAError,
    Number,
    Value,
    expand_ref,  # not called here; perfbench/tracing.py counts calls through this name
)

MAIN_SHEET = "Model"


def humanize_caption(name: str) -> str:
    """Identifier to header text: underscores to spaces, first letter upper."""
    text = name.replace("_", " ")
    return text[:1].upper() + text[1:]


@dataclass
class LayoutOptions:
    caption_table: str | None = None  # default: a 1-D table named "time", if any


@dataclass
class Region:
    """A table's rectangle.  The cell at `indices` lies in column
    origin[0] + sum(indices[k] * column_steps[k]) and in row
    origin[1] + sum(indices[k] * row_steps[k])."""

    sheet: str
    top: int          # first data row
    left: int         # first column
    width: int
    height: int
    orientation: str  # cell | vertical | block
    header_row: int
    column_steps: tuple[int, ...]  # columns moved by one step along each dimension
    row_steps: tuple[int, ...]     # rows moved by one step along each dimension
    origin: tuple[int, int]        # (column, row) that all-zero indices would take

    @property
    def bottom(self) -> int:
        return self.top + self.height - 1

    @property
    def right(self) -> int:
        return self.left + self.width - 1

    def place(self, indices: tuple[int, ...]) -> tuple[int, int]:
        """(column, row) of the cell at `indices`."""
        column, row = self.origin
        return (column + sum(map(mul, indices, self.column_steps)),
                row + sum(map(mul, indices, self.row_steps)))

    def at(self, offset: int) -> tuple[int, int]:
        """(column, row) of the table's cell `offset` places after its first
        in row-major index order, as dense cell numbers run: the first
        dimension of a block runs across and the others down."""
        column, row = divmod(offset, self.height)
        return self.left + column, self.top + row

    def a1_range(self) -> str:
        first = f"{column_letters(self.left)}{self.top}"
        if self.width == 1 and self.height == 1:
            return first
        return f"{first}:{column_letters(self.right)}{self.bottom}"


def _place(decl: TableDecl, bounds: dict[str, tuple[int, int]], sheet: str,
           top: int, left: int, header_row: int) -> Region:
    """The region of `decl` whose first cell is at (`top`, `left`), by the
    axis rule: with two or more dimensions the first runs across columns;
    the others run down rows, the last fastest."""
    lows = [bounds[dim][0] for dim in decl.dims]
    sizes = [bounds[dim][1] - low + 1 for dim, low in zip(decl.dims, lows)]
    across = 1 if len(sizes) > 1 else 0
    down = sizes[across:]
    column_steps = (1,) * across + (0,) * len(down)
    row_steps = (0,) * across + tuple(math.prod(down[k + 1:]) for k in range(len(down)))
    return Region(sheet, top, left, math.prod(sizes[:across]), math.prod(down),
                  ("cell", "vertical", "block")[min(len(sizes), 2)], header_row,
                  column_steps, row_steps,
                  (left - sum(map(mul, lows, column_steps)), top - sum(map(mul, lows, row_steps))))


@dataclass
class Layout:
    sheets: list[str]
    regions: dict[str, Region]
    caption_column: tuple[str, int, str] | None  # (sheet, column, source table)
    caption_rows: list[int] = field(default_factory=list)  # band start rows mirrored

    def cell_address(self, cell: CellId) -> Address:
        region = self.regions.get(cell.table)
        if region is None:
            raise UnmappedCell(str(cell))
        return Address(region.sheet, *region.place(cell.indices))


def _caption_table(name: str | None, symtab: SymbolTable) -> TableDecl | None:
    """The caption table: `name`, or else `time` if it is declared with one
    dimension.  A named one must have one dimension and not the main sheet's name."""
    decl = symtab.tables.get("time" if name is None else name)
    if decl is not None and len(decl.dims) == 1:
        # sheet names are file names, and some file systems ignore case
        if humanize_caption(decl.name).lower() == MAIN_SHEET.lower():
            raise LayoutError(f"caption table '{decl.name}' is named like the main sheet")
        return decl
    if name is not None:
        raise LayoutError(f"caption table '{name}' is not a declared table of one dimension")
    return None


def plan_layout(doc: SpecDocument, symtab: SymbolTable,
                options: LayoutOptions | None = None) -> Layout:
    """Assign every table a sheet, rectangle, and orientation."""
    options = options or LayoutOptions()
    caption = _caption_table(options.caption_table, symtab)
    main_tables = [t for t in doc.elements
                   if isinstance(t, TableDecl) and (caption is None or t.name != caption.name)]
    bounds = symtab.bounds
    regions: dict[str, Region] = {}
    sheets = [MAIN_SHEET] if main_tables else []
    caption_column = None
    caption_rows: list[int] = []
    if caption is not None:
        sheets.append(humanize_caption(caption.name))
        regions[caption.name] = _place(caption, bounds, sheets[-1], 3, 1, 1)
        if main_tables:
            caption_column = (MAIN_SHEET, 1, caption.name)

    # one band per dimension signature, in order of first appearance; 0-D
    # tables join the first band, in declaration order
    first_signature = next((t.dims for t in main_tables if t.dims), ())
    bands: dict[tuple[str, ...], list[TableDecl]] = {}
    for decl in main_tables:
        bands.setdefault(decl.dims or first_signature, []).append(decl)

    header_row = 1
    for signature, members in bands.items():
        data_row = header_row + 2  # below the header row and the spare row
        column = 2 if caption_column else 1
        for decl in members:
            # a 0-D table sits in the spare row
            region = _place(decl, bounds, MAIN_SHEET, data_row if decl.dims else data_row - 1,
                            column, header_row)
            regions[decl.name] = region
            column += region.width + (region.width > 1)  # blank column after a block
        if caption is not None and signature[-1:] == caption.dims:
            caption_rows.append(data_row)
        # one blank row between bands
        header_row = max(regions[decl.name].bottom for decl in members) + 2

    for region in regions.values():
        if region.right > MAX_COLUMNS or region.bottom > MAX_ROWS:
            raise LayoutOverflow(
                f"layout exceeds sheet extents at {region.sheet}!{region.a1_range()}")
    # a range is written as the rectangle from its first cell to its last,
    # so along the dimensions that run down rows its `all` indices come last
    for stencil in symtab.stencils.values():
        for slot, (table, indices, _, ranged) in zip(stencil.slots, stencil.refs):
            if not ranged:
                continue
            down = [i is None for i, step in zip(indices, regions[table].row_steps) if step]
            if down != sorted(down):
                ref = next(ref for e in doc.elements if isinstance(e, EquationDecl)
                           for ref in element_refs(e.rhs) if id(ref) == slot)
                raise LayoutError(f"range {print_expr(ref)} is not one rectangle: its 'all' "
                                  "indices must come last among the dimensions down rows")
    return Layout(sheets, regions, caption_column, caption_rows)


# --- formula rendering -----------------------------------------------------

def _template(equation, symtab: SymbolTable, layout: Layout) -> tuple:
    """An equation's formula text split at its holes: the dimensions its
    index variables bind, the text before the first hole, then each hole
    with the text after it.  A hole is the dimension whose index an index
    variable takes or, for an element reference, the sheet prefix it needs
    on the equation's sheet, its table's region and its stencil's dense
    read (SymbolTable.reads): `first` less the table's base, the steps, and
    for a range the offset of its last cell (None for one cell)."""
    stencil = symtab.stencils[id(equation)]
    reads = symtab.reads[id(equation)]
    home = layout.regions[equation.table].sheet
    holes = []

    def leaf(expr: Expr) -> str:
        if isinstance(expr, NumberLit):
            return format_number(expr.value)
        if isinstance(expr, BooleanLit):
            return "TRUE" if expr.value else "FALSE"
        if isinstance(expr, Call):
            return expr.func.upper()
        if isinstance(expr, IndexVar):
            holes.append(stencil.variables[expr.name])
        else:
            slot = stencil.slots.index(id(expr))
            table, _, extent, _ = stencil.refs[slot]
            first, steps, offsets = reads[slot]
            region = layout.regions[table]
            holes.append(("" if region.sheet == home else sheet_prefix(region.sheet), region,
                          first - extent.base, steps, offsets and offsets[-1]))
        return "\0"  # no other text of a formula holds it

    head, *parts = ("=" + format_expr(equation.rhs, leaf, pad="")).split("\0")
    return tuple(stencil.variables.values()), head, tuple(zip(holes, parts))


def _fill(template: tuple, indices: tuple[int, ...], letters) -> str:
    """A cell's formula from its equation's template, its indices and
    column_letters, `letters`.  A reference reads the cell `first + sum(step
    * value)` over the cell's index-variable values, and a range that cell
    and the one its last offset further on, placed by Region.at."""
    dims, head, holes = template
    values = [indices[d] for d in dims]
    texts = [head]
    for hole, text in holes:
        if type(hole) is int:
            texts.append(str(indices[hole]))
        else:
            prefix, region, first, steps, last = hole
            first += sum(map(mul, steps, values))
            # a range lists its cells row-major and plan_layout admits only
            # rectangles, so it is first:last, with the sheet before first only
            for number in (first,) if last is None else (first, first + last):
                column, row = region.at(number)
                texts += (prefix, letters(column), str(row))
                prefix = ":"
        texts.append(text)
    return "".join(texts)


def render_formula(cell: CellId, plan: CellPlan, layout: Layout) -> str:
    """Render a derived cell's equation as an A1 formula for its sheet; the
    equation is that of the box which covers the cell's dense number."""
    extent = plan.symtab.extents[cell.table]
    box = plan.owner[extent.origin + sum(map(mul, cell.indices, extent.strides))]
    return _fill(_template(box.equation, plan.symtab, layout), cell.indices, column_letters)


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

    # table cells; an equation's template serves the cells of its table only
    letters = functools.cache(column_letters)
    cells = symtab.cells
    for name, decl in symtab.tables.items():
        currency = decl.result_type == "currency"
        region = layout.regions[name]
        extent = symtab.extents[name]
        templates = {id(equation): _template(equation, symtab, layout)
                     for equation in symtab.equations_by_table.get(name, ())}
        for number in range(extent.base, extent.base + extent.size):
            cell, box = cells[number], plan.owner[number]
            column, row = region.at(number - extent.base)
            if box is None:
                text = render_value(inputs.get(cell, BLANK), currency)
                put(region.sheet, row, column, text, text)
            else:
                formula = _fill(templates[id(box.equation)], cell.indices, letters)
                put(region.sheet, row, column, formula, render_value(values[cell], currency))

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
