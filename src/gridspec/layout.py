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
import datetime
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, product, repeat
from operator import itemgetter, mul

from .a1 import MAX_COLUMNS, MAX_ROWS, cached_column_letters, column_letters, sheet_prefix
from .analyzer import CellId, CellPlan, Stencil, SymbolTable, runs
from .ast import (
    Binary,
    BooleanLit,
    Call,
    Expr,
    Hole,
    IndexVar,
    NumberLit,
    SpecDocument,
    TableDecl,
    format_expr,
    format_number,
    print_expr,
)
from .errors import LayoutError
from .evaluator import (
    BLANK,
    NA,
    Value,
    expand_ref,  # not called here; perfbench/tracing.py counts calls through this name
)

MAIN_SHEET = "Model"


def humanize_caption(name: str) -> str:
    """Identifier to header text: underscores to spaces, first letter upper."""
    text = name.replace("_", " ")
    return text[:1].upper() + text[1:]


@dataclass
class Region:
    """A table's rectangle; `at` places each of its cells."""

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
    sizes = [bounds[dim][1] - bounds[dim][0] + 1 for dim in decl.dims]
    across = 1 if len(sizes) > 1 else 0
    return Region(sheet, top, left, math.prod(sizes[:across]), math.prod(sizes[across:]),
                  ("cell", "vertical", "block")[min(len(sizes), 2)], header_row)


@dataclass
class Layout:
    sheets: list[str]
    regions: dict[str, Region]
    caption_column: tuple[str, int, str] | None  # (sheet, column, source table)
    caption_rows: list[int] = field(default_factory=list)  # band start rows mirrored


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
                caption_table: str | None = None) -> Layout:
    """Assign every table a sheet, rectangle, and orientation.  The caption
    table is `caption_table`, by default a 1-D table named `time`, if any."""
    caption = _caption_table(caption_table, symtab)
    main_tables = [t for t in doc.elements
                   if isinstance(t, TableDecl) and (caption is None or t.name != caption.name)]
    bounds = symtab.bounds
    regions: dict[str, Region] = {}
    sheets = [MAIN_SHEET] if main_tables else []
    caption_column, caption_rows = None, []
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
            raise LayoutError(
                f"layout exceeds sheet extents at {region.sheet}!{region.a1_range()}")
    # a range is written as the rectangle from its first cell to its last,
    # so along the dimensions that run down rows, all but a block's first,
    # its `all` indices come last; MATCH searches one row or one column
    for stencil in chain.from_iterable(symtab.stencils.values()):
        for slot, (ref, indices, extent, ranged) in enumerate(stencil.refs):
            if not ranged:
                continue
            down = [i is None for i in (indices[1:] if len(indices) > 1 else indices)]
            if down != sorted(down):
                raise LayoutError(f"range {print_expr(ref)} is not one rectangle: its 'all' "
                                  "indices must come last among the dimensions down rows")
            wide = [i is None and high > low for i, (_, low, high) in zip(indices, extent.axes)]
            if len(wide) > 1 and wide[0] and any(wide[1:]) and slot in _searched(stencil.template):
                raise LayoutError(f"match range {print_expr(ref)} spans several rows and "
                                  "columns: MATCH searches one row or one column")
    return Layout(sheets, regions, caption_column, caption_rows)


def _searched(template: Expr) -> set[int]:
    """The slots of the ranges that the `match` calls of a template search."""
    slots, nodes = set(), [template]
    while nodes:
        node = nodes.pop()
        if type(node) is Binary:
            nodes += node.left, node.right
        elif type(node) is Call:
            nodes += node.args
            if node.func.lower() == "match" and len(node.args) > 1 and type(node.args[1]) is Hole:
                slots.add(node.args[1].slot)
    return slots


# --- formula rendering -----------------------------------------------------

def _template(stencil: Stencil, layout: Layout) -> tuple:
    """Stencil.template's formula as one %-format string, and its holes: for
    an index variable its number in Stencil.variables, formatted %d; for a
    reference its table's region and dense read (Stencil.reads), that
    is `first` less the table's base, the steps, the last step and for a
    range its last cell's offset (None for one cell), each end formatted
    %s%d, column letters and row, after the sheet prefix it needs."""
    reads, home = stencil.reads, layout.regions[stencil.equation.table].sheet
    holes = []

    def leaf(expr: Expr) -> str:
        if isinstance(expr, NumberLit):
            return format_number(expr.value)
        if isinstance(expr, BooleanLit):
            return "TRUE" if expr.value else "FALSE"
        if isinstance(expr, Call):
            return expr.func.upper()
        if isinstance(expr, IndexVar):
            holes.append(list(stencil.variables).index(expr.name))
            return "%d"
        ref, _, extent, _ = stencil.refs[expr.slot]
        first, steps, offsets = reads[expr.slot]
        region = layout.regions[ref.table]
        holes.append((region, first - extent.base, steps, steps[-1] if steps else 0,
                      offsets and offsets[-1]))
        prefix = "" if region.sheet == home else sheet_prefix(region.sheet).replace("%", "%%")
        return prefix + ("%s%d" if offsets is None else "%s%d:%s%d")  # ranges are rectangles

    return "=" + format_expr(stencil.template, leaf, pad=""), tuple(holes)


def _format_run(template: tuple, outer: tuple, inner: range) -> list[str]:
    """Formulas of a run of one equation's cells (see _template): the index
    variables take the values `outer` but the last, which takes each of
    `inner`, so a reference reads cells `first + sum(step * value)`, `step`
    apart, and a range each to its last offset on.  They are placed as
    Region.at places them: by arithmetic in one row or one column, else one
    by one; column letters come from a1.cached_column_letters."""
    letters = cached_column_letters
    text, holes = template
    count, fields = len(inner), []
    for hole in holes:
        if type(hole) is int:
            fields.append(repeat(outer[hole], count) if hole < len(outer) else inner)
            continue
        region, first, steps, step, last = hole
        first += sum(map(mul, steps, outer)) + step * inner.start
        across, down = divmod(step, region.height)
        for number in (first,) if last is None else (first, first + last):
            column, row = region.at(number)
            if not down:  # one row
                fields += (map(letters, range(column, column + across * count, across))
                           if across else repeat(letters(column), count)), repeat(row, count)
            elif count == 1 or region.at(number + step * (count - 1))[0] == column:
                fields += repeat(letters(column), count), range(row, row + step * count, step)
            else:
                columns, rows = zip(*map(region.at, range(number, number + step * count, step)))
                fields += map(letters, columns), rows
    return list(map(text.__mod__, zip(*fields))) if fields else [text % ()] * count


def render_formula(cell: CellId, plan: CellPlan, layout: Layout) -> str:
    """Render a derived cell's equation as an A1 formula for its sheet; the
    equation is that of the box which covers the cell's dense number."""
    stencil = plan.owner[plan.symtab.extents[cell.table].number(cell.indices)].stencil
    dims = stencil.variables.values()
    *outer, last = [cell.indices[d] for d in dims] or [0]  # no variables: one cell
    return _format_run(_template(stencil, layout), outer, range(last, last + 1))[0]


# --- value rendering and emission ------------------------------------------

def _currency_text(value: float) -> str:
    """A currency number to two decimals where that is exact, -0 as 0.00."""
    text = f"{value + 0.0:.2f}"  # adding 0.0 turns -0 into 0
    return text if float(text) == value else format_number(value)


def render_value(value: Value) -> str:
    """Machine-readable value text that reads back as the same value: a
    number in positional notation, booleans TRUE/FALSE, NA as #N/A, dates
    ISO, blanks empty.  A number of a currency table is written by
    _value_texts, see _currency_text."""
    kind = type(value)
    if kind is float:
        return format_number(value)
    if kind is bool:
        return "TRUE" if value else "FALSE"
    if kind is datetime.date:
        return value.isoformat()
    if value is BLANK or value is NA:
        return "" if value is BLANK else "#N/A"
    raise TypeError(f"unrenderable value: {value!r}")


def _value_texts(name: str, symtab: SymbolTable, values: list[Value]) -> list[str]:
    """A table's value texts by dense number (see render_value)."""
    extent, currency = symtab.extents[name], symtab.tables[name].result_type == "currency"
    number = _currency_text if currency else format_number
    return [number(value) if type(value) is float else render_value(value)
            for value in values[extent.base:extent.base + extent.size]]


def _put(grids: tuple, texts: tuple, top: int, left: int, height: int) -> None:
    """Write each of `texts`, by dense number, into its one of `grids`, `height` to
    a column from (`top`, `left`) on; empty texts stay out, and the grids share keys."""
    keys = [(row, column) for column in range(left, left + len(texts[0]) // height)
            for row in range(top, top + height)]
    for grid, cell_texts in zip(grids, texts):
        grid.update(filter(itemgetter(1), zip(keys, cell_texts)))


Grid = dict[str, dict[tuple[int, int], str]]  # sheet -> (row, column) -> text


@dataclass
class EmitResult:
    formulas: Grid
    values: Grid
    manifest: dict


def emit(layout: Layout, plan: CellPlan, values: list[Value], doc: SpecDocument) -> EmitResult:
    """Produce the formula grid, the parallel values grid, and the manifest
    from every cell's value, inputs included, by dense number, as
    `evaluate` gives them."""
    symtab = plan.symtab
    formulas: Grid = {sheet: {} for sheet in layout.sheets}
    value_doc: Grid = {sheet: {} for sheet in layout.sheets}

    # headers
    for name, region in layout.regions.items():
        key = region.header_row, region.left
        formulas[region.sheet][key] = value_doc[region.sheet][key] = humanize_caption(name)

    # caption column: header plus copied values next to matching bands
    if layout.caption_column is not None:
        sheet, column, source = layout.caption_column
        formulas[sheet][1, column] = value_doc[sheet][1, column] = humanize_caption(source)
        texts = _value_texts(source, symtab, values)
        for band_top in layout.caption_rows:
            _put((formulas[sheet], value_doc[sheet]), (texts, texts), band_top, column, len(texts))

    # table cells, a box's formulas a run at a time; an input cell's formula is its value
    for name in symtab.tables:
        region, base = layout.regions[name], symtab.extents[name].base
        templates = {}  # each stencil of the table that covers a cell -> its _template
        texts = _value_texts(name, symtab, values)
        cell_formulas = texts.copy() if name in plan.boxes else texts
        for box in plan.boxes.get(name, ()):
            if box.stencil not in templates:
                templates[box.stencil] = _template(box.stencil, layout)
            *outer, inner = box.spans or (range(1),)
            # a run: `fixed` outer values, and the offsets of its cells
            for fixed, run in zip(product(*outer), runs(box.spans, box.first - base, box.steps)):
                cell_formulas[run.start:run.stop:run.step] = _format_run(
                    templates[box.stencil], fixed, inner)
        _put((formulas[region.sheet], value_doc[region.sheet]), (cell_formulas, texts),
             region.top, region.left, region.height)

    manifest = build_manifest(layout, symtab, doc)
    return EmitResult(formulas, value_doc, manifest)


def build_manifest(layout: Layout, symtab: SymbolTable, doc: SpecDocument) -> dict:
    comments = _attach_comments(doc)
    tables = []
    for name, decl in symtab.tables.items():
        region = layout.regions[name]
        tables.append({"name": name, "sheet": region.sheet, "rectangle": region.a1_range(),
                       "orientation": region.orientation, "result_type": decl.result_type,
                       "class": "input" if symtab.is_input(name) else "derived",
                       "comment": comments.get(name, "")})
    entry = {"sheets": layout.sheets, "tables": tables}
    if layout.caption_column is not None:
        sheet, column, source = layout.caption_column
        entry["caption_column"] = {
            "sheet": sheet, "column": column_letters(column), "source": source}
    return entry


def _attach_comments(doc: SpecDocument) -> dict[str, str]:
    """Attach each comment to the table declared most recently before it:
    bisect its offset into the tables' offsets, so a table that starts at
    a comment's offset takes it."""
    decls = sorted([e for e in doc.elements if isinstance(e, TableDecl)],
                   key=lambda decl: decl.pos.offset)
    starts = [decl.pos.offset for decl in decls]
    attached: dict[str, list[str]] = {}
    for comment in doc.comments:
        if k := bisect_right(starts, comment.pos.offset):
            attached.setdefault(decls[k - 1].name, []).append(comment.text)
    return {name: "\n".join(lines) for name, lines in attached.items()}


# --- serialization ---------------------------------------------------------

def grid_to_csv(cells: dict[tuple[int, int], str]) -> str:
    """Render one sheet's sparse cells as a rectangular RFC-4180 CSV."""
    if not cells:
        return ""
    width = max(map(itemgetter(1), cells))
    rows = [[""] * width for _ in range(max(cells)[0])]
    for (row, column), text in cells.items():
        rows[row - 1][column - 1] = text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def csv_to_grid(text: str) -> dict[tuple[int, int], str]:
    return {(row, column): cell_text
            for row, record in enumerate(csv.reader(io.StringIO(text)), start=1)
            for column, cell_text in enumerate(record, start=1) if cell_text}


def manifest_to_json(manifest: dict) -> str:
    return json.dumps(manifest, indent=2) + "\n"


def write_outputs(result: EmitResult, out_dir) -> None:
    """Write per-sheet CSVs and the manifest (UTF-8, LF line endings)."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for kind, grid in (("formulas", result.formulas), ("values", result.values)):
        for sheet, cells in grid.items():
            (out / f"{sheet}.{kind}.csv").write_text(grid_to_csv(cells), encoding="utf-8",
                                                     newline="")
    (out / "manifest.json").write_text(manifest_to_json(result.manifest),
                                       encoding="utf-8", newline="")
