"""Seeded workload generators and reference checks for the benchmark.

Each generator returns a `Workload`: the `.gsx` source and input CSV the
compiler receives, the cell and formula counts predicted from the bounds,
and a `check` callable that reads an emitted directory back through its
manifest rectangles and compares every value it can against a reference
computed here, without calling into gridspec.

The sizes are fixed; the seed only draws input values and, for
`many_tables`, the table types, equations and references.  So every seed
does the same amount of work and timings from different seeds compare.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# loans_grid: 160 periods x 8 loans = 6,265 cells
LOANS_PERIODS = 160
LOANS_COUNT = 8
# cashflow_chain: 1,500 periods = 6,001 cells
CASHFLOW_PERIODS = 1500
# many_tables: 1,000 tables = 3,889 cells
TABLE_COUNT = 1000

NA_TEXT = "#N/A"
CENT = Fraction(1, 100)


class CheckFailed(AssertionError):
    """An emitted value disagrees with the benchmark's own reference."""


@dataclass
class Workload:
    name: str
    spec: str
    inputs: str
    cells: int       # predicted from the bounds
    formulas: int    # one per derived cell
    bounds: dict[str, tuple[int, int]]
    check: Callable[["Emitted"], None]
    # many_tables only: tables whose verify mismatches are expected
    mismatch_tables: frozenset[str] = field(default_factory=frozenset)
    notes: str = ""


# --- reading an emitted directory back --------------------------------------

_A1_RE = re.compile(r"([A-Z]+)(\d+)$")
_TABLE_RE = re.compile(r"^table (\w+) :([\w ]*)->", re.MULTILINE)


def _a1(text: str) -> tuple[int, int]:
    """'BC12' -> (row 12, column 55)."""
    letters, row = _A1_RE.match(text).groups()
    column = 0
    for ch in letters:
        column = column * 26 + ord(ch) - ord("A") + 1
    return int(row), column


class Emitted:
    """An emitted directory, read with the csv module and the manifest."""

    def __init__(self, out_dir: Path, workload: Workload):
        self.bounds = workload.bounds
        self.dims = {name: tuple(dims.split()) for name, dims in _TABLE_RE.findall(workload.spec)}
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        self.rects = {}
        for entry in manifest["tables"]:
            first, _, last = entry["rectangle"].partition(":")
            top, left = _a1(first)
            bottom, right = _a1(last or first)
            self.rects[entry["name"]] = (entry["sheet"], top, left, bottom, right)
        self.values = {s: _read_grid(out_dir / f"{s}.values.csv") for s in manifest["sheets"]}
        self.formulas = {s: _read_grid(out_dir / f"{s}.formulas.csv") for s in manifest["sheets"]}

    def _address(self, table: str, indices: tuple[int, ...]) -> tuple[str, int, int]:
        """The layout rule: 1-D tables run down, 2-D and 3-D tables put their
        first dimension across and the rest down in row-major order."""
        sheet, top, left, _, _ = self.rects[table]
        dims = self.dims[table]
        if not dims:
            return sheet, top, left
        if len(dims) == 1:
            return sheet, top + indices[0] - self.bounds[dims[0]][0], left
        offset = 0
        for dim, index in zip(dims[1:], indices[1:]):
            low, high = self.bounds[dim]
            offset = offset * (high - low + 1) + index - low
        return sheet, top + offset, left + indices[0] - self.bounds[dims[0]][0]

    def text(self, table: str, *indices: int) -> str:
        sheet, row, column = self._address(table, indices)
        return self.values[sheet].get((row, column), "")

    def number(self, table: str, *indices: int) -> float:
        text = self.text(table, *indices)
        try:
            return float(text)
        except ValueError:
            raise CheckFailed(f"{table}{list(indices)} holds {text!r}, not a number") from None

    def cells_in_rectangles(self) -> int:
        return sum((bottom - top + 1) * (right - left + 1)
                   for _, top, left, bottom, right in self.rects.values())

    def formulas_in_rectangles(self) -> int:
        count = 0
        for sheet, top, left, bottom, right in self.rects.values():
            grid = self.formulas[sheet]
            count += sum(1 for row in range(top, bottom + 1)
                         for column in range(left, right + 1)
                         if grid.get((row, column), "").startswith("="))
        return count

    def table_at(self, sheet: str, row: int, column: int) -> str | None:
        for name, (s, top, left, bottom, right) in self.rects.items():
            if s == sheet and top <= row <= bottom and left <= column <= right:
                return name
        return None


def _read_grid(path: Path) -> dict[tuple[int, int], str]:
    grid = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row, record in enumerate(csv.reader(handle), start=1):
            for column, text in enumerate(record, start=1):
                if text:
                    grid[(row, column)] = text
    return grid


def check_counts(workload: Workload, emitted: Emitted) -> None:
    cells = emitted.cells_in_rectangles()
    formulas = emitted.formulas_in_rectangles()
    if (cells, formulas) != (workload.cells, workload.formulas):
        raise CheckFailed(f"{workload.name}: {cells} cells and {formulas} formulas "
                          f"emitted, {workload.cells} and {workload.formulas} predicted")


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _expect_currency(emitted: Emitted, exact, table: str, *indices: int) -> None:
    """Currency documents hold values rounded to cents."""
    got = emitted.number(table, *indices)
    _expect(abs(Fraction(got) - Fraction(exact)) <= CENT / 2 + Fraction(1, 10**9),
            f"{table}{list(indices)} holds {got}, reference {float(exact)}")


def _money(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    return f"{sign}{abs(cents) // 100}.{abs(cents) % 100:02d}"


def _csv(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# --- loans_grid ---------------------------------------------------------------

# The loans fixture with its bounds as parameters.  `date( 2009, t, 1 )`
# faults for t > 12, so a period here is a year.
LOANS_SPEC = """\
-- Cash flow plus a fixed set of loans. Each loan is like a credit
-- card: the user may borrow at any time as long as the total borrowed
-- from it does not exceed its ceiling. Borrowing is satisfied by the
-- first loan able to supply what the user wants.

bounds time_span: 1 to @PERIODS@.

table time : time_span -> date.

-- time[t] is the date of the first day of period t; a period is a
-- year, so the rule holds for thousands of periods.

time[ t ] =
  date( 2008 + t, 1, 1 ).

table expenses_during_period : time_span -> currency.
table initial_cash : -> currency.
table total_cash_at_start_of_period : time_span -> currency.
table total_cash_at_end_of_period : time_span -> currency.
table want_to_borrow_during_period : time_span -> currency.
table actually_borrowed_during_period : time_span -> currency.
table first_that_can_supply_wants : time_span -> general.

-- first_that_can_supply_wants[t] is the first l for which
-- can_supply_wants[l,t] holds, or #N/A if no loan can.

bounds loans_span: 1 to @LOANS@.

table has_ceiling : loans_span -> boolean.
table ceiling : loans_span -> currency.
table initial_loan : loans_span -> currency.
table can_supply_wants : loans_span time_span -> boolean.
table lent_during_period : loans_span time_span -> currency.
table total_loan_at_start_of_period : loans_span time_span -> currency.
table total_loan_at_end_of_period : loans_span time_span -> currency.

total_cash_at_start_of_period[ 1 ] =
  initial_cash[].

total_cash_at_start_of_period[ t>1 ] =
  total_cash_at_end_of_period[ t-1 ].

total_cash_at_end_of_period[ t ] =
  total_cash_at_start_of_period[ t ] -
  expenses_during_period[ t ] +
  actually_borrowed_during_period[ t ].

total_loan_at_start_of_period[ l, 1 ] =
  initial_loan[ l ].

total_loan_at_start_of_period[ l, t>1 ] =
  total_loan_at_end_of_period[ l, t-1 ].

total_loan_at_end_of_period[ l, t ] =
  total_loan_at_start_of_period[ l, t ] + lent_during_period[ l, t ].

can_supply_wants[ l, t ] =
  or( not( has_ceiling[l] )
    , want_to_borrow_during_period[t] +
      total_loan_at_start_of_period[l,t] <= ceiling[l]
    ).

first_that_can_supply_wants[ t ] =
  match( true, can_supply_wants[ all, t ], 0 ).

lent_during_period[ l, t ] =
  if( isna( first_that_can_supply_wants[t] )
    , 0
    , if( l = first_that_can_supply_wants[ t ]
      , want_to_borrow_during_period[ t ]
      , 0
      )
    ).

actually_borrowed_during_period[ t ] =
  sum( lent_during_period[ all, t ] ).
"""


def simulate_loans(wants, ceilings, initial_loans):
    """Forward simulation of first-eligible-loan lending.

    Works on the same IEEE doubles the model's formulas compute with, in
    the same order, so a `<=` at a ceiling decides the same way.  Returns
    the supplier of each period (None for #N/A) and each loan's running
    totals at the end of every period."""
    totals = list(initial_loans)
    firsts, ends = [], []
    for want in wants:
        first = None
        for loan, ceiling in enumerate(ceilings):
            if want + totals[loan] <= ceiling:
                first = loan + 1
                break
        if first is not None:
            totals[first - 1] = totals[first - 1] + want
        firsts.append(first)
        ends.append(list(totals))
    return firsts, ends


def loans_grid(seed: int) -> Workload:
    """Inputs in cents; about a tenth of the wants are left blank.

    Ceilings are redrawn until every loan lends in some period and at
    least one period has no supplier, so `match` finds every position
    and `#N/A` reaches `isna`."""
    periods, loans = LOANS_PERIODS, LOANS_COUNT
    rng = random.Random(f"loans_grid/{seed}")
    initial_cash = rng.randint(100_000, 1_000_000)
    expenses = [rng.randint(0, 50_000) for _ in range(periods)]
    want_cents = [rng.randint(1_000, 100_000) if rng.random() < 0.9 else None
                  for _ in range(periods)]
    wants = [0.0 if c is None else float(_money(c)) for c in want_cents]
    capacity = sum(c or 0 for c in want_cents) * 3 // (4 * loans)
    while True:
        ceiling_cents = [rng.randint(capacity // 2, capacity * 3 // 2) for _ in range(loans)]
        initial_cents = [rng.randint(0, c // 10) for c in ceiling_cents]
        ceilings = [float(_money(c)) for c in ceiling_cents]
        initial = [float(_money(c)) for c in initial_cents]
        firsts, ends = simulate_loans(wants, ceilings, initial)
        lenders = {f for f, w in zip(firsts, wants) if f is not None and w > 0}
        if len(lenders) == loans and None in firsts:
            break

    rows = [["initial_cash", _money(initial_cash)]]
    rows += [["expenses_during_period", t, _money(c)] for t, c in enumerate(expenses, 1)]
    rows += [["want_to_borrow_during_period", t, _money(c)]
             for t, c in enumerate(want_cents, 1) if c is not None]
    for loan in range(loans):
        rows += [["has_ceiling", loan + 1, "true"],
                 ["ceiling", loan + 1, _money(ceiling_cents[loan])],
                 ["initial_loan", loan + 1, _money(initial_cents[loan])]]

    def check(emitted: Emitted) -> None:
        cash = Fraction(initial_cash, 100)
        previous = list(initial)
        for t in range(1, periods + 1):
            _expect(emitted.text("time", t) == f"{2008 + t}-01-01", f"time[{t}]")
            first = firsts[t - 1]
            got = emitted.text("first_that_can_supply_wants", t)
            _expect(got == (NA_TEXT if first is None else str(first)),
                    f"first_that_can_supply_wants[{t}] holds {got!r}, simulation {first}")
            lent = [emitted.number("lent_during_period", loan, t)
                    for loan in range(1, loans + 1)]
            borrowed = emitted.number("actually_borrowed_during_period", t)
            # conservation: what the loans lent is what the user borrowed
            _expect(abs(sum(lent) - borrowed) <= 0.01,
                    f"period {t}: loans lent {sum(lent)}, user borrowed {borrowed}")
            expected_borrowed = 0.0 if first is None else wants[t - 1]
            _expect_currency(emitted, expected_borrowed, "actually_borrowed_during_period", t)
            cash += Fraction(expected_borrowed) - Fraction(expenses[t - 1], 100)
            _expect_currency(emitted, cash, "total_cash_at_end_of_period", t)
            for loan in range(1, loans + 1):
                total = ends[t - 1][loan - 1]
                _expect_currency(emitted, total, "total_loan_at_end_of_period", loan, t)
                _expect_currency(emitted, previous[loan - 1],
                                 "total_loan_at_start_of_period", loan, t)
                # ceiling safety: no loan ever exceeds its ceiling
                _expect(emitted.number("total_loan_at_end_of_period", loan, t)
                        <= ceilings[loan - 1] + 0.005,
                        f"loan {loan} over its ceiling in period {t}")
            previous = ends[t - 1]

    return Workload(
        name="loans_grid",
        spec=LOANS_SPEC.replace("@PERIODS@", str(periods)).replace("@LOANS@", str(loans)),
        inputs=_csv(rows),
        cells=periods * (7 + 4 * loans) + 3 * loans + 1,
        formulas=periods * (5 + 4 * loans),
        bounds={"time_span": (1, periods), "loans_span": (1, loans)},
        check=check,
        notes=f"{periods} periods x {loans} loans; "
              f"{sum(f is None for f in firsts)} periods without a supplier")


# --- cashflow_chain -----------------------------------------------------------

CASHFLOW_SPEC = """\
-- Cash-flow forecast over @PERIODS@ yearly periods: one dependency
-- chain through every period.

bounds time_span: 1 to @PERIODS@.

table time : time_span -> date.

-- time[t] is the date of the first day of period t; a period is a
-- year, so the rule holds for thousands of periods.

time[ t ] =
  date( 2008 + t, 1, 1 ).

table expenses_during_period : time_span -> currency.

-- expenses_during_period[t] is the expenses incurred during period t.
-- This will be input by the user.

table initial_cash : -> currency.

-- initial_cash[] is the opening cash balance.
-- This will be input by the user.

table total_cash_at_start_of_period : time_span -> currency.
table total_cash_at_end_of_period : time_span -> currency.

total_cash_at_start_of_period[ 1 ] =
  initial_cash[].

total_cash_at_start_of_period[ t>1 ] =
  total_cash_at_end_of_period[ t-1 ].

total_cash_at_end_of_period[ t ] =
  total_cash_at_start_of_period[ t ] - expenses_during_period[ t ].
"""


def cashflow_chain(seed: int) -> Workload:
    periods = CASHFLOW_PERIODS
    rng = random.Random(f"cashflow_chain/{seed}")
    initial_cash = rng.randint(100_000, 10_000_000)
    expenses = [rng.randint(0, 50_000) for _ in range(periods)]
    rows = [["initial_cash", _money(initial_cash)]]
    rows += [["expenses_during_period", t, _money(c)] for t, c in enumerate(expenses, 1)]

    def check(emitted: Emitted) -> None:
        # closed form: end[t] = initial - sum(expenses[1..t]), in exact cents
        balance = initial_cash
        for t in range(1, periods + 1):
            _expect(emitted.text("time", t) == f"{2008 + t}-01-01", f"time[{t}]")
            _expect_currency(emitted, Fraction(balance, 100),
                             "total_cash_at_start_of_period", t)
            balance -= expenses[t - 1]
            _expect_currency(emitted, Fraction(balance, 100),
                             "total_cash_at_end_of_period", t)

    return Workload(
        name="cashflow_chain",
        spec=CASHFLOW_SPEC.replace("@PERIODS@", str(periods)),
        inputs=_csv(rows),
        cells=4 * periods + 1,
        formulas=3 * periods,
        bounds={"time_span": (1, periods)},
        check=check,
        notes=f"{periods} periods")


# --- many_tables --------------------------------------------------------------

# Fixed bounds, one to three wide, and the dimension signatures the
# tables take in turn.  Zero-dimensional tables are inputs only, since
# a derived table needs a dimension to be piecewise.
TABLE_BOUNDS = {"p": (1, 2), "q": (1, 3), "r": (1, 1)}
SIGNATURES = [("p",), ("q",), ("p", "q"), ("r",), ("q", "p"), ("q", "r", "p")]
VARIABLES = ("i", "j", "k")
BUDGET = "annual_budget"
BUDGET_CENTS = 100_000  # not drawn from the seed: 1000.00 / 3, 7 or 12 is never whole cents
WORDS = ("staff", "rent", "power", "fleet", "stock", "travel", "audit", "legal",
         "grant", "loan", "tax", "fees", "sales", "refund", "bonus", "levy")

# Partitions of a dimension's indices 1.. into pieces.  Each piece is a
# pattern: ("const", c), ("var",) or ("guard", comparator, bound).
# Every partition covers every index >= 1 exactly once.
PARTITIONS_2 = [[("const", 1), ("guard", ">", 1)],
                [("const", 2), ("guard", "<>", 2)],
                [("guard", "<", 3), ("guard", ">=", 3)]]
PARTITIONS_3 = [[("const", 1), ("const", 2), ("guard", ">", 2)],
                [("guard", "<", 2), ("const", 2), ("guard", ">=", 3)],
                [("guard", "<=", 2), ("const", 3), ("guard", ">", 3)]]
PARTITIONS_4 = [[("const", 1), ("const", 2), ("const", 3), ("guard", ">", 3)]]

_GUARDS = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
           ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
           "<>": lambda a, b: a != b}

MAX_LEVEL = 4  # longest chain of derived tables, so values stay far below 1e15


@dataclass
class _Table:
    name: str
    dims: tuple[str, ...]
    type: str                  # number | currency
    kind: str                  # input | derived | dividing | reader
    level: int = 0
    equations: list = field(default_factory=list)  # [(patterns, rhs)]
    values: dict = field(default_factory=dict)     # indices -> Fraction


def _covers(pattern, index: int) -> bool:
    if pattern[0] == "const":
        return pattern[1] == index
    if pattern[0] == "var":
        return True
    return _GUARDS[pattern[1]](index, pattern[2])


def _lowest(pattern) -> int:
    """The lowest index >= 1 a pattern can match."""
    return next(i for i in range(1, 5) if _covers(pattern, i))


def _pattern_text(pattern, var: str) -> str:
    if pattern[0] == "const":
        return str(pattern[1])
    if pattern[0] == "var":
        return var
    return f"{var}{pattern[1]}{pattern[2]}"


def _index_text(pattern, var: str, back: int = 0) -> str:
    if pattern[0] == "const":
        return str(pattern[1] - back)
    return f"{var}-{back}" if back else var


def _cells(dims):
    cells = [()]
    for dim in dims:
        low, high = TABLE_BOUNDS[dim]
        cells = [c + (i,) for c in cells for i in range(low, high + 1)]
    return cells


class _ManyTables:
    """Draws the tables, writes the spec, and evaluates it itself."""

    def __init__(self, seed: int, count: int):
        self.rng = random.Random(f"many_tables/{seed}")
        self.tables: list[_Table] = []
        self.by_name: dict[str, _Table] = {}
        self.by_signature: dict[tuple[str, ...], list[_Table]] = {s: [] for s in SIGNATURES}
        budget = _Table(BUDGET, (), "currency", "input")
        budget.values[()] = Fraction(BUDGET_CENTS, 100)
        self.scalars = [budget]
        self.add(budget)
        for slot in range(1, count):
            self.add(self.draw(slot))

    def add(self, table: _Table) -> None:
        self.tables.append(table)
        self.by_name[table.name] = table

    def name(self, slot: int) -> str:
        return f"{self.rng.choice(WORDS)}_{self.rng.choice(WORDS)}_{slot:04d}"

    def draw(self, slot: int) -> _Table:
        if slot % 50 == 0:
            table = _Table(self.name(slot), (), self.rng.choice(("number", "currency")), "input")
            self.fill_input(table)
            self.scalars.append(table)
            return table
        signature = SIGNATURES[slot % len(SIGNATURES)]
        if slot % 40 == 7:
            table = _Table(f"split_{slot:04d}", signature, "currency", "dividing", level=1)
        elif slot % 40 == 8:
            # reads the dividing table drawn just before it
            table = _Table(f"split_reader_{slot:04d}", self.tables[-1].dims, "currency",
                           "reader", level=2)
        elif slot % 4 == 1:
            table = _Table(self.name(slot), signature,
                           self.rng.choice(("number", "currency")), "input")
        else:
            table = _Table(self.name(slot), signature,
                           self.rng.choice(("number", "currency")), "derived")
        if table.kind == "input":
            self.fill_input(table)
        else:
            self.draw_equations(table)
            self.evaluate(table)
        self.by_signature[table.dims].append(table)
        return table

    def fill_input(self, table: _Table) -> None:
        """Integers for number tables, cents for currency; some cells blank."""
        for cell in _cells(table.dims):
            if self.rng.random() < 0.05:
                continue
            if table.type == "currency":
                table.values[cell] = Fraction(self.rng.randint(-100_000, 100_000), 100)
            else:
                table.values[cell] = Fraction(self.rng.randint(-1000, 1000))

    def readable(self, table: _Table) -> list[_Table]:
        """Earlier tables a derived table may read.  Currency tables read
        only cent-valued tables, so rounding to cents in the document
        changes nothing they compute; no table reads a dividing table
        except its reader, nor a reader."""
        found = []
        for other in self.by_signature[table.dims]:
            if other.kind in ("dividing", "reader") or other.level >= MAX_LEVEL:
                continue
            if table.type == "currency" and other.type == "number" and other.kind != "input":
                continue
            found.append(other)
        return found[-24:]

    def draw_equations(self, table: _Table) -> None:
        rng = self.rng
        dims = table.dims
        widths = [TABLE_BOUNDS[d][1] for d in dims]
        pieces = rng.choice((2, 3, 4))
        if pieces == 4 and len(dims) >= 2:
            halves = rng.choice(PARTITIONS_2)
            schemes = [(a, b) + tuple(("var",) for _ in dims[2:])
                       for a in halves for b in halves]
        else:
            partition = rng.choice({2: PARTITIONS_2, 3: PARTITIONS_3, 4: PARTITIONS_4}[pieces])
            schemes = [(piece,) + tuple(("var",) for _ in dims[1:]) for piece in partition]
        sources = self.readable(table)
        if table.kind == "reader":
            divided = self.by_signature[dims][-1]
            assert divided.kind == "dividing"
        for patterns in schemes:
            if table.kind == "dividing":
                rhs = ("div", ("ref", BUDGET, ()), rng.choice((3, 7, 12)))
            elif table.kind == "reader":
                rhs = ("add", ("mul", ("ref", divided.name, patterns), 3),
                       self.term(table, sources, patterns))
            else:
                rhs = self.term(table, sources, patterns)
                for _ in range(rng.randint(0, 2)):
                    rhs = (rng.choice(("add", "sub")), rhs, self.term(table, sources, patterns))
                # a recurrence along the first dimension, where the piece
                # never matches index 1
                if _lowest(patterns[0]) >= 2 and widths[0] >= 2 and rng.random() < 0.5:
                    rhs = ("add", rhs, ("ref", table.name, patterns, 1))
            table.equations.append((patterns, rhs))
        table.level = max([table.level] + [self.level_of(rhs) + 1 for _, rhs in table.equations])

    def level_of(self, expr) -> int:
        if expr[0] == "ref":
            target = self.by_name.get(expr[1])  # absent for a table's own recurrence
            return target.level if target else 0
        if expr[0] in ("add", "sub", "mul", "div"):
            return max(self.level_of(e) for e in expr[1:] if isinstance(e, tuple))
        return 0

    def term(self, table, sources, patterns):
        rng = self.rng
        choice = rng.random()
        if choice < 0.1 or not sources:
            scalars = [s for s in self.scalars
                       if s.name != BUDGET and (table.type == "number" or s.type == "currency")]
            if scalars and choice < 0.05:
                return ("ref", rng.choice(scalars).name, ())
            return ("lit", rng.randint(1, 99))
        ref = ("ref", rng.choice(sources).name, patterns)
        if rng.random() < 0.3:
            factor = rng.choice((2, 3, 1.5, 0.25)) if table.type == "number" else rng.choice((2, 3))
            return ("mul", ref, factor)
        return ref

    # the spec text

    def text(self) -> str:
        lines = ["-- Generated model: many small tables over a few short bounds.", ""]
        for name, (low, high) in TABLE_BOUNDS.items():
            lines.append(f"bounds {name}: {low} to {high}.")
        lines.append("")
        for table in self.tables:
            lines.append(f"table {table.name} : {' '.join(table.dims + ('->',))} {table.type}.")
            lines.append(f"-- {table.name} is {self.describe(table)}.")
            for patterns, rhs in table.equations:
                lhs = ", ".join(_pattern_text(p, v) for p, v in zip(patterns, VARIABLES))
                lines.append(f"{table.name}[ {lhs} ] =")
                lines.append(f"  {self.expr_text(rhs)}.")
            lines.append("")
        return "\n".join(lines)

    @staticmethod
    def describe(table: _Table) -> str:
        if table.kind == "dividing":
            return "the annual budget split evenly over a number of periods"
        if table.kind == "reader":
            return "a split budget put back together, plus one other cost"
        if table.kind == "input":
            return "input by the user"
        return "derived piecewise from earlier tables of the same dimensions"

    def expr_text(self, expr, parent: int = 0) -> str:
        kind = expr[0]
        if kind == "lit":
            return str(expr[1])
        if kind == "ref":
            name, patterns = expr[1], expr[2]
            back = expr[3] if len(expr) > 3 else 0
            indices = [_index_text(p, v, back if n == 0 else 0)
                       for n, (p, v) in enumerate(zip(patterns, VARIABLES))]
            return f"{name}[{', '.join(indices)}]"
        if kind in ("mul", "div"):
            return f"{self.expr_text(expr[1], 2)} {'*' if kind == 'mul' else '/'} {expr[2]}"
        text = f"{self.expr_text(expr[1], 1)} {'+' if kind == 'add' else '-'} " \
               f"{self.expr_text(expr[2], 2)}"
        return f"( {text} )" if parent >= 2 else text

    # the reference evaluator

    def evaluate(self, table: _Table) -> None:
        for cell in _cells(table.dims):
            winners = [rhs for patterns, rhs in table.equations
                       if all(_covers(p, i) for p, i in zip(patterns, cell))]
            assert len(winners) == 1, (table.name, cell)
            table.values[cell] = self.value(winners[0], cell, table)

    def value(self, expr, cell, table) -> Fraction:
        kind = expr[0]
        if kind == "lit":
            return Fraction(expr[1])
        if kind == "ref":
            target = self.by_name.get(expr[1], table)
            back = expr[3] if len(expr) > 3 else 0
            index = tuple(cell[n] - back if n == 0 else cell[n] for n in range(len(expr[2])))
            return target.values.get(index, Fraction(0))  # a blank reads as zero
        if kind == "add":
            return self.value(expr[1], cell, table) + self.value(expr[2], cell, table)
        if kind == "sub":
            return self.value(expr[1], cell, table) - self.value(expr[2], cell, table)
        if kind == "mul":
            return self.value(expr[1], cell, table) * Fraction(expr[2])
        return self.value(expr[1], cell, table) / expr[2]


def many_tables(seed: int) -> Workload:
    model = _ManyTables(seed, TABLE_COUNT)
    rows = []
    for table in model.tables:
        if table.kind == "input":
            for cell, value in table.values.items():
                text = _money(int(value * 100)) if table.type == "currency" else str(int(value))
                rows.append([table.name, *cell, text])
    derived = [t for t in model.tables if t.kind != "input"]

    def check(emitted: Emitted) -> None:
        for table in derived:
            for cell, exact in table.values.items():
                if table.type == "currency":
                    _expect_currency(emitted, exact, table.name, *cell)
                else:
                    got = emitted.number(table.name, *cell)
                    _expect(abs(Fraction(got) - exact) <= (1 + abs(exact)) * Fraction(1, 10**9),
                            f"{table.name}{list(cell)} holds {got}, reference {float(exact)}")

    return Workload(
        name="many_tables",
        spec=model.text(),
        inputs=_csv(rows),
        cells=sum(len(_cells(t.dims)) for t in model.tables),
        formulas=sum(len(_cells(t.dims)) for t in derived),
        bounds=TABLE_BOUNDS,
        check=check,
        mismatch_tables=frozenset(t.name for t in derived if t.kind in ("dividing", "reader")),
        notes=f"{TABLE_COUNT} tables, {len(derived)} derived, "
              f"{sum(t.kind == 'dividing' for t in derived)} dividing")


GENERATORS = {"loans_grid": loans_grid, "cashflow_chain": cashflow_chain,
              "many_tables": many_tables}
