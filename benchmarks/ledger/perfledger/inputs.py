"""Seeded inputs.  The seed picks values, edit targets and op order;
the *shape* of every input (region sizes, row counts, mixes) is fixed,
so two seeds measure the same work on different data."""

from __future__ import annotations

import random

from repro.datasets.generator import RegionSpec, SheetSpec, generate_sheet
from repro.datasets.stats import candidate_cells
from repro.graphs.base import total_cells
from repro.grid.ref import col_to_letters
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

#: The "generated" region mix of the github-like corpus
#: (``repro.datasets.corpora``), without its per-sheet size jitter.
GENERATED_MIX = (
    ("sliding_window", 1.0),
    ("derived_column", 1.0),
    ("chain", 0.8),
    ("fig2", 0.8),
    ("fixed_lookup", 0.6),
    ("running_total", 0.4),
    ("shrinking_window", 0.15),
    ("gapone", 0.02),
)

#: Fill-down templates ``bulk_maintain`` alternates between; ``{a}`` is
#: the source column, ``{r}`` the row.  The references differ (a 3-row
#: and a 4-row sliding window), so every commit does real compression
#: maintenance, at like cost: the samples of one run form one mode.
FILL_TEMPLATES = ("=SUM({a}{r}:{a}{r2})*2", "=SUM({a}{r}:{a}{r3})*3")


class Spread:
    """Picks that cover their range evenly however many are made: the
    k-th is ``frac(start + k * golden ratio)``.  The seed draws only the
    start, so two seeds pick different cells with the same spread — a
    trace's cost profile does not depend on the luck of the draw."""

    GOLDEN = 0.6180339887498949

    def __init__(self, rng: random.Random):
        self._at = rng.random()

    def fraction(self) -> float:
        self._at = (self._at + self.GOLDEN) % 1.0
        return self._at

    def pick(self, items):
        return items[int(self.fraction() * len(items))]

    def row(self, rows: int) -> int:
        """A 1-based row in ``[1, rows]``."""
        return 1 + int(self.fraction() * rows)


LEDGER_COLUMNS = 6  # A..F: two data columns, chain, running total, derived, sentinel


def github_like_sheet(name: str, base_rows: int, seed: int) -> Sheet:
    """One github-like sheet: long uniform autofilled regions, no noise."""
    regions = tuple(
        RegionSpec(kind, max(8, int(base_rows * weight)))
        for kind, weight in GENERATED_MIX
    )
    return generate_sheet(SheetSpec(name, regions, seed=seed))


def add_lookup_block(sheet: Sheet, probes: int, table_rows: int, seed: int) -> int:
    """A sorted key/value table and ``probes`` exact-match VLOOKUPs over
    it, right of the used range.  Returns the key column of the probes."""
    rng = random.Random(seed)
    used = sheet.used_range()
    key_col = (used.c2 if used else 0) + 2
    val_col, probe_col, out_col = key_col + 1, key_col + 2, key_col + 3
    for i in range(table_rows):
        sheet.set_value((key_col, 1 + i), float(i))
        sheet.set_value((val_col, 1 + i), round(rng.uniform(0.5, 2.0), 4))
    for i in range(probes):
        sheet.set_value((probe_col, 1 + i), float(rng.randrange(table_rows)))
    table = (
        f"${col_to_letters(key_col)}$1:${col_to_letters(val_col)}${table_rows}"
    )
    fill_formula_column(
        sheet, out_col, 1, probes,
        f"=VLOOKUP({col_to_letters(probe_col)}1,{table},2,FALSE)",
    )
    return probe_col


def add_fill_block(sheet: Sheet, rows: int) -> int:
    """A value column and, beside it, the column the fill-down workload
    rewrites.  Returns the fill column."""
    used = sheet.used_range()
    source = (used.c2 if used else 0) + 2
    for r in range(1, rows + 4):
        sheet.set_value((source, r), float(r % 97) + 0.5)
    for r, text in enumerate(fill_formulas(source, rows, 0), start=1):
        sheet.set_formula((source + 1, r), text)
    return source + 1


def fill_formulas(source_col: int, rows: int, template: int) -> list[str]:
    a = col_to_letters(source_col)
    text = FILL_TEMPLATES[template % len(FILL_TEMPLATES)]
    return [text.format(a=a, r=r, r2=r + 2, r3=r + 3) for r in range(1, rows + 1)]


def ledger_workbook(wb_id: str, rows: int, seed: int) -> Workbook:
    """A small ledger: two data columns, an RR chain, a running total, an
    elementwise derived column and a whole-column SUM sentinel in F1."""
    workbook = Workbook(wb_id)
    sheet = workbook.add_sheet("Ledger")
    rng = random.Random(seed)
    for r in range(1, rows + 1):
        sheet.set_value((1, r), round(rng.uniform(1, 100), 2))
        sheet.set_value((2, r), float((r * 7) % 23) + 1.0)
    sheet.set_formula("C1", "=A1+B1")
    fill_formula_column(sheet, 3, 2, rows, "=C1+A2")
    fill_formula_column(sheet, 4, 1, rows, "=SUM($A$1:A1)")
    fill_formula_column(sheet, 5, 1, rows, "=A1*B1")
    sheet.set_formula("F1", f"=SUM(C1:C{rows})")
    return workbook


def copy_sheet(sheet: Sheet) -> Sheet:
    """A from-scratch copy: same inputs and formula texts, nothing cached."""
    copy = Sheet(sheet.name)
    for pos, cell in sheet.items():
        if cell.is_formula:
            copy.set_formula(pos, cell.formula_text)
        else:
            copy.set_value(pos, cell.value)
    return copy


def top_fanout_cells(graph, values, count: int) -> list[tuple[int, int]]:
    """The ``count`` value cells with the most transitive dependents
    (heads of long columns), most first."""
    value_set = set(values)
    ranked = sorted(
        (cell for cell in candidate_cells(graph, limit=80) if cell.head in value_set),
        key=lambda cell: (-total_cells(graph.find_dependents(cell)), cell.head),
    )
    return [cell.head for cell in ranked[:count]]


def value_cells(sheet: Sheet) -> list[tuple[int, int]]:
    """Positions holding plain numbers, in a seed-independent order."""
    return sorted(
        pos for pos, cell in sheet.items()
        if not cell.is_formula and isinstance(cell.value, float)
    )


def formula_cells(sheet: Sheet) -> list[tuple[int, int]]:
    return sorted(pos for pos, _ in sheet.formula_cells())
