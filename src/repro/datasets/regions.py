"""Formula-region builders for synthetic spreadsheets.

Each builder writes one rectangular *region* of data and formulae into a
sheet, through the same autofill machinery real users employ — which is
what makes the generated dependencies exhibit tabular locality.  The
catalogue covers the idioms the paper calls out:

* sliding windows (RR, Fig. 4a) and derived columns (TACO-InRow's case);
* running totals ``SUM($A$1:A4)`` (FR) and their shrinking duals (RF);
* fixed lookups — conversion rates and VLOOKUP tables (FF);
* dependency chains (RR-Chain, Fig. 9);
* the Fig. 2 mixed IF-formula with four references per cell;
* pattern-free noise, the incompressible remainder.
"""

from __future__ import annotations

import random
from array import array

from ..grid.range import Range
from ..grid.ref import col_to_letters, format_cell
from ..sheet.autofill import fill_formula_column, fill_formula_row
from ..sheet.columnar import TAG_NUMBER
from ..sheet.sheet import Sheet

__all__ = [
    "REGION_BUILDERS",
    "build_region",
    "chain_region",
    "derived_column_region",
    "fig2_region",
    "fixed_lookup_region",
    "gapone_region",
    "noise_region",
    "row_wise_region",
    "running_total_region",
    "shrinking_window_region",
    "sliding_window_region",
]


def _fill_data_column(sheet: Sheet, col: int, r1: int, r2: int, rng: random.Random) -> None:
    """Random amounts in the vacant rows ``r1..r2`` of ``col``, drawn top
    to bottom and installed in one :meth:`Sheet.import_column` call."""
    values = array("d", [round(rng.uniform(1.0, 500.0), 2) for _ in range(r1, r2 + 1)])
    sheet.import_column(col, r1, bytes((TAG_NUMBER,)) * len(values), values, {})


def sliding_window_region(
    sheet: Sheet, col: int, row: int, rows: int, rng: random.Random, window: int = 3
) -> int:
    """``=SUM(A{i}:B{i+w})`` — the RR sliding window of Fig. 4a."""
    data1, data2, out = col, col + 1, col + 2
    _fill_data_column(sheet, data1, row, row + rows + window, rng)
    _fill_data_column(sheet, data2, row, row + rows + window, rng)
    head = f"{col_to_letters(data1)}{row}"
    tail = f"{col_to_letters(data2)}{row + window}"
    return fill_formula_column(sheet, out, row, row + rows - 1, f"=SUM({head}:{tail})")


def derived_column_region(
    sheet: Sheet, col: int, row: int, rows: int, rng: random.Random
) -> int:
    """``=A{i}*B{i}`` — same-row references (TACO-InRow's derived column)."""
    data1, data2, out = col, col + 1, col + 2
    _fill_data_column(sheet, data1, row, row + rows - 1, rng)
    _fill_data_column(sheet, data2, row, row + rows - 1, rng)
    a = f"{col_to_letters(data1)}{row}"
    b = f"{col_to_letters(data2)}{row}"
    return fill_formula_column(sheet, out, row, row + rows - 1, f"={a}*{b}")


def running_total_region(
    sheet: Sheet, col: int, row: int, rows: int, rng: random.Random
) -> int:
    """``=SUM($A$1:A{i})`` — the FR cumulative total (year-to-date idiom)."""
    data, out = col, col + 1
    _fill_data_column(sheet, data, row, row + rows - 1, rng)
    letters = col_to_letters(data)
    anchor = f"${letters}${row}"
    return fill_formula_column(sheet, out, row, row + rows - 1, f"=SUM({anchor}:{letters}{row})")


def shrinking_window_region(
    sheet: Sheet, col: int, row: int, rows: int, rng: random.Random
) -> int:
    """``=SUM(A{i}:$A${last})`` — the RF shrinking window (remaining total)."""
    data, out = col, col + 1
    last = row + rows - 1
    _fill_data_column(sheet, data, row, last, rng)
    letters = col_to_letters(data)
    return fill_formula_column(
        sheet, out, row, last, f"=SUM({letters}{row}:${letters}${last})"
    )


def fixed_lookup_region(
    sheet: Sheet, col: int, row: int, rows: int, rng: random.Random, table_rows: int = 16
) -> int:
    """``=VLOOKUP(D{i}, $A$1:$B$16, 2, FALSE)`` — FF table plus RR key."""
    table_key, table_val, key_col, out = col, col + 1, col + 2, col + 3
    for i in range(table_rows):
        sheet.set_value((table_key, row + i), float(i))
        sheet.set_value((table_val, row + i), round(rng.uniform(0.5, 2.0), 4))
    for i in range(rows):
        sheet.set_value((key_col, row + i), float(rng.randrange(table_rows)))
    table = (
        f"${col_to_letters(table_key)}${row}:"
        f"${col_to_letters(table_val)}${row + table_rows - 1}"
    )
    key = f"{col_to_letters(key_col)}{row}"
    return fill_formula_column(
        sheet, out, row, row + rows - 1, f"=VLOOKUP({key},{table},2,FALSE)"
    )


def chain_region(
    sheet: Sheet, col: int, row: int, rows: int, rng: random.Random
) -> int:
    """``=C{i-1}+B{i}`` — an RR-Chain running balance."""
    data, out = col, col + 1
    _fill_data_column(sheet, data, row, row + rows - 1, rng)
    sheet.set_formula((out, row), f"={col_to_letters(data)}{row}")
    chain = f"={col_to_letters(out)}{row}+{col_to_letters(data)}{row + 1}"
    fill_formula_column(sheet, out, row + 1, row + rows - 1, chain)
    return rows


def fig2_region(
    sheet: Sheet, col: int, row: int, rows: int, rng: random.Random
) -> int:
    """The paper's Fig. 2 formula: ``=IF(A{i}=A{i-1},N{i-1}+M{i},M{i})``."""
    group_col, amount_col, out = col, col + 1, col + 2
    for i in range(rows + 1):
        sheet.set_value((group_col, row + i), float(rng.randrange(max(2, rows // 8))))
    _fill_data_column(sheet, amount_col, row, row + rows, rng)
    g, m, n = col_to_letters(group_col), col_to_letters(amount_col), col_to_letters(out)
    sheet.set_formula((out, row), f"={m}{row}")
    i = row + 1
    formula = f"=IF({g}{i}={g}{i - 1},{n}{i - 1}+{m}{i},{m}{i})"
    fill_formula_column(sheet, out, i, row + rows, formula)
    return rows + 1


def row_wise_region(
    sheet: Sheet, col: int, row: int, cols: int, rng: random.Random
) -> int:
    """A horizontal run ``=A1*1.1`` filled rightwards (row-wise RR)."""
    for i in range(cols):
        sheet.set_value((col + i, row), round(rng.uniform(10.0, 90.0), 2))
    first = format_cell(col, row)
    return fill_formula_row(sheet, row + 1, col, col + cols - 1, f"={first}*1.1")


def gapone_region(
    sheet: Sheet, col: int, row: int, rows: int, rng: random.Random
) -> int:
    """Formulae on every other row with identical relative references.

    Compressible only by the RR-GapOne extension (paper Sec. V); under the
    default pattern set these all stay Single.
    """
    data, out = col, col + 1
    _fill_data_column(sheet, data, row, row + 2 * rows, rng)
    letters = col_to_letters(data)
    count = 0
    for i in range(0, 2 * rows, 2):
        r = row + i
        sheet.set_formula((out, r), f"={letters}{r}*2")
        count += 1
    return count


def noise_region(
    sheet: Sheet, col: int, row: int, count: int, rng: random.Random
) -> int:
    """Scattered one-off formulae with random references (incompressible).

    Noise cells are laid on an every-other-row/column lattice so that no
    two of them are adjacent and none can merge under any pattern; each
    references a random small window of the data column.
    """
    span = max(40, count)
    _fill_data_column(sheet, col, row, row + span, rng)
    letters = col_to_letters(col)
    lattice_cols = 10
    lattice_rows = (count + lattice_cols - 1) // lattice_cols
    positions = [
        (col + 2 + 2 * c, row + 2 * r)
        for r in range(lattice_rows)
        for c in range(lattice_cols)
    ]
    rng.shuffle(positions)
    written = 0
    for target_col, target_row in positions[:count]:
        r1 = row + rng.randrange(span)
        r2 = min(row + span, r1 + rng.randrange(1, 5))
        sheet.set_formula(
            (target_col, target_row), f"=SUM({letters}{r1}:{letters}{r2})"
        )
        written += 1
    return written


REGION_BUILDERS = {
    "sliding_window": sliding_window_region,
    "derived_column": derived_column_region,
    "running_total": running_total_region,
    "shrinking_window": shrinking_window_region,
    "fixed_lookup": fixed_lookup_region,
    "chain": chain_region,
    "fig2": fig2_region,
    "row_wise": row_wise_region,
    "gapone": gapone_region,
    "noise": noise_region,
}


def build_region(
    sheet: Sheet, kind: str, col: int, row: int, size: int, rng: random.Random
) -> int:
    """Dispatch to a region builder; returns the number of formula cells."""
    try:
        builder = REGION_BUILDERS[kind]
    except KeyError:
        raise KeyError(f"unknown region kind {kind!r}; known: {sorted(REGION_BUILDERS)}") from None
    return builder(sheet, col, row, size, rng)
