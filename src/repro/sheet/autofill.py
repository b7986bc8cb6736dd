"""Autofill: replicating a source cell's pattern across adjacent cells.

Autofill is the reason tabular locality is prevalent (paper Sec. I and
III-A): dragging a formula fills neighbouring cells with the same formula
whose *relative* references are shifted by the offset while ``$``-fixed
references stay put.  Consequently a range without ``$`` generates RR
dependencies, ``A1:$B$4``-style generates RF, ``$B$1:B4`` generates FR and
fully absolute ranges generate FF — which is exactly the pattern set TACO
compresses.

A filled cell is its position plus a pointer to the source cell's
template (:mod:`repro.formula.template`): nothing is parsed or shifted
per target, and a vertical fill attaches its whole stretch at once
(:meth:`Sheet.attach_formula_run` — one run record on a columnar
sheet), so corpus generation scales to hundreds of thousands of formula
cells and the family stays one object however long it grows.
"""

from __future__ import annotations

from ..grid.range import Range
from .sheet import Sheet, _coerce_pos

__all__ = ["autofill", "fill_formula_column", "fill_formula_row"]


def autofill(sheet: Sheet, source, target: Range) -> int:
    """Fill ``target`` by repeating the pattern of the ``source`` cell.

    The source cell may lie inside or outside the target range; filling
    skips the source position itself.  Pure-value sources are copied
    verbatim (the constant-fill behaviour).  Returns the number of cells
    written.
    """
    src_col, src_row = _coerce_pos(source)
    cell = sheet.cell_at((src_col, src_row))
    if cell is None:
        raise ValueError(f"autofill source ({src_col},{src_row}) is empty")
    written = target.size - target.contains_cell(src_col, src_row)
    if not cell.is_formula:
        value = cell.value
        for pos in target.cells():
            if pos != (src_col, src_row):
                sheet.set_value(pos, value)
        return written
    template = cell.template
    for col in range(target.c1, target.c2 + 1):
        stretches = [(target.r1, target.r2)]
        if col == src_col and target.r1 <= src_row <= target.r2:
            stretches = [(target.r1, src_row - 1), (src_row + 1, target.r2)]
        for first, last in stretches:
            # Rows the template does not admit (the ``#REF!`` head) and
            # lone cells (a horizontal fill) go one by one; the stretch
            # between is one run, over blanked cells like any fresh fill.
            while first <= last and not template.admits(col, first):
                sheet.set_formula_template((col, first), template)
                first += 1
            while last >= first and (last == first or not template.admits(col, last)):
                sheet.set_formula_template((col, last), template)
                last -= 1
            if first < last:
                sheet.clear_range(Range(col, first, col, last))
                sheet.attach_formula_run(col, first, last, template)
    return written


def fill_formula_column(
    sheet: Sheet, col: int, first_row: int, last_row: int, formula: str
) -> int:
    """Write ``formula`` at ``(col, first_row)`` and autofill down to ``last_row``."""
    sheet.set_formula((col, first_row), formula)
    if last_row <= first_row:
        return 1
    autofill(sheet, (col, first_row), Range(col, first_row, col, last_row))
    return last_row - first_row + 1


def fill_formula_row(
    sheet: Sheet, row: int, first_col: int, last_col: int, formula: str
) -> int:
    """Write ``formula`` at ``(first_col, row)`` and autofill right to ``last_col``."""
    sheet.set_formula((first_col, row), formula)
    if last_col <= first_col:
        return 1
    autofill(sheet, (first_col, row), Range(first_col, row, last_col, row))
    return last_col - first_col + 1
