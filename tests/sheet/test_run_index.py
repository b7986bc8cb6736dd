"""The run index stays the formula plane's own shape.

``Sheet.run_index()`` is joined once per formula-plane version from the
columnar store's run records and read by the graph build, the dependency
stream, the recalculation planner and the xlsx writer.  Whatever edits a
sheet — values over values and over formulas, typed formulas, clears,
fills, attached runs, structural edits — the index must equal a
from-scratch grouping, and the version that stamps it must move exactly
when a formula came, went or changed.  (The record-level differential
against the seed's per-cell store is ``test_formula_plane_machine.py``;
the memo is checked on both.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.object_store import ObjectSheet
from repro.formula.parser import parse_formula
from repro.formula.template import intern_template
from repro.grid.range import Range
from repro.sheet import structural
from repro.sheet.autofill import autofill, fill_formula_column
from repro.sheet.sheet import Sheet

COLS, ROWS = 5, 12
TEXTS = ("=A{r}*2", "=SUM($A$1:A{r})", "=B{r}+A{r}", "= A{r} + 1")

positions = st.tuples(st.integers(1, COLS), st.integers(1, ROWS))


def brute_force(sheet: Sheet) -> dict:
    """Cell by cell: same column, next row, same template object."""
    index: dict[int, list] = {}
    for (col, row), cell in sorted(sheet.formula_cells()):
        runs = index.setdefault(col, [])
        if runs and runs[-1][1] == row - 1 and runs[-1][2] is cell.template:
            runs[-1][1] = row
        else:
            runs.append([row, row, cell.template])
    return {col: [tuple(run) for run in runs] for col, runs in index.items()}


@st.composite
def edits(draw):
    kind = draw(st.sampled_from([
        "set_value", "set_value", "cached_value", "set_formula", "clear_cell",
        "clear_range", "autofill", "attach_run", "insert_rows", "delete_rows",
        "insert_columns", "delete_columns",
    ]))
    if kind in ("set_value", "cached_value", "clear_cell"):
        return kind, draw(positions)
    if kind == "set_formula":
        return kind, draw(positions), draw(st.sampled_from(TEXTS))
    if kind in ("clear_range", "autofill"):
        col, row = draw(positions)
        return (kind, Range(col, row, draw(st.integers(col, COLS)), draw(st.integers(row, ROWS))),
                draw(positions))
    if kind == "attach_run":
        col, row = draw(positions)
        return kind, col, row, draw(st.integers(row, ROWS)), draw(st.sampled_from(TEXTS[:3]))
    return kind, draw(st.integers(1, ROWS if "rows" in kind else COLS)), draw(st.integers(1, 2))


def apply(sheet: Sheet, edit) -> bool | None:
    """Perform ``edit``; True / False when it is known to have changed /
    left alone the formula plane, None when that depends."""
    kind = edit[0]
    if kind == "set_value":
        was_formula = sheet.formula_at(edit[1]) is not None
        sheet.set_value(edit[1], 7.5)
        return was_formula
    if kind == "cached_value":
        cell = sheet.formula_at(edit[1])
        if cell is not None:
            cell.value = 99.0          # a recalculation's write
        return False
    if kind == "set_formula":
        sheet.set_formula(edit[1], edit[2].format(r=edit[1][1]))
        return True
    if kind == "clear_cell":
        was_formula = sheet.formula_at(edit[1]) is not None
        sheet.clear_cell(edit[1])
        return was_formula
    if kind == "clear_range":
        sheet.clear_range(edit[1])
    elif kind == "autofill":
        if sheet.cell_at(edit[2]) is not None:
            autofill(sheet, edit[2], edit[1])
    elif kind == "attach_run":
        _, col, first, last, text = edit
        template = intern_template(parse_formula(text.format(r=first)[1:]), col, first)
        if all(template.admits(col, row) for row in range(first, last + 1)):
            sheet.attach_formula_run(col, first, last, template, None)
            return True
    else:
        getattr(structural, kind)(sheet, edit[1], edit[2])
    return None


@pytest.mark.parametrize("store", ["columnar", "object"])
@settings(max_examples=120, deadline=None)
@given(program=st.lists(edits(), min_size=1, max_size=14), reads=st.data())
def test_the_memo_equals_a_fresh_grouping(store, program, reads):
    sheet = {"columnar": Sheet, "object": ObjectSheet}[store]("S")
    for r in range(1, ROWS + 1):
        sheet.set_value((1, r), float(r))
    fill_formula_column(sheet, 2, 1, ROWS, "=A1*2")
    fill_formula_column(sheet, 3, 2, ROWS - 1, "=SUM($A$1:A2)")
    for edit in program:
        # Read before some edits and not others: a memo the edit must
        # invalidate, or none at all.
        if reads.draw(st.booleans()):
            sheet.run_index()
        before = sheet.formula_version
        moved = apply(sheet, edit)
        if moved is not None:
            assert (sheet.formula_version != before) == moved, edit
        assert sheet.run_index() == brute_force(sheet), edit
        assert list(sheet.formula_runs()) == [
            (template, col, first, last)
            for col, runs in sorted(brute_force(sheet).items())
            for first, last, template in runs
        ]


def test_value_writes_share_one_scan():
    sheet = Sheet("S")
    fill_formula_column(sheet, 2, 1, 50, "=A1*2")
    index = sheet.run_index()
    for r in range(1, 51):
        sheet.set_value((1, r), float(r))           # inputs
        sheet.formula_at((2, r)).value = 2.0 * r    # cached results
    assert sheet.run_index() is index
    sheet.set_value((2, 25), 0.0)                   # a value over a formula
    assert sheet.run_index() is not index
    assert sheet.run_index()[2] == [(1, 24, index[2][0][2]), (26, 50, index[2][0][2])]


def test_an_unjoined_read_parses_nothing():
    sheet = Sheet("S")
    for r in range(1, 9):
        sheet.set_formula((2, r), f"=A{r} * {r}")
    parse_formula.cache_clear()
    raw = sheet.run_index(join=False)
    assert raw[2] == [(r, r, None, f"A{r} * {r}") for r in range(1, 9)]
    assert parse_formula.cache_info().misses == 0
    joined = sheet.run_index()
    assert parse_formula.cache_info().misses == 8
    assert [run[:2] for run in joined[2]] == [(r, r) for r in range(1, 9)]
    # The unjoined index is the storage: it has learnt the templates.
    assert sheet.run_index(join=False) is raw
    assert [run[2] for run in raw[2]] == [run[2] for run in joined[2]]
