"""The strip-kernel contract, kind by kind.

Every strip kernel is ``kernel(engine, node, leave) -> lanes computed``
and hands the lanes it will not take to ``leave``, in the strip's
direction.  Per kind (``w`` window, ``e`` sweep, ``c`` scan, ``l``
lookup) one strip with lanes the kernel must leave and one it declines
wholesale: ``leave`` gets exactly those rows, the values equal the
interpreter oracle's, and the tier counters split as they did before the
kernels shared one contract (``EvalStats.CELL_COUNTERS`` order:
compiled, interpreted, windowed cells and runs, elementwise cells and
runs, lookup hits).
"""

import pytest

from repro.engine.recalc import RecalcEngine, _Strip
from repro.formula.errors import NA_ERROR
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

from helpers import assert_same_values

ROWS = 12


def data_sheet() -> Sheet:
    s = Sheet("S")
    for r in range(1, ROWS + 2):
        s.set_value((1, r), float((r * 37) % 101) / 3.0)
        s.set_value((2, r), float(r % 5) + 0.5)
    return s


def lookup_sheet() -> Sheet:
    """A 16-row table in L:M, needles in J."""
    s = data_sheet()
    for r in range(1, 17):
        s.set_value((12, r), float(r))
        s.set_value((13, r), float(r * r) / 7.0)
    for r in range(1, ROWS + 1):
        s.set_value((10, r), float(r % 17))
    return s


def window_error_lane() -> Sheet:
    s = data_sheet()
    s.set_value((1, 5), NA_ERROR)
    fill_formula_column(s, 3, 1, ROWS, "=SUM(A1:B1)")       # one row, sliding
    return s


def window_error_suffix() -> Sheet:
    s = data_sheet()
    s.set_value((1, 5), NA_ERROR)
    fill_formula_column(s, 3, 1, ROWS, "=SUM(A1:A$12)")     # shrinking, bottom-up
    return s


def window_that_does_not_roll() -> Sheet:
    s = data_sheet()
    fill_formula_column(s, 3, 1, ROWS, "=SUM(A$5:A1)")      # corners cross at row 5
    return s


def sweep_zero_divisors() -> Sheet:
    s = data_sheet()
    s.set_value((2, 5), 0.0)
    s.set_value((2, 9), -0.0)
    fill_formula_column(s, 3, 1, ROWS, "=A1/B1")
    return s


def sweep_refused_fixed_cell() -> Sheet:
    s = data_sheet()
    s.set_value((6, 1), "x")
    fill_formula_column(s, 3, 1, ROWS, "=A1/$F$1")
    return s


def scan_text_lane() -> Sheet:
    s = data_sheet()
    s.set_value((3, 1), 0.5)
    s.set_value((1, 6), "text")
    fill_formula_column(s, 3, 2, ROWS, "=C1+A2")
    return s


def scan_text_lane_bottom_up() -> Sheet:
    s = data_sheet()
    s.set_value((3, ROWS), 0.5)
    s.set_value((1, 6), "text")
    fill_formula_column(s, 3, 1, ROWS - 1, "=C2+A1")
    return s


def scan_refused_seed() -> Sheet:
    s = data_sheet()
    s.set_value((3, 1), "x")
    fill_formula_column(s, 3, 2, ROWS, "=C1+A2")
    return s


def lookup_nan_needle() -> Sheet:
    s = lookup_sheet()
    s.set_value((10, 5), float("nan"))
    fill_formula_column(s, 8, 1, ROWS, "=VLOOKUP(J1,$L$1:$M$16,2,FALSE)")
    return s


def lookup_strip() -> Sheet:
    s = lookup_sheet()
    fill_formula_column(s, 8, 1, ROWS, "=VLOOKUP(J1,$L$1:$M$16,2,FALSE)")
    return s


#: name -> (sheet, engine keywords, kind, rows left per ``leave`` call,
#: counter snapshot)
CASES = {
    "w error lane": (window_error_lane, {}, "w", [[5]], (1, 0, 11, 1, 0, 0, 0)),
    "w error suffix, bottom-up": (
        window_error_suffix, {}, "w", [[5], [4], [3], [2], [1]], (5, 0, 7, 1, 0, 0, 0),
    ),
    "e ±0.0 divisors": (sweep_zero_divisors, {}, "e", [[5, 9]], (2, 0, 0, 0, 10, 1, 0)),
    "e refused fixed cell": (
        sweep_refused_fixed_cell, {}, "e", [list(range(1, 13))], (12, 0, 0, 0, 0, 0, 0),
    ),
    "c text lane": (scan_text_lane, {}, "c", [list(range(6, 13))], (7, 0, 0, 0, 4, 1, 0)),
    "c text lane, bottom-up": (
        scan_text_lane_bottom_up, {}, "c", [[6, 5, 4, 3, 2, 1]], (6, 0, 0, 0, 5, 1, 0),
    ),
    "c refused seed": (
        scan_refused_seed, {}, "c", [list(range(2, 13))], (11, 0, 0, 0, 0, 0, 0),
    ),
    "l NaN needle": (lookup_nan_needle, {}, "l", [[5]], (12, 0, 0, 0, 0, 0, 11)),
    "l without a probe": (
        lookup_strip, {"lookup_indexes": False}, "l", [list(range(1, 13))],
        (12, 0, 0, 0, 0, 0, 0),
    ),
}


def spy_on_leave(engine: RecalcEngine) -> list:
    """Record every ``leave`` call as ``(kind, rows)``, then run it."""
    calls = []
    leave = engine._leave

    def spy(node, rows):
        calls.append((node.kind, list(rows)))
        leave(node, rows)

    engine._leave = spy
    return calls


def oracle(build) -> Sheet:
    sheet = build()
    RecalcEngine(sheet, evaluation="interpreter").recalculate_all()
    return sheet


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_leaves_exactly_its_lanes(case):
    build, options, kind, left, counters = CASES[case]
    sheet = build()
    engine = RecalcEngine(sheet, shards=0, **options)
    plan = engine._build_plan(None, False)[0]
    assert [node.kind for node in plan] == [kind]
    calls = spy_on_leave(engine)
    engine.recalculate_all()
    assert calls == [(kind, rows) for rows in left]
    assert_same_values(sheet, oracle(build))
    assert engine.eval_stats.counter_snapshot() == counters


def test_window_kernel_leaves_geometry_that_does_not_roll():
    """The planner never rolls such a strip; handed one anyway, the
    window kernel leaves every lane and counts nothing itself."""
    sheet = window_that_does_not_roll()
    engine = RecalcEngine(sheet, shards=0)
    plan = engine._build_plan(None, False)[0]
    first = plan[0]
    assert first.kind == "s"
    rolled = _Strip("w", first.col, first.rows, first.template, False)
    calls = spy_on_leave(engine)
    engine._execute_plan([rolled] + plan[1:])
    assert calls[0] == ("w", list(first.rows))
    assert_same_values(sheet, oracle(window_that_does_not_roll))
    assert engine.eval_stats.counter_snapshot() == (ROWS, 0, 0, 0, 0, 0, 0)
