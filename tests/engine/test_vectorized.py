"""The windowed-aggregate fast path, shape by shape.

Each test builds the same sheet twice and compares an ``evaluation="auto"``
engine (asserting the run actually dispatched, via ``eval_stats``)
against the pure interpreter — exact equality, including float bits:
the kernel sums in exact integer arithmetic precisely so that no
tolerance is needed.
"""

import math

import pytest

from repro.engine.recalc import RecalcEngine
from repro.engine.vectorized import MIN_RUN
from repro.formula.errors import ExcelError
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet


def data_sheet(rows=60, with_noise=True):
    s = Sheet("S")
    for r in range(1, rows + 1):
        s.set_value((1, r), float((r * 37) % 101) / 3.0)
    if with_noise:
        s.set_value((1, 7), "text")
        s.set_value((1, 13), True)
        s.set_value((1, 21), None)   # hole
    return s


def compare(build, *, expect_windowed=True):
    """Build twice, recalc both ways, compare every cell exactly."""
    sa, sb = build(), build()
    ea = RecalcEngine(sa, evaluation="interpreter")
    eb = RecalcEngine(sb)
    ea.recalculate_all()
    eb.recalculate_all()
    for pos, cell in sa.items():
        got = sb.get_value(pos)
        want = cell.value
        if isinstance(want, ExcelError):
            assert isinstance(got, ExcelError) and got.code == want.code, pos
        else:
            assert type(got) is type(want) and got == want, pos
    if expect_windowed:
        assert eb.eval_stats.windowed_cells > 0, eb.eval_stats
    return eb


FORMULAS = {
    "prefix-sum": "=SUM($A$1:A1)",
    "prefix-avg": "=AVERAGE($A$1:A1)",
    "prefix-min": "=MIN($A$1:A1)",
    "prefix-max": "=MAX($A$1:A1)",
    "prefix-count": "=COUNT($A$1:A1)",
    "sliding-sum": "=SUM(A1:A9)",
    "sliding-avg": "=AVERAGE(A1:A9)",
    "sliding-min": "=MIN(A1:A9)",
    "sliding-max": "=MAX(A1:A9)",
    "sliding-count": "=COUNT(A1:A9)",
    "suffix-sum": "=SUM(A1:$A$60)",
    "constant-avg": "=AVERAGE($A$1:$A$60)",
}


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_window_shapes_match_interpreter(name):
    formula = FORMULAS[name]

    def build():
        s = data_sheet()
        fill_formula_column(s, 2, 1, 60, formula)
        return s

    engine = compare(build)
    assert engine.eval_stats.windowed_runs >= 1


def test_multi_column_windows():
    def build():
        s = data_sheet()
        for r in range(1, 61):
            s.set_value((2, r), float(r % 7))
        fill_formula_column(s, 4, 1, 60, "=SUM($A$1:B1)")
        return s

    compare(build)


def test_error_in_window_falls_back_per_cell():
    def build():
        s = data_sheet()
        s.set_formula((1, 30), "=1/0")
        fill_formula_column(s, 2, 1, 60, "=SUM($A$1:A1)")
        return s

    engine = compare(build)
    # Cells at row >= 30 carry the error; the fallback evaluated them.
    assert engine.sheet.get_value((2, 45)).code == "#DIV/0!"
    assert engine.eval_stats.compiled_cells > 0


def test_error_window_stats_partition_cleanly():
    """Cells delegated to the fallback are counted once, not twice
    (regression: they used to appear in both windowed and compiled)."""
    s = data_sheet(with_noise=False)
    s.set_formula((1, 30), "=1/0")
    fill_formula_column(s, 2, 1, 60, "=SUM($A$1:A1)")
    engine = RecalcEngine(s)
    recomputed = engine.recalculate_all()
    stats = engine.eval_stats
    # 61 formula cells: the error cell itself + 60 totals; every cell is
    # counted by exactly one tier.
    assert recomputed == 61
    assert stats.total_cells == 61
    assert stats.windowed_cells == 29          # rows 1..29 rolled
    assert stats.compiled_cells + stats.interpreted_cells == 32


def test_infinity_in_window_matches_interpreter():
    def build():
        s = data_sheet(with_noise=False)
        s.set_value((1, 20), float("inf"))
        fill_formula_column(s, 2, 1, 60, "=SUM($A$1:A1)")
        fill_formula_column(s, 3, 1, 60, "=AVERAGE(A1:A9)")
        return s

    compare(build)


def test_self_referential_prefix_run():
    def build():
        s = Sheet("S")
        for r in range(1, 41):
            s.set_value((1, r), 1.0)
        s.set_formula((2, 1), "=A1")
        fill_formula_column(s, 2, 2, 40, "=SUM(B$1:B1)")
        return s

    engine = compare(build)
    assert engine.eval_stats.windowed_cells == 39


def test_aggregate_over_dirty_formula_column():
    def build():
        s = data_sheet(with_noise=False)
        fill_formula_column(s, 2, 1, 60, "=A1*2")
        fill_formula_column(s, 3, 1, 60, "=SUM($B$1:B1)")
        return s

    engine = compare(build)
    # Both the doubles column (elementwise sweep, or compiled per cell
    # when the sweep is unavailable) and the totals column (windowed)
    # took their fast paths.
    assert engine.eval_stats.windowed_cells == 60
    assert engine.eval_stats.elementwise_cells + engine.eval_stats.compiled_cells == 60


def test_short_runs_stay_on_the_compiled_path():
    def build():
        s = data_sheet(rows=MIN_RUN - 1)
        fill_formula_column(s, 2, 1, MIN_RUN - 1, "=SUM($A$1:A1)")
        return s

    engine = compare(build, expect_windowed=False)
    assert engine.eval_stats.windowed_cells == 0


def test_incremental_edit_redispatches_runs():
    s = data_sheet()
    fill_formula_column(s, 2, 1, 60, "=SUM($A$1:A1)")
    engine = RecalcEngine(s)
    engine.recalculate_all()
    before = engine.eval_stats.windowed_runs
    result = engine.set_value((1, 5), 123.0)
    # Only the suffix B5..B60 depends on A5.
    assert result.recomputed == 56
    assert engine.eval_stats.windowed_runs > before
    # spot-check a value against a fresh interpreter engine
    fresh = data_sheet()
    fill_formula_column(fresh, 2, 1, 60, "=SUM($A$1:A1)")
    fresh.set_value((1, 5), 123.0)
    RecalcEngine(fresh, evaluation="interpreter").recalculate_all()
    assert s.get_value((2, 60)) == fresh.get_value((2, 60))


def test_interpreter_mode_never_uses_fast_paths():
    s = data_sheet()
    fill_formula_column(s, 2, 1, 60, "=SUM($A$1:A1)")
    engine = RecalcEngine(s, evaluation="interpreter")
    engine.recalculate_all()
    assert engine.eval_stats.windowed_cells == 0
    assert engine.eval_stats.compiled_cells == 0
    assert engine.eval_stats.interpreted_cells == 60


def test_unknown_evaluation_mode_rejected():
    with pytest.raises(ValueError):
        RecalcEngine(Sheet("S"), evaluation="hybrid")


def test_cycle_through_run_matches_interpreter_semantics():
    from repro.engine.recalc import CircularReferenceError

    def build():
        s = data_sheet()
        fill_formula_column(s, 2, 1, 60, "=SUM($A$1:A1)")
        # close a cycle: the data column reads the totals column
        s.set_formula((1, 2), "=B60")
        return s

    sa, sb = build(), build()
    ea = RecalcEngine(sa, evaluation="interpreter")
    eb = RecalcEngine(sb)
    with pytest.raises(CircularReferenceError):
        ea.recalculate_all()
    with pytest.raises(CircularReferenceError):
        eb.recalculate_all()
    for pos, cell in sa.items():
        want, got = cell.value, sb.get_value(pos)
        if isinstance(want, ExcelError):
            assert isinstance(got, ExcelError) and got.code == want.code, pos
        else:
            assert got == want, pos


@pytest.mark.parametrize("func", ["MIN", "MAX"])
@pytest.mark.parametrize("window", ["$A$1:$B$40", "$A$1:B1", "A1:$B$40", "A1:B4", "A1:A3"])
def test_signed_zero_ties_go_to_the_first_in_row_major_order(func, window):
    """``min()`` / ``max()`` keep the first of equal candidates, and
    ``0.0 == -0.0``: which zero comes out depends on the order the
    interpreter walks the window in — rows, then columns."""
    from helpers import assert_same_values

    def build():
        s = Sheet("S")
        for r in range(1, 41):
            s.set_value((1, r), (0.0, -0.0, -0.0, 0.0, 0.0)[r % 5])
            s.set_value((2, r), (-0.0, 0.0, 0.0)[r % 3])
        fill_formula_column(s, 3, 1, 36, f"={func}({window})")
        return s

    subject, oracle = RecalcEngine(build()), RecalcEngine(build(), evaluation="interpreter")
    subject.recalculate_all()
    oracle.recalculate_all()
    assert subject.eval_stats.windowed_cells == 36
    assert_same_values(subject.sheet, oracle.sheet)


@pytest.mark.parametrize("formula", sorted(FORMULAS.values()) + ["=SUM(A20:A29)"])
def test_windows_past_the_end_of_a_short_column(formula):
    """The kernel's slices stop where the column physically ends; the
    rows a window names beyond that are blank."""
    def build():
        s = Sheet("S")
        for r in range(1, 13):
            s.set_value((1, r), float(r) * 1.25)
        fill_formula_column(s, 2, 1, 60, formula)
        return s

    compare(build)


def test_a_window_strip_writes_its_band_once(monkeypatch):
    """The floor under the kernel: 300 lanes, no cell view, one write."""
    from repro.formula.errors import ExcelError as Error
    from repro.sheet import columnar

    s = Sheet("S")
    for r in range(1, 301):
        s.set_value((1, r), float(r) / 7.0)
    fill_formula_column(s, 2, 1, 300, "=SUM($A$1:A1)")
    for r in (5, 150):                      # stale payloads under the band
        s.formula_at((2, r)).value = "stale" if r == 5 else Error("#N/A")
    engine = RecalcEngine(s, workers=0, shards=0)
    store = s._cells
    version = store.column_version(2)
    views = []
    monkeypatch.setattr(columnar.ColumnarCell, "__init__",
                        lambda self, *args, **kwargs: views.append(args))
    engine.recalculate_all()
    assert not views
    assert store.column_version(2) == version + 1
    assert store.ensure_column(2, 1).side == {}
    assert engine.eval_stats.windowed_cells == 300
    assert s.get_value((2, 300)) == math.fsum(float(r) / 7.0 for r in range(1, 301))
