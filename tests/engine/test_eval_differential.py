"""Differential suite: compiled + windowed evaluation ≡ the interpreter.

The compression-aware evaluation layer promises *observational
identity*: for any sheet, an ``evaluation="auto"`` engine (compiled
templates, windowed runs, fallbacks) produces exactly the values the
tree-walking interpreter produces — including error values and
``#CYCLE!`` propagation — on full recalculation and after edits, for
every registered spatial-index backend.

Exactness is asserted bitwise, no float tolerance: the rolling
aggregates are built on ExactSum so SUM/AVERAGE match ``math.fsum`` to
the last bit.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.recalc import CircularReferenceError, RecalcEngine
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.spatial.registry import available_indexes

from helpers import (
    assert_same_values,
    build_mixed_sheet,
    engine_for,
    realize_program,
    sheet_programs,
)

BACKENDS = available_indexes()

ROWS = 24


def run_both(program, index: str):
    sa = realize_program(program)
    sb = realize_program(program)
    ea = engine_for(sa, "auto", index)
    eb = engine_for(sb, "interpreter", index)
    raised_a = raised_b = False
    try:
        ea.recalculate_all()
    except CircularReferenceError:
        raised_a = True
    try:
        eb.recalculate_all()
    except CircularReferenceError:
        raised_b = True
    assert raised_a == raised_b
    assert_same_values(sa, sb)
    return ea, eb, raised_a


@pytest.mark.parametrize("index", BACKENDS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_full_recalc_identical(index, data):
    program = data.draw(sheet_programs(rows=ROWS, max_fills=4))
    run_both(program, index)


@pytest.mark.parametrize("index", BACKENDS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_edits_identical(index, data):
    program = data.draw(sheet_programs(rows=ROWS, max_fills=4))
    ea, eb, raised = run_both(program, index)
    if raised:
        return
    for _ in range(data.draw(st.integers(1, 3))):
        row = data.draw(st.integers(1, ROWS))
        col = data.draw(st.integers(1, 2))
        value = float(data.draw(st.integers(-30, 30)))
        result_a = ea.set_value((col, row), value)
        result_b = eb.set_value((col, row), value)
        assert result_a.recomputed == result_b.recomputed
        assert_same_values(ea.sheet, eb.sheet)


def test_full_corpus_recalculate_all_every_backend():
    """The repo's mixed corpus sheet, every backend, both modes."""
    for index in BACKENDS:
        reference = build_mixed_sheet(seed=3, rows=40)
        engine_for(reference, "interpreter", index).recalculate_all()

        subject = build_mixed_sheet(seed=3, rows=40)
        engine = engine_for(subject, "auto", index)
        engine.recalculate_all()
        assert_same_values(subject, reference)
        assert engine.eval_stats.windowed_cells > 0, index


def test_every_tier_runs_side_by_side():
    """One sheet drives the window, sweep and closure tiers at once,
    identically; the lazy XOR column compiles like any other."""
    def build():
        sheet = Sheet("S")
        for r in range(1, 31):
            sheet.set_value((1, r), float(r))
        fill_formula_column(sheet, 2, 1, 30, "=SUM($A$1:A1)")   # windowed
        fill_formula_column(sheet, 3, 1, 30, "=B1*2")           # elementwise
        fill_formula_column(sheet, 4, 1, 30, "=XOR(A1>9,B1>9)")  # compiled
        fill_formula_column(sheet, 5, 1, 30, "=IF(A1>9,B1,A1)")  # compiled
        return sheet

    subject, reference = build(), build()
    engine = RecalcEngine(subject)
    engine.recalculate_all()
    RecalcEngine(reference, evaluation="interpreter").recalculate_all()
    assert_same_values(subject, reference)
    stats = engine.eval_stats
    assert stats.windowed_cells == 30
    assert stats.interpreted_cells == 0
    assert stats.elementwise_cells == 30
    assert stats.compiled_cells == 60


def test_batched_commit_uses_fast_paths():
    from repro.grid.range import Range

    sheet = Sheet("S")
    for r in range(1, 41):
        sheet.set_value((1, r), float(r))
    fill_formula_column(sheet, 2, 1, 40, "=SUM($A$1:A1)")
    engine = RecalcEngine(sheet)
    engine.recalculate_all()
    windowed_before = engine.eval_stats.windowed_cells
    with engine.begin_batch() as batch:
        for r in range(1, 21):
            batch.set_value((1, r), float(r) * 2)
    assert engine.eval_stats.windowed_cells - windowed_before == 40
    # values identical to a scratch interpreter rebuild
    reference = Sheet("S")
    for r in range(1, 41):
        reference.set_value((1, r), float(r) * (2 if r <= 20 else 1))
    fill_formula_column(reference, 2, 1, 40, "=SUM($A$1:A1)")
    RecalcEngine(reference, evaluation="interpreter").recalculate_all()
    assert_same_values(sheet, reference)


def test_async_engine_uses_compiled_path():
    from repro.engine.async_engine import AsyncRecalcEngine

    sheet = Sheet("S")
    for r in range(1, 21):
        sheet.set_value((1, r), float(r))
    fill_formula_column(sheet, 2, 1, 20, "=A1*3")
    engine = AsyncRecalcEngine(sheet)
    engine.set_value((1, 1), 10.0)
    engine.drain()
    assert engine.eval_stats.compiled_cells > 0
    assert sheet.get_value((2, 1)) == 30.0
