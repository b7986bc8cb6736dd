"""Differential suite: the fast tiers over the columnar store ≡ the interpreter.

For any sheet program — values, formula columns, point edits,
structural edits, snapshot round-trips — an auto engine (kernels,
compiled closures, plane slices) leaves bit-identical values to an
interpreter engine over its own copy of the sheet, for every registered
spatial-index backend.  The interpreter engine is the oracle.  (The
columnar store itself is checked against the seed's per-cell store in
``tests/sheet``.)
"""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.recalc import RecalcEngine
from repro.io.snapshot import load_snapshot, save_snapshot
from repro.sheet.workbook import Workbook
from repro.spatial.registry import available_indexes

from helpers import (
    assert_same_values,
    engine_for,
    realize_program as realize,
    sheet_programs as programs,
)

BACKENDS = available_indexes()
MODES = ("auto", "interpreter")
OPS = ("insert_rows", "delete_rows", "insert_columns", "delete_columns")

ROWS = 20


@pytest.mark.parametrize("index", BACKENDS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_full_recalc_all_modes(index, data):
    program = data.draw(programs())
    oracle = realize(program)
    engine_for(oracle, "interpreter", index).recalculate_all()
    subject = realize(program)
    engine_for(subject, "auto", index).recalculate_all()
    assert_same_values(subject, oracle)


@pytest.mark.parametrize("index", BACKENDS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_point_edits_identical(index, data):
    program = data.draw(programs())
    engines = [engine_for(realize(program), mode, index) for mode in MODES]
    for engine in engines:
        engine.recalculate_all()
    for _ in range(data.draw(st.integers(1, 3))):
        pos = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, ROWS)))
        value = data.draw(st.sampled_from(
            [float(data.draw(st.integers(-30, 30))), "edit", True, None]
        ))
        recomputed = {engine.set_value(pos, value).recomputed
                      for engine in engines}
        assert len(recomputed) == 1
        for engine in engines[1:]:
            assert_same_values(engines[0].sheet, engine.sheet)


@pytest.mark.parametrize("index", BACKENDS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_structural_edits_identical(index, data):
    program = data.draw(programs())
    op = data.draw(st.sampled_from(OPS))
    at = data.draw(st.integers(1, ROWS + 2))
    count = data.draw(st.integers(1, 3))

    oracle = engine_for(realize(program), "interpreter", index)
    oracle.recalculate_all()
    getattr(oracle, op)(at, count)

    engine = engine_for(realize(program), "auto", index)
    engine.recalculate_all()
    getattr(engine, op)(at, count)
    assert_same_values(engine.sheet, oracle.sheet)
    # Recalculate from scratch on the edited sheet too: the rewritten
    # formulas must *stay* in agreement.
    engine.recalculate_all()
    assert_same_values(engine.sheet, oracle.sheet)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_snapshot_restore_identical(data):
    """A snapshot restores the cached values — and the restored workbook
    recalculates to the same values."""
    program = data.draw(programs())
    source = realize(program)
    RecalcEngine(source).recalculate_all()
    workbook = Workbook("W")
    workbook.attach_sheet(source)
    buffer = io.BytesIO()
    save_snapshot(workbook, buffer)
    restored = load_snapshot(io.BytesIO(buffer.getvalue())).workbook.sheet("S")
    assert_same_values(restored, source)   # cached values survive
    RecalcEngine(restored).recalculate_all()
    assert_same_values(restored, source)   # ...and recompute equal
