"""Differential suite: the columnar store ≡ the object store.

The columnar backing store promises *observational identity* with the
dict-of-Cells store: for any sheet program — values, formula columns,
point edits, structural edits, snapshot round-trips — both stores leave
bit-identical values under both evaluation modes, for every registered
spatial-index backend.  The object-store interpreter engine is the
oracle everything else is compared against.
"""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.recalc import RecalcEngine
from repro.io.snapshot import load_snapshot, save_snapshot
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook
from repro.spatial.registry import available_indexes

from helpers import (
    assert_same_values,
    default_store,
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
def test_full_recalc_all_stores_and_modes(index, data):
    program = data.draw(programs())
    oracle = realize(program, "object")
    engine_for(oracle, "interpreter", index).recalculate_all()
    for store in ("columnar", "object"):
        for mode in MODES:
            subject = realize(program, store)
            engine_for(subject, mode, index).recalculate_all()
            assert_same_values(subject, oracle)


@pytest.mark.parametrize("index", BACKENDS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_point_edits_identical(index, data):
    program = data.draw(programs())
    engines = [
        engine_for(realize(program, store), mode, index)
        for store in ("columnar", "object")
        for mode in MODES
    ]
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

    oracle = engine_for(realize(program, "object"), "interpreter", index)
    oracle.recalculate_all()
    getattr(oracle, op)(at, count)

    for store in ("columnar", "object"):
        for mode in MODES:
            engine = engine_for(realize(program, store), mode, index)
            engine.recalculate_all()
            getattr(engine, op)(at, count)
            assert_same_values(engine.sheet, oracle.sheet)
            # Recalculate from scratch on the edited sheet too: the
            # rewritten formulas must *stay* in agreement.
            engine.recalculate_all()
            assert_same_values(engine.sheet, oracle.sheet)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_snapshot_restore_identical(data):
    """Any store's snapshot restores into any store — and the restored
    workbook recalculates to the same values (satellite: an object-store
    snapshot must restore into a columnar-backed workbook and vice
    versa)."""
    program = data.draw(programs())
    for src_store in ("columnar", "object"):
        source = realize(program, src_store)
        RecalcEngine(source).recalculate_all()
        workbook = Workbook("W")
        workbook.attach_sheet(source)
        buffer = io.BytesIO()
        save_snapshot(workbook, buffer)
        payload = buffer.getvalue()
        for dst_store in ("columnar", "object"):
            with default_store(dst_store):
                restored = load_snapshot(io.BytesIO(payload)).workbook.sheet("S")
            assert restored.store_kind == dst_store
            assert_same_values(restored, source)   # cached values survive
            RecalcEngine(restored).recalculate_all()
            assert_same_values(restored, source)   # ...and recompute equal
