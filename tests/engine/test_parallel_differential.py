"""Differential suite: partitioned parallel recalculation ≡ serial.

Both dispatchers behind ``workers=N`` — the thread region scheduler
(``repro.engine.parallel``) and, for ``worker_mode="process"``, the
resident runtime (``repro.engine.shard``; serial on the object store) —
promise *bit-identical* results: for any sheet program, an
``evaluation="auto"`` engine with ``workers=N`` produces exactly the
values — including errors and ``#CYCLE!`` propagation — and exactly the
:class:`EvalStats` cell counters of the serial auto engine, which in
turn matches the tree-walking interpreter oracle.  Pinned here across
both backing stores, every spatial-index backend, worker counts {2, 4},
both worker modes, and point / batch / structural edit paths.

``parallel_min_dirty=1`` forces the partitioned path even for these
deliberately small corpora.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.recalc import CircularReferenceError, RecalcEngine
from repro.formula.errors import ExcelError
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.spatial.registry import available_indexes

from helpers import (
    assert_same_values,
    engine_for,
    realize_program,
    sheet_programs,
)

BACKENDS = available_indexes()
STORES = ("columnar", "object")
WORKER_COUNTS = (2, 4)


def parallel_engine(sheet, index="rtree", workers=2, mode="thread"):
    return engine_for(
        sheet, "auto", index,
        workers=workers, worker_mode=mode, parallel_min_dirty=1,
    )


def assert_identical_run(program, index, workers, mode):
    """serial auto ≡ parallel(workers) ≡ interpreter, values and stats."""
    oracle = realize_program(program, "object")
    engine_for(oracle, "interpreter", index).recalculate_all()
    for store in STORES:
        serial_sheet = realize_program(program, store)
        serial = engine_for(serial_sheet, "auto", index)
        serial.recalculate_all()

        par_sheet = realize_program(program, store)
        par = parallel_engine(par_sheet, index, workers, mode)
        par.recalculate_all()

        assert_same_values(par_sheet, serial_sheet)
        assert_same_values(par_sheet, oracle)
        assert (par.eval_stats.counter_snapshot()
                == serial.eval_stats.counter_snapshot()), (store, mode)
        assert par.eval_stats.serial_fallbacks == 0, (store, mode)


@pytest.mark.parametrize("index", BACKENDS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_full_recalc_identical_thread(index, workers, data):
    program = data.draw(sheet_programs())
    assert_identical_run(program, index, workers, "thread")


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_full_recalc_identical_process(data):
    program = data.draw(sheet_programs())
    assert_identical_run(program, "rtree", 2, "process")


@pytest.mark.parametrize("mode", ("thread", "process"))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_point_edits_identical(mode, data):
    program = data.draw(sheet_programs())
    for store in STORES:
        serial = engine_for(realize_program(program, store), "auto", "rtree")
        par = parallel_engine(realize_program(program, store), mode=mode)
        serial.recalculate_all()
        par.recalculate_all()
        for _ in range(data.draw(st.integers(1, 3))):
            pos = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 20)))
            value = data.draw(st.sampled_from(
                [float(data.draw(st.integers(-30, 30))), "edit", True, None]
            ))
            result_s = serial.set_value(pos, value)
            result_p = par.set_value(pos, value)
            assert result_s.recomputed == result_p.recomputed
            assert_same_values(par.sheet, serial.sheet)
            assert (par.eval_stats.counter_snapshot()
                    == serial.eval_stats.counter_snapshot()), (store, mode)


@pytest.mark.parametrize("mode", ("thread", "process"))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batch_commit_identical(mode, data):
    program = data.draw(sheet_programs())
    edits = [
        ((data.draw(st.integers(1, 2)), data.draw(st.integers(1, 20))),
         float(data.draw(st.integers(-30, 30))))
        for _ in range(data.draw(st.integers(2, 6)))
    ]
    for store in STORES:
        serial = engine_for(realize_program(program, store), "auto", "rtree")
        par = parallel_engine(realize_program(program, store), mode=mode)
        serial.recalculate_all()
        par.recalculate_all()
        with serial.begin_batch() as batch_s:
            for pos, value in edits:
                batch_s.set_value(pos, value)
        with par.begin_batch() as batch_p:
            for pos, value in edits:
                batch_p.set_value(pos, value)
        assert batch_s.result.recomputed == batch_p.result.recomputed
        assert_same_values(par.sheet, serial.sheet)
        assert (par.eval_stats.counter_snapshot()
                == serial.eval_stats.counter_snapshot()), (store, mode)


@pytest.mark.parametrize("index", BACKENDS)
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_structural_edits_identical(index, data):
    program = data.draw(sheet_programs())
    op = data.draw(st.sampled_from(
        ("insert_rows", "delete_rows", "insert_columns", "delete_columns")
    ))
    at = data.draw(st.integers(1, 22))
    count = data.draw(st.integers(1, 3))
    for store in STORES:
        serial = engine_for(realize_program(program, store), "auto", index)
        par = parallel_engine(realize_program(program, store), index)
        serial.recalculate_all()
        par.recalculate_all()
        getattr(serial, op)(at, count)
        getattr(par, op)(at, count)
        assert_same_values(par.sheet, serial.sheet)
        assert (par.eval_stats.counter_snapshot()
                == serial.eval_stats.counter_snapshot()), (store, index)


def build_cycle_corpus(store):
    """Two healthy independent blocks plus a 3-cell reference cycle."""
    sheet = Sheet("S", store=store)
    for r in range(1, 21):
        sheet.set_value((1, r), float(r))
        sheet.set_value((4, r), float(r % 7))
    fill_formula_column(sheet, 2, 1, 20, "=A1*2")
    fill_formula_column(sheet, 5, 1, 20, "=SUM(D1:D3)")
    sheet.set_formula((7, 1), "=G2+1")
    sheet.set_formula((7, 2), "=G3+1")
    sheet.set_formula((7, 3), "=G1+1")
    return sheet


@pytest.mark.parametrize("mode", ("thread", "process"))
@pytest.mark.parametrize("store", STORES)
def test_cycle_parity(store, mode):
    """A cycle anywhere in the dirty set bails out of the partitioned
    path: both engines raise, mark ``#CYCLE!`` identically, and the
    bail-out is visible in the stats."""
    serial_sheet = build_cycle_corpus(store)
    serial = engine_for(serial_sheet, "auto", "rtree")
    with pytest.raises(CircularReferenceError):
        serial.recalculate_all()

    par_sheet = build_cycle_corpus(store)
    par = parallel_engine(par_sheet, mode=mode)
    with pytest.raises(CircularReferenceError):
        par.recalculate_all()

    if par.parallel is not None or par.shard_runtime is not None:
        assert par.eval_stats.serial_fallbacks == 1
        assert par.eval_stats.fallback_reason == "cycle"
    else:   # "process" on the object store: nothing to bail out of
        assert (store, mode) == ("object", "process")
        assert par.eval_stats.serial_fallbacks == 0
    assert isinstance(par_sheet.get_value((7, 1)), ExcelError)
    assert_same_values(par_sheet, serial_sheet)
    assert (par.eval_stats.counter_snapshot()
            == serial.eval_stats.counter_snapshot())


def test_workers_env_var(monkeypatch):
    """``REPRO_RECALC_WORKERS`` configures engines that don't pass
    ``workers=`` explicitly (thread mode: the worker mode has no
    environment spelling)."""
    monkeypatch.setenv("REPRO_RECALC_WORKERS", "2")
    monkeypatch.delenv("REPRO_RECALC_SHARDS", raising=False)
    monkeypatch.setenv("REPRO_PARALLEL_MIN_DIRTY", "1")
    sheet = Sheet("S")
    for r in range(1, 31):
        sheet.set_value((1, r), float(r))
    fill_formula_column(sheet, 2, 1, 30, "=XOR(A1>5,A1>25)")
    fill_formula_column(sheet, 4, 1, 30, "=A1*3+1")
    engine = RecalcEngine(sheet)
    assert engine.workers == 2
    assert engine.parallel is not None and engine.parallel.min_dirty == 1
    engine.recalculate_all()
    assert engine.eval_stats.parallel_dispatches > 0
    reference = Sheet("S")
    for r in range(1, 31):
        reference.set_value((1, r), float(r))
    fill_formula_column(reference, 2, 1, 30, "=XOR(A1>5,A1>25)")
    fill_formula_column(reference, 4, 1, 30, "=A1*3+1")
    RecalcEngine(reference, evaluation="interpreter").recalculate_all()
    assert_same_values(sheet, reference)
