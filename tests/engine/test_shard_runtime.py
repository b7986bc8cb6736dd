"""Behavioral tests for the persistent shard runtime.

The runtime's contract (``repro.engine.shard``): bootstrap each resident
once, thereafter ship only dirty-column plane deltas keyed by the
columnar store's version stamps; invalidate on formula/structural
change or an epoch move and re-bootstrap before the next dispatch; and
produce *bit-identical* values and ``EvalStats`` cell counters to the
serial engine, always.
"""

import io

import pytest

from repro.engine.recalc import RecalcEngine
from repro.engine.shard import ShardRuntime
from repro.grid.range import Range
from repro.io.snapshot import save_snapshot
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

from helpers import (
    assert_same_values,
    build_mixed_sheet,
    clone_sheet,
    engine_for,
)


def mixed(rows=30):
    """The mixed corpus, its formulas typed cell by cell."""
    return clone_sheet(build_mixed_sheet(rows=rows))


def sharded_engine(sheet, shards=2):
    return engine_for(sheet, shards=shards, parallel_min_dirty=1)


def serial_twin(sheet):
    """A recalculated serial clone of ``sheet``'s *initial* program."""
    twin = clone_sheet(sheet)
    engine_for(twin).recalculate_all()
    return twin


def test_runtime_only_for_columnar_auto():
    columnar = engine_for(mixed(rows=10), shards=2)
    assert isinstance(columnar.shard_runtime, ShardRuntime)
    interp = engine_for(mixed(rows=10), "interpreter", shards=2)
    assert interp.shard_runtime is None
    assert engine_for(mixed(rows=10), shards=1).shard_runtime is None


def test_worker_mode_process_is_the_same_runtime():
    """``workers=N`` is ``shards=N`` spelled the other way, whatever
    ``worker_mode`` says; either way an engine holds one dispatcher."""
    for mode in (None, "process", "thread"):
        alias = RecalcEngine(mixed(rows=10), workers=3, worker_mode=mode, shards=0)
        assert isinstance(alias.shard_runtime, ShardRuntime)
        assert alias.shard_runtime.shards == 3 and alias.workers == 3
        assert not hasattr(alias, "parallel")
    both = RecalcEngine(mixed(rows=10), workers=4, worker_mode="thread", shards=2)
    assert both.shard_runtime.shards == 2 and both.workers == 2


def test_worker_mode_process_on_the_interpreter_stays_serial():
    """The interpreter is the oracle: ``"process"`` there dispatches
    nothing and is no fallback."""
    engine = RecalcEngine(
        mixed(rows=30), evaluation="interpreter",
        workers=2, worker_mode="process", parallel_min_dirty=1,
    )
    assert engine.shard_runtime is None
    engine.recalculate_all()
    stats = engine.eval_stats
    assert (stats.parallel_dispatches, stats.shard_bootstraps) == (0, 0)
    assert (stats.serial_fallbacks, stats.fallback_reason) == (0, None)
    assert_same_values(engine.sheet, serial_twin(mixed(rows=30)))


def test_unknown_worker_mode_is_rejected_whatever_workers_is():
    for workers in (None, 0, 1, 4):
        with pytest.raises(ValueError, match="worker mode"):
            RecalcEngine(mixed(rows=5), workers=workers, worker_mode="bogus")


def test_env_var_configures_shards(monkeypatch):
    monkeypatch.setenv("REPRO_RECALC_SHARDS", "3")
    engine = engine_for(mixed(rows=10))
    assert isinstance(engine.shard_runtime, ShardRuntime)
    assert engine.shard_runtime.shards == 3


def test_bootstrap_once_then_deltas():
    """The hot edit loop never re-bootstraps: only deltas ship."""
    sheet = mixed(rows=30)
    engine = sharded_engine(sheet)
    engine.recalculate_all()
    stats = engine.eval_stats
    boots = stats.shard_bootstraps
    assert boots >= 1
    assert stats.parallel_dispatches >= 1

    twin = mixed(rows=30)
    serial = engine_for(twin)
    serial.recalculate_all()
    delta_bytes = stats.shard_delta_bytes
    for i in range(10):
        engine.set_value((1, 3), float(100 + i))
        serial.set_value((1, 3), float(100 + i))
        assert_same_values(sheet, twin)
    assert stats.shard_bootstraps == boots          # resident, not rebuilt
    assert stats.shard_delta_bytes > delta_bytes    # deltas did ship
    assert stats.shard_fallbacks == 0
    assert stats.counter_snapshot() == serial.eval_stats.counter_snapshot()


def test_reboot_for_a_partial_recompute_keeps_clean_formula_values():
    """Every formula edit marks the residents stale, so the next
    dispatch boots them for whatever happens to be dirty.  Column D
    (dirty: C was rewritten) reads column B (clean) in its own shard:
    the boot has to ship B's cached values along with its formulas."""
    def build():
        sheet = Sheet("S")
        for r in range(1, 201):
            sheet.set_value((1, r), float(r))
            sheet.set_value((3, r), 1.0)
        fill_formula_column(sheet, 2, 1, 200, "=A1*2")
        fill_formula_column(sheet, 4, 1, 200, "=B1+C1")
        sheet.set_formula("F1", "=1+1")
        return sheet

    engines = [engine_for(build()), sharded_engine(build())]
    for engine in engines:
        engine.recalculate_all()
        engine.set_formula("F1", "=2+2")
        with engine.begin_batch() as batch:
            for r in range(1, 201):
                batch.set_value((3, r), 5.0)
    serial, sharded = engines
    assert [serial.sheet.get_value(c) for c in ("D1", "D2", "D200")] == [7.0, 9.0, 405.0]
    assert_same_values(sharded.sheet, serial.sheet)
    assert sharded.eval_stats.shard_fallbacks == 0
    assert (sharded.eval_stats.counter_snapshot()
            == serial.eval_stats.counter_snapshot())


def test_formula_edit_invalidates_residents():
    sheet = mixed(rows=30)
    engine = sharded_engine(sheet)
    engine.recalculate_all()
    boots = engine.eval_stats.shard_bootstraps
    engine.set_formula((3, 5), "=SUM(A1:B2)+1")
    assert engine.eval_stats.shard_bootstraps > boots
    twin = clone_sheet(mixed(rows=30))
    serial = engine_for(twin)
    serial.recalculate_all()
    serial.set_formula((3, 5), "=SUM(A1:B2)+1")
    assert_same_values(sheet, twin)


def test_clearing_a_formula_invalidates_residents():
    sheet = mixed(rows=30)
    engine = sharded_engine(sheet)
    engine.recalculate_all()
    boots = engine.eval_stats.shard_bootstraps
    engine.clear_cell((3, 5))
    # Invalidation is lazy: the clear moved the sheet's formula version,
    # the next dispatch sees it and re-bootstraps.
    engine.set_value((1, 3), 77.0)
    assert engine.eval_stats.shard_bootstraps > boots


def test_formula_edit_behind_the_engines_back_reaches_the_residents():
    """A formula changed on the sheet itself, not through the engine,
    moves the sheet's formula version all the same: the residents are
    re-booted with it before the next dispatch."""
    def build():
        sheet = Sheet("S")
        for r in range(1, 201):
            sheet.set_value((1, r), float(r))
        fill_formula_column(sheet, 2, 1, 200, "=A1*2")
        fill_formula_column(sheet, 3, 1, 200, "=B1+1")
        return sheet

    engines = [engine_for(build()), sharded_engine(build())]
    for engine in engines:
        engine.recalculate_all()
        engine.sheet.set_formula("B5", "=A5*100")
        engine.recompute([Range.from_a1("B5:C5")], extra=[(2, 5)])
    serial, sharded = engines
    assert [serial.sheet.get_value(c) for c in ("B5", "C5")] == [500.0, 501.0]
    assert_same_values(sharded.sheet, serial.sheet)
    assert sharded.eval_stats.shard_fallbacks == 0


def test_structural_edit_rebootstraps_with_identical_values():
    sheet = mixed(rows=30)
    engine = sharded_engine(sheet)
    engine.recalculate_all()
    boots = engine.eval_stats.shard_bootstraps
    engine.insert_rows(5, 2)
    assert engine.eval_stats.shard_bootstraps > boots

    twin = clone_sheet(mixed(rows=30))
    serial = engine_for(twin)
    serial.recalculate_all()
    serial.insert_rows(5, 2)
    assert_same_values(sheet, twin)
    assert (engine.eval_stats.counter_snapshot()
            == serial.eval_stats.counter_snapshot())


def test_epoch_move_rebootstraps_with_identical_values():
    """A store epoch bump (whole-plane reshape) strands every resident;
    the next dispatch re-bootstraps and values stay correct."""
    sheet = mixed(rows=30)
    engine = sharded_engine(sheet)
    engine.recalculate_all()
    boots = engine.eval_stats.shard_bootstraps
    sheet._cells.epoch += 1
    engine.set_value((1, 3), 123.0)
    assert engine.eval_stats.shard_bootstraps > boots

    twin = clone_sheet(mixed(rows=30))
    serial = engine_for(twin)
    serial.recalculate_all()
    serial.set_value((1, 3), 123.0)
    assert_same_values(sheet, twin)


def test_value_only_batch_keeps_residents():
    """The hot-loop shape — a batch of pure value writes over data
    cells — must not invalidate residents."""
    sheet = mixed(rows=30)
    engine = sharded_engine(sheet)
    engine.recalculate_all()
    boots = engine.eval_stats.shard_bootstraps
    with engine.begin_batch() as batch:
        batch.set_value((1, 2), 50.0)
        batch.set_value((2, 7), 60.0)
    assert engine.eval_stats.shard_bootstraps == boots

    twin = clone_sheet(mixed(rows=30))
    serial = engine_for(twin)
    serial.recalculate_all()
    with serial.begin_batch() as sbatch:
        sbatch.set_value((1, 2), 50.0)
        sbatch.set_value((2, 7), 60.0)
    assert_same_values(sheet, twin)


def test_formula_batch_invalidates_residents():
    sheet = mixed(rows=30)
    engine = sharded_engine(sheet)
    engine.recalculate_all()
    boots = engine.eval_stats.shard_bootstraps
    with engine.begin_batch() as batch:
        batch.set_formula((3, 5), "=SUM(A1:B2)+1")
    assert engine.eval_stats.shard_bootstraps > boots


def test_min_dirty_threshold_gates_dispatch():
    sheet = mixed(rows=30)
    engine = engine_for(sheet, shards=2, parallel_min_dirty=10_000)
    engine.recalculate_all()
    assert engine.eval_stats.parallel_dispatches == 0
    assert engine.eval_stats.shard_bootstraps == 0
    assert_same_values(sheet, serial_twin(mixed(rows=30)))


def test_cross_sheet_columns_stay_parent_owned():
    """Columns with cross-sheet references never ship (the resident's
    rebuilt sheet is alone in its process); the rest still shard."""

    def build():
        workbook = Workbook("W")
        sheet = Sheet("main")
        other = Sheet("other")
        workbook.attach_sheet(sheet)
        workbook.attach_sheet(other)
        for r in range(1, 41):
            sheet.set_value((1, r), float(r))
            other.set_value((1, r), float(r * 2))
        fill_formula_column(sheet, 2, 1, 40, "=A1*2")
        fill_formula_column(sheet, 3, 1, 40, "=other!A1+A1")
        fill_formula_column(sheet, 5, 1, 40, "=B1+1")
        return sheet

    sheet = build()
    engine = sharded_engine(sheet)
    engine.recalculate_all()
    assert engine.eval_stats.parallel_dispatches >= 1
    assert engine.eval_stats.shard_fallbacks == 0
    owner = engine.shard_runtime._owner
    assert owner[3] == -1                       # cross-sheet: parent-owned
    assert owner[2] >= 0 and owner[5] >= 0      # the rest still shard

    twin = build()
    serial = engine_for(twin)
    serial.recalculate_all()
    assert_same_values(sheet, twin)
    assert (engine.eval_stats.counter_snapshot()
            == serial.eval_stats.counter_snapshot())


def test_sharded_runs_are_deterministic(monkeypatch):
    """Two identical sharded runs serialize to byte-identical snapshots
    (merges happen in sorted shard order over the same typed path)."""
    import uuid

    import repro.io.snapshot as snapshot_mod

    monkeypatch.setattr(snapshot_mod.uuid, "uuid4", lambda: uuid.UUID(int=0))
    payloads = []
    for _ in range(2):
        workbook = Workbook("W")
        sheet = mixed(rows=30)
        workbook.attach_sheet(sheet)
        engine = sharded_engine(sheet, shards=3)
        engine.recalculate_all()
        for i in range(5):
            engine.set_value((1, 3), float(i))
        assert engine.eval_stats.parallel_dispatches > 0
        buffer = io.BytesIO()
        save_snapshot(workbook, buffer)
        payloads.append(buffer.getvalue())
    assert payloads[0] == payloads[1]
