"""Differential suite: resident runtime ≡ serial.

For any sheet program, an ``evaluation="auto"`` engine with ``shards=N``
— or, the other spelling, ``workers=N`` under any ``worker_mode`` —
produces exactly the values — including errors and ``#CYCLE!``
propagation — and exactly the :class:`EvalStats` cell counters of the
serial auto engine, which in turn match the tree-walking interpreter
oracle.  Pinned here across the point / batch / structural edit paths.

``parallel_min_dirty=1`` forces the sharded path even for these
deliberately small corpora; the hot-loop tests assert residency held
(no re-bootstraps) so the identity covers the *delta* protocol, not
just the bootstrap.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.recalc import CircularReferenceError, RecalcEngine
from repro.formula.errors import ExcelError
from repro.grid.ref import col_to_letters
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

from helpers import (
    assert_same_values,
    engine_for,
    realize_program,
    sheet_programs,
)

SHARD_COUNTS = (2, 4)


def sharded(sheet, shards=2):
    return engine_for(sheet, shards=shards, parallel_min_dirty=1)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_full_recalc_identical(shards, data):
    """serial auto ≡ sharded (either spelling, any worker mode) ≡
    interpreter, values and stats."""
    program = data.draw(sheet_programs())
    mode = data.draw(st.sampled_from((None, "thread", "process")))
    oracle = realize_program(program)
    engine_for(oracle, "interpreter").recalculate_all()
    serial_sheet = realize_program(program)
    serial = engine_for(serial_sheet)
    serial.recalculate_all()

    shard_sheet = realize_program(program)
    shard = sharded(shard_sheet, shards)
    shard.recalculate_all()

    assert_same_values(shard_sheet, serial_sheet)
    assert_same_values(shard_sheet, oracle)
    assert shard.eval_stats.counter_snapshot() == serial.eval_stats.counter_snapshot()
    assert shard.eval_stats.shard_fallbacks == 0

    alias_sheet = realize_program(program)
    alias = RecalcEngine(
        alias_sheet, workers=shards, worker_mode=mode, parallel_min_dirty=1,
    )
    alias.recalculate_all()
    assert alias.shard_runtime.shards == shards, mode
    assert_same_values(alias_sheet, shard_sheet)
    for stat in ("shard_bootstraps", "parallel_dispatches",
                 "serial_fallbacks", "shard_fallbacks"):
        assert (getattr(alias.eval_stats, stat)
                == getattr(shard.eval_stats, stat)), (mode, stat)
    assert (alias.eval_stats.counter_snapshot()
            == shard.eval_stats.counter_snapshot()), mode


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_point_edits_identical(data):
    """Resident deltas across a point-edit sequence stay bit-identical,
    with no re-bootstraps between pure value edits."""
    program = data.draw(sheet_programs())
    serial = engine_for(realize_program(program))
    shard = sharded(realize_program(program))
    serial.recalculate_all()
    shard.recalculate_all()
    boots = shard.eval_stats.shard_bootstraps
    value_edits_only = True
    for _ in range(data.draw(st.integers(1, 3))):
        pos = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 20)))
        value = data.draw(st.sampled_from(
            [float(data.draw(st.integers(-30, 30))), "edit", True, None]
        ))
        if value is None:
            value_edits_only = False    # clears can strike formulas
        result_s = serial.set_value(pos, value)
        result_h = shard.set_value(pos, value)
        assert result_s.recomputed == result_h.recomputed
        assert_same_values(shard.sheet, serial.sheet)
        assert shard.eval_stats.counter_snapshot() == serial.eval_stats.counter_snapshot()
    if value_edits_only:
        assert shard.eval_stats.shard_bootstraps == boots


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batch_commit_identical(data):
    program = data.draw(sheet_programs())
    edits = [
        ((data.draw(st.integers(1, 2)), data.draw(st.integers(1, 20))),
         float(data.draw(st.integers(-30, 30))))
        for _ in range(data.draw(st.integers(2, 6)))
    ]
    serial = engine_for(realize_program(program))
    shard = sharded(realize_program(program))
    serial.recalculate_all()
    shard.recalculate_all()
    with serial.begin_batch() as batch_s:
        for pos, value in edits:
            batch_s.set_value(pos, value)
    with shard.begin_batch() as batch_h:
        for pos, value in edits:
            batch_h.set_value(pos, value)
    assert batch_s.result.recomputed == batch_h.result.recomputed
    assert_same_values(shard.sheet, serial.sheet)
    assert shard.eval_stats.counter_snapshot() == serial.eval_stats.counter_snapshot()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_formula_edit_then_value_batch_identical(data):
    """A formula edit marks the residents stale, so the value batch after
    it pays a re-boot for a *partial* recompute: the batch's dirty cells
    read formulas it leaves clean, whose cached values the boot must
    have kept.  Every fill gets a reader column beside it (``=C1+B1``)
    and the batch writes column B only, so fills that read column A
    alone stay clean under their dirty readers."""
    values, fills = data.draw(sheet_programs())
    program = (values, [
        fill for i, (_, first, last, template) in enumerate(fills)
        for fill in (
            (3 + 2 * i, first, last, template),
            (4 + 2 * i, first, last, f"={col_to_letters(3 + 2 * i)}1+B1"),
        )
    ])
    edit_at = (data.draw(st.integers(3, 10)), data.draw(st.integers(1, 22)))
    edit_text = data.draw(st.sampled_from(("=1+1", "=A1*2", "=SUM(A1:B2)")))
    writes = [
        ((2, data.draw(st.integers(1, 20))), float(data.draw(st.integers(-30, 30))))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    serial = engine_for(realize_program(program))
    shard = sharded(realize_program(program))
    for engine in (serial, shard):
        engine.recalculate_all()
        engine.set_formula(edit_at, edit_text)
        with engine.begin_batch() as batch:
            for pos, value in writes:
                batch.set_value(pos, value)
    assert_same_values(shard.sheet, serial.sheet)
    assert shard.eval_stats.counter_snapshot() == serial.eval_stats.counter_snapshot()
    assert shard.eval_stats.shard_fallbacks == 0


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_structural_edits_identical(data):
    """Structural edits re-bootstrap resident shards; values after the
    reshard stay bit-identical to serial."""
    program = data.draw(sheet_programs())
    op = data.draw(st.sampled_from(
        ("insert_rows", "delete_rows", "insert_columns", "delete_columns")
    ))
    at = data.draw(st.integers(1, 22))
    count = data.draw(st.integers(1, 3))
    serial = engine_for(realize_program(program))
    shard = sharded(realize_program(program))
    serial.recalculate_all()
    shard.recalculate_all()
    getattr(serial, op)(at, count)
    getattr(shard, op)(at, count)
    assert_same_values(shard.sheet, serial.sheet)
    assert shard.eval_stats.counter_snapshot() == serial.eval_stats.counter_snapshot()
    # A follow-up edit exercises the re-bootstrapped residents.
    serial.set_value((1, 1), 5.5)
    shard.set_value((1, 1), 5.5)
    assert_same_values(shard.sheet, serial.sheet)


def build_cycle_corpus():
    """Two healthy independent blocks plus a 3-cell reference cycle."""
    sheet = Sheet("S")
    for r in range(1, 21):
        sheet.set_value((1, r), float(r))
        sheet.set_value((4, r), float(r % 7))
    fill_formula_column(sheet, 2, 1, 20, "=A1*2")
    fill_formula_column(sheet, 5, 1, 20, "=SUM(D1:D3)")
    sheet.set_formula((7, 1), "=G2+1")
    sheet.set_formula((7, 2), "=G3+1")
    sheet.set_formula((7, 3), "=G1+1")
    return sheet


def test_cycle_parity():
    """A cycle anywhere in the dirty set bails out of the sharded path:
    both engines raise, mark ``#CYCLE!`` identically, and the bail-out
    is visible in the stats."""
    serial_sheet = build_cycle_corpus()
    serial = engine_for(serial_sheet)
    with pytest.raises(CircularReferenceError):
        serial.recalculate_all()

    shard_sheet = build_cycle_corpus()
    shard = sharded(shard_sheet)
    with pytest.raises(CircularReferenceError):
        shard.recalculate_all()

    assert shard.eval_stats.serial_fallbacks == 1
    assert shard.eval_stats.fallback_reason == "cycle"
    assert isinstance(shard_sheet.get_value((7, 1)), ExcelError)
    assert_same_values(shard_sheet, serial_sheet)
    assert (shard.eval_stats.counter_snapshot()
            == serial.eval_stats.counter_snapshot())


def test_shards_env_var(monkeypatch):
    """``REPRO_RECALC_SHARDS`` configures engines that don't pass
    ``shards=`` explicitly, with the same value identity."""
    monkeypatch.setenv("REPRO_RECALC_SHARDS", "2")
    sheet = realize_program(
        ([((1, r), float(r)) for r in range(1, 21)]
         + [((2, r), float(r % 5)) for r in range(1, 21)],
         [(3, 1, 20, "=A1+B1")]),
    )
    engine = engine_for(sheet, parallel_min_dirty=1)
    assert engine.shard_runtime is not None
    engine.recalculate_all()

    twin = realize_program(
        ([((1, r), float(r)) for r in range(1, 21)]
         + [((2, r), float(r % 5)) for r in range(1, 21)],
         [(3, 1, 20, "=A1+B1")]),
    )
    monkeypatch.delenv("REPRO_RECALC_SHARDS")
    engine_for(twin).recalculate_all()
    assert_same_values(sheet, twin)
