"""Fault injection for the persistent shard runtime.

Every failure mode must degrade to serial re-execution of the affected
shard's nodes with *identical values* and an honest ``EvalStats``
trail: ``serial_fallbacks``/``shard_fallbacks`` count the shards that
fell back and ``fallback_reason`` names the last cause.  The injection
hook is ``REPRO_PARALLEL_FAULT`` (``repro.engine.shard.FAULT_ENV``),
read inside the resident worker at exec/replay time (never at boot, so
a fault always hits a *resident* shard): ``"die"`` kills the worker
mid-delta, ``"stale"`` makes the resident disclaim its bootstrap token
(a stale store-epoch on the resident), ``"garbage"`` returns bytes that
fail to unpickle.  The fourth flavour needs no hook: a value no pickle
can ship, written into a shard's closure *after* boot, strands the
delta in the parent.

Slot pools fork workers that capture the environment at pool creation:
each test discards the resident pools before *and* after running under
the fault variable (the ``finally`` also keeps later suites from
inheriting poisoned workers).
"""

import pytest

from repro.engine.scenario import ScenarioEngine
from repro.engine.shard import FAULT_ENV, shutdown_pools
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

from helpers import assert_same_values, engine_for


def build_corpus():
    sheet = Sheet("S")
    for r in range(1, 41):
        sheet.set_value((1, r), float(r % 23))
        sheet.set_value((4, r), float(r % 7) + 1.0)
    fill_formula_column(sheet, 2, 1, 40, "=XOR(A1>4,A1>17)")   # closure
    fill_formula_column(sheet, 5, 1, 40, "=SUM(D1:D5)/D1")     # windowed
    fill_formula_column(sheet, 7, 1, 40, "=B1+0")              # chained block
    return sheet


def reference_values():
    sheet = build_corpus()
    engine_for(sheet, "interpreter").recalculate_all()
    return sheet


@pytest.mark.parametrize("fault,reason", [
    ("die", "worker-died"),
    ("stale", "stale-epoch"),
    ("garbage", "unpickle-failed"),
])
def test_exec_fault_falls_back_serial(fault, reason, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, fault)
    shutdown_pools()
    try:
        sheet = build_corpus()
        engine = engine_for(sheet, shards=2, parallel_min_dirty=1)
        engine.recalculate_all()
    finally:
        shutdown_pools()
    stats = engine.eval_stats
    assert stats.serial_fallbacks >= 1
    assert stats.shard_fallbacks >= 1
    assert stats.fallback_reason == reason
    assert stats.parallel_dispatches == 0
    assert_same_values(sheet, reference_values())


def test_recovery_after_worker_death(monkeypatch):
    """After a fault strands its shards, healthy pools re-bootstrap on
    the next dispatch and the runtime resumes shipping deltas."""
    monkeypatch.setenv(FAULT_ENV, "die")
    shutdown_pools()
    try:
        sheet = build_corpus()
        engine = engine_for(sheet, shards=2, parallel_min_dirty=1)
        engine.recalculate_all()
        assert engine.eval_stats.fallback_reason == "worker-died"
        fallbacks = engine.eval_stats.shard_fallbacks
    finally:
        shutdown_pools()
    monkeypatch.delenv(FAULT_ENV)
    engine.set_value((1, 3), 99.0)
    try:
        assert engine.eval_stats.shard_fallbacks == fallbacks
        assert engine.eval_stats.parallel_dispatches >= 1
        twin = build_corpus()
        serial = engine_for(twin)
        serial.recalculate_all()
        serial.set_value((1, 3), 99.0)
        assert_same_values(sheet, twin)
    finally:
        shutdown_pools()


def test_unpicklable_delta_falls_back_serial():
    """A value no pickle can ship, written into a shard's closure
    *after* boot, strands that shard's delta in the parent — with
    identical values, and residency recovering once the value is
    replaced."""
    sheet = build_corpus()
    engine = engine_for(sheet, shards=2, parallel_min_dirty=1)
    try:
        engine.recalculate_all()
        assert engine.eval_stats.shard_fallbacks == 0
        sheet.set_value((1, 41), lambda: None)   # read by no formula
        engine.set_value((1, 3), 99.0)           # but its column ships
        stats = engine.eval_stats
        assert stats.serial_fallbacks >= 1
        assert stats.shard_fallbacks >= 1
        assert stats.fallback_reason == "patch-pickle-failed"

        twin = build_corpus()
        serial = engine_for(twin)
        serial.recalculate_all()
        serial.set_value((1, 3), 99.0)
        for col in (2, 5, 7):
            for r in range(1, 41):
                assert sheet.get_value((col, r)) == twin.get_value((col, r))

        # Replace the unshippable value: the stranded shard re-boots and
        # the runtime is healthy again.
        fallbacks = stats.shard_fallbacks
        sheet.set_value((1, 41), 0.0)
        engine.set_value((1, 3), 12.0)
        serial.set_value((1, 3), 12.0)
        assert stats.shard_fallbacks == fallbacks
        for col in (2, 5, 7):
            for r in range(1, 41):
                assert sheet.get_value((col, r)) == twin.get_value((col, r))
    finally:
        shutdown_pools()


def test_scenario_replay_stale_falls_back_serial(monkeypatch):
    """A resident scenario replica that disclaims its bootstrap token
    mid-sweep falls back chunk-by-chunk with identical results."""
    monkeypatch.setenv(FAULT_ENV, "stale")
    shutdown_pools()
    try:
        sheet = build_corpus()
        engine = engine_for(sheet)
        engine.recalculate_all()
        whatif = ScenarioEngine(engine, ["A1", "A2"])
        scenarios = [{"A1": float(i), "A2": float(i * 2)} for i in range(8)]
        results = whatif.run(scenarios, ["E1", "G5"], workers=2)
    finally:
        shutdown_pools()
    stats = engine.eval_stats
    assert stats.serial_fallbacks >= 1
    assert stats.fallback_reason == "stale-epoch"

    # The fault env is still set here: pin the reference truly serial
    # (shards=0) so it cannot fork poisoned slot pools under the
    # REPRO_RECALC_SHARDS CI matrix and leak them into later tests.
    serial_sheet = build_corpus()
    serial = engine_for(serial_sheet, shards=0)
    serial.recalculate_all()
    serial_whatif = ScenarioEngine(serial, ["A1", "A2"])
    expected = serial_whatif.run(scenarios, ["E1", "G5"])
    assert results == expected


def test_forked_child_inherits_no_slot_pools():
    """A worker forked while an uncollected runtime's finalizer is still
    pending runs that finalizer itself when *its* GC gets there.  With
    the parent's pools visible it would submit a drop to a copied pool
    whose lock the parent held across the fork, and hang at boot."""
    import os

    from repro.engine import shard

    shutdown_pools()
    try:
        engine = engine_for(build_corpus(), shards=2, parallel_min_dirty=1)
        engine.recalculate_all()
        assert shard._SLOT_POOLS
        pid = os.fork()
        if pid == 0:
            os._exit(1 if shard._SLOT_POOLS else 0)
        assert os.waitpid(pid, 0)[1] == 0
    finally:
        shutdown_pools()


def test_a_collected_runtime_never_waits_on_a_pool_lock():
    """A collection can run a runtime's finalizer inside ``submit`` on
    that very slot pool, with the pool's (non-reentrant) lock held by the
    same thread: the finalizer must not take the lock, or that submit
    never returns.  Its drops go out ahead of the next message."""
    import threading

    from repro.engine import shard

    shutdown_pools()
    try:
        engine = engine_for(build_corpus(), shards=2, parallel_min_dirty=1)
        engine.recalculate_all()
        with shard._SLOT_POOLS[0]._shutdown_lock:
            finalizer = threading.Thread(target=shard._send_drops, args=(-1, 2))
            finalizer.start()
            finalizer.join(timeout=10)
            assert not finalizer.is_alive()
        assert (-1, 0) in shard._DROPS
        engine.set_value((1, 1), 2.0)
        assert not shard._DROPS
    finally:
        shutdown_pools()
