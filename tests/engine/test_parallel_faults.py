"""Fault injection for the thread region scheduler, and determinism.

A worker dying mid-region must degrade to serial re-execution of the
affected regions with *identical values* and an honest ``EvalStats``
trail: ``serial_fallbacks`` counts the regions that fell back and
``fallback_reason`` names the last cause.  The injection hook is
``REPRO_PARALLEL_FAULT`` (read inside the worker): ``"die"`` kills the
worker at region start.  ``worker_mode="process"`` is the resident
runtime, whose own fault matrix (``garbage``, ``stale``, unshippable
deltas) lives in ``test_shard_faults.py``; it takes the ``die`` case here
too, so both modes are seen to fall back alike.  Plus: determinism — two
identical parallel runs must serialize to byte-identical snapshot files.
"""

import io

import pytest

from repro.engine import shutdown_pools
from repro.engine.parallel import FAULT_ENV, coarsen_regions, partition_plan
from repro.io.snapshot import save_snapshot
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

from helpers import assert_same_values, engine_for

DIE_WORKERS = 3


def build_corpus(store="columnar"):
    sheet = Sheet("S", store=store)
    for r in range(1, 41):
        sheet.set_value((1, r), float(r % 23))
        sheet.set_value((4, r), float(r % 7) + 1.0)
    fill_formula_column(sheet, 2, 1, 40, "=XOR(A1>4,A1>17)")   # interpreter
    fill_formula_column(sheet, 5, 1, 40, "=SUM(D1:D5)/D1")     # windowed
    fill_formula_column(sheet, 7, 1, 40, "=B1+0")              # chained block
    return sheet


def reference_values(store="columnar"):
    sheet = build_corpus(store)
    engine_for(sheet, "interpreter").recalculate_all()
    return sheet


@pytest.mark.parametrize("mode,workers,store", [
    ("thread", DIE_WORKERS, "columnar"), ("thread", DIE_WORKERS, "object"),
    ("process", DIE_WORKERS, "columnar"),    # serial on the object store
])
def test_worker_death_falls_back_serial(store, mode, workers, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "die")
    shutdown_pools()    # a resident forked before the variable was set never sees it
    try:
        sheet = build_corpus(store)
        engine = engine_for(
            sheet, workers=workers, worker_mode=mode, parallel_min_dirty=1,
            shards=0,   # the dispatcher under test is the one worker_mode names
        )
        engine.recalculate_all()
    finally:
        shutdown_pools()
    stats = engine.eval_stats
    assert stats.serial_fallbacks >= 1
    assert stats.fallback_reason == "worker-died"
    assert stats.parallel_dispatches == 0
    assert_same_values(sheet, reference_values(store))


@pytest.mark.parametrize("mode", ("thread", "process"))
def test_parallel_runs_are_deterministic(mode, monkeypatch):
    """Two identical parallel runs serialize to byte-identical snapshots.

    The snapshot header embeds a random ``snapshot_id``; pin it so the
    byte comparison covers the actual cell and value-column sections.
    """
    import uuid

    import repro.io.snapshot as snapshot_mod

    monkeypatch.setattr(
        snapshot_mod.uuid, "uuid4",
        lambda: uuid.UUID(int=0),
    )
    payloads = []
    for _ in range(2):
        workbook = Workbook("W")
        sheet = build_corpus("columnar")
        workbook.attach_sheet(sheet)
        engine = engine_for(
            sheet, workers=4, worker_mode=mode, parallel_min_dirty=1,
            shards=0,
        )
        engine.recalculate_all()
        assert engine.eval_stats.parallel_dispatches > 0
        buffer = io.BytesIO()
        save_snapshot(workbook, buffer)
        payloads.append(buffer.getvalue())
    assert payloads[0] == payloads[1]


def test_partition_respects_plan_components():
    """Regions are disjoint, cover the plan, never split a chain."""
    plan = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 7)]
    succs = {(1, 1): [(1, 2)], (2, 1): [(2, 2)]}
    regions = partition_plan(plan, succs)
    assert [sorted(region) for region in regions] == [
        [(1, 1), (1, 2)], [(2, 1), (2, 2)], [(3, 7)],
    ]
    flat = [node for region in regions for node in region]
    assert sorted(flat) == sorted(plan)            # cover, no duplicates


def test_coarsen_packs_whole_regions_deterministically():
    regions = [[(c, r) for r in range(1, 4)] for c in range(1, 10)]
    packed = coarsen_regions(regions, 2)
    assert len(packed) == 2
    flat = [node for bucket in packed for node in bucket]
    assert sorted(flat) == sorted(n for region in regions for n in region)
    assert packed == coarsen_regions(regions, 2)   # deterministic
