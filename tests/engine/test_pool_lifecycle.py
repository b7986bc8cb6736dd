"""Worker-pool lifecycle: caching, reuse, and public teardown.

Pools are process-wide caches — the thread scheduler keys executors by
worker count, the resident runtime keys one single-process executor per
shard *slot* shared by every runtime.  Flipping an engine's
``worker_mode`` (or building many engines) must reuse cached pools
rather than leak fresh ones, and the public
:func:`repro.engine.shutdown_pools` must tear down both caches so
embedders (and the CLI, which calls it on exit) can release the worker
processes deterministically.
"""

from repro.engine import shutdown_pools
from repro.engine import parallel as parallel_mod
from repro.engine import shard as shard_mod

from helpers import build_mixed_sheet, clone_sheet, engine_for


def run_pooled(mode, workers=2):
    sheet = clone_sheet(build_mixed_sheet(rows=30), store="columnar")
    engine = engine_for(
        sheet, workers=workers, worker_mode=mode, parallel_min_dirty=1,
        shards=0,    # worker_mode picks the dispatcher, whatever the CI matrix sets
    )
    engine.recalculate_all()
    assert engine.eval_stats.parallel_dispatches >= 1


def run_sharded(shards=2):
    sheet = clone_sheet(build_mixed_sheet(rows=30), store="columnar")
    engine = engine_for(sheet, shards=shards, parallel_min_dirty=1)
    engine.recalculate_all()
    assert engine.eval_stats.parallel_dispatches >= 1


def test_worker_mode_changes_do_not_leak_pools():
    """Alternating worker modes across engines reuses one thread pool
    and the two resident slots; repeat runs add nothing."""
    shutdown_pools()
    try:
        for _ in range(3):
            run_pooled("thread")
            run_pooled("process")
        assert set(parallel_mod._POOLS) == {2}
        assert set(shard_mod._SLOT_POOLS) == {0, 1}
    finally:
        shutdown_pools()


def test_shard_slots_shared_across_runtimes():
    """N engines with the same shard count share the same slot pools:
    the cache holds max(shards) entries, not engines x shards."""
    shutdown_pools()
    try:
        for _ in range(3):
            run_sharded(shards=2)
        assert len(shard_mod._SLOT_POOLS) == 2
        run_sharded(shards=3)
        assert len(shard_mod._SLOT_POOLS) == 3
    finally:
        shutdown_pools()


def test_shutdown_pools_clears_both_caches():
    run_pooled("thread")
    run_sharded(shards=2)
    assert parallel_mod._POOLS
    assert shard_mod._SLOT_POOLS
    shutdown_pools()
    assert parallel_mod._POOLS == {}
    assert shard_mod._SLOT_POOLS == {}
    shutdown_pools()    # twice is safe


def test_pools_rebuild_after_shutdown():
    """Teardown is not terminal: the next parallel engine lazily builds
    fresh pools and dispatches normally."""
    shutdown_pools()
    try:
        run_pooled("thread")
        run_sharded(shards=2)
        assert parallel_mod._POOLS
        assert shard_mod._SLOT_POOLS
    finally:
        shutdown_pools()
