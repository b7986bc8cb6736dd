"""Worker-pool lifecycle: caching, reuse, and public teardown.

The resident runtime keeps one single-process executor per shard *slot*,
shared by every runtime in the process.  Building many engines — under
any ``worker_mode`` spelling — must reuse cached pools rather than leak
fresh ones, and the public :func:`repro.engine.shutdown_pools` must tear
down the pools and the queued resident drops so embedders (and the CLI,
which calls it on exit) can release the worker processes
deterministically.
"""

from repro.engine import RecalcEngine, shutdown_pools
from repro.engine import shard as shard_mod

from helpers import build_mixed_sheet, clone_sheet


def run_sharded(**dispatch):
    sheet = clone_sheet(build_mixed_sheet(rows=30))
    engine = RecalcEngine(sheet, parallel_min_dirty=1, **dispatch)
    engine.recalculate_all()
    assert engine.eval_stats.parallel_dispatches >= 1


def test_worker_mode_changes_do_not_leak_pools():
    """Alternating worker modes across engines reuses the two resident
    slots; repeat runs add nothing."""
    shutdown_pools()
    try:
        for _ in range(3):
            for mode in (None, "thread", "process"):
                run_sharded(workers=2, worker_mode=mode)
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
    run_sharded(shards=2)
    shard_mod._DROPS.append((-1, 0))
    assert shard_mod._SLOT_POOLS
    shutdown_pools()
    assert shard_mod._SLOT_POOLS == {}
    assert shard_mod._DROPS == []
    shutdown_pools()    # twice is safe


def test_pools_rebuild_after_shutdown():
    """Teardown is not terminal: the next sharded engine lazily builds
    fresh pools and dispatches normally."""
    shutdown_pools()
    try:
        run_sharded(shards=2)
        assert shard_mod._SLOT_POOLS
    finally:
        shutdown_pools()
