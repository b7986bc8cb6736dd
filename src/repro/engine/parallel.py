"""Partitioned parallel recalculation over the compressed formula graph.

The compressed graph makes region discovery nearly free: the spatial
index plus the compressed RR/FR dependent ranges already expose where
the dirty subgraph is independent.  This module schedules those
independent *regions* across a worker pool while keeping the result —
values, errors, and :class:`~repro.formula.compile.EvalStats` cell
counters — bit-identical to single-threaded auto mode.

Partitioning happens at the *plan* level, not the cell level.  The
serial engine already orders the dirty set as column strips (windowed /
elementwise / scalar) plus lone cells, with a successor adjacency built
from union-rectangle probes (:meth:`RecalcEngine._order_entries`).  A
union-find over that adjacency yields the weakly-connected components of
the node DAG.  Invariants:

* regions are pairwise disjoint sets of plan nodes;
* their union is exactly the plan (every dirty formula cell is in
  exactly one region);
* a strip is never split across regions — it travels whole, so the
  rolling/sweep evaluators see the same stretches as serial mode.

Any dependency between two dirty cells would have produced a successor
edge and merged their regions, so distinct regions share no edges at
all: the only synchronization boundary is the join at the end of the
dispatch wave, and each region may execute the serial engine's plan
order restricted to its own nodes — which is a valid topological order
of the induced subgraph.  Values are therefore identical by
construction, and the per-region stats counters sum to the serial
totals because every plan node is executed exactly once, by exactly one
engine, through the same tier dispatch.

Regions run on a thread pool (``concurrent.futures``): shadow engines
share the live sheet, and columnar columns the plan writes are pre-grown
so no worker ever reallocates a plane another worker holds a buffer view
of.  Leaving the process is not this module's business — that is the
resident runtime (:mod:`repro.engine.shard`), the one out-of-process
dispatch path.

A worker dying mid-region falls back to serial re-execution of that
region in the parent (idempotent: regions own disjoint cells), and a
cycle in the dirty set keeps the whole plan serial; both are reported in
``EvalStats.serial_fallbacks`` / ``fallback_reason`` rather than
silently absorbed.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .recalc import RecalcEngine

__all__ = ["ParallelRecalc", "coarsen_regions", "partition_plan", "shutdown_pools"]

#: Fault-injection hook for the fallback tests, read inside the worker:
#: ``"die"`` kills it at region start (a thread worker raises, a resident
#: hard-exits); ``"garbage"`` and ``"stale"`` are the resident runtime's
#: (:mod:`repro.engine.shard`).
FAULT_ENV = "REPRO_PARALLEL_FAULT"


# -- plan partitioning ---------------------------------------------------------


def partition_plan(plan, succs) -> list[list[object]]:
    """Split an ordered plan into weakly-connected regions.

    ``succs`` is the successor adjacency the topological sort was built
    from; union-find over its edges groups the plan nodes into
    components.  Each returned region preserves the plan's order, so it
    is a valid topological order of the induced subgraph, and regions
    are returned in order of their earliest plan node (deterministic).
    """
    if not succs:
        # Fully independent plan (the common shape for scattered
        # per-cell formulas over pure-value inputs): every node is its
        # own region, no union-find bookkeeping needed.
        return [[node] for node in plan]
    # Only nodes an edge touches can share a region; the rest are
    # singletons.  Restricting the union-find to touched nodes keeps the
    # partition O(E α(E) + D) instead of paying per-node dict costs for
    # dirty sets whose adjacency is sparse.  Singles are (col, row)
    # tuples — equal by value, so the index keys by the node itself,
    # matching the hashing `_order_entries` used to build the adjacency.
    touched: dict[object, int] = {}
    for node, targets in succs.items():
        if targets and node not in touched:
            touched[node] = len(touched)
        for target in targets:
            if target not in touched:
                touched[target] = len(touched)
    parent = list(range(len(touched)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for node, targets in succs.items():
        if not targets:
            continue
        ri = find(touched[node])
        for target in targets:
            rj = find(touched[target])
            if ri != rj:
                if rj < ri:
                    ri, rj = rj, ri
                parent[rj] = ri
    regions: dict[int, list[object]] = {}
    out: list[list[object]] = []
    for i, node in enumerate(plan):
        t = touched.get(node)
        if t is None:
            out.append([node])
            continue
        root = find(t)
        region = regions.get(root)
        if region is None:
            region = regions[root] = []
            out.append(region)
        region.append(node)
    return out


def coarsen_regions(regions, buckets: int) -> list[list[object]]:
    """Pack many small regions into at most ``buckets`` dispatch units.

    A fine partition (thousands of independent singles) would pay one
    future per region.  Since
    regions share no edges, any concatenation of whole regions is still
    a valid execution order, so greedy least-loaded packing (weights =
    cell counts; ties to the lowest bucket, regions visited in plan
    order) balances the pool deterministically: the same partition
    always yields the same buckets, keeping runs reproducible.
    """
    if len(regions) <= buckets:
        return regions
    weights = [
        sum(1 if type(n) is tuple else len(n.rows) for n in region)
        for region in regions
    ]
    if len(regions) > 4 * buckets:
        # Many small regions: cut the region sequence at cumulative
        # cell-count boundaries.  O(regions), and packing whole regions
        # in plan order keeps each bucket a valid execution order.
        total = sum(weights)
        bins = []
        current: list[object] = []
        acc = 0
        boundary = total / buckets
        for region, weight in zip(regions, weights):
            current.extend(region)
            acc += weight
            if acc >= boundary * (len(bins) + 1) and len(bins) < buckets - 1:
                bins.append(current)
                current = []
        if current:
            bins.append(current)
        return bins
    # Few, lumpy regions: greedy least-loaded packing balances better
    # (weights = cell counts; ties to the lowest bucket index).
    bins = [[] for _ in range(buckets)]
    loads = [0] * buckets
    for region, weight in zip(regions, weights):
        i = loads.index(min(loads))
        bins[i].extend(region)
        loads[i] += weight
    return [b for b in bins if b]


# -- worker pools --------------------------------------------------------------

_POOLS: dict[int, ThreadPoolExecutor] = {}


def _pool(workers: int) -> ThreadPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-recalc"
        )
    return pool


def shutdown_pools() -> None:
    """Shut down and forget every cached worker pool.

    Covers the thread pools here (one per worker count) *and* the
    resident runtime's slot pools (:mod:`repro.engine.shard`).  The
    caches otherwise only grow, so long-lived hosts (the CLI, servers,
    test harnesses) call this at teardown.  Safe to call twice; the next
    recalculation simply builds fresh pools on demand.
    """
    for pool in list(_POOLS.values()):
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()
    from .shard import shutdown_slot_pools

    shutdown_slot_pools()


atexit.register(shutdown_pools)


# -- the scheduler -------------------------------------------------------------


class ParallelRecalc:
    """Thread region scheduler attached to a :class:`RecalcEngine` (auto
    mode, ``workers > 1``, ``worker_mode="thread"``).  ``min_dirty`` keeps
    small recalculations on the serial path, where dispatch overhead
    would dominate.
    """

    __slots__ = ("workers", "min_dirty")

    def __init__(self, workers: int, min_dirty: int):
        self.workers = int(workers)
        self.min_dirty = int(min_dirty)

    def execute(self, engine: "RecalcEngine", plan, succs) -> int | None:
        """Run ``plan`` region-parallel; None → caller runs it serially.

        Returning None is *not* a fallback (the plan is simply one
        region, or there is nothing to gain); genuine fallbacks re-run
        the failed region in the parent and bump ``serial_fallbacks``.
        """
        from .recalc import RecalcEngine

        regions = partition_plan(plan, succs)
        stats = engine.eval_stats
        stats.parallel_regions += len(regions)
        if len(regions) < 2:
            return None
        regions = coarsen_regions(regions, self.workers * 2)
        _pregrow_written_columns(engine.sheet, regions)
        pool = _pool(self.workers)
        registry = engine.cell_evaluator.registry
        pending = []
        for region in regions:
            shadow = RecalcEngine.plan_executor(
                engine.sheet, registry=registry, lookup_indexes=engine.lookup_indexes
            )
            pending.append(
                (region, shadow, pool.submit(_thread_region, shadow, region))
            )
        total = 0
        for region, shadow, future in pending:
            try:
                count = future.result()
            except BaseException:
                # The worker died mid-region.  Its partial writes are
                # overwritten by re-executing the whole region here (the
                # plan order is idempotent), and its partial stats are
                # discarded, so the merged counters still sum to the
                # serial totals.
                stats.serial_fallbacks += 1
                stats.fallback_reason = "worker-died"
                total += engine._execute_plan(region)
                continue
            stats.absorb_counters(shadow.eval_stats.counter_snapshot())
            stats.parallel_dispatches += 1
            total += count
        return total


# -- worker-side helpers -------------------------------------------------------


def _thread_region(shadow: "RecalcEngine", region) -> int:
    if os.environ.get(FAULT_ENV) == "die":
        raise RuntimeError("injected worker death (REPRO_PARALLEL_FAULT=die)")
    return shadow._execute_plan(region)


def _pregrow_written_columns(sheet, regions) -> None:
    """Grow every columnar column the plan writes to its final extent.

    Thread workers write concurrently through ``_write_raw`` /
    ``frombuffer`` views; pre-growing here means no worker's write ever
    reallocates an array plane (or resizes a buffer-exported bytearray)
    that another worker is reading through.
    """
    if sheet.store_kind != "columnar":
        return
    ensure = sheet._cells.ensure_column
    peaks: dict[int, int] = {}
    for region in regions:
        for node in region:
            if type(node) is tuple:
                col, row = node
            else:
                col, row = node.col, node.rows[-1]
            if row > peaks.get(col, 0):
                peaks[col] = row
    for col, row in peaks.items():
        ensure(col, row)
