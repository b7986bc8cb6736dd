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

Two pool flavours (``concurrent.futures``):

* ``thread`` (default) — shadow engines share the live sheet; columnar
  columns the plan writes are pre-grown so no worker ever reallocates a
  plane another worker holds a buffer view of.
* ``process`` — the sheet's value planes ship to the worker as bytes
  (:meth:`ColumnarStore.export_planes`), region member formulas ship as
  one pickled template per autofill family, and typed result columns
  come back
  (:meth:`ColumnarStore.pack_result_columns`).  This is the flavour that
  clears real multi-core speedups on interpreter-heavy corpora.

Every failure mode — a worker dying mid-region, a result that fails to
unpickle, a payload that cannot be pickled, a cycle in the dirty set —
falls back to serial re-execution of the affected region(s) in the
parent (idempotent: regions own disjoint cells) and is reported in
``EvalStats.serial_fallbacks`` / ``fallback_reason`` rather than
silently absorbed.
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .recalc import RecalcEngine

__all__ = ["ParallelRecalc", "coarsen_regions", "partition_plan",
           "preview_regions", "shutdown_pools"]

#: Fault-injection hook for the fallback tests: ``"die"`` kills the
#: worker at region start (thread workers raise, process workers hard
#: -exit), ``"garbage"`` makes process workers return unpicklable bytes.
#: Read inside the worker so it propagates under fork and spawn alike.
FAULT_ENV = "REPRO_PARALLEL_FAULT"

_DEFAULT_MIN_DIRTY = 64


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
    future — and in process mode one plane payload — per region.  Since
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


def preview_regions(engine: "RecalcEngine", dirty_ranges) -> list[list]:
    """The independent dependent-groups a dirty set splits into.

    A read-only probe over the compressed graph
    (:func:`repro.core.query.find_dependents_multi_grouped`): one BFS,
    grouping seeds whose dependent frontiers touch.  Useful for sizing a
    worker pool before committing to a recalculation; the execution-time
    partition (:func:`partition_plan`) is computed exactly, at the plan
    level, and may split finer than this conservative preview.
    """
    from ..core.query import find_dependents_multi_grouped

    return find_dependents_multi_grouped(engine.graph, list(dirty_ranges))


# -- worker pools --------------------------------------------------------------

_POOLS: dict[tuple[str, int], object] = {}


def _pool(mode: str, workers: int):
    key = (mode, workers)
    pool = _POOLS.get(key)
    if pool is None:
        if mode == "process":
            pool = ProcessPoolExecutor(max_workers=workers)
        else:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-recalc"
            )
        _POOLS[key] = pool
    return pool


def _discard_pool(mode: str, workers: int) -> None:
    pool = _POOLS.pop((mode, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down and forget every cached worker pool.

    Covers the ``(mode, workers)`` thread/process pools here *and* the
    persistent shard slot pools (:mod:`repro.engine.shard`).  The cache
    otherwise only grows — each distinct ``worker_mode`` / worker-count
    combination leaves a live pool behind — so long-lived hosts (the CLI,
    servers, test harnesses) call this at teardown.  Safe to call twice;
    the next recalculation simply builds fresh pools on demand.
    """
    for pool in list(_POOLS.values()):
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()
    from .shard import shutdown_slot_pools

    shutdown_slot_pools()


atexit.register(shutdown_pools)


# -- the scheduler -------------------------------------------------------------


class ParallelRecalc:
    """Region scheduler attached to a :class:`RecalcEngine` (auto mode).

    ``mode`` is ``"thread"`` (default; ``REPRO_RECALC_WORKER_MODE``) or
    ``"process"``; ``min_dirty`` (``REPRO_PARALLEL_MIN_DIRTY``) keeps
    small recalculations on the serial path where dispatch overhead
    would dominate.
    """

    __slots__ = ("workers", "mode", "min_dirty")

    def __init__(self, workers: int, *, mode: str | None = None,
                 min_dirty: int | None = None):
        if mode is None:
            mode = os.environ.get("REPRO_RECALC_WORKER_MODE", "thread")
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown worker mode {mode!r}")
        if min_dirty is None:
            min_dirty = int(
                os.environ.get("REPRO_PARALLEL_MIN_DIRTY", "")
                or _DEFAULT_MIN_DIRTY
            )
        self.workers = int(workers)
        self.mode = mode
        self.min_dirty = int(min_dirty)

    def eligible(self, dirty_count: int) -> bool:
        return dirty_count >= self.min_dirty

    def execute(self, engine: "RecalcEngine", plan, succs) -> int | None:
        """Run ``plan`` region-parallel; None → caller runs it serially.

        Returning None is *not* a fallback (the plan is simply one
        region, or there is nothing to gain); genuine fallbacks re-run
        the failed region in the parent and bump ``serial_fallbacks``.
        """
        regions = partition_plan(plan, succs)
        engine.eval_stats.parallel_regions += len(regions)
        if len(regions) < 2:
            return None
        regions = coarsen_regions(regions, self.workers * 2)
        if self.mode == "process":
            return self._execute_process(engine, regions)
        return self._execute_thread(engine, regions)

    # -- thread flavour --------------------------------------------------------

    def _execute_thread(self, engine: "RecalcEngine", regions) -> int:
        from .recalc import RecalcEngine

        stats = engine.eval_stats
        _pregrow_written_columns(engine.sheet, regions)
        pool = _pool("thread", self.workers)
        registry = engine.cell_evaluator.registry
        pending = []
        for region in regions:
            shadow = RecalcEngine.plan_executor(engine.sheet, registry=registry)
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

    # -- process flavour -------------------------------------------------------

    def _execute_process(self, engine: "RecalcEngine", regions) -> int:
        stats = engine.eval_stats
        sheet = engine.sheet
        store = sheet._cells
        store_kind = getattr(sheet, "store_kind", "object")
        if store_kind != "columnar":
            # Bucket the object store's cells by column once; each
            # region's cargo is then the concatenation of the columns it
            # reads.
            by_col: dict[int, list] = {}
            for pos in sheet.positions():
                by_col.setdefault(pos[0], []).append((pos, sheet.get_value(pos)))

        payloads: list[tuple[bytes | None, str | None]] = []
        for region in regions:
            try:
                formulas, spec, read_cols = _declarative_region(sheet, region)
            except _CrossSheetRegion:
                # The worker's rebuilt sheet has no sibling sheets to
                # resolve against; this region must stay in the parent.
                payloads.append((None, "cross-sheet"))
                continue
            if store_kind == "columnar":
                cargo = store.export_planes(read_cols)
            elif read_cols is None:
                cargo = [item for items in by_col.values() for item in items]
            else:
                cargo = [
                    item for col in sorted(read_cols)
                    for item in by_col.get(col, ())
                ]
            try:
                payloads.append((pickle.dumps(
                    (store_kind, sheet.name, cargo, formulas, spec),
                    pickle.HIGHEST_PROTOCOL,
                ), None))
            except Exception:
                payloads.append((None, "payload-pickle-failed"))

        pool = _pool("process", self.workers)
        pending: list[tuple[object, object, str | None]] = []
        for region, (payload, why) in zip(regions, payloads):
            if payload is None:
                pending.append((region, None, why))
                continue
            try:
                future = pool.submit(_region_worker, payload)
            except BrokenProcessPool:
                _discard_pool("process", self.workers)
                pool = _pool("process", self.workers)
                future = pool.submit(_region_worker, payload)
            pending.append((region, future, None))

        total = 0
        for region, future, reason in pending:
            if future is not None:
                reason, merged = self._merge_process_result(engine, future)
                if reason is None:
                    total += merged
                    continue
            stats.serial_fallbacks += 1
            stats.fallback_reason = reason
            total += engine._execute_plan(region)
        return total

    def _merge_process_result(self, engine: "RecalcEngine", future):
        """Returns ``(None, count)`` on success, ``(reason, 0)`` otherwise."""
        stats = engine.eval_stats
        try:
            raw = future.result()
        except BrokenProcessPool:
            _discard_pool("process", self.workers)
            return "worker-died", 0
        except BaseException:
            return "worker-died", 0
        try:
            (kind, packed), counters, count = pickle.loads(raw)
        except Exception:
            return "unpickle-failed", 0
        sheet = engine.sheet
        if kind == "columnar":
            sheet._cells.merge_result_columns(packed)
        else:
            for pos, value in packed:
                sheet.formula_at(pos).value = value
        stats.absorb_counters(counters)
        stats.parallel_dispatches += 1
        return None, count


class _CrossSheetRegion(Exception):
    """A region member references another sheet: unshippable to a
    process worker (the rebuilt sheet is alone in its process)."""


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
    store = sheet._cells
    ensure = getattr(store, "ensure_column", None)
    if ensure is None:
        return
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


def _template_families(sheet, positions) -> list[tuple]:
    """Formula ``positions`` grouped by the template their cells share:
    ``[(template, [pos, ...])]``, families and members in first-seen
    order.  Cells already *are* (template, host) pairs, so this only
    reads pointers — a 10k-cell autofill family ships as one pickled
    template (its anchor AST) plus a position list, the same compression
    insight the graph layer exploits."""
    families: dict[str, tuple] = {}
    formula_at = sheet.formula_at
    for pos in positions:
        template = formula_at(pos).template
        family = families.get(template.key)
        if family is None:
            families[template.key] = (template, [pos])
        else:
            family[1].append(pos)
    return list(families.values())


def _spec_for(nodes) -> list[tuple]:
    """Plan nodes as picklable freight: ``("c", col, row)`` cells and
    :meth:`_Strip.spec` strips — ``(kind, col, first_row, last_row,
    descending)`` with ``kind`` one of ``"w"`` / ``"e"`` / ``"s"`` — in
    plan order.  A chain of any length is one tuple."""
    return [
        ("c", node[0], node[1]) if type(node) is tuple else node.spec()
        for node in nodes
    ]


def _node_members(node):
    return (node,) if type(node) is tuple else node.members()


def _declarative_region(sheet, region):
    """A region as compact picklable freight: an ordered declarative plan
    (:func:`_spec_for`) plus the member formulas as
    :func:`_template_families`.

    Alongside the freight it returns the region's *read columns* — the
    union of its members' reference column spans — so the caller ships
    only those value planes (None = a span was too wide to enumerate;
    ship everything).  Raises :class:`_CrossSheetRegion` when a member
    references a sibling sheet, which a process worker cannot resolve.
    """
    spec = _spec_for(region)
    positions = [pos for node in region for pos in _node_members(node)]

    families = _template_families(sheet, positions)
    sheet_name = sheet.name
    spans: set[tuple[int, int]] = set()
    for template, members in families:
        host_cols = {pos[0] for pos in members}
        for ref in template.refs:
            if ref.sheet is not None and ref.sheet != sheet_name:
                raise _CrossSheetRegion
            spans.update(ref.columns_at(col) for col in host_cols)

    read_cols: set[int] | None = set()
    for c1, c2 in spans:
        if c2 - c1 > 4096:  # whole-row-style span: cheaper to ship all
            read_cols = None
            break
        read_cols.update(range(c1, c2 + 1))
    return families, spec, read_cols


def _rebuild_worker_sheet(store_kind, name, cargo, families):
    """Reconstruct a shipped sheet inside a worker process.

    Installs the value planes (columnar) or cell list (object), then the
    member formulas: each family's template arrived as one pickled
    object (re-interned on load) and every member is installed as a
    pointer to it.  Returns ``(sheet, positions)`` with the member
    positions in enrolment order.  Shared by the region worker here, the
    shard boot and the scenario replicas (:mod:`repro.engine.shard`).
    """
    from ..sheet.sheet import Sheet

    sheet = Sheet(name, store=store_kind)
    if store_kind == "columnar":
        sheet._cells.install_planes(cargo)
    else:
        for pos, value in cargo:
            sheet.set_value(pos, value)
    positions = []
    for template, members in families:
        for pos in members:
            sheet.set_formula_template(pos, template)
        positions.extend(members)
    return sheet, positions


def _plan_from_spec(engine, spec):
    """Materialise a declarative plan spec back into executable nodes:
    cells become position tuples, strips go through
    :meth:`RecalcEngine.strip_from_spec` (one registry lookup each).
    Ordering was resolved by the parent — the spec's sequence *is* the
    plan order."""
    return [
        (node[1], node[2]) if node[0] == "c" else engine.strip_from_spec(node)
        for node in spec
    ]


def _region_worker(payload: bytes) -> bytes:
    """Evaluate one shipped region in a worker process.

    Rebuilds a same-name, same-store-kind sheet from the shipped value
    planes, installs the member formulas (pre-parsed ASTs), re-creates
    the strips, executes the plan through a graph-less shadow
    engine, and returns ``((kind, packed_results), stats_counters,
    count)`` as bytes.  The same store kind and sheet name guarantee the
    worker's tier dispatch — and therefore its values *and* stats — match
    what the parent would have computed serially.
    """
    fault = os.environ.get(FAULT_ENV)
    if fault == "die":
        os._exit(11)
    from .recalc import RecalcEngine

    store_kind, name, cargo, families, spec = pickle.loads(payload)
    sheet, positions = _rebuild_worker_sheet(store_kind, name, cargo, families)
    engine = RecalcEngine.plan_executor(sheet)
    plan = _plan_from_spec(engine, spec)
    count = engine._execute_plan(plan)
    if fault == "garbage":
        return b"\x00 injected unpicklable worker result"
    if store_kind == "columnar":
        results = ("columnar", sheet._cells.pack_result_columns(positions))
    else:
        results = (
            "object",
            [(pos, sheet.formula_at(pos).value) for pos in positions],
        )
    return pickle.dumps(
        (results, engine.eval_stats.counter_snapshot(), count),
        pickle.HIGHEST_PROTOCOL,
    )
