"""Persistent sharded recalculation: workers that *own* plane slices.

PR 7's partitioned scheduler (:mod:`repro.engine.parallel`) re-ships each
region's value planes and template families to a fresh pool worker on
every recalculation, so on hot edit loops the freight — not the
evaluation — dominates.  This module replaces that per-recalc freight
with a *persistent shard runtime*: column-major slices of a sheet's
value planes are assigned to long-lived worker processes that keep a
resident replica of their slice (planes + formulas + a graph-less shadow
engine).  After a one-time bootstrap, a recalculation ships only

* **plane deltas** — columns whose PR 8 content-version stamp moved
  since they were last shipped (:meth:`ColumnarStore.export_plane_delta`
  / :meth:`~ColumnarStore.apply_plane_delta`), and
* **cross-shard patches** — the upstream dirty cells a shard's nodes
  actually read, packed as typed scalar column runs
  (:meth:`~ColumnarStore.pack_result_columns`),

and receives packed result deltas back.  Ownership invariants:

* every formula column is owned by exactly one shard (or by the parent:
  columns with cross-sheet references or whole-row-style spans stay
  home), so a column is only ever *written* by its owner;
* a shard's resident store covers its **read closure** — owned columns
  plus every column its formulas reference — so plane deltas are the
  only steady-state freight;
* cross-shard ordering edges are the message boundary: the plan is cut
  into waves at executor changes, and a wave's results are patched to
  downstream shards before their wave dispatches.

Freshness is pinned by the PR 8 stamps.  A shard skips a closure
column's plane when the column's version equals what it last shipped,
*or* when everything since the last ship happened inside the current
recalculation (mid-recalc merges are exactly covered by patches).
Formula edits, batch commits that touch formulas, and structural edits
mark the runtime stale (:meth:`ShardRuntime.note_formula_change` /
:meth:`~ShardRuntime.note_structural_change`); a store-epoch move is
detected independently.  Either triggers a re-bootstrap — resharding is
a new bootstrap, never an in-place mutation of ownership.

Residency uses one single-worker process pool per shard *slot*
(module-level, shared by every runtime in the process, so hundreds of
short-lived engines under ``REPRO_RECALC_SHARDS`` cost at most
``max(shards)`` processes).  Workers key residents by
``(runtime id, shard index)`` plus a bootstrap token; a token or
resident mismatch answers ``("stale",)`` and the parent falls back
serially, then re-bootstraps.  Every fault — worker death mid-delta, a
stale resident, an unpicklable delta/patch payload, an unpicklable
reply — falls back to serial re-execution of the affected nodes in the
parent (idempotent: shards own disjoint cells) and is reported through
``EvalStats.shard_fallbacks`` / ``serial_fallbacks`` /
``fallback_reason``.  Values and the deterministic cell counters stay
bit-identical to serial by construction: every plan node executes
exactly once, by exactly one engine, through the same tier dispatch,
and results merge on the same typed-column path in deterministic order.

:class:`ScenarioReplicas` rides the same residency for
:mod:`repro.engine.scenario`: each pool slot keeps a full replica of the
sweep's read surface and replays scenario chunks against it, so repeated
sweeps ship seed rows and plane deltas instead of whole payloads.
"""

from __future__ import annotations

import os
import pickle
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import count
from typing import TYPE_CHECKING

from .parallel import FAULT_ENV, _node_members, _spec_for, _template_families

if TYPE_CHECKING:  # pragma: no cover
    from .recalc import RecalcEngine

__all__ = ["ScenarioReplicas", "ShardRuntime", "shutdown_slot_pools"]

#: Reference spans wider than this are whole-row-style: enumerating the
#: closure would ship everything, so the column stays parent-owned.
#: (Same cutoff the per-recalc freight path uses.)
_WIDE_SPAN = 4096

_RUNTIME_IDS = count(1)

# -- shard slot pools ----------------------------------------------------------
#
# ProcessPoolExecutor cannot route a task to a chosen worker, and
# residency *is* routing — so each shard slot gets its own
# max_workers=1 pool.  Slots are shared across runtimes (shard i of
# every runtime lands on slot i); the worker process multiplexes
# residents by key.

_SLOT_POOLS: dict[int, ProcessPoolExecutor] = {}
# A forked worker inherits this dict together with every not-yet-collected
# runtime's finalizer.  Emptied in the child, ``_send_drops`` there finds no
# pool — instead of submitting to a copy whose lock the parent held across
# the fork, which never returns.
os.register_at_fork(after_in_child=_SLOT_POOLS.clear)


def _slot_pool(slot: int) -> ProcessPoolExecutor:
    pool = _SLOT_POOLS.get(slot)
    if pool is None:
        pool = _SLOT_POOLS[slot] = ProcessPoolExecutor(max_workers=1)
    return pool


def _discard_slot(slot: int) -> None:
    pool = _SLOT_POOLS.pop(slot, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_slot_pools() -> None:
    """Shut down every shard slot pool (all residents are lost; the next
    bootstrap starts clean).  Called by
    :func:`repro.engine.parallel.shutdown_pools`."""
    for slot in list(_SLOT_POOLS):
        _discard_slot(slot)


def _send_drops(runtime_id: int, shards: int) -> None:
    """Best-effort resident eviction when a runtime is garbage-collected.

    Never creates a pool and never blocks: if the slot pool is gone the
    resident died with it, and a broken pool simply keeps its corpse.
    """
    for slot in range(shards):
        pool = _SLOT_POOLS.get(slot)
        if pool is None:
            continue
        try:
            pool.submit(_shard_request, pickle.dumps(
                ("drop", (runtime_id, slot)), pickle.HIGHEST_PROTOCOL,
            ))
        except Exception:
            pass


# -- worker-side residency -----------------------------------------------------


class _Resident:
    """One shard's (or scenario replica's) worker-side state."""

    __slots__ = ("token", "sheet", "engine", "plan", "seeds")

    def __init__(self, token, sheet, engine, plan=None, seeds=None):
        self.token = token
        self.sheet = sheet
        self.engine = engine
        self.plan = plan
        self.seeds = seeds


#: Residents hosted by *this* worker process, keyed by
#: ``(runtime id, shard index)``.  Runtime ids are unique per parent
#: process lifetime, and a worker only ever serves one parent.
_RESIDENTS: dict[tuple[int, int], _Resident] = {}


def _spec_positions(spec) -> list[tuple[int, int]]:
    positions: list[tuple[int, int]] = []
    for node in spec:
        if node[0] == "c":
            positions.append((node[1], node[2]))
        else:
            positions.extend((node[1], row) for row in range(node[2], node[3] + 1))
    return positions


def _shard_request(payload: bytes) -> bytes:
    """The single worker entry point for the shard message protocol.

    ``("boot", key, token, name, planes, families, spec, seeds)``
        (re)build the resident: install planes, register formulas (the
        same template-family protocol per-recalc freight uses), wrap in
        a graph-less shadow engine.  ``spec``/``seeds`` are the
        scenario-replica extras (a frozen plan and the seed positions).
    ``("exec", key, token, planes, patches, spec)``
        apply the plane delta and cross-shard patches, execute the spec,
        return ``("ok", packed_results, counter_deltas, count)``.
    ``("replay", key, token, planes, rows, out_pos)``
        scenario chunk replay against the resident plan.
    ``("drop", key)``
        evict the resident.

    Fault hooks (``REPRO_PARALLEL_FAULT``) fire only on exec/replay —
    never on boot — so injected faults always hit a *resident* shard:
    ``die`` hard-exits (worker death mid-delta), ``garbage`` returns
    unpicklable bytes, ``stale`` simulates a lost/stale resident.  A
    token mismatch or missing resident answers ``("stale",)`` for real.
    """
    msg = pickle.loads(payload)
    kind = msg[0]
    if kind == "drop":
        _RESIDENTS.pop(msg[1], None)
        return pickle.dumps(("ok",), pickle.HIGHEST_PROTOCOL)
    if kind == "boot":
        from .parallel import _plan_from_spec, _rebuild_worker_sheet
        from .recalc import RecalcEngine

        _, key, token, name, planes, families, spec, seeds = msg
        sheet, _positions = _rebuild_worker_sheet("columnar", name, planes, families)
        engine = RecalcEngine.plan_executor(sheet)
        plan = None if spec is None else _plan_from_spec(engine, spec)
        _RESIDENTS[key] = _Resident(token, sheet, engine, plan, seeds)
        return pickle.dumps(("ok",), pickle.HIGHEST_PROTOCOL)

    fault = os.environ.get(FAULT_ENV)
    if fault == "die":
        os._exit(11)
    _, key, token = msg[0], msg[1], msg[2]
    resident = _RESIDENTS.get(key)
    if fault == "stale" or resident is None or resident.token != token:
        return pickle.dumps(("stale",), pickle.HIGHEST_PROTOCOL)
    engine = resident.engine
    sheet = resident.sheet
    store = sheet._cells
    before = engine.eval_stats.counter_snapshot()

    if kind == "exec":
        planes, patches, spec = msg[3], msg[4], msg[5]
        if planes:
            store.apply_plane_delta(planes)
        if patches:
            store.merge_result_columns(patches)
        from .parallel import _plan_from_spec

        plan = _plan_from_spec(engine, spec)
        executed = engine._execute_plan(plan)
        if fault == "garbage":
            return b"\x00 injected unpicklable shard result"
        packed = store.pack_result_columns(_spec_positions(spec))
        after = engine.eval_stats.counter_snapshot()
        deltas = tuple(a - b for a, b in zip(after, before))
        return pickle.dumps(
            ("ok", packed, deltas, executed), pickle.HIGHEST_PROTOCOL
        )

    # replay: scenario chunk against the resident plan
    planes, rows, out_pos = msg[3], msg[4], msg[5]
    if planes:
        store.apply_plane_delta(planes)
    set_value = sheet.set_value
    get_value = sheet.get_value
    results = []
    for row in rows:
        for pos, value in zip(resident.seeds, row):
            set_value(pos, value)
        engine._execute_plan(resident.plan)
        results.append([get_value(pos) for pos in out_pos])
    if fault == "garbage":
        return b"\x00 injected unpicklable replay result"
    after = engine.eval_stats.counter_snapshot()
    deltas = tuple(a - b for a, b in zip(after, before))
    return pickle.dumps(
        ("ok", results, deltas, len(rows)), pickle.HIGHEST_PROTOCOL
    )


# -- parent-side freight helpers -----------------------------------------------


class _Replica:
    """Parent-side view of one resident (shard or scenario slot)."""

    __slots__ = ("token", "shipped", "booted")

    def __init__(self) -> None:
        self.token = 0
        self.shipped: dict[int, int] = {}
        self.booted = False


def _ship_delta(store, replica: _Replica, closure, base_versions=None):
    """The plane delta a resident needs: columns whose version moved past
    the last ship — except columns whose every change since that ship
    happened inside the current recalculation (``base_versions`` holds
    the at-execute-start stamps; such changes are mid-recalc merges,
    covered exactly by patches for the cells the shard reads)."""
    since: dict[int, int] = {}
    column_version = store.column_version
    for col, last in replica.shipped.items():
        base = None if base_versions is None else base_versions.get(col)
        if base is not None and last >= base:
            since[col] = column_version(col)  # synced this recalc: skip
        else:
            since[col] = last
    planes, versions = store.export_plane_delta(since, closure)
    for col in planes:
        replica.shipped[col] = versions[col]
    return planes


# -- the shard runtime ---------------------------------------------------------


class ShardRuntime:
    """Persistent column-sliced recalculation attached to one engine.

    Created by ``RecalcEngine(shards=N)`` (or ``REPRO_RECALC_SHARDS``)
    for auto-mode engines over columnar sheets.  Bootstrap is lazy — the
    first eligible recalculation pays it — and ownership maps contiguous
    column slices, balanced by formula count, onto ``shards`` slot
    pools.  ``min_dirty`` (``REPRO_PARALLEL_MIN_DIRTY``) keeps small
    recalculations serial, exactly like the pooled scheduler.
    """

    __slots__ = ("shards", "min_dirty", "_id", "_owner", "_closures",
                 "_members", "_replicas", "_boot_epoch", "_stale",
                 "_lost", "__weakref__")

    def __init__(self, shards: int, *, min_dirty: int | None = None):
        if min_dirty is None:
            min_dirty = int(
                os.environ.get("REPRO_PARALLEL_MIN_DIRTY", "") or 64
            )
        self.shards = int(shards)
        self.min_dirty = int(min_dirty)
        self._id = next(_RUNTIME_IDS)
        self._owner: dict[int, int] | None = None
        self._closures: list[set[int]] = []
        self._members: list[list[tuple[int, int]]] = []
        self._replicas: list[_Replica] = [_Replica() for _ in range(self.shards)]
        self._boot_epoch: int | None = None
        self._stale = False
        self._lost: set[int] = set()
        weakref.finalize(self, _send_drops, self._id, self.shards)

    def eligible(self, dirty_count: int) -> bool:
        return dirty_count >= self.min_dirty

    # -- invalidation hooks ----------------------------------------------------

    def note_formula_change(self) -> None:
        """A formula was added, replaced, or cleared: ownership and the
        resident formula registries are stale — re-bootstrap before the
        next sharded dispatch.  (Pure value edits never land here; the
        version stamps carry those as plane deltas.)"""
        self._stale = True

    def note_structural_change(self) -> None:
        """Rows/columns moved: every resident's geometry is wrong.
        The store epoch also moved, but the flag keeps the trigger
        explicit (and covers object-store sheets with no epoch)."""
        self._stale = True

    # -- bootstrap -------------------------------------------------------------

    def _assign_ownership(self, engine: "RecalcEngine"):
        """Ownership + closures: contiguous column slices balanced by
        formula count; cross-sheet / whole-row-span columns stay with
        the parent (-1)."""
        sheet = engine.sheet
        col_members: dict[int, list[tuple[int, int]]] = {}
        col_reads: dict[int, set[int]] = {}
        parent_cols: set[int] = set()
        for col, runs in sheet.run_index().items():
            col_members[col] = [
                (col, row) for first, last, _ in runs for row in range(first, last + 1)
            ]
            reads = col_reads[col] = set()
            for spec in {spec for _, _, template in runs for spec in template.refs}:
                c1, c2 = spec.columns_at(col)
                if spec.sheet not in (None, sheet.name) or c2 - c1 > _WIDE_SPAN:
                    parent_cols.add(col)
                    break
                reads.update(range(c1, c2 + 1))

        shardable = sorted(c for c in col_members if c not in parent_cols)
        owner: dict[int, int] = {c: -1 for c in parent_cols}
        slices: list[list[int]] = [[] for _ in range(self.shards)]
        total = sum(len(col_members[c]) for c in shardable)
        acc = 0
        si = 0
        for col in shardable:
            if si < self.shards - 1 and acc >= total * (si + 1) / self.shards:
                si += 1
            slices[si].append(col)
            acc += len(col_members[col])

        closures: list[set[int]] = []
        members: list[list[tuple[int, int]]] = []
        for j, cols in enumerate(slices):
            closure: set[int] = set()
            mem: list[tuple[int, int]] = []
            for col in cols:
                owner[col] = j
                closure.add(col)
                closure.update(col_reads[col])
                mem.extend(col_members[col])
            closures.append(closure)
            members.append(sorted(mem))
        return owner, closures, members

    def _bootstrap(self, engine: "RecalcEngine", only=None) -> None:
        """(Re)ship residents.  ``only`` restricts to lost shards after a
        fault; any staleness or epoch move forces the full pass, which
        recomputes ownership from scratch (resharding *is* a new
        bootstrap)."""
        sheet = engine.sheet
        store = sheet._cells
        stats = engine.eval_stats
        epoch = getattr(store, "epoch", None)
        full = (
            only is None or self._stale or self._owner is None
            or epoch != self._boot_epoch
        )
        if full:
            self._owner, self._closures, self._members = (
                self._assign_ownership(engine)
            )
            targets = range(self.shards)
        else:
            targets = sorted(only)

        pending = []
        for j in targets:
            members = self._members[j]
            replica = self._replicas[j]
            replica.booted = False
            replica.shipped = {}
            if not members:
                continue
            replica.token += 1
            planes, versions = store.export_plane_delta({}, self._closures[j])
            families = _template_families(sheet, members)
            try:
                payload = pickle.dumps(
                    ("boot", (self._id, j), replica.token, sheet.name,
                     planes, families, None, None),
                    pickle.HIGHEST_PROTOCOL,
                )
            except Exception:
                self._disown(j)
                continue
            try:
                future = _slot_pool(j).submit(_shard_request, payload)
            except BrokenProcessPool:
                _discard_slot(j)
                try:
                    future = _slot_pool(j).submit(_shard_request, payload)
                except Exception:
                    self._disown(j)
                    continue
            pending.append((j, future, versions))

        for j, future, versions in pending:
            try:
                reply = pickle.loads(future.result())
            except BaseException:
                _discard_slot(j)
                self._disown(j)
                continue
            if reply != ("ok",):  # pragma: no cover - defensive
                self._disown(j)
                continue
            replica = self._replicas[j]
            replica.shipped = versions
            replica.booted = True
            stats.shard_bootstraps += 1

        self._boot_epoch = epoch
        self._stale = False
        self._lost.clear()

    def _disown(self, j: int) -> None:
        """Shard ``j`` could not be shipped: its columns run in the
        parent until the next bootstrap recomputes ownership."""
        for col, owner in self._owner.items():
            if owner == j:
                self._owner[col] = -1
        self._members[j] = []
        self._replicas[j].booted = False

    # -- execution -------------------------------------------------------------

    def execute(self, engine: "RecalcEngine", plan, succs) -> int | None:
        """Run ``plan`` across the resident shards; None → caller falls
        through to the pooled/serial paths (nothing sharded here).

        The plan is cut into waves at cross-executor edges: within a
        wave, shard futures dispatch first, parent-owned nodes execute
        locally, then results merge in shard order (deterministic).
        Wave results that cross shard boundaries ship as typed scalar
        patches with the downstream shard's next dispatch.
        """
        sheet = engine.sheet
        store = sheet._cells
        stats = engine.eval_stats
        if (
            self._stale or self._owner is None or self._lost
            or getattr(store, "epoch", None) != self._boot_epoch
        ):
            self._bootstrap(engine, only=self._lost or None)
        owner = self._owner

        node_shard = []
        any_shard = False
        for node in plan:
            col = node[0] if type(node) is tuple else node.col
            j = owner.get(col, -1)
            if j >= 0 and not self._replicas[j].booted:
                j = -1
            node_shard.append(j)
            if j >= 0:
                any_shard = True
        if not any_shard:
            return None

        # Stage assignment: an edge whose endpoints run on different
        # executors forces the successor into a later wave; same-executor
        # edges keep their plan order inside the wave.
        index = {node: i for i, node in enumerate(plan)}
        stage = [0] * len(plan)
        for i, node in enumerate(plan):
            targets = succs.get(node)
            if not targets:
                continue
            si = stage[i]
            for target in targets:
                k = index.get(target)
                if k is None:
                    continue
                need = si + (1 if node_shard[k] != node_shard[i] else 0)
                if stage[k] < need:
                    stage[k] = need

        nwaves = max(stage) + 1
        waves: list[list[int]] = [[] for _ in range(nwaves)]
        for i, s in enumerate(stage):
            waves[s].append(i)

        base_versions = {
            col: store.column_version(col)
            for j in range(self.shards) if self._replicas[j].booted
            for col in self._closures[j]
        }
        pending_patches: dict[int, set[tuple[int, int]]] = {}
        fell_back: set[int] = set()
        total = 0

        for s, wave in enumerate(waves):
            by_shard: dict[int, list] = {}
            parent_nodes: list = []
            for i in wave:
                j = node_shard[i]
                if j < 0 or j in fell_back:
                    parent_nodes.append(plan[i])
                else:
                    by_shard.setdefault(j, []).append(plan[i])

            futures = []
            stats.parallel_regions += len(by_shard)
            for j in sorted(by_shard):
                nodes = by_shard[j]
                replica = self._replicas[j]
                spec = _spec_for(nodes)
                patch_positions = pending_patches.pop(j, None)
                patches = (
                    store.pack_result_columns(sorted(patch_positions))
                    if patch_positions else []
                )
                planes = _ship_delta(
                    store, replica, self._closures[j], base_versions
                )
                try:
                    payload = pickle.dumps(
                        ("exec", (self._id, j), replica.token, planes,
                         patches, spec),
                        pickle.HIGHEST_PROTOCOL,
                    )
                except Exception:
                    total += self._fall_back(
                        engine, j, nodes, "patch-pickle-failed", fell_back
                    )
                    continue
                try:
                    future = _slot_pool(j).submit(_shard_request, payload)
                except BrokenProcessPool:
                    _discard_slot(j)
                    try:
                        future = _slot_pool(j).submit(_shard_request, payload)
                    except Exception:
                        total += self._fall_back(
                            engine, j, nodes, "worker-died", fell_back
                        )
                        continue
                futures.append((j, nodes, future, len(payload)))

            if parent_nodes:
                total += engine._execute_plan(parent_nodes)

            for j, nodes, future, nbytes in futures:
                reason = None
                reply = None
                try:
                    raw = future.result()
                except BaseException:
                    _discard_slot(j)
                    reason = "worker-died"
                else:
                    try:
                        reply = pickle.loads(raw)
                    except Exception:
                        reason = "unpickle-failed"
                if reason is None and reply[0] != "ok":
                    reason = "stale-epoch"
                if reason is not None:
                    total += self._fall_back(engine, j, nodes, reason, fell_back)
                    continue
                _, packed, deltas, executed = reply
                store.merge_result_columns(packed)
                replica = self._replicas[j]
                for col, _rows, _tags, _values, _side in packed:
                    # The resident's copy of its own results provably
                    # equals the parent's post-merge column.
                    replica.shipped[col] = store.column_version(col)
                stats.absorb_counters(deltas)
                stats.shard_delta_bytes += nbytes
                stats.parallel_dispatches += 1
                total += executed

            if s + 1 < nwaves:
                for i in wave:
                    targets = succs.get(plan[i])
                    if not targets:
                        continue
                    for target in targets:
                        k = index.get(target)
                        if k is None:
                            continue
                        tj = node_shard[k]
                        if tj >= 0 and tj != node_shard[i] and tj not in fell_back:
                            pending_patches.setdefault(tj, set()).update(
                                _node_members(plan[i])
                            )
        return total

    def _fall_back(self, engine, j, nodes, reason, fell_back) -> int:
        stats = engine.eval_stats
        stats.serial_fallbacks += 1
        stats.shard_fallbacks += 1
        stats.fallback_reason = reason
        fell_back.add(j)
        self._lost.add(j)
        return engine._execute_plan(nodes)


# -- scenario replicas ---------------------------------------------------------


class ScenarioReplicas:
    """Resident what-if replicas: one full copy of the sweep's read
    surface per pool slot, booted once, replayed per chunk.

    Built lazily by :meth:`ScenarioEngine._run_process`.  Each replica
    ships the scenario plan spec at boot (the worker materialises it
    once); a sweep then ships only plane deltas — columns the parent
    changed since the last ship — plus the seed rows and output
    positions.  Replays are valid across sweeps without restores because
    every replay deterministically overwrites the whole dirty frontier
    before reading it, and the parent sheet is never mutated by the
    process path (so shipped stamps stay honest; a serial fallback's
    restore bumps versions and forces a re-ship by itself).
    """

    __slots__ = ("workers", "_id", "_replicas", "__weakref__")

    def __init__(self, workers: int):
        self.workers = int(workers)
        self._id = next(_RUNTIME_IDS)
        self._replicas = [_Replica() for _ in range(self.workers)]
        weakref.finalize(self, _send_drops, self._id, self.workers)

    def boot(self, sheet, cols, families, spec, seeds, stats) -> None:
        """Ensure every slot hosts a live replica; no-op when already
        booted.  A slot that cannot boot is left unbooted — its chunks
        fall back serially at replay time."""
        store = sheet._cells
        planes, versions = store.export_plane_delta({}, cols)
        pending = []
        for slot, replica in enumerate(self._replicas):
            if replica.booted:
                continue
            replica.token += 1
            replica.shipped = {}
            # May raise on unpicklable freight; the caller treats that as
            # the whole-sweep "payload-pickle-failed" serial fallback.
            payload = pickle.dumps(
                ("boot", (self._id, slot), replica.token, sheet.name,
                 planes, families, spec, seeds),
                pickle.HIGHEST_PROTOCOL,
            )
            try:
                future = _slot_pool(slot).submit(_shard_request, payload)
            except BrokenProcessPool:
                _discard_slot(slot)
                try:
                    future = _slot_pool(slot).submit(_shard_request, payload)
                except Exception:
                    continue
            pending.append((slot, future, versions))
        for slot, future, versions in pending:
            try:
                reply = pickle.loads(future.result())
            except BaseException:
                _discard_slot(slot)
                continue
            if reply != ("ok",):  # pragma: no cover - defensive
                continue
            replica = self._replicas[slot]
            replica.shipped = dict(versions)
            replica.booted = True
            stats.shard_bootstraps += 1

    def replay_chunks(self, sheet, cols, chunks, out_pos, stats):
        """Fan ``chunks`` across the resident slots (chunk *i* → slot
        *i*): all dispatches in flight before any result is awaited.
        Returns one ``(reason, rows)`` pair per chunk, ``reason=None`` on
        success — failed chunks carry their fallback reason and mark the
        slot for a re-boot on the next sweep."""
        store = sheet._cells
        pending: list[tuple[str | None, object, int]] = []
        for slot, chunk in enumerate(chunks):
            replica = self._replicas[slot]
            if not replica.booted:
                pending.append(("stale-epoch", None, 0))
                continue
            planes = _ship_delta(store, replica, cols)
            try:
                payload = pickle.dumps(
                    ("replay", (self._id, slot), replica.token, planes,
                     chunk, out_pos),
                    pickle.HIGHEST_PROTOCOL,
                )
            except Exception:
                # The delta was already stamped as shipped but never
                # arrived; only a re-boot makes the stamps honest again.
                replica.booted = False
                pending.append(("payload-pickle-failed", None, 0))
                continue
            try:
                future = _slot_pool(slot).submit(_shard_request, payload)
            except BrokenProcessPool:
                _discard_slot(slot)
                try:
                    future = _slot_pool(slot).submit(_shard_request, payload)
                except Exception:
                    replica.booted = False
                    pending.append(("worker-died", None, 0))
                    continue
            pending.append((None, future, len(payload)))

        results = []
        for slot, (reason, future, nbytes) in enumerate(pending):
            if reason is not None:
                results.append((reason, None))
                continue
            replica = self._replicas[slot]
            try:
                raw = future.result()
            except BaseException:
                _discard_slot(slot)
                replica.booted = False
                results.append(("worker-died", None))
                continue
            try:
                reply = pickle.loads(raw)
            except Exception:
                results.append(("unpickle-failed", None))
                continue
            if reply[0] != "ok":
                replica.booted = False
                results.append(("stale-epoch", None))
                continue
            _, rows, deltas, _replays = reply
            stats.absorb_counters(deltas)
            stats.shard_delta_bytes += nbytes
            results.append((None, rows))
        return results
