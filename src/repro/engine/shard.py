"""The resident runtime: the one way a recalculation leaves the process.

Column-major slices of a sheet's value planes are assigned to long-lived
worker processes that keep a resident replica of their slice (planes +
formulas + a graph-less shadow engine).  ``RecalcEngine(shards=N)`` and
``RecalcEngine(workers=N)`` both construct it, whatever ``worker_mode``
says.
The one-time bootstrap ships a shard's read closure as planes and its
owned columns' formulas as the sheet's own run records — ``(col,
first_row, last_row, template)``, one per autofill run however long,
attached over the shipped planes with
:meth:`~repro.sheet.sheet.Sheet.attach_formula_run`, which keeps the
cached values they hold (a resident booted for a *partial* recompute
reads clean formulas' values like the parent would).  After that a
recalculation ships only

* **plane deltas** — columns whose content-version stamp moved since
  they were last shipped (:meth:`ColumnarStore.export_plane_delta` /
  :meth:`~ColumnarStore.apply_plane_delta`), and
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

Freshness is pinned by the version stamps.  A shard skips a closure
column's plane when the column's version equals what it last shipped,
*or* when everything since the last ship happened inside the current
recalculation (mid-recalc merges are exactly covered by patches).
Ownership and the residents' formulas are stamped with the sheet's
``(epoch, formula_version)`` at bootstrap and compared at every
dispatch: any formula edit, structural edit or whole-store reshape —
through the engine or behind its back — moves the stamp and triggers a
re-bootstrap; resharding is a new bootstrap, never an in-place mutation
of ownership.

Residency uses one single-worker process pool per shard *slot*
(module-level, shared by every runtime in the process, so hundreds of
short-lived engines under ``REPRO_RECALC_SHARDS`` cost at most
``max(shards)`` processes; :func:`shutdown_pools` releases them).
Workers key residents by ``(runtime id, shard index)`` plus a bootstrap
token; a token or resident mismatch answers ``("stale",)`` and the
parent falls back serially, then re-bootstraps.  Every message goes through one helper
(:class:`_Call`), and every fault it can meet — worker death mid-delta,
a stale resident, an unpicklable payload, an unpicklable reply — falls
back to serial re-execution of the affected nodes in the parent
(idempotent: shards own disjoint cells) and is reported through
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

import atexit
import os
import pickle
import weakref
from concurrent.futures import ProcessPoolExecutor
from itertools import count
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .recalc import RecalcEngine

__all__ = ["CrossSheetRegion", "FAULT_ENV", "ScenarioReplicas", "ShardRuntime",
           "declarative_region", "shutdown_pools"]

#: Fault-injection hook for the fallback tests, read inside the resident
#: worker at exec/replay time (see :func:`_shard_request`).
FAULT_ENV = "REPRO_PARALLEL_FAULT"

#: Reference spans wider than this are whole-row-style: enumerating the
#: closure would ship everything, so the column stays parent-owned (and a
#: scenario replica takes every plane).
_WIDE_SPAN = 4096

# -- freight: plan nodes and formulas as picklable records ---------------------


class CrossSheetRegion(Exception):
    """A formula references another sheet: unshippable, the resident's
    rebuilt sheet is alone in its process."""


def _spec_for(nodes) -> list[tuple]:
    """Plan nodes as picklable freight: ``(col, row)`` cells as they are
    and :meth:`_Strip.spec` strips — ``(kind, col, first_row, last_row,
    descending)`` with ``kind`` one of ``"w"`` / ``"e"`` / ``"c"`` /
    ``"l"`` / ``"s"`` — in plan order.  A chain of any length is one tuple."""
    return [node if type(node) is tuple else node.spec() for node in nodes]


def _plan_from_spec(engine, spec):
    """:func:`_spec_for` freight back into executable nodes, worker side:
    cells stay position tuples, strips go through
    :meth:`RecalcEngine.strip_from_spec` (one registry lookup each).
    Ordering was resolved by the parent — the spec's sequence *is* the
    plan order."""
    return [node if len(node) == 2 else engine.strip_from_spec(node) for node in spec]


def _node_members(node):
    return (node,) if type(node) is tuple else node.members()


def declarative_region(sheet, nodes):
    """Plan ``nodes`` as freight for a resident that holds none of their
    formulas yet: ``(records, spec, read_cols)``.

    ``records`` is one run record ``(col, first_row, last_row,
    template)`` per strip or lone cell (a template shared by many
    pickles once), ``spec`` the ordered plan (:func:`_spec_for`), and
    ``read_cols`` the union of the members' reference column spans — the
    only value planes worth shipping (None: a span was too wide to
    enumerate, ship everything).  Raises :class:`CrossSheetRegion` when
    a member references a sibling sheet.
    """
    formula_at = sheet.formula_at
    records = []
    for node in nodes:
        if type(node) is tuple:
            col, first = node
            last = first
        else:
            col, first, last = node.col, node.rows[0], node.rows[-1]
        records.append((col, first, last, formula_at((col, first)).template))
    read_cols: set[int] | None = set()
    for col, template in {(record[0], record[3]) for record in records}:
        for ref in template.refs:
            if ref.sheet not in (None, sheet.name):
                raise CrossSheetRegion
            c1, c2 = ref.columns_at(col)
            if c2 - c1 > _WIDE_SPAN:
                read_cols = None
            elif read_cols is not None:
                read_cols.update(range(c1, c2 + 1))
    return records, _spec_for(nodes), read_cols


# -- shard slot pools ----------------------------------------------------------
#
# ProcessPoolExecutor cannot route a task to a chosen worker, and
# residency *is* routing — so each shard slot gets its own
# max_workers=1 pool.  Slots are shared across runtimes (shard i of
# every runtime lands on slot i); the worker process multiplexes
# residents by key.

_SLOT_POOLS: dict[int, ProcessPoolExecutor] = {}
# A forked worker inherits this dict together with every not-yet-collected
# runtime's finalizer.  Emptied in the child, a drop there finds no pool —
# instead of submitting to a copy whose lock the parent held across the
# fork, which never returns.
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


def shutdown_pools() -> None:
    """Shut down every shard slot pool (all residents are lost; the next
    bootstrap starts clean).  The cache otherwise only grows, so
    long-lived hosts (the CLI, servers, test harnesses) call this at
    teardown; it also runs at exit.  Safe to call twice."""
    for slot in list(_SLOT_POOLS):
        _discard_slot(slot)
    _DROPS.clear()


#: ``(runtime id, slot)`` of every resident whose runtime was collected
#: and that has not been told to go yet.
_DROPS: list[tuple[int, int]] = []
atexit.register(shutdown_pools)


def _send_drops(runtime_id: int, shards: int) -> None:
    """Best-effort resident eviction when a runtime is garbage-collected:
    the drops are queued and go out ahead of the next message
    (:func:`_flush_drops`).  Sending them from here could deadlock — the
    collection that runs this finalizer may happen inside a ``submit`` to
    the very pool it would submit to, whose lock is not reentrant."""
    _DROPS.extend((runtime_id, slot) for slot in range(shards))


def _flush_drops() -> None:
    """Send the queued drops.  Never creates a pool and never blocks: if
    the slot pool is gone the resident died with it, and a broken pool
    simply keeps its corpse."""
    while _DROPS:
        key = _DROPS.pop()
        pool = _SLOT_POOLS.get(key[1])
        if pool is None:
            continue
        try:
            pool.submit(_shard_request, pickle.dumps(("drop", key), pickle.HIGHEST_PROTOCOL))
        except Exception:
            pass


class _Call:
    """One message to the resident worker behind ``slot``, and the one
    way any message gets there: pickled and submitted here (a pool that
    refuses is replaced once), awaited, unpickled and classified by
    :meth:`reply`.  Whatever goes wrong on the way is ``reason`` — what
    the caller records when it falls back: ``unshippable`` (the message
    would not pickle), ``"worker-died"``, ``"unpickle-failed"``, or
    ``"stale-epoch"`` (the worker holds no such resident, or an older
    boot of it)."""

    __slots__ = ("slot", "nbytes", "reason", "_future")

    def __init__(self, slot: int, message: tuple,
                 unshippable: str = "payload-pickle-failed"):
        self.slot = slot
        self.nbytes = 0
        self._future = None
        try:
            payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.reason = unshippable
            return
        self.nbytes = len(payload)
        self.reason = "worker-died"
        _flush_drops()
        for _ in range(2):
            try:
                self._future = _slot_pool(slot).submit(_shard_request, payload)
            except Exception:       # a broken pool: its residents are gone anyway
                _discard_slot(slot)
                continue
            self.reason = None
            break

    def reply(self) -> tuple | None:
        """The worker's ``("ok", ...)`` answer, or None with ``reason`` set."""
        if self.reason is not None:
            return None
        try:
            raw = self._future.result()
        except Exception:
            _discard_slot(self.slot)
            self.reason = "worker-died"
            return None
        try:
            reply = pickle.loads(raw)
        except Exception:
            self.reason = "unpickle-failed"
            return None
        if reply[0] != "ok":
            self.reason = "stale-epoch"
            return None
        return reply


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
        if len(node) == 2:
            positions.append(node)
        else:
            positions.extend((node[1], row) for row in range(node[2], node[3] + 1))
    return positions


def _shard_request(payload: bytes) -> bytes:
    """The single worker entry point for the shard message protocol.

    ``("boot", key, token, name, planes, records, spec, seeds, indexes)``
        (re)build the resident: install the planes, attach the formula
        run records over them (cached values stay), wrap in a graph-less
        shadow engine (``indexes``: the parent's ``lookup_indexes``).
        ``spec``/``seeds`` are the scenario-replica extras (a frozen
        plan and the seed positions).
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
        from ..sheet.sheet import Sheet
        from .recalc import RecalcEngine

        _, key, token, name, planes, records, spec, seeds, indexes = msg
        sheet = Sheet(name)
        sheet._cells.install_planes(planes)
        for record in records:
            sheet.attach_formula_run(*record)
        engine = RecalcEngine.plan_executor(sheet, lookup_indexes=indexes)
        plan = None if spec is None else _plan_from_spec(engine, spec)
        _RESIDENTS[key] = _Resident(token, sheet, engine, plan, seeds)
        return pickle.dumps(("ok",), pickle.HIGHEST_PROTOCOL)

    fault = os.environ.get(FAULT_ENV)
    if fault == "die":
        os._exit(11)
    _, key, token, planes = msg[:4]
    resident = _RESIDENTS.get(key)
    if fault == "stale" or resident is None or resident.token != token:
        return pickle.dumps(("stale",), pickle.HIGHEST_PROTOCOL)
    engine = resident.engine
    sheet = resident.sheet
    store = sheet._cells
    before = engine.eval_stats.counter_snapshot()
    if planes:
        store.apply_plane_delta(planes)

    if kind == "exec":
        patches, spec = msg[4], msg[5]
        if patches:
            store.merge_result_columns(patches)
        done = engine._execute_plan(_plan_from_spec(engine, spec))
        results = store.pack_result_columns(_spec_positions(spec))
    else:   # replay: scenario chunk against the resident plan
        rows, out_pos = msg[4], msg[5]
        set_value = sheet.set_value
        get_value = sheet.get_value
        results = []
        for row in rows:
            for pos, value in zip(resident.seeds, row):
                set_value(pos, value)
            engine._execute_plan(resident.plan)
            results.append([get_value(pos) for pos in out_pos])
        done = len(rows)
    if fault == "garbage":
        return b"\x00 injected unpicklable resident result"
    after = engine.eval_stats.counter_snapshot()
    deltas = tuple(a - b for a, b in zip(after, before))
    return pickle.dumps(("ok", results, deltas, done), pickle.HIGHEST_PROTOCOL)


# -- parent-side view of a resident --------------------------------------------

_RUNTIME_IDS = count(1)


class _Replica:
    """Parent-side view of one resident (shard or scenario slot).
    ``down`` is why it cannot be dispatched to — nothing there yet is
    what a worker would call stale — or None while it is up."""

    __slots__ = ("token", "shipped", "down")

    def __init__(self) -> None:
        self.token = 0
        self.shipped: dict[int, int] = {}
        self.down: str | None = "stale-epoch"


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

    Created by ``RecalcEngine(shards=N)`` (equally ``workers=N``, or
    ``REPRO_RECALC_SHARDS``) for auto-mode engines.
    Bootstrap is lazy — the first eligible recalculation pays it — and
    ownership maps contiguous column slices, balanced by formula count,
    onto ``shards`` slot pools.  ``min_dirty`` keeps small
    recalculations serial.
    """

    __slots__ = ("shards", "min_dirty", "_id", "_owner", "_closures",
                 "_records", "_replicas", "_boot_stamp", "_lost", "__weakref__")

    def __init__(self, shards: int, min_dirty: int):
        self.shards = int(shards)
        self.min_dirty = int(min_dirty)
        self._id = next(_RUNTIME_IDS)
        self._owner: dict[int, int] | None = None
        self._closures: list[set[int]] = []
        self._records: list[list[tuple]] = []
        self._replicas: list[_Replica] = [_Replica() for _ in range(self.shards)]
        #: The sheet's ``(epoch, formula_version)`` at the last bootstrap.
        self._boot_stamp: tuple[int, int] | None = None
        self._lost: set[int] = set()
        weakref.finalize(self, _send_drops, self._id, self.shards)

    # -- bootstrap -------------------------------------------------------------

    def _assign_ownership(self, engine: "RecalcEngine"):
        """Ownership, closures and each shard's run records: contiguous
        column slices balanced by formula count; cross-sheet /
        whole-row-span columns stay with the parent (-1)."""
        sheet = engine.sheet
        index = sheet.run_index()
        weight: dict[int, int] = {}
        col_reads: dict[int, set[int]] = {}
        parent_cols: set[int] = set()
        for col, runs in index.items():
            weight[col] = sum(last - first + 1 for first, last, _ in runs)
            reads = col_reads[col] = set()
            for spec in {spec for _, _, template in runs for spec in template.refs}:
                c1, c2 = spec.columns_at(col)
                if spec.sheet not in (None, sheet.name) or c2 - c1 > _WIDE_SPAN:
                    parent_cols.add(col)
                    break
                reads.update(range(c1, c2 + 1))

        shardable = sorted(c for c in weight if c not in parent_cols)
        owner: dict[int, int] = {c: -1 for c in parent_cols}
        slices: list[list[int]] = [[] for _ in range(self.shards)]
        total = sum(weight[c] for c in shardable)
        acc = 0
        si = 0
        for col in shardable:
            if si < self.shards - 1 and acc >= total * (si + 1) / self.shards:
                si += 1
            slices[si].append(col)
            acc += weight[col]

        closures: list[set[int]] = []
        records: list[list[tuple]] = []
        for j, cols in enumerate(slices):
            closure: set[int] = set()
            owned: list[tuple] = []
            for col in cols:
                owner[col] = j
                closure.add(col)
                closure.update(col_reads[col])
                owned.extend((col, *run) for run in index[col])
            closures.append(closure)
            records.append(owned)
        return owner, closures, records

    def _bootstrap(self, engine: "RecalcEngine", stamp, only=None) -> None:
        """(Re)ship residents.  ``only`` restricts to lost shards after a
        fault; a moved ``stamp`` forces the full pass, which recomputes
        ownership from scratch (resharding *is* a new bootstrap)."""
        sheet = engine.sheet
        store = sheet._cells
        if only is None or stamp != self._boot_stamp:
            self._owner, self._closures, self._records = (
                self._assign_ownership(engine)
            )
            targets = range(self.shards)
        else:
            targets = sorted(only)

        calls = []
        for j in targets:
            replica = self._replicas[j]
            replica.down = "stale-epoch"
            replica.shipped = {}
            if not self._records[j]:
                continue
            replica.token += 1
            planes, versions = store.export_plane_delta({}, self._closures[j])
            calls.append((replica, versions, _Call(j, (
                "boot", (self._id, j), replica.token, sheet.name,
                planes, self._records[j], None, None, engine.lookup_indexes,
            ))))
        for replica, versions, call in calls:
            if call.reply() is None:
                self._disown(call.slot, call.reason)
                continue
            replica.shipped = versions
            replica.down = None
            engine.eval_stats.shard_bootstraps += 1

        self._boot_stamp = stamp
        self._lost.clear()

    def _disown(self, j: int, reason: str) -> None:
        """Shard ``j`` could not be shipped: its columns run in the
        parent until the next bootstrap recomputes ownership."""
        for col, owner in self._owner.items():
            if owner == j:
                self._owner[col] = -1
        self._records[j] = []
        self._replicas[j].down = reason

    # -- execution -------------------------------------------------------------

    def execute(self, engine: "RecalcEngine", plan, succs) -> int | None:
        """Run ``plan`` across the resident shards; None → nothing here is
        sharded and the caller runs it serially.

        The plan is cut into waves at cross-executor edges: within a
        wave, shard messages dispatch first, parent-owned nodes execute
        locally, then results merge in shard order (deterministic).
        Wave results that cross shard boundaries ship as typed scalar
        patches with the downstream shard's next dispatch.
        """
        sheet = engine.sheet
        store = sheet._cells
        stats = engine.eval_stats
        stamp = (store.epoch, store.formula_version)
        if self._lost or stamp != self._boot_stamp:
            self._bootstrap(engine, stamp, only=self._lost or None)
        owner = self._owner

        node_shard = []
        any_shard = False
        for node in plan:
            col = node[0] if type(node) is tuple else node.col
            j = owner.get(col, -1)
            if j >= 0 and self._replicas[j].down:
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
            for j in range(self.shards) if not self._replicas[j].down
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

            calls = []
            stats.parallel_regions += len(by_shard)
            for j in sorted(by_shard):
                replica = self._replicas[j]
                patch_positions = pending_patches.pop(j, None)
                patches = (
                    store.pack_result_columns(sorted(patch_positions))
                    if patch_positions else []
                )
                planes = _ship_delta(
                    store, replica, self._closures[j], base_versions
                )
                calls.append(_Call(j, (
                    "exec", (self._id, j), replica.token, planes, patches,
                    _spec_for(by_shard[j]),
                ), "patch-pickle-failed"))

            if parent_nodes:
                total += engine._execute_plan(parent_nodes)

            for call in calls:
                j = call.slot
                reply = call.reply()
                if reply is None:
                    stats.serial_fallbacks += 1
                    stats.shard_fallbacks += 1
                    stats.fallback_reason = call.reason
                    fell_back.add(j)
                    self._lost.add(j)
                    total += engine._execute_plan(by_shard[j])
                    continue
                _, packed, deltas, executed = reply
                store.merge_result_columns(packed)
                replica = self._replicas[j]
                for col, _rows, _tags, _values, _side in packed:
                    # The resident's copy of its own results provably
                    # equals the parent's post-merge column.
                    replica.shipped[col] = store.column_version(col)
                stats.absorb_counters(deltas)
                stats.shard_delta_bytes += call.nbytes
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

    def boot(self, sheet, cols, records, spec, seeds, stats, indexes: bool) -> None:
        """Boot every slot that hosts no live replica.  A slot that
        cannot boot stays down — its chunks fall back serially at replay
        time, for the reason the boot failed."""
        planes, versions = sheet._cells.export_plane_delta({}, cols)
        calls = []
        for slot, replica in enumerate(self._replicas):
            if replica.down is None:
                continue
            replica.token += 1
            replica.shipped = {}
            calls.append((replica, _Call(slot, (
                "boot", (self._id, slot), replica.token, sheet.name,
                planes, records, spec, seeds, indexes,
            ))))
        for replica, call in calls:
            if call.reply() is not None:
                replica.shipped = dict(versions)
                stats.shard_bootstraps += 1
            replica.down = call.reason

    def replay_chunks(self, sheet, cols, chunks, out_pos, stats):
        """Fan ``chunks`` across the resident slots (chunk *i* → slot
        *i*): all dispatches in flight before any result is awaited.
        Returns one ``(reason, rows)`` pair per chunk, ``reason=None`` on
        success — a failed chunk carries its fallback reason, and its
        slot re-boots on the next sweep (whatever failed, the delta
        stamped as shipped may never have arrived)."""
        store = sheet._cells
        calls = [
            None if replica.down else _Call(slot, (
                "replay", (self._id, slot), replica.token,
                _ship_delta(store, replica, cols), chunk, out_pos,
            ))
            for slot, (replica, chunk) in enumerate(zip(self._replicas, chunks))
        ]
        results = []
        for replica, call in zip(self._replicas, calls):
            reply = None
            if call is not None:
                reply = call.reply()
                replica.down = call.reason
            if reply is None:
                results.append((replica.down, None))
                continue
            _, rows, deltas, _replays = reply
            stats.absorb_counters(deltas)
            stats.shard_delta_bytes += call.nbytes
            results.append((None, rows))
        return results
