"""Multi-tenant asyncio workbook service.

The paper's host model (Sec. I, VI-A) returns control to the user as
soon as an update's dependents are identified; recomputation happens
asynchronously.  :class:`WorkbookService` scales that shape out to many
workbooks under one event loop, with the compressed formula graph on
every op's critical path.

Concurrency model
-----------------
* **Per-workbook write serialization.**  Every mutating operation is
  enqueued on its workbook's op queue and applied by that workbook's
  single writer task, in submission order.  Two writes to one workbook
  never interleave; writes to different workbooks proceed
  independently.
* **Snapshot-consistent reads.**  Read operations run directly on the
  event loop with no await points between resolving the workbook and
  returning — the single-threaded loop guarantees no writer can run
  underneath them, so a read observes exactly the state at some op
  boundary.  Reads never enter a queue and never wait on another
  workbook's writes.
* **Deferred recomputation.**  Each sheet has one journaled
  ``RecalcEngine(deferred=True)`` serving every op: a write returns at
  the control-return point with its dependents marked pending, and the
  writer task pumps bounded ``step()`` slices of the engine's plan
  whenever its queue is empty, yielding to the loop between slices.
* **LRU residency.**  At most ``max_resident`` workbooks stay in
  memory.  Admitting one more evicts the least recently used: its
  pending recomputation drains and — if its journal holds any edit,
  appended during this residency or replayed into it — the workbook
  snapshots and its journal rotates to a fresh one paired with the new
  snapshot.  A residency that only read leaves the disk pair as it
  found it: the snapshot already is that state, so the eviction writes
  nothing.  A later op re-admits the workbook via the snapshot +
  journal-replay fast path (``Workbook.restore``).

Durability
----------
Every committed write appends one journal record *at commit time*,
before recomputation, through the engine's own journal hook — point
edits, batch commits and structural ops alike (a batch of no edits
appends nothing).  Validation happens before the op is enqueued: the
catalog turns its parameters into :mod:`repro.engine.edits` edits.
At any instant, snapshot + journal prefix reproduces every acknowledged
write.  An eviction that has edits to fold in snapshots first and
rotates the journal second; a crash between the two leaves a journal
superseded by the newer snapshot, which admission detects by the pairing
stamp and repairs by replaying nothing and rotating the journal forward.
An eviction with no edit to fold in (``Journal.edit_records == 0``)
touches neither file, so it has no crash window at all.
"""

from __future__ import annotations

import asyncio
import os
import re
import time
from collections import OrderedDict

from ..core.query import dependents_of_seeds
from ..engine.edits import Structural
from ..engine.journal import Journal, JournalFormatError, read_journal, recover
from ..engine.recalc import CircularReferenceError, RecalcEngine
from ..grid.range import Range
from ..io.snapshot import encode_value, load_snapshot
from ..sheet.workbook import Workbook
from .catalog import (
    CATALOG,
    TOOL_CATALOG,
    OpValidationError,
    parse_cell,
    parse_edits,
    parse_range,
    validate_op,
)
from .metrics import ServiceMetrics

__all__ = ["WorkbookService"]

_EVICT = "__evict__"
_MAX_RANGE_CELLS = 65536
_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class _Resident:
    """A workbook held in memory: one deferred engine per sheet, all
    writing to one journal; its op queue, and the single writer task
    draining that queue."""

    __slots__ = ("wb_id", "workbook", "journal", "engines", "queue", "writer")

    def __init__(self, wb_id, workbook, journal, engines):
        self.wb_id = wb_id
        self.workbook = workbook
        self.journal = journal
        self.engines: dict[str, RecalcEngine] = engines
        for engine in engines.values():
            engine.journal = journal
        self.queue: asyncio.Queue | None = None
        self.writer: asyncio.Task | None = None

    def pending(self) -> int:
        return sum(engine.pending for engine in self.engines.values())


class WorkbookService:
    """An asyncio service hosting many workbooks concurrently.

    ``data_dir`` holds one snapshot (``<id>.snap``) and one journal
    (``<id>.wal``) per workbook; a service restarted over the same
    directory re-admits every workbook on first touch.  ``fsync=False``
    relaxes journal durability for tests and bulk imports.
    """

    def __init__(
        self,
        data_dir: str,
        *,
        max_resident: int = 8,
        fsync: bool = True,
        step_cells: int = 256,
        evaluation: str = "auto",
    ):
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.max_resident = max_resident
        self.fsync = fsync
        self.step_cells = step_cells
        self.evaluation = evaluation
        self.metrics = ServiceMetrics()
        self._residents: "OrderedDict[str, _Resident]" = OrderedDict()
        self._admission: dict[str, asyncio.Lock] = {}
        self._known_evicted: set[str] = set()
        self._closed = False

    # -- introspection ---------------------------------------------------------

    @staticmethod
    def catalog() -> list[dict]:
        """The typed operation catalog (see :mod:`repro.server.catalog`)."""
        return TOOL_CATALOG

    @property
    def resident_ids(self) -> list[str]:
        """Resident workbook ids, least recently used first."""
        return list(self._residents)

    def stats(self) -> dict:
        out = self.metrics.snapshot()
        out["resident"] = list(self._residents)
        out["max_resident"] = self.max_resident
        return out

    # -- lifecycle -------------------------------------------------------------

    async def create_workbook(
        self, wb_id: str, sheets=("Sheet1",), *, workbook: Workbook | None = None
    ) -> dict:
        """Create a workbook (or attach a pre-built one) and make it
        resident.  It is snapshotted and paired with a fresh journal
        immediately, so a crash at any later instant restores it."""
        self._check_open()
        if not _ID_RE.match(wb_id):
            raise OpValidationError(
                f"invalid workbook id {wb_id!r} (letters, digits, '.', '_', '-')"
            )
        async with self._lock_for(wb_id):
            if wb_id in self._residents or os.path.exists(self._snapshot_path(wb_id)):
                raise OpValidationError(f"workbook {wb_id!r} already exists")
            await self._make_room()
            if workbook is None:
                workbook = Workbook(wb_id)
                for name in sheets:
                    workbook.add_sheet(name)
            res = self._admit_fresh(wb_id, workbook)
            self._install(res)
            self.metrics.cold_admissions += 1
        return {"workbook": wb_id, "sheets": workbook.sheet_names}

    async def close(self) -> None:
        """Evict every resident workbook to disk and stop the service."""
        if self._closed:
            return
        self._closed = True
        for wb_id in list(self._residents):
            await self._evict(wb_id)

    async def __aenter__(self) -> "WorkbookService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- the op dispatch -------------------------------------------------------

    async def execute(self, wb_id: str, op: str, params: dict | None = None) -> dict:
        """Run one catalog operation against ``wb_id``.

        Reads return immediately with snapshot-consistent state; writes
        are serialized through the workbook's writer task and return at
        the control-return point (dependents marked, not recomputed).
        """
        self._check_open()
        params = validate_op(op, params)
        stats = self.metrics.op(op)
        start = time.perf_counter()
        try:
            edits = parse_edits(op, params)
            res = await self._ensure_resident(wb_id)
            if CATALOG[op]["read_only"]:
                result = self._apply_read(res, op, params)
            else:
                future = asyncio.get_running_loop().create_future()
                res.queue.put_nowait((op, params, edits, future))
                self.metrics.sample_queue_depth(res.queue.qsize())
                result = await future
        except Exception:
            stats.record(time.perf_counter() - start, error=True)
            raise
        stats.record(
            time.perf_counter() - start,
            control_return=result.get("control_return_seconds"),
        )
        return result

    # -- residency -------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    def _lock_for(self, wb_id: str) -> asyncio.Lock:
        lock = self._admission.get(wb_id)
        if lock is None:
            lock = self._admission[wb_id] = asyncio.Lock()
        return lock

    def _snapshot_path(self, wb_id: str) -> str:
        return os.path.join(self.data_dir, f"{wb_id}.snap")

    def _journal_path(self, wb_id: str) -> str:
        return os.path.join(self.data_dir, f"{wb_id}.wal")

    async def _ensure_resident(self, wb_id: str) -> _Resident:
        res = self._residents.get(wb_id)
        if res is not None:
            # Fast path: no await point between here and the caller's
            # enqueue/read — resident reads stay queue-free.
            self._residents.move_to_end(wb_id)
            return res
        async with self._lock_for(wb_id):
            res = self._residents.get(wb_id)
            if res is not None:
                self._residents.move_to_end(wb_id)
                return res
            if not os.path.exists(self._snapshot_path(wb_id)):
                raise OpValidationError(
                    f"unknown workbook {wb_id!r}; create_workbook first"
                )
            # Make room *before* installing, while still holding the
            # admission lock: once installed, the caller reaches its
            # enqueue/read with no further await point, so a concurrent
            # capacity pass can never evict the workbook out from under
            # it (a stale queue would strand the writer future forever).
            await self._make_room()
            res = self._admit_from_disk(wb_id)
            self._install(res)
            if wb_id in self._known_evicted:
                self.metrics.readmissions += 1
            else:
                self.metrics.cold_admissions += 1
            return res

    def _install(self, res: _Resident) -> None:
        res.queue = asyncio.Queue()
        res.writer = asyncio.get_running_loop().create_task(self._writer_loop(res))
        self._residents[res.wb_id] = res

    def _admit_fresh(self, wb_id: str, workbook: Workbook) -> _Resident:
        # Recalculate once so the snapshot carries clean cached values;
        # cycles surface as #CYCLE! cells rather than aborting admission.
        engines: dict[str, RecalcEngine] = {}
        for sheet in workbook.sheets():
            engine = RecalcEngine(sheet, evaluation=self.evaluation, deferred=True)
            try:
                engine.recalculate_all()
            except CircularReferenceError:
                pass
            engines[sheet.name] = engine
        stats = workbook.snapshot(
            self._snapshot_path(wb_id),
            graphs={name: engine.graph for name, engine in engines.items()},
        )
        journal = Journal(
            self._journal_path(wb_id), fsync=self.fsync,
            truncate=True, snapshot_id=stats.snapshot_id,
        )
        return _Resident(wb_id, workbook, journal, engines)

    def _admit_from_disk(self, wb_id: str) -> _Resident:
        snap = load_snapshot(self._snapshot_path(wb_id))
        snapshot_id = snap.meta.get("snapshot_id") or None
        journal_path = self._journal_path(wb_id)
        try:
            recovery = recover(snap, journal_path, evaluation=self.evaluation)
        except JournalFormatError:
            if not self._journal_superseded(journal_path, snapshot_id):
                raise
            # An eviction crashed between its snapshot write and its
            # journal rotation: the snapshot already embodies every
            # journaled edit, so replay nothing and rotate now.
            recovery = recover(snap, None, evaluation=self.evaluation)
            Journal(
                journal_path, fsync=self.fsync,
                truncate=True, snapshot_id=snapshot_id,
            ).close()
            self.metrics.rotation_repairs += 1
        journal = Journal(journal_path, fsync=self.fsync, snapshot_id=snapshot_id)
        # Recovery built an engine for every sheet the journal touched and
        # settled it; from here on those engines defer.  Untouched sheets
        # get theirs over the snapshot's graph.
        engines = recovery.engines
        for engine in engines.values():
            engine.deferred = True
        for sheet in recovery.workbook.sheets():
            if sheet.name not in engines:
                engines[sheet.name] = RecalcEngine(
                    sheet, recovery.graphs.get(sheet.name),
                    evaluation=self.evaluation, deferred=True,
                )
        return _Resident(wb_id, recovery.workbook, journal, engines)

    @staticmethod
    def _journal_superseded(journal_path: str, snapshot_id: str | None) -> bool:
        """True when the journal's pairing stamp names an *older*
        snapshot than the one on disk — only the service's own crashed
        eviction produces that state (this directory has no other
        writers), so the journal's content is already in the snapshot."""
        if snapshot_id is None or not os.path.exists(journal_path):
            return False
        try:
            records = read_journal(journal_path).records
        except JournalFormatError:
            return False
        stamps = [r.get("snapshot") for r in records if r.get("kind") == "open"]
        return bool(stamps) and snapshot_id not in stamps

    async def _make_room(self) -> None:
        # Called with the incoming workbook's admission lock held; the
        # incoming id is not yet resident, so it cannot be picked as a
        # victim here.  Victim admission locks are only ever held by
        # _evict itself (which awaits nothing but the victim's writer),
        # so holding our lock across these awaits cannot form a cycle.
        while len(self._residents) >= self.max_resident:
            victim = next(iter(self._residents), None)
            if victim is None:
                return
            await self._evict(victim)

    async def _evict(self, wb_id: str) -> None:
        async with self._lock_for(wb_id):
            res = self._residents.pop(wb_id, None)
            if res is None:
                return
            future = asyncio.get_running_loop().create_future()
            res.queue.put_nowait((_EVICT, None, None, future))
            try:
                await future
            finally:
                res.journal.close()
            self._known_evicted.add(wb_id)
            self.metrics.evictions += 1

    def _evict_to_disk(self, res: _Resident) -> None:
        # Quiesce first: bake every pending recomputation into cached
        # values so the snapshot is clean and the fresh journal starts
        # empty.
        self._drain(res)
        if res.journal.edit_records == 0:
            # Nothing was written during this residency and nothing was
            # replayed into it: the snapshot on disk already is this
            # state, and the journal — its stamp(s) only — already pairs
            # with it.  Persisting nothing takes no write.
            res.journal.close()
            return
        # Snapshot before rotating — at every instant the disk pair
        # reproduces all acknowledged writes (see module docs).
        stats = res.workbook.snapshot(
            self._snapshot_path(res.wb_id),
            graphs={name: engine.graph for name, engine in res.engines.items()},
        )
        res.journal.close()
        Journal(
            self._journal_path(res.wb_id), fsync=self.fsync,
            truncate=True, snapshot_id=stats.snapshot_id,
        ).close()

    # -- the writer task -------------------------------------------------------

    async def _writer_loop(self, res: _Resident) -> None:
        queue = res.queue
        while True:
            if queue.empty() and res.pending():
                self.metrics.background_cells += self._pump(res)
                await asyncio.sleep(0)
                continue
            op, params, edits, future = await queue.get()
            if op is _EVICT:
                try:
                    self._evict_to_disk(res)
                except Exception as exc:
                    if not future.done():
                        future.set_exception(exc)
                else:
                    if not future.done():
                        future.set_result(None)
                return
            try:
                result = self._apply_write(res, op, params, edits)
            except Exception as exc:
                if not future.done():
                    future.set_exception(exc)
            else:
                if not future.done():
                    future.set_result(result)
            # Queue.get returns without suspending while ops are ready;
            # yield so readers interleave instead of waiting out a burst.
            await asyncio.sleep(0)

    def _pump(self, res: _Resident) -> int:
        budget = self.step_cells
        total = 0
        for engine in res.engines.values():
            if budget <= 0:
                break
            done = engine.step(budget)
            total += done
            budget -= done
        return total

    def _drain(self, res: _Resident) -> int:
        total = 0
        for engine in res.engines.values():
            total += engine.drain()
        self.metrics.background_cells += total
        return total

    # -- op handlers -----------------------------------------------------------

    def _engine(self, res: _Resident, sheet_name: str | None) -> RecalcEngine:
        workbook = res.workbook
        if sheet_name is None:
            return res.engines[workbook.active_sheet.name]
        if sheet_name not in workbook:
            raise OpValidationError(
                f"unknown sheet {sheet_name!r} in workbook {res.wb_id!r}"
            )
        return res.engines[sheet_name]

    def _apply_read(self, res: _Resident, op: str, params: dict) -> dict:
        engine = self._engine(res, params.get("sheet"))
        sheet = engine.sheet
        base = {"workbook": res.wb_id, "sheet": sheet.name}
        if op == "get_cell":
            pos = parse_cell(params["cell"])
            view = engine.read(pos)
            base.update(
                cell=Range.cell(*pos).to_a1(),
                value=encode_value(view.value),
                dirty=view.is_dirty,
            )
            return base
        if op == "get_range":
            rng = parse_range(params["range_ref"])
            if rng.size > _MAX_RANGE_CELLS:
                raise OpValidationError(
                    f"range {rng.to_a1()} spans {rng.size} cells "
                    f"(limit {_MAX_RANGE_CELLS})"
                )
            dirty_cells = 0
            values = []
            for row in range(rng.r1, rng.r2 + 1):
                row_values = []
                for col in range(rng.c1, rng.c2 + 1):
                    row_values.append(encode_value(sheet.get_value((col, row))))
                    if engine.is_dirty((col, row)):
                        dirty_cells += 1
                values.append(row_values)
            base.update(range=rng.to_a1(), values=values, dirty_cells=dirty_cells)
            return base
        # summarize_sheet
        cells = 0
        max_col = 0
        max_row = 0
        for col, row in sheet.positions():
            cells += 1
            if col > max_col:
                max_col = col
            if row > max_row:
                max_row = row
        base.update(
            cells=cells,
            formulas=sheet.formula_count,
            extent=Range(1, 1, max_col, max_row).to_a1() if cells else None,
            pending=engine.pending,
            sheets=res.workbook.sheet_names,
        )
        return base

    def _apply_write(self, res: _Resident, op: str, params: dict, edits: list) -> dict:
        engine = self._engine(res, params.get("sheet"))
        if op == "recalculate":
            recomputed = self._drain(res)
            return {
                "workbook": res.wb_id,
                "recomputed": recomputed,
                "pending": res.pending(),
            }
        start = time.perf_counter()
        records = res.journal.records_written
        if op == "batch_edit":
            with engine.begin_batch(workbook=res.workbook) as batch:
                for edit in edits:
                    batch.apply(edit)
            # On a deferred engine the commit marks its dirty set (edited
            # formulas + transitive dependents) and reports how many.
            result = {"edits": len(edits), "dirty_count": batch.result.recomputed}
        elif type(edits[0]) is Structural:
            result = self._apply_structural(res, engine, edits[0])
        else:
            ticket = engine.apply(edits[0])
            result = {
                "cell": Range.cell(*edits[0].pos).to_a1(),
                "dirty_count": ticket.dirty_count,
            }
        self.metrics.journal_records += res.journal.records_written - records
        return {
            "workbook": res.wb_id,
            "sheet": engine.sheet.name,
            **result,
            "pending": res.pending(),
            "control_return_seconds": time.perf_counter() - start,
        }

    def _apply_structural(
        self, res: _Resident, engine: RecalcEngine, edit: Structural
    ) -> dict:
        # The engine would settle its own backlog before shifting anyway
        # (pending positions predate the shift); doing it here counts the
        # cells as background work.
        self.metrics.background_cells += engine.drain()
        result = engine.apply(edit, workbook=res.workbook)
        marked = result.recomputed
        # Sibling sheets whose cross-sheet references were rewritten
        # re-evaluate through their own engines.
        for name, report in (result.sibling_reports or {}).items():
            seeds = report.dirty_seeds
            if seeds:
                sibling = res.engines[name]
                marked += sibling.recompute(
                    seeds + dependents_of_seeds(sibling.graph, seeds)
                )
        return {
            "op": edit.op,
            "index": edit.index,
            "count": edit.count,
            "moved_cells": result.moved_cells,
            "rewritten_formulas": result.rewritten_formulas,
            "ref_errors": result.ref_errors,
            "dirty_count": marked,
        }
