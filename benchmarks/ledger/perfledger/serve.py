"""The served sessions: ``serve_resident`` and ``serve_churn``.

One :class:`~repro.server.WorkbookService` with service defaults
(``fsync=True``, ``step_cells=256``) and ``max_resident=4``, driven
in-process by two closed-loop clients (a client awaits its reply before
its next op; the service has no network front end, and an open-loop
generator would share the one event-loop thread with the service it
measures).  The trace is a fixed cycle of 100 ops in the mix below,
repeated round after round.

``serve_resident`` hosts 4 ledgers, so nothing is ever evicted and
``io.snapshot`` does no work after the first touch; every eighth write
of a client is a settle probe.  ``serve_churn`` hosts 12 (3 hot take
80 % of the traffic, 9 cold the rest), so every cold op misses, evicts
(drain -> snapshot -> journal rotate) and re-admits (``load_snapshot``
+ ``recover``).

Traced, every op is replayed on a scratch copy of its workbook
(:class:`_Shadow`) so that the layer calls the service makes inside
``execute`` — ticket, journal append, batch commit, snapshot, recovery —
get durations of their own; recomputation the service pumps in the
background is estimated from its ``background_cells`` counter and the
scratch copy's cost per pumped cell.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from contextlib import nullcontext

from repro.engine.async_engine import AsyncRecalcEngine
from repro.engine.journal import Journal, recover
from repro.engine.recalc import RecalcEngine
from repro.grid.range import Range
from repro.io.snapshot import encode_value, load_snapshot
from repro.server import WorkbookService

from . import inputs, oracle
from .outcome import Outcome, peak_rss_mb, step
from .tracing import HARNESS, span, untimed

MAX_RESIDENT = 4
CLIENTS = 2
SENTINEL = "F1"   # whole-column SUM over the chain: clean only when all is
PROBE_CELL = "A1"  # head of the chain: writing it dirties every row

#: The mix: 55 % get_cell, 15 % get_range (10x5), 22 % set_cell,
#: 3 % set_formula, 5 % batch_edit of 5 values.
MIX = (("get_cell", 55), ("get_range", 15), ("set_cell", 22), ("set_formula", 3),
       ("batch_edit", 5))
#: Of those, what the 20 cold slots of the cycle carry when there are
#: cold workbooks: the mix again, as near as 20 ops come to it.
COLD_MIX = (("get_cell", 11), ("get_range", 3), ("set_cell", 4), ("set_formula", 1),
            ("batch_edit", 1))
READS = ("get_cell", "get_range")
COLD_EVERY = 5  # every fifth op of the cycle, and so of each client, is a cold slot


def _pattern() -> tuple[tuple[str, bool], ...]:
    """The mix as a fixed cycle of 100 ``(op, cold slot)``, shuffled once
    and for all: every run issues the same kinds in the same order, and
    a slot always goes to the same kind of workbook, so the seed moves
    rows and values but never the load."""
    rng = random.Random(0)
    cold = [name for name, count in COLD_MIX for _ in range(count)]
    hot = [name for (name, count), (_, chilled) in zip(MIX, COLD_MIX)
           for _ in range(count - chilled)]
    rng.shuffle(cold)
    rng.shuffle(hot)
    return tuple(
        (cold.pop(), True) if at % COLD_EVERY == 0 else (hot.pop(), False)
        for at in range(len(cold) + len(hot))
    )


PATTERN = _pattern()


def workbook_ids(sizes: dict) -> tuple[list[str], list[str]]:
    hot = [f"hot{i}" for i in range(sizes["hot"])]
    cold = [f"cold{i}" for i in range(sizes["cold"])]
    return hot, cold


def _service(state: dict) -> WorkbookService:
    return WorkbookService(state["data_dir"], max_resident=MAX_RESIDENT, fsync=True)


def setup(seed: int, sizes: dict, workdir: str) -> tuple[dict, dict[str, float]]:
    """Create every workbook through the service and close it, so the
    timed section starts from snapshots + journals on disk.  Returns the
    state a session starts from and the steps' seconds."""
    hot, cold = workbook_ids(sizes)
    ids = hot + cold
    state = {
        "data_dir": os.path.join(workdir, "data"),
        "hot": hot, "cold": cold,
        "seeds": {wb_id: seed * 64 + i for i, wb_id in enumerate(ids)},
    }
    steps: dict[str, float] = {}

    async def create() -> None:
        service = _service(state)
        for wb_id in ids:
            with step(steps, f"create {wb_id}"):
                await service.create_workbook(
                    wb_id,
                    workbook=inputs.ledger_workbook(wb_id, sizes["rows"], state["seeds"][wb_id]),
                )
        with step(steps, "close"):
            await service.close()

    asyncio.run(create())
    return state, steps


class _Script:
    """One client's ops: its half of :data:`PATTERN` round after round,
    workbooks in turn, rows spread evenly (:class:`inputs.Spread`),
    values from the seed."""

    def __init__(self, seed: int, index: int, state: dict, rows: int):
        self.rng = random.Random(seed * 1000 + index)
        self.spread = inputs.Spread(self.rng)
        self.hot, self.cold = state["hot"], state["cold"]
        self.rows = rows
        self.kinds = PATTERN[index::CLIENTS]
        self.at = 0
        self.turns = {"hot": index, "cold": index * 4, "column": index}

    def _turn(self, what: str, items):
        self.turns[what] += 1
        return items[self.turns[what] % len(items)]

    def next_op(self):
        """``(wb_id, op, params, log_entry)``; ``log_entry`` is what the
        oracle replays (None for reads)."""
        op, cold_slot = self.kinds[self.at % len(self.kinds)]
        self.at += 1
        if cold_slot and self.cold:
            wb_id = self._turn("cold", self.cold)
        else:
            wb_id = self._turn("hot", self.hot)
        rows, rng, row = self.rows, self.rng, self.spread.row
        if op == "get_cell":
            return wb_id, op, {"cell": f"{self._turn('column', 'ABCDEF')}{row(rows)}"}, None
        if op == "get_range":
            top = row(max(1, rows - 9))
            return wb_id, op, {"range_ref": f"A{top}:E{top + 9}"}, None
        if op == "set_cell":
            cell = f"{self._turn('column', 'AB')}{row(rows)}"
            value = round(rng.uniform(1, 500), 3)
            return wb_id, op, {"cell": cell, "value": value}, ("set", cell, value)
        if op == "set_formula":
            at = row(rows)
            text = f"=A{at}*B{at}+{rng.randint(1, 9)}"
            return wb_id, op, {"cell": f"E{at}", "formula": text}, ("formula", f"E{at}", text)
        edits = [
            (f"{'AB'[i % 2]}{row(rows)}", round(rng.uniform(1, 500), 3)) for i in range(5)
        ]
        params = {"edits": [{"op": "set_value", "cell": c, "value": v} for c, v in edits]}
        return wb_id, op, params, ("batch", edits)


# -- the traced pass's scratch copies ----------------------------------------------

class _Book:
    __slots__ = ("workbook", "deferred", "sync", "journal")

    def __init__(self, workbook, graph, journal):
        sheet = workbook.active_sheet
        self.workbook = workbook
        self.deferred = AsyncRecalcEngine(sheet, graph)
        self.sync = RecalcEngine(sheet, self.deferred.graph, journal=journal)
        self.journal = journal


class _Shadow:
    """Scratch copies of the served workbooks, fed the same ops.

    ``replay`` performs, with a timer around each, the layer calls the
    service makes for one op (its ``_apply_write`` / ``_apply_read`` /
    eviction / admission, in that order of calls) and returns them as
    ``(layer, name, seconds)``.  The copies stay in step with the service
    because both see the same ops in the same order.
    """

    def __init__(self, state: dict, sizes: dict, scratch: str):
        os.makedirs(scratch, exist_ok=True)
        self.scratch = scratch
        self.books: dict[str, _Book] = {}
        self.resident: set[str] = set()
        self.pump_seconds = 0.0
        self.pump_cells = 0
        self.evaluated = {"compiled": 0, "windowed": 0, "elementwise": 0, "interpreted": 0}
        for wb_id in state["hot"] + state["cold"]:
            workbook = inputs.ledger_workbook(wb_id, sizes["rows"], state["seeds"][wb_id])
            engine = RecalcEngine(workbook.active_sheet)
            engine.recalculate_all()
            self.books[wb_id] = _Book(workbook, engine.graph, None)
            self._save(wb_id)

    def _paths(self, wb_id: str) -> tuple[str, str]:
        return (os.path.join(self.scratch, f"{wb_id}.snap"),
                os.path.join(self.scratch, f"{wb_id}.wal"))

    def _save(self, wb_id: str) -> list[tuple[str, str, float]]:
        """What an eviction does after its drain: snapshot, rotate."""
        book = self.books[wb_id]
        snap_path, wal_path = self._paths(wb_id)
        sheet = book.workbook.active_sheet
        start = time.perf_counter()
        stats = book.workbook.snapshot(snap_path, graphs={sheet.name: book.deferred.graph})
        saved = time.perf_counter()
        if book.journal is not None:
            book.journal.close()
        Journal(wal_path, fsync=True, truncate=True, snapshot_id=stats.snapshot_id).close()
        rotated = time.perf_counter()
        book.journal = None
        self.resident.discard(wb_id)
        return [("io.snapshot", "Workbook.snapshot", saved - start),
                ("engine.journal", "rotate", rotated - saved)]

    def _load(self, wb_id: str) -> list[tuple[str, str, float]]:
        """What an admission does: load the snapshot, replay the journal."""
        snap_path, wal_path = self._paths(wb_id)
        start = time.perf_counter()
        snap = load_snapshot(snap_path)
        loaded = time.perf_counter()
        recovery = recover(snap, wal_path)
        journal = Journal(wal_path, fsync=True, snapshot_id=snap.meta.get("snapshot_id"))
        recovered = time.perf_counter()
        name = recovery.workbook.active_sheet.name
        self._count_evaluated(self.books[wb_id])  # a re-admitted workbook gets new engines
        self.books[wb_id] = _Book(recovery.workbook, recovery.graphs.get(name), journal)
        self.resident.add(wb_id)
        return [("io.snapshot", "load_snapshot", loaded - start),
                ("engine.journal", "recover + reopen", recovered - loaded)]

    def follow(self, resident_now, wb_id: str | None = None) -> list[tuple[str, str, float]]:
        """Catch up with the service before replaying an op on ``wb_id``:
        evict what it evicted, admit ``wb_id`` if the op had to.

        ``wb_id`` itself is never evicted here, even when the service has
        already evicted it again (another client's admission can run
        between an op's reply and this replay); the next call does that.
        """
        calls = []
        for other in sorted(self.resident - set(resident_now) - {wb_id}):
            calls += self._save(other)
        if wb_id is not None and wb_id not in self.resident:
            calls += self._load(wb_id)
        return calls

    def _pump(self, book: _Book) -> None:
        deferred = book.deferred
        while deferred.pending:
            start = time.perf_counter()
            done = deferred.step(256)
            self.pump_seconds += time.perf_counter() - start
            self.pump_cells += done
            if not done:
                break

    def seconds_per_pumped_cell(self) -> float:
        return self.pump_seconds / self.pump_cells if self.pump_cells else 0.0

    def replay(self, wb_id: str, op: str, params: dict) -> list[tuple[str, str, float]]:
        book = self.books[wb_id]
        sheet = book.workbook.active_sheet
        deferred = book.deferred
        clock = time.perf_counter
        if op == "get_cell":
            pos = Range.from_a1(params["cell"]).head
            start = clock()
            deferred.read(pos)
            return [("engine.async_engine", "read", clock() - start)]
        if op == "get_range":
            rng = Range.from_a1(params["range_ref"])
            start = clock()
            for row in range(rng.r1, rng.r2 + 1):
                for col in range(rng.c1, rng.c2 + 1):
                    encode_value(sheet.get_value((col, row)))
                    deferred.is_dirty((col, row))
            return [("sheet", "get_range", clock() - start)]
        if op in ("set_cell", "set_formula"):
            pos = Range.from_a1(params["cell"]).head
            start = clock()
            if op == "set_cell":
                deferred.set_value(pos, params["value"])
                marked = clock()
                book.journal.record_cell(sheet.name, "value", pos, params["value"])
            else:
                deferred.set_formula(pos, params["formula"])
                marked = clock()
                book.journal.record_cell(sheet.name, "formula", pos, params["formula"])
            calls = [("engine.async_engine", "mark", marked - start),
                     ("engine.journal", "record_cell", clock() - marked)]
        else:  # batch_edit
            start = clock()
            with book.sync.begin_batch(recalc=False, workbook=book.workbook) as batch:
                for edit in params["edits"]:
                    batch.set_value(Range.from_a1(edit["cell"]).head, edit["value"])
            committed = clock()
            result = batch.result
            deferred.note_external_dirty(
                list(result.cleared_ranges) + list(result.dirty_ranges))
            calls = [("engine.batch", "commit(recalc=False)", committed - start),
                     ("engine.async_engine", "note_external_dirty", clock() - committed)]
        self._pump(book)
        return calls

    def _count_evaluated(self, book: _Book) -> None:
        stats = book.deferred.eval_stats
        for name in self.evaluated:
            self.evaluated[name] += getattr(stats, f"{name}_cells")

    def eval_counts(self) -> dict[str, int]:
        """How the copies' deferred engines evaluated their cells, over
        every admission of every workbook.  Call once, at the end."""
        for book in self.books.values():
            self._count_evaluated(book)
        return {f"engine.recalc.cells_{name}": n for name, n in self.evaluated.items()}

    def close(self) -> None:
        for book in self.books.values():
            if book.journal is not None:
                book.journal.close()


# -- the session --------------------------------------------------------------------

class _Session:
    """State one timed session shares between its clients."""

    def __init__(self, state, seed, sizes, tracer, outcome):
        self.state, self.seed, self.sizes = state, seed, sizes
        self.tracer, self.outcome = tracer, outcome
        self.ids = state["hot"] + state["cold"]
        self.rows = sizes["rows"]
        self.write_log = {wb_id: [] for wb_id in self.ids}
        self.service: WorkbookService | None = None
        self.shadow: _Shadow | None = None
        self.requests = 0
        self.completed = 0
        #: (span, background cells pumped while it was open), settled
        #: into reported children once the cost per cell is known
        self.pumped: list[tuple[int, int]] = []

    async def execute(self, wb_id, op, params, entry, *, parent, estimate_pump=True):
        """One op of the trace through the service: counted, timed,
        logged for the oracle, and (traced) spanned and replayed.
        Returns the op's result, None when it failed."""
        outcome, tracer, service = self.outcome, self.tracer, self.service
        outcome.attempted += 1
        missed = wb_id not in service.resident_ids
        index = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = await service.execute(wb_id, op, params)
            else:
                self.requests += 1
                pumped_before = service.metrics.background_cells
                with tracer.span("server", f"execute:{op}", self.requests,
                                 parent=parent) as index:
                    result = await service.execute(wb_id, op, params)
        except Exception as exc:  # an op that raises or is refused has failed
            outcome.fail(f"{wb_id} {op}: {exc!r}")
            return None
        end = time.perf_counter()
        if entry is not None:
            # Replies come back in the order the writer applied the ops
            # (submission order is not it: an op that waits out an
            # admission can be overtaken by one submitted after it).
            self.write_log[wb_id].append(entry)
        outcome.sample("read" if op in READS else "write", end - start)
        if missed:
            outcome.sample("readmit", end - start)
        if tracer is not None:
            if estimate_pump:
                self.pumped.append(
                    (index, service.metrics.background_cells - pumped_before))
            if missed:
                outcome.miss_spans.append(index)
            with untimed(tracer, parent=parent):
                calls = self.shadow.follow(service.resident_ids, wb_id)
                calls += self.shadow.replay(wb_id, op, params)
            for layer, name, took in calls:
                tracer.reported_child(index, layer, name, took)
        return result

    def _phase(self, name: str, parent):
        """A harness span under ``parent`` (nothing when not traced)."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(HARNESS, name, parent=parent)

    async def client(self, index: int, root) -> None:
        sizes = self.sizes
        script = _Script(self.seed, index, self.state, self.rows)
        writes = 0
        with self._phase(f"client{index}", root) as me:
            for _ in range(sizes["rounds"] * len(script.kinds)):
                wb_id, op, params, entry = script.next_op()
                if op not in READS and sizes["settle_every"]:
                    writes += 1
                    if writes % sizes["settle_every"] == 0:
                        await self.settle_probe(wb_id, script.rng, me)
                        continue
                result = await self.execute(wb_id, op, params, entry, parent=me)
                if result is not None:
                    self.completed += 1

    async def settle_probe(self, wb_id: str, rng, parent) -> None:
        """Write the head of the chain, then poll the whole-column
        sentinel until it is clean: submit -> every dependent recomputed."""
        tracer, service = self.tracer, self.service
        value = round(rng.uniform(1, 500), 3)
        start = time.perf_counter()
        with self._phase("settle probe", parent) as probe:
            pumped_before = service.metrics.background_cells
            result = await self.execute(
                wb_id, "set_cell", {"cell": PROBE_CELL, "value": value},
                ("set", PROBE_CELL, value), parent=probe, estimate_pump=False)
            if result is None:
                return
            self.completed += 1
            # Polls are part of the probe, not ops of the trace.
            while (await service.execute(wb_id, "get_cell", {"cell": SENTINEL}))["dirty"]:
                await asyncio.sleep(0)
            self.outcome.sample("settle", time.perf_counter() - start)
            if tracer is not None:
                self.pumped.append(
                    (probe, service.metrics.background_cells - pumped_before))
                self.outcome.settle_spans.append(probe)

    # -- after the timed section -----------------------------------------------

    def settle_pump_estimates(self) -> None:
        """Turn the pumped-cell counts into reported children."""
        per_cell = self.shadow.seconds_per_pumped_cell()
        for index, cells in self.pumped:
            if cells:
                self.tracer.reported_child(
                    index, "engine.async_engine", "pump/drain (estimated)",
                    cells * per_cell)

    def report_counts(self) -> None:
        stats = self.service.stats()
        touches = max(stats["total_ops"], 1)
        reported = self.outcome.reported
        reported.update({
            "server.evictions": stats["evictions"],
            "server.readmissions": stats["readmissions"],
            "server.hit_rate":
                1.0 - (stats["readmissions"] + stats["cold_admissions"]) / touches,
            "server.queue_depth_mean": stats["mean_queue_depth"],
            "server.queue_depth_max": stats["max_queue_depth"],
            "server.background_cells": stats["background_cells"],
            "server.rotation_repairs": stats["rotation_repairs"],
        })
        if self.shadow is not None:
            # The service keeps its engines to itself; the scratch copies
            # evaluated the same cells along the same (deferred) path.
            reported.update(self.shadow.eval_counts())
        self.outcome.notes.update(
            workbooks=len(self.ids), rows=self.rows, evictions=stats["evictions"],
            readmissions=stats["readmissions"], rounds=self.sizes["rounds"],
            ops_per_round=len(PATTERN), journal_records=stats["journal_records"],
        )

    async def verify(self) -> None:
        """Drain everything and compare each workbook with a synchronous
        engine fed the same write log, bit for bit."""
        rows, outcome = self.rows, self.outcome
        for wb_id in self.ids:
            await self.service.execute(wb_id, "recalculate")
            got = (await self.service.execute(
                wb_id, "get_range", {"range_ref": f"A1:F{rows}"}))["values"]
            expected = oracle.replayed_ledger(
                wb_id, rows, self.state["seeds"][wb_id], self.write_log[wb_id])
            outcome.check(got == expected, f"{wb_id}: served grid != synchronous replay")
            if self.shadow is not None:
                book = self.shadow.books[wb_id]
                outcome.check(oracle.ledger_grid(book.workbook, rows) == expected,
                              f"{wb_id}: scratch copy of the trace != synchronous replay")


async def _drive(state, seed, sizes, tracer, scratch, outcome: Outcome) -> None:
    session = _Session(state, seed, sizes, tracer, outcome)
    if tracer is not None:
        session.shadow = _Shadow(state, sizes, scratch)
    try:
        session.service = _service(state)
        with span(tracer, HARNESS, "serve session") as root:
            outcome.root_span = root
            timed_start = time.perf_counter()
            await asyncio.gather(*(session.client(i, root) for i in range(CLIENTS)))
            outcome.values["peak_rss_mb"] = peak_rss_mb()
            outcome.timed_wall = time.perf_counter() - timed_start
        outcome.values["ops_per_s"] = session.completed / outcome.timed_wall
        outcome.timed_ops = outcome.attempted
        if tracer is not None:
            session.settle_pump_estimates()
        session.report_counts()
        await session.verify()
    finally:
        if session.service is not None:
            await session.service.close()
        if session.shadow is not None:
            session.shadow.close()


def run(state: dict, seed: int, sizes: dict, tracer=None,
        scratch: str | None = None) -> Outcome:
    outcome = Outcome()
    asyncio.run(_drive(state, seed, sizes, tracer, scratch, outcome))
    return outcome


def probe_workbook(state: dict, sizes: dict):
    """What the layer probes run on: one ledger of the workload's size."""
    wb_id = state["hot"][0]
    return inputs.ledger_workbook(wb_id, sizes["rows"], state["seeds"][wb_id])
