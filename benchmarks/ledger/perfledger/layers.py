"""The per-layer probe suite of the traced pass.

Each probe times one layer's public functions, from outside, on the
workload's own probe workbook (the largest xlsx of a desk workload, one
ledger of a served one), or reads an exact count off a public result
object.  Probes answer "what does this layer cost on this data"; the
share table of the traced run answers "how much of the session was it".
Every probe works on its own copy of the sheet, so their order does not
matter and none sees another's edits.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import time

from repro.core import structural as graph_structural
from repro.core.serialize import dumps_graph, loads_graph
from repro.core.taco_graph import TacoGraph, dependencies_column_major
from repro.engine.async_engine import AsyncRecalcEngine
from repro.engine.journal import Journal, recover
from repro.engine.recalc import RecalcEngine
from repro.formula.compile import TemplateRegistry
from repro.formula.parser import parse_formula
from repro.graphs.nocomp import NoCompGraph
from repro.grid.range import Range
from repro.io.snapshot import load_snapshot
from repro.io.xlsx_reader import read_xlsx
from repro.io.xlsx_writer import write_xlsx
from repro.server import WorkbookService, validate_op
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

from . import inputs
from .stats import percentile

FIND_PROBES = 400      # cells probed for find_dependents
NOCOMP_PROBES = 60     # NoComp answers fan-out cells in tens of ms
PASTE_EDITS = 500      # the scattered batch of the batch/multi probes
BLOCK_CELLS = 1000     # the contiguous paste and the cleared formula column
JOURNAL_RECORDS = 200
ASYNC_CELLS = 600      # cells the deferred-engine probe pumps at most
SCENARIOS = 32


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def median_of(reps: int, call) -> float:
    return statistics.median(timed(call) for _ in range(reps))


def _workbook_of(sheet: Sheet) -> Workbook:
    workbook = Workbook("probe")
    workbook.attach_sheet(sheet)
    return workbook


def _built(sheet: Sheet) -> TacoGraph:
    graph = TacoGraph.full()
    graph.build(dependencies_column_major(sheet))
    graph.rebuild_indexes()
    return graph


def _engine(sheet: Sheet, **kwargs) -> RecalcEngine:
    """A recalculated engine over a private copy of ``sheet``."""
    copy = inputs.copy_sheet(sheet)
    engine = RecalcEngine(copy, _built(copy), **kwargs)
    engine.recalculate_all()
    return engine


def _longest_formula_column(sheet: Sheet) -> Range:
    """The longest run of consecutive formula cells in one column, cut
    to at most :data:`BLOCK_CELLS` rows (Fig. 12's cleared column)."""
    by_col: dict[int, list[int]] = {}
    for (col, row), _ in sheet.formula_cells():
        by_col.setdefault(col, []).append(row)
    best = (0, 1, 1, 1)
    for col, rows in sorted(by_col.items()):
        rows.sort()
        start = prev = rows[0]
        for row in rows[1:] + [None]:
            if row is not None and row == prev + 1:
                prev = row
                continue
            if prev - start + 1 > best[0]:
                best = (prev - start + 1, col, start, prev)
            if row is not None:
                start = prev = row
    _, col, r1, r2 = best
    return Range(col, r1, col, min(r2, r1 + BLOCK_CELLS - 1))


def _longest_value_column(values) -> list[tuple[int, int]]:
    by_col: dict[int, list[int]] = {}
    for col, row in values:
        by_col.setdefault(col, []).append(row)
    col = max(by_col, key=lambda c: (len(by_col[c]), -c))
    return [(col, row) for row in sorted(by_col[col])[:BLOCK_CELLS]]


# -- the probes, by layer -----------------------------------------------------------

def probe_xlsx_and_formula(sheet: Sheet, workdir: str, out: dict) -> Sheet:
    """``io.xlsx_reader`` and ``formula``; returns a freshly read sheet
    (cells not yet parsed) for the probes that need cold cells."""
    path = os.path.join(workdir, "probe.xlsx")
    write_xlsx(sheet, path)
    read_s = median_of(3, lambda: read_xlsx(path))
    out["io.xlsx_reader.read_s"] = read_s
    out["io.xlsx_reader.cells_per_s"] = len(sheet) / read_s

    fresh = read_xlsx(path).active_sheet
    texts = sorted({cell.formula_text for _, cell in fresh.formula_cells()})
    parse_formula.cache_clear()
    parse_s = timed(lambda: [parse_formula(text) for text in texts])
    out["formula.parse_us_per_formula"] = parse_s / max(len(texts), 1) * 1e6
    deps = []
    deps_s = timed(lambda: deps.extend(dependencies_column_major(fresh)))
    out["formula.deps_us_per_dep"] = deps_s / max(len(deps), 1) * 1e6
    registry = TemplateRegistry()
    RecalcEngine(fresh, _built(fresh), registry=registry).recalculate_all()
    out["formula.templates_compiled"] = registry.compilations
    return fresh


def probe_sheet(sheet: Sheet, out: dict) -> None:
    out["sheet.populate_cells_per_s"] = len(sheet) / timed(lambda: inputs.copy_sheet(sheet))
    copy = inputs.copy_sheet(sheet)
    workbook = _workbook_of(copy)
    middle = copy.used_range().r2 // 2
    out["sheet.structural_shift_ms"] = timed(
        lambda: workbook.insert_rows(copy, middle, 3)) * 1e3


def probe_graphs(sheet: Sheet, values, rng: random.Random, out: dict) -> None:
    """``core`` and the uncompressed reference arm ``graphs.nocomp``."""
    deps = dependencies_column_major(sheet)
    graph = TacoGraph.full()

    def build():
        graph.build(deps)
        graph.rebuild_indexes()

    build_s = timed(build)
    out["core.build_s"] = build_s
    out["core.build_deps_per_s"] = len(deps) / build_s
    out["core.edges_remaining_frac"] = len(graph) / max(graph.raw_edge_count(), 1)

    cells = [Range.cell(*pos) for pos in rng.sample(values, min(FIND_PROBES, len(values)))]
    walls = [timed(lambda cell=cell: graph.find_dependents(cell)) for cell in cells]
    out["core.find_dependents_us_p50"] = percentile(walls, 50) * 1e6
    out["core.find_dependents_us_p95"] = percentile(walls, 95) * 1e6
    seeds = cells + [
        Range.cell(*pos) for pos in rng.sample(values, min(PASTE_EDITS, len(values)))
    ]
    out["core.find_dependents_multi_ms"] = timed(
        lambda: graph.find_dependents_multi(seeds[:PASTE_EDITS])) * 1e3

    text = ""

    def serialize():
        nonlocal text
        text = dumps_graph(graph, compact=True)

    out["core.serialize_ms"] = timed(serialize) * 1e3
    column = _longest_formula_column(sheet)
    scratch = loads_graph(text)
    out["core.maintain_clear_ms"] = timed(lambda: scratch.clear_cells(column)) * 1e3
    scratch = loads_graph(text)
    middle = sheet.used_range().r2 // 2
    out["core.structural_shift_ms"] = timed(
        lambda: graph_structural.insert_rows(scratch, middle, 3)) * 1e3

    nocomp = NoCompGraph()
    out["graphs.nocomp.build_s"] = timed(lambda: nocomp.build(deps))
    walls = [timed(lambda cell=cell: nocomp.find_dependents(cell))
             for cell in cells[:NOCOMP_PROBES]]
    out["graphs.nocomp.find_dependents_us_p50"] = percentile(walls, 50) * 1e6


def probe_engine(sheet: Sheet, values, rng: random.Random, out: dict) -> None:
    """``engine.recalc``, ``engine.batch`` and ``engine.structural``."""
    engine = _engine(sheet)
    live, workbook = engine.sheet, _workbook_of(engine.sheet)
    out["engine.recalc.full_s"] = median_of(3, engine.recalculate_all)
    walls = []
    for pos in rng.sample(values, min(200, len(values))):
        dirty = engine.graph.find_dependents(Range.cell(*pos))
        walls.append(timed(lambda dirty=dirty: engine.recompute(dirty)))
    out["engine.recalc.recompute_ms_p50"] = percentile(walls, 50) * 1e3

    def paste(cells):
        with engine.begin_batch(workbook=workbook) as batch:
            for pos in cells:
                batch.set_value(pos, live.get_value(pos) + 1.0)
        return batch.result

    result = paste(rng.sample(values, min(PASTE_EDITS, len(values))))
    out["engine.batch.maintain_ms"] = result.maintain_seconds * 1e3
    out["engine.batch.recalc_ms"] = result.recalc_seconds * 1e3
    out["core.maintain_batch_ms"] = out["engine.batch.maintain_ms"]
    block = _longest_value_column(values)
    out["engine.batch.block_paste_ms"] = timed(lambda: paste(block)) * 1e3

    middle = live.used_range().r2 // 2
    result = engine.insert_rows(middle, 3, workbook=workbook)
    out["engine.structural.maintain_ms"] = result.maintain_seconds * 1e3
    out["engine.structural.recalc_ms"] = result.recalc_seconds * 1e3
    out["engine.structural.rewritten_formulas"] = result.rewritten_formulas
    # after three full recalcs, 200 recomputes, two pastes and the insert
    out["engine.lookup.index_hits"] = engine.eval_stats.lookup_index_hits
    out["engine.lookup.index_builds"] = engine.eval_stats.lookup_index_builds


def probe_async(sheet: Sheet, values, fanout, rng: random.Random, out: dict) -> None:
    """Ticket time, slice time and drain rate of the deferred engine.
    Its drain is quadratic in the dirty set, so the probe stops marking
    once :data:`ASYNC_CELLS` cells have been pumped."""
    copy = inputs.copy_sheet(sheet)
    RecalcEngine(copy, _built(copy)).recalculate_all()
    deferred = AsyncRecalcEngine(copy, _built(copy))
    marks, steps, cells = [], [], 0
    for pos in rng.sample(values, min(60, len(values))) + list(fanout[:1]):
        ticket = deferred.set_value(pos, copy.get_value(pos) + 1.0)
        marks.append(ticket.control_return_seconds)
        while deferred.pending and cells < ASYNC_CELLS:
            start = time.perf_counter()
            done = deferred.step(256)
            steps.append(time.perf_counter() - start)
            cells += done
            if not done:
                break
        if cells >= ASYNC_CELLS:
            break
    out["engine.async_engine.mark_us_p50"] = percentile(marks, 50) * 1e6
    out["engine.async_engine.step_ms_p95"] = percentile(steps, 95) * 1e3
    out["engine.async_engine.drain_cells_per_s"] = cells / sum(steps)


def probe_persistence(sheet: Sheet, values, rng: random.Random, workdir: str,
                      out: dict) -> None:
    """``io.snapshot`` and ``engine.journal`` (fsync on, as the service)."""
    engine = _engine(sheet)
    workbook = _workbook_of(engine.sheet)
    snap_path = os.path.join(workdir, "probe.snap")
    wal_path = os.path.join(workdir, "probe.wal")
    graphs = {engine.sheet.name: engine.graph}
    stats = None

    def save():
        nonlocal stats
        stats = workbook.snapshot(snap_path, graphs=graphs)

    out["io.snapshot.save_ms"] = median_of(3, save) * 1e3
    out["io.snapshot.bytes_per_cell"] = stats.bytes_written / max(stats.cells, 1)

    name = engine.sheet.name
    walls = []
    with Journal(wal_path, fsync=True, truncate=True,
                 snapshot_id=stats.snapshot_id) as journal:
        for pos in (rng.choice(values) for _ in range(JOURNAL_RECORDS)):
            value = round(rng.uniform(1, 500), 3)
            walls.append(timed(lambda: journal.record_cell(name, "value", pos, value)))
    out["engine.journal.append_us_p50"] = percentile(walls, 50) * 1e6
    out["engine.journal.bytes_per_record"] = os.path.getsize(wal_path) / JOURNAL_RECORDS

    out["io.snapshot.load_ms"] = median_of(3, lambda: load_snapshot(snap_path)) * 1e3
    snap = load_snapshot(snap_path)
    out["engine.journal.recover_ms"] = timed(lambda: recover(snap, wal_path)) * 1e3


def probe_server(sheet: Sheet, values, rng: random.Random, workdir: str, out: dict) -> None:
    requests = [
        ("get_cell", {"cell": "B7"}),
        ("set_cell", {"cell": "B7", "value": 1.5}),
        ("batch_edit", {"edits": [{"op": "set_value", "cell": "A1", "value": 1.0}] * 5}),
    ]
    walls = [timed(lambda r=r: validate_op(*r)) for _ in range(200) for r in requests]
    out["server.validate_us_p50"] = percentile(walls, 50) * 1e6

    copy = inputs.copy_sheet(sheet)
    cells = [Range.cell(*pos).to_a1() for pos in rng.sample(values, min(300, len(values)))]

    async def served() -> list[float]:
        data_dir = os.path.join(workdir, "probe-service")
        async with WorkbookService(data_dir, fsync=True) as service:
            await service.create_workbook("probe", workbook=_workbook_of(copy))
            served_walls = []
            for cell in cells:
                start = time.perf_counter()
                await service.execute("probe", "get_cell", {"cell": cell})
                served_walls.append(time.perf_counter() - start)
            return served_walls

    served_walls = asyncio.run(served())
    deferred = AsyncRecalcEngine(copy, _built(copy))
    direct = [timed(lambda cell=cell: deferred.read(cell)) for cell in cells]
    out["server.get_cell_overhead_us"] = (
        percentile(served_walls, 50) - percentile(direct, 50)) * 1e6


def probe_dispatch_arms(sheet: Sheet, values, fanout, rng: random.Random, out: dict) -> None:
    """The dispatch paths the default (serial) configuration never takes;
    the evidence for keeping or deleting each, in the same seconds as
    the serial ``engine.recalc.full_s`` they are to be compared with."""
    from repro.engine.parallel import shutdown_pools
    from repro.engine.scenario import ScenarioEngine

    try:
        for mode in ("thread", "process"):
            engine = _engine(sheet, workers=2, worker_mode=mode, parallel_min_dirty=1)
            out[f"engine.parallel.{mode}_full_s"] = median_of(3, engine.recalculate_all)

        engine = _engine(sheet, shards=2, parallel_min_dirty=1)
        workbook = _workbook_of(engine.sheet)
        out["engine.shard.full_s"] = median_of(3, engine.recalculate_all)
        before = engine.eval_stats.shard_delta_bytes
        hot = [pos for pos in fanout] or values[:4]
        walls = []
        for i in range(12):
            def edit(i=i):
                with engine.begin_batch(workbook=workbook) as batch:
                    for pos in hot:
                        batch.set_value(pos, float(i) + 2.0)
            walls.append(timed(edit))
        out["engine.shard.hot_batch_ms_p50"] = percentile(walls, 50) * 1e3
        out["engine.shard.delta_bytes_per_dispatch"] = (
            engine.eval_stats.shard_delta_bytes - before) / len(walls)
        out["engine.shard.fallbacks"] = engine.eval_stats.shard_fallbacks
    finally:
        shutdown_pools()

    engine = _engine(sheet)
    seed_cell = (list(fanout) or values[:1])[0]
    base = engine.sheet.get_value(seed_cell)
    scenarios = [[base + 1.0 + k] for k in range(SCENARIOS)]
    sweep = ScenarioEngine(engine, [seed_cell])
    out["engine.scenario.sweep_ms_per_scenario"] = timed(
        lambda: sweep.run(scenarios)) * 1e3 / SCENARIOS

    def independent():
        for (value,) in scenarios:
            engine.set_value(seed_cell, value)
        engine.set_value(seed_cell, base)

    out["engine.scenario.independent_ms_per_scenario"] = (
        timed(independent) * 1e3 / (SCENARIOS + 1))


def run_probes(workbook: Workbook, workdir: str, seed: int, arms: bool) -> dict[str, float]:
    """Every probe metric for ``workbook``'s active sheet.  ``arms``
    adds the dispatch arms (``bulk_maintain`` only; they start worker
    processes, which are stopped before this returns)."""
    sheet = workbook.active_sheet
    rng = random.Random(seed)
    out: dict[str, float] = {}
    fresh = probe_xlsx_and_formula(sheet, workdir, out)
    values = inputs.value_cells(fresh)
    fanout = inputs.top_fanout_cells(_built(fresh), values, 4)
    probe_sheet(fresh, out)
    probe_graphs(fresh, values, rng, out)
    probe_engine(fresh, values, rng, out)
    probe_async(fresh, values, fanout, rng, out)
    probe_persistence(fresh, values, rng, workdir, out)
    probe_server(fresh, values, rng, workdir, out)
    if arms:
        probe_dispatch_arms(fresh, values, fanout, rng, out)
    return out
