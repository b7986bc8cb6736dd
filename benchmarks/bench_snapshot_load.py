"""Snapshot + journal replay vs cold parse+build+full-recalc.

The paper's one-off compression cost (Fig. 11) is only "one-off" if it
is persisted: without snapshots, every reopen of a workbook pays xlsx
parsing, formula parsing, graph compression, and a full recalculation —
the exact critical-path costs TACO exists to avoid.  This benchmark
times the claim end-to-end on the 10k-row structural corpus, two ways:

* **cold load**: ``read_xlsx`` (ZIP + XML parse) + ``build_from_sheet``
  (formula parse + compression) + ``recalculate_all`` + replaying a
  realistic edit mix per-edit through the engine — what a service
  without persistence pays on every open;
* **snapshot load**: ``Workbook.restore(snapshot, journal)`` — install
  the value planes, attach each autofill run to one parsed template,
  decode the *compressed* graph (one parse per run, no
  re-compression), replay the same edit mix from the write-ahead
  journal through the batch/structural pipelines, and recompute only
  the journal-dirtied cells with one multi-seed BFS.

Both arms end in the identical workbook state (asserted cell-by-cell).
Gate: snapshot load beats cold load by **>= 3x**.  The gate is
scale-free — both arms are linear in workbook size, but the cold arm's
constant (XML + formula parsing plus full recompute) dominates at any
size — so CI runs it on a small ``REPRO_SNAPSHOT_ROWS``.

Besides the ASCII artifact, the run writes machine-readable JSON to
``benchmarks/results/snapshot_load.json`` (arm timings, speedup,
snapshot size — total, per cell, and the number of formula run records,
which stays put as the rows grow — and journal record count), like
``bench_structural.py``.
"""

import json
import os
import shutil
import tempfile
import time

from _common import RESULTS_DIR, emit

from repro.bench.reporting import ascii_table, banner, format_ms
from repro.core.taco_graph import build_from_sheet
from repro.engine.journal import Journal, read_journal
from repro.engine.recalc import RecalcEngine
from repro.io import read_xlsx, write_xlsx
from repro.sheet.autofill import fill_formula_column
from repro.sheet.workbook import Workbook

ROWS = int(os.environ.get("REPRO_SNAPSHOT_ROWS", "10000"))

SPEEDUP_GATE = 3.0


def build_corpus(rows: int) -> Workbook:
    """The structural-bench ledger: data columns, an RR chain, FR running
    totals, a sliding RR window, and FF lookups."""
    workbook = Workbook("snapbench")
    sheet = workbook.add_sheet("Ledger")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float((r * 31) % 101))        # A: data
        sheet.set_value((2, r), float((r * 17) % 13) + 1.0)   # B: data
    sheet.set_formula("C1", "=A1")
    fill_formula_column(sheet, 3, 2, rows, "=C1+A2")          # RR-Chain balance
    fill_formula_column(sheet, 4, 1, rows, "=SUM($A$1:A1)")   # FR running total
    fill_formula_column(sheet, 5, 1, rows, "=SUM(B1:B25)")    # RR sliding window
    fill_formula_column(sheet, 6, 1, rows, "=A1*$B$1")        # FF scale factor
    return workbook


def apply_edit_mix(engine: RecalcEngine, workbook: Workbook, rows: int) -> None:
    """A realistic post-snapshot session: scattered cell edits, one
    batched burst, one tail append (the common interactive structural
    edit, cf. ``bench_structural``) — identical for both arms."""
    # Scattered edits stay off B1: it is the broadcast input of the FF
    # column (=A1*$B$1), and editing it makes *recompute* — identical in
    # both arms — dominate the load costs this benchmark isolates.
    for i in range(10):
        engine.set_value((2, 5 + (i * rows) // 11), float(i + 2))
    with engine.begin_batch(workbook=workbook) as batch:
        for i in range(10):
            batch.set_value((2, 6 + (i * rows) // 11), float(i + 3))
        batch.set_formula((7, 1), "=SUM(B2:B50)")
    engine.insert_rows(rows - 10, 2, workbook=workbook)
    engine.set_value((2, 5), 42.0)
    engine.clear_cell((6, rows - 20))


def sheet_values(workbook: Workbook) -> dict:
    sheet = workbook.active_sheet
    return {pos: cell.value for pos, cell in sheet.items()}


def time_cold_load(xlsx_path: str, rows: int):
    start = time.perf_counter()
    workbook = read_xlsx(xlsx_path)
    sheet = workbook.active_sheet
    engine = RecalcEngine(sheet, build_from_sheet(sheet))
    recomputed = engine.recalculate_all()
    apply_edit_mix(engine, workbook, rows)
    return time.perf_counter() - start, workbook, recomputed


def time_snapshot_load(snapshot_path: str, journal_path: str):
    start = time.perf_counter()
    result = Workbook.restore(snapshot_path, journal_path)
    return time.perf_counter() - start, result


def test_snapshot_load_throughput(benchmark):
    workdir = tempfile.mkdtemp(prefix="snapbench-")
    xlsx_path = os.path.join(workdir, "corpus.xlsx")
    snapshot_path = os.path.join(workdir, "corpus.snap")
    journal_path = os.path.join(workdir, "corpus.wal")

    # Setup (untimed): the live session that produced the persisted state.
    live = build_corpus(ROWS)
    sheet = live.active_sheet
    write_xlsx(live, xlsx_path)
    engine = RecalcEngine(sheet, build_from_sheet(sheet))
    engine.recalculate_all()
    stats = live.snapshot(snapshot_path, {sheet.name: engine.graph})
    engine.journal = Journal(journal_path, truncate=True)
    apply_edit_mix(engine, live, ROWS)
    engine.journal.close()
    reference = sheet_values(live)
    journal_records = len(read_journal(journal_path).records)

    def run():
        cold_s, cold_workbook, cold_recomputed = time_cold_load(xlsx_path, ROWS)
        warm_s, recovery = time_snapshot_load(snapshot_path, journal_path)
        assert sheet_values(cold_workbook) == reference, \
            "cold arm diverged from the live session"
        assert sheet_values(recovery.workbook) == reference, \
            "snapshot+replay diverged from the live session"
        return {
            "rows": ROWS,
            "cold_seconds": cold_s,
            "snapshot_seconds": warm_s,
            "speedup": cold_s / warm_s if warm_s else float("inf"),
            "gate": SPEEDUP_GATE,
            "cold_recomputed_cells": cold_recomputed,
            "replay_recomputed_cells": recovery.recomputed,
            "journal_records": recovery.records_applied,
            "snapshot_bytes": stats.bytes_written,
            "snapshot_edges": stats.edges,
            "bytes_per_cell": stats.bytes_written / stats.cells,
            "formula_records": stats.formula_records,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results["journal_records"] == journal_records

    lines = [banner(
        "Snapshot + journal replay vs cold parse+build+full-recalc",
        f"rows={ROWS}; cold arm = read_xlsx + build_from_sheet + "
        "recalculate_all + per-edit replay; snapshot arm = "
        "Workbook.restore(snapshot, journal)",
    )]
    lines.append(ascii_table(
        ["cold load", "snapshot load", "speedup", "recomputed (snap/cold)",
         "journal records", "snapshot bytes"],
        [[
            format_ms(results["cold_seconds"]),
            format_ms(results["snapshot_seconds"]),
            f"{results['speedup']:.1f}x",
            f"{results['replay_recomputed_cells']:,}/{results['cold_recomputed_cells']:,}",
            results["journal_records"],
            f"{results['snapshot_bytes']:,}",
        ]],
    ))
    passed = results["speedup"] >= results["gate"]
    verdict = (
        f"{'OK' if passed else 'REGRESSION'}: snapshot load "
        f"{results['speedup']:.1f}x vs gate {results['gate']:.1f}x"
    )
    lines.append("\n" + verdict)
    emit("snapshot_load", "\n".join(lines))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "snapshot_load.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)

    shutil.rmtree(workdir, ignore_errors=True)
    assert passed, verdict
