"""Structural edits: incremental maintenance + dirty recalc vs full rebuild.

The paper maintains the compressed graph *in place* under row/column
inserts and deletes (Sec. IV-C); the PR-4 pipeline extends that to the
whole engine — sheet rewrite, O(1) splitting of straddling compressed
edges, one deferred index settle, and a dirty-set recalculation that
keeps windowed columns as super-nodes.  This benchmark times the claim
end-to-end on a 10k-row corpus, two ways per scenario:

* **full rebuild**: edit the sheet with the sheet-level rewriter, build
  a fresh TACO graph from scratch (the pre-pipeline option), and
  recalculate every formula cell;
* **incremental**: one ``RecalcEngine.insert_rows``/``delete_rows`` call
  — incremental graph maintenance plus recalculation of only the dirty
  set.

Scenarios hit the edit positions that matter: *middle* (half the sheet
shifts, straddling run edges split), *tail* (small dirty set — the
common interactive case).  Gate: incremental beats the rebuild by
**>= 3x** on every scenario.  The gate is scale-free — both arms grow
linearly in sheet size but the rebuild's constant (re-compressing every
dependency plus recomputing every cell) dominates at any size — so CI
runs it on a small ``REPRO_STRUCTURAL_ROWS``.

A second, deterministic gate watches the sheet pass alone: it decides
per piece of a run record, so the formulas it rewrites and the templates
it interns depend on where the edit line cuts the families, not on how
long they are.  Both counts must be equal at ``ROWS`` and ``10 * ROWS``.

Besides the ASCII artifact, the run writes machine-readable JSON to
``benchmarks/results/structural_edits.json`` in the same shape as
``bench_recalc_throughput.py``'s artifact (per-workload timings,
speedups, maintenance counters).
"""

import json
import os
import time
from unittest import mock

from _common import RESULTS_DIR, emit

from repro.bench.reporting import ascii_table, banner, format_ms
from repro.core.taco_graph import build_from_sheet
from repro.engine.recalc import RecalcEngine
from repro.sheet import structural as sheet_structural
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

ROWS = int(os.environ.get("REPRO_STRUCTURAL_ROWS", "10000"))

SPEEDUP_GATE = 3.0


def build_corpus(rows: int) -> Sheet:
    """A 10k-row ledger mixing the hot compressed shapes: data columns,
    an RR chain, FR running totals, a sliding RR window, and FF lookups."""
    sheet = Sheet("structbench")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float((r * 31) % 101))        # A: data
        sheet.set_value((2, r), float((r * 17) % 13) + 1.0)   # B: data
    sheet.set_formula("C1", "=A1")
    fill_formula_column(sheet, 3, 2, rows, "=C1+A2")          # RR-Chain balance
    fill_formula_column(sheet, 4, 1, rows, "=SUM($A$1:A1)")   # FR running total
    fill_formula_column(sheet, 5, 1, rows, "=SUM(B1:B25)")    # RR sliding window
    fill_formula_column(sheet, 6, 1, rows, "=A1*$B$1")        # FF scale factor
    return sheet


SCENARIOS = [
    ("insert_middle", "insert_rows", lambda rows: rows // 2, 3),
    ("delete_middle", "delete_rows", lambda rows: rows // 2, 2),
    ("insert_tail", "insert_rows", lambda rows: rows - 10, 5),
]


def time_full_rebuild(op: str, at: int, count: int) -> tuple[float, int]:
    sheet = build_corpus(ROWS)
    engine = RecalcEngine(sheet, build_from_sheet(sheet))
    engine.recalculate_all()
    start = time.perf_counter()
    getattr(sheet_structural, op)(sheet, at, count)
    rebuilt = build_from_sheet(sheet)
    engine = RecalcEngine(sheet, rebuilt)
    recomputed = engine.recalculate_all()
    return time.perf_counter() - start, recomputed


def time_incremental(op: str, at: int, count: int):
    sheet = build_corpus(ROWS)
    engine = RecalcEngine(sheet, build_from_sheet(sheet))
    engine.recalculate_all()
    start = time.perf_counter()
    result = getattr(engine, op)(at, count)
    return time.perf_counter() - start, result


def sheet_pass_counts(rows: int, op: str, at: int, count: int) -> tuple[int, int]:
    """``(rewritten formulas, templates interned)`` of the sheet pass
    alone, on a fresh ``rows``-row corpus."""
    sheet = build_corpus(rows)
    interned = 0
    intern = sheet_structural.intern_template

    def counting(*args):
        nonlocal interned
        interned += 1
        return intern(*args)

    with mock.patch.object(sheet_structural, "intern_template", counting):
        report = getattr(sheet_structural, op)(sheet, at, count)
    return sum(rng.size for rng in report.rewritten), interned


def test_structural_edit_throughput(benchmark):
    def run():
        results = {}
        for name, op, position, count in SCENARIOS:
            at = position(ROWS)
            full_s, full_recomputed = time_full_rebuild(op, at, count)
            inc_s, inc_result = time_incremental(op, at, count)
            m = inc_result.maintenance
            sizes = (ROWS, 10 * ROWS)
            rewritten, interned = zip(*(
                sheet_pass_counts(rows, op, position(rows), count) for rows in sizes
            ))
            results[name] = {
                "rows": ROWS,
                "op": op,
                "at": at,
                "count": count,
                "full_rebuild_seconds": full_s,
                "incremental_seconds": inc_s,
                "speedup": full_s / inc_s if inc_s else float("inf"),
                "gate": SPEEDUP_GATE,
                "full_recomputed_cells": full_recomputed,
                "incremental_recomputed_cells": inc_result.recomputed,
                "maintenance": {
                    "edges_shifted": m.shifted,
                    "edges_split": m.split,
                    "edges_decompressed": m.decompressed,
                    "reinserted_dependencies": m.reinserted,
                    "repacked": inc_result.repacked,
                    "dirty_cells": inc_result.dirty_count,
                },
                "sheet_pass": {
                    "rows": list(sizes),
                    "rewritten_formulas": list(rewritten),
                    "templates_interned": list(interned),
                },
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [banner(
        "Structural edits: incremental maintenance + dirty recalc vs rebuild",
        f"rows={ROWS}; full arm = sheet rewrite + build_from_sheet + "
        "recalculate_all; incremental arm = one engine.insert/delete call",
    )]
    table_rows = []
    for name, data in results.items():
        m = data["maintenance"]
        table_rows.append([
            name,
            f"{data['at']}:{data['count']}",
            format_ms(data["full_rebuild_seconds"]),
            format_ms(data["incremental_seconds"]),
            f"{data['speedup']:.1f}x",
            f"{data['incremental_recomputed_cells']:,}/{data['full_recomputed_cells']:,}",
            f"{m['edges_split']}/{m['edges_decompressed']}",
        ])
    lines.append(ascii_table(
        ["scenario", "edit", "full rebuild", "incremental", "speedup",
         "recomputed (inc/full)", "edges split/decompressed"],
        table_rows,
    ))

    verdicts = []
    ok = True
    for name, data in results.items():
        passed = data["speedup"] >= data["gate"]
        ok = ok and passed
        verdicts.append(
            f"{'OK' if passed else 'REGRESSION'}: {name} "
            f"{data['speedup']:.1f}x vs gate {data['gate']:.1f}x"
        )
        counts = data["sheet_pass"]
        flat = all(len(set(counts[key])) == 1
                   for key in ("rewritten_formulas", "templates_interned"))
        ok = ok and flat
        verdicts.append(
            f"{'OK' if flat else 'REGRESSION'}: {name} sheet pass at rows "
            f"{counts['rows']}: rewritten {counts['rewritten_formulas']}, "
            f"interned {counts['templates_interned']} (must not grow)"
        )
    lines.append("\n" + "\n".join(verdicts))
    emit("structural_edits", "\n".join(lines))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "structural_edits.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump({"rows": ROWS, "workloads": results}, handle, indent=2)

    assert ok, "\n".join(verdicts)
    # The split path must actually engage on the straddling middle edits,
    # or the speedup is coming from somewhere else.
    assert results["insert_middle"]["maintenance"]["edges_split"] > 0
