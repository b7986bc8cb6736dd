"""Lookaside lookup indexes: hash/binary-search probes vs linear scans.

The lookup layer (``repro.engine.lookup``) claims the indexed probes are
*bit-identical* to the reference scans they replace and *asymptotically
cheaper*: an exact-match ``VLOOKUP`` over an M-row table drops from
O(M) per query to one O(M log M) build amortised over every query plus
O(1) hash probes, and approximate ``MATCH`` drops to O(log M) binary
searches.  This benchmark measures both claims on the workload the
index targets: ``REPRO_LOOKUP_QUERIES`` exact-match VLOOKUPs (default
2,000) plus a smaller approximate-MATCH column, all probing one
``REPRO_LOOKUP_ROWS``-row unsorted key column (default 10,000).

Protocol: two independently built corpora, one engine per arm (indexed
on / ``lookup_indexes=False``).  Each arm takes one untimed warm pass
(template memos; the indexed arm's first build), then the key column is
touched so the indexed arm's timed pass pays a full cold rebuild *plus*
the probes — the honest edit-then-recalc cost, not just steady state.
The differential asserts — bit-identical values, probes actually fired
on one arm and never on the other — always run.  The **>= 10x** speedup
gate is asserted whenever the table has at least ``GATE_MIN_ROWS`` rows
(scaled-down smoke runs below that still record the measured ratio and
skip the gate with a clear message).

A second pair of arms runs the same probes over a ``SMALL_ROWS``-row
table (16: the ``fixed_lookup`` idiom of the github-like corpus).  Every
1-D vector is indexed, whatever its length — there used to be a 32-row
floor under which lookups scanned, on the belief that a scan of a
handful of entries costs what a probe does; it costs sixteen times that.
The small-table row is gated at **>= 2x** (measured ~11x).

Artifacts: ASCII table + ``benchmarks/results/lookup_index.json``.
"""

import json
import os
import random
import time

import pytest
from _common import RESULTS_DIR, emit

from repro.bench.reporting import ascii_table, banner, format_ms
from repro.core.taco_graph import TacoGraph, dependencies_column_major
from repro.engine.recalc import RecalcEngine
from repro.grid.range import Range
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

ROWS = int(os.environ.get("REPRO_LOOKUP_ROWS", "10000"))
QUERIES = int(os.environ.get("REPRO_LOOKUP_QUERIES", "2000"))

SPEEDUP_GATE = 10.0
GATE_MIN_ROWS = 5000  # below this the scans are too cheap to gate honestly
SMALL_ROWS = 16
SMALL_GATE = 2.0


def build_corpus(rows: int) -> tuple[Sheet, list[Range]]:
    """A ``rows``-row unsorted key/payload table probed by two formula columns:
    E = exact-match VLOOKUP (hash probes), F = approximate MATCH (binary
    search on the sorted index).  Every needle hits a real key so the
    arms disagree loudly if a probe goes wrong."""
    rng = random.Random(7)
    keys = [float(k) for k in rng.sample(range(10 * rows), rows)]
    sheet = Sheet("lookup")
    for r, key in enumerate(keys, start=1):
        sheet.set_value((1, r), key)             # A: shuffled keys
        sheet.set_value((2, r), key * 3.0 + 1.0)  # B: payloads
    for r in range(1, QUERIES + 1):
        sheet.set_value((4, r), keys[(r * 17) % rows])   # D: needles
    fill_formula_column(sheet, 5, 1, QUERIES,
                        f"=VLOOKUP(D1,$A$1:$B${rows},2,FALSE)")
    approx = max(1, QUERIES // 8)
    fill_formula_column(sheet, 6, 1, approx,
                        f"=MATCH(D1,$A$1:$A${rows},1)")
    return sheet, [Range(5, 1, 5, QUERIES), Range(6, 1, 6, approx)]


def run_arm(indexed: bool, rows: int) -> dict:
    sheet, ranges = build_corpus(rows)
    graph = TacoGraph()
    graph.build(dependencies_column_major(sheet))
    engine = RecalcEngine(sheet, graph, lookup_indexes=indexed)
    engine.recalculate_all()  # warm: memos (+ the indexed arm's first build)

    # Touch the key column so the indexed arm's timed pass pays a full
    # cold rebuild on top of the probes (same-value write: values are
    # unchanged, but the column version bumps and the index goes stale).
    sheet.set_value((1, 1), sheet.get_value((1, 1)))

    stats = engine.eval_stats
    hits0, builds0 = stats.lookup_index_hits, stats.lookup_index_builds
    start = time.perf_counter()
    recomputed = engine.recompute(ranges)
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "recomputed": recomputed,
        "hits": stats.lookup_index_hits - hits0,
        "builds": stats.lookup_index_builds - builds0,
        "values": {pos: sheet.get_value(pos) for pos in sheet.positions()},
    }


def compare_arms(rows: int) -> dict:
    scan = run_arm(False, rows)
    indexed = run_arm(True, rows)
    return {
        "rows": rows,
        "queries": QUERIES,
        "lookups": scan["recomputed"],
        "scan_seconds": scan["seconds"],
        "indexed_seconds": indexed["seconds"],
        "speedup": (scan["seconds"] / indexed["seconds"]
                    if indexed["seconds"] else float("inf")),
        "identical_values": indexed["values"] == scan["values"],
        "indexed_hits": indexed["hits"],
        "indexed_builds": indexed["builds"],
        "scan_hits": scan["hits"],
    }


def test_lookup_index(benchmark):
    def run():
        return {**compare_arms(ROWS), "gate": SPEEDUP_GATE, "gate_min_rows": GATE_MIN_ROWS,
                "small_table": {**compare_arms(SMALL_ROWS), "gate": SMALL_GATE}}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    small = results["small_table"]

    gated = ROWS >= GATE_MIN_ROWS
    lines = [banner(
        "Lookaside lookup indexes: linear scans vs hash/binary-search probes",
        f"{results['lookups']:,} lookups over a {ROWS:,}-row unsorted table, "
        f"and over a {SMALL_ROWS}-row one",
    )]
    lines.append(ascii_table(
        ["table rows", "arm", "wall", "lookups", "index builds", "index hits"],
        [
            row
            for data in (results, small)
            for row in (
                [f"{data['rows']:,}", "linear scan", format_ms(data["scan_seconds"]),
                 f"{data['lookups']:,}", "-", "-"],
                [f"{data['rows']:,}", "indexed", format_ms(data["indexed_seconds"]),
                 f"{data['lookups']:,}", str(data["indexed_builds"]),
                 f"{data['indexed_hits']:,}"],
            )
        ],
    ))
    lines.append(
        f"\nspeedup: {results['speedup']:.2f}x (gate >= {SPEEDUP_GATE:.1f}x, "
        + ("enforced"
           if gated else f"not enforced: {ROWS} < {GATE_MIN_ROWS} rows")
        + ", indexed arm pays one cold rebuild inside the timed region); "
        f"{SMALL_ROWS}-row table: {small['speedup']:.2f}x (gate >= {SMALL_GATE:.1f}x)"
    )
    lines.append(
        "differential: values "
        + ("bit-identical"
           if results["identical_values"] and small["identical_values"] else "DIVERGED")
    )
    emit("lookup_index", "\n".join(lines))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "lookup_index.json"), "w",
              encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)

    # Correctness is unconditional: identical values, the probes actually
    # served the indexed arm, and the scan arm never touched an index.
    for data in (results, small):
        assert data["identical_values"], "indexed values diverged from scans"
        assert data["indexed_hits"] >= QUERIES, "probes never engaged"
        assert data["indexed_builds"] >= 1, "cold rebuild did not happen"
        assert data["scan_hits"] == 0, "scan arm was secretly indexed"
    assert small["speedup"] >= SMALL_GATE, (
        f"{SMALL_ROWS}-row table: indexed speedup {small['speedup']:.2f}x "
        f"below gate {SMALL_GATE:.1f}x"
    )

    if not gated:
        pytest.skip(
            f"speedup gate requires >= {GATE_MIN_ROWS} table rows, ran {ROWS} "
            f"(measured {results['speedup']:.2f}x, artifact written)"
        )
    assert results["speedup"] >= SPEEDUP_GATE, (
        f"indexed speedup {results['speedup']:.2f}x "
        f"below gate {SPEEDUP_GATE:.1f}x"
    )
