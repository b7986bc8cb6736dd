"""Recalculation throughput: interpreter vs the compression-aware layer.

The compression-aware evaluation layer (PR 3) claims recalculation cost
follows the *compressed* graph: compiled templates remove per-cell AST
interpretation, windowed runs remove per-cell window rescans.  This
benchmark measures the end-to-end claim on three workloads, each built
twice and recalculated from scratch with ``evaluation="interpreter"``
vs ``evaluation="auto"``:

* **running_total** — a single ``SUM($A$1:A_i)`` column over
  ``REPRO_RECALC_ROWS`` value rows (default 10,000): the quadratic
  poster child.  Gate: **>= 5x** end-to-end.
* **sliding_window** — a shifting ``SUM(A_i:A_{i+49})`` column, the
  O(run x window) shape with a constant window.
* **mixed_corpus** — a realistic sheet mixing value columns, arithmetic
  chains, running totals, sliding averages, MIN/MAX windows, IF logic
  and interpreter-fallback XOR columns.  Gate: **>= 1.5x**.

Planning must follow the compressed structure too: the optimized arm
plans by column strips, one node per autofilled column whatever its
length, so ``running_total`` and ``sliding_window`` plan as **1 node**
and ``mixed_corpus`` as **<= 8** — an O(runs) shape, asserted beside the
speedup gates (``plan_nodes``; ``plan_ms`` is the time to lay the plan
out, reported).

Besides the ASCII artifact, the run writes machine-readable JSON to
``benchmarks/results/recalc_throughput.json`` (per-workload timings,
speedups, plan size and time, evaluation-path counters) to seed the
performance trajectory across PRs.

CI runs this on a small ``REPRO_RECALC_ROWS`` (the gates are
scale-free: the asymptotic gap only grows with size).
"""

import json
import os
import time

from _common import RESULTS_DIR, emit

from repro.bench.reporting import ascii_table, banner, format_ms
from repro.engine.recalc import RecalcEngine
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

ROWS = int(os.environ.get("REPRO_RECALC_ROWS", "10000"))
MIXED_ROWS = int(os.environ.get("REPRO_RECALC_MIXED_ROWS", str(max(ROWS // 5, 500))))

RUNNING_TOTAL_GATE = 5.0
MIXED_GATE = 1.5
#: Most plan nodes a whole-sheet plan may have, per workload.
PLAN_NODE_CAPS = {"running_total": 1, "sliding_window": 1, "mixed_corpus": 8}


def build_running_total(rows: int) -> Sheet:
    sheet = Sheet("throughput")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float(r % 97) + 0.25)
    fill_formula_column(sheet, 2, 1, rows, "=SUM($A$1:A1)")
    return sheet


def build_sliding_window(rows: int) -> Sheet:
    sheet = Sheet("throughput")
    for r in range(1, rows + 50 + 1):
        sheet.set_value((1, r), float(r % 89) / 3.0)
    fill_formula_column(sheet, 2, 1, rows, "=SUM(A1:A50)")
    return sheet


def build_mixed_corpus(rows: int) -> Sheet:
    sheet = Sheet("throughput")
    for r in range(1, rows + 10):
        sheet.set_value((1, r), float((r * 31) % 101))        # A data
        sheet.set_value((2, r), float((r * 17) % 13) + 1.0)   # B data
    fill_formula_column(sheet, 3, 1, rows, "=A1*2+B1")             # arithmetic
    fill_formula_column(sheet, 4, 1, rows, "=SUM($C$1:C1)")        # running total over formulas
    fill_formula_column(sheet, 5, 1, rows, "=AVERAGE(A1:A25)")     # sliding average
    fill_formula_column(sheet, 6, 1, rows, "=MIN(B1:B40)")         # sliding min
    fill_formula_column(sheet, 7, 1, rows, "=IF(A1>B1,C1,D1/B1)")  # lazy logic
    fill_formula_column(sheet, 8, 1, rows, "=XOR(A1>50,B1>6)")     # interpreter fallback
    return sheet


def time_recalc(build, rows: int, mode: str):
    sheet = build(rows)
    engine = RecalcEngine(sheet, evaluation=mode)
    start = time.perf_counter()
    recomputed = engine.recalculate_all()
    elapsed = time.perf_counter() - start
    return elapsed, recomputed, engine


def time_plan(engine: RecalcEngine):
    """Size of the whole-sheet plan and the time to lay it out again."""
    start = time.perf_counter()
    plan = engine._build_plan(None, False)[0]
    return len(plan), (time.perf_counter() - start) * 1e3


WORKLOADS = [
    ("running_total", build_running_total, ROWS, RUNNING_TOTAL_GATE),
    ("sliding_window", build_sliding_window, ROWS, None),
    ("mixed_corpus", build_mixed_corpus, MIXED_ROWS, MIXED_GATE),
]


def test_recalc_throughput(benchmark):
    def run():
        results = {}
        for name, build, rows, gate in WORKLOADS:
            interp_s, recomputed, _ = time_recalc(build, rows, "interpreter")
            auto_s, auto_recomputed, engine = time_recalc(build, rows, "auto")
            assert recomputed == auto_recomputed
            stats = engine.eval_stats
            plan_nodes, plan_ms = time_plan(engine)
            results[name] = {
                "rows": rows,
                "recomputed_cells": recomputed,
                "interpreter_seconds": interp_s,
                "optimized_seconds": auto_s,
                "speedup": interp_s / auto_s if auto_s else float("inf"),
                "gate": gate,
                "plan_nodes": plan_nodes,
                "plan_ms": plan_ms,
                "eval_paths": {
                    "windowed_cells": stats.windowed_cells,
                    "windowed_runs": stats.windowed_runs,
                    "compiled_cells": stats.compiled_cells,
                    "interpreted_cells": stats.interpreted_cells,
                },
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [banner(
        "Recalculation throughput: interpreter vs compiled + windowed",
        f"running/sliding rows={ROWS}, mixed rows={MIXED_ROWS}; "
        "full recalculate_all per arm",
    )]
    table_rows = []
    for name, data in results.items():
        gate = data["gate"]
        table_rows.append([
            name,
            f"{data['rows']:,}",
            format_ms(data["interpreter_seconds"]),
            format_ms(data["optimized_seconds"]),
            f"{data['speedup']:.1f}x",
            f">={gate:.1f}x" if gate else "-",
            f"{data['plan_nodes']} (<={PLAN_NODE_CAPS[name]})",
            f"{data['plan_ms']:.3f}",
        ])
    lines.append(ascii_table(
        ["workload", "rows", "interpreter", "optimized", "speedup", "gate",
         "plan nodes", "plan ms"],
        table_rows,
    ))
    paths = results["mixed_corpus"]["eval_paths"]
    lines.append(
        f"\nmixed-corpus path split: {paths['windowed_cells']} windowed "
        f"({paths['windowed_runs']} runs), {paths['compiled_cells']} compiled, "
        f"{paths['interpreted_cells']} interpreted"
    )

    verdicts = []
    ok = True
    for name, data in results.items():
        if data["gate"] is not None:
            passed = data["speedup"] >= data["gate"]
            ok = ok and passed
            verdicts.append(
                f"{'OK' if passed else 'REGRESSION'}: {name} "
                f"{data['speedup']:.1f}x vs gate {data['gate']:.1f}x"
            )
        planned = data["plan_nodes"] <= PLAN_NODE_CAPS[name]
        ok = ok and planned
        verdicts.append(
            f"{'OK' if planned else 'REGRESSION'}: {name} plans as "
            f"{data['plan_nodes']} node(s), cap {PLAN_NODE_CAPS[name]}"
        )
    lines.append("\n" + "\n".join(verdicts))
    emit("recalc_throughput", "\n".join(lines))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "recalc_throughput.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump({"rows": ROWS, "workloads": results}, handle, indent=2)

    assert ok, "\n".join(verdicts)
    # The fast paths must actually engage, or the speedup is a fluke.
    assert results["running_total"]["eval_paths"]["windowed_cells"] == ROWS
    assert results["mixed_corpus"]["eval_paths"]["interpreted_cells"] > 0
