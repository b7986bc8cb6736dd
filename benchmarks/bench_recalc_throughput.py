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
  and a lazy XOR column, which only the compiled closure runs.  Gate:
  **>= 1.5x**.

Planning must follow the compressed structure too: the optimized arm
plans by column strips, one node per autofilled column whatever its
length, so ``running_total`` and ``sliding_window`` plan as **1 node**
and ``mixed_corpus`` as **<= 8** — an O(runs) shape, asserted beside the
speedup gates (``plan_nodes``; ``plan_ms`` is the time to lay the plan
out, reported).

Evaluation must follow it as well — cost per *strip*, not per cell.  A
fourth sheet (``strip_costs``) holds one autofilled column per strip
kind, ``REPRO_RECALC_MIXED_ROWS`` rows each: growing and sliding windows
(kind ``w``), an elementwise product (``e``), an RR chain and an ``IF``
(scans, ``c``) and exact-match ``VLOOKUP`` over a 16-row and a 2,000-row
table (``l``, answered by one index probe per lane).  Each strip is
executed alone, best of five, and reported as µs per cell; the growing
window, the product, both scans and the 16-row lookup are also run cell
by cell through the per-cell fallback (``RecalcEngine._evaluate_cell``:
the compiled closure, a fresh ``RangeValue`` per cell), and the strip
kernel must be **>= 3x** faster than that — a ratio inside one process,
so box noise cancels.  The two scans must also stay **under 1.0 µs** per
cell, and the sweep **under 0.15 µs**.

Besides the ASCII artifact, the run writes machine-readable JSON to
``benchmarks/results/recalc_throughput.json`` (per-workload timings,
speedups, plan size and time, evaluation-path counters, and
``strip_us_per_cell``) to seed the performance trajectory across PRs.

CI runs this on a small ``REPRO_RECALC_ROWS`` (the gates are
scale-free: the asymptotic gap only grows with size).
"""

import json
import os
import time

from _common import RESULTS_DIR, emit

from repro.bench.reporting import ascii_table, banner, format_ms
from repro.engine.recalc import RecalcEngine, _Strip
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

ROWS = int(os.environ.get("REPRO_RECALC_ROWS", "10000"))
MIXED_ROWS = int(os.environ.get("REPRO_RECALC_MIXED_ROWS", str(max(ROWS // 5, 500))))

RUNNING_TOTAL_GATE = 5.0
MIXED_GATE = 1.5
#: A strip kernel against its own per-cell fallback, same process.
STRIP_KERNEL_GATE = 3.0
#: Most µs per cell a strip of each kind may cost.
US_PER_CELL_GATES = {"e product": 0.15, "c chain": 1.0, "c if": 1.0}
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
    fill_formula_column(sheet, 8, 1, rows, "=XOR(A1>50,B1>6)")     # compiled closure
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


#: ``strip_costs``: label -> (column, fill template); A/B hold data, the
#: lookup tables sit in L:M (16 rows) and O:P (2,000 rows), keys in J.
STRIPS = {
    "w growing": (3, "=SUM($A$1:A1)"),
    "w sliding": (4, "=SUM(A1:B4)"),
    "e product": (5, "=A1*B1"),
    "c chain": (6, "=F1+A2"),
    "c if": (7, "=IF(A2>B2,G1+A2,B2)"),
    "l lookup 16": (8, "=VLOOKUP(J1,$L$1:$M$16,2,FALSE)"),
    "l lookup 2000": (9, "=VLOOKUP(J1,$O$1:$P$2000,2,FALSE)"),
}
PER_CELL = ("w growing", "e product", "c chain", "c if", "l lookup 16")
SCANS = ("c chain", "c if")


def build_strips(rows: int) -> Sheet:
    sheet = Sheet("throughput")
    for r in range(1, rows + 5):
        sheet.set_value((1, r), float((r * 31) % 101) + 0.25)
        sheet.set_value((2, r), float((r * 17) % 13) + 1.0)
        sheet.set_value((10, r), float((r * 7) % 16))
    for c, n in ((12, 16), (15, 2000)):
        for r in range(1, n + 1):
            sheet.set_value((c, r), float(r - 1))
            sheet.set_value((c + 1, r), float(r) * 1.5)
    for label, (col, text) in STRIPS.items():
        first = 2 if label in SCANS else 1
        if first == 2:
            sheet.set_formula((col, 1), "=A1")
        fill_formula_column(sheet, col, first, rows, text)
    return sheet


def strip_costs(rows: int) -> dict:
    """µs per cell of each strip executed alone (best of five), and of
    the ``PER_CELL`` strips run through the per-cell fallback."""
    sheet = build_strips(rows)
    engine = RecalcEngine(sheet, workers=0, shards=0)
    engine.recalculate_all()
    nodes = {
        node.col: node
        for node in engine._build_plan(None, False)[0] if type(node) is _Strip
    }

    def best(action) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            action()
            times.append(time.perf_counter() - start)
        return min(times)

    out = {"strip": {}, "per_cell": {}, "kinds": {}}
    for label, (col, _) in STRIPS.items():
        node = nodes[col]
        cells = len(node.rows)
        out["kinds"][label] = node.kind
        out["strip"][label] = best(lambda: engine._execute_plan((node,))) / cells * 1e6
        if label in PER_CELL:
            members = node.members()
            out["per_cell"][label] = best(
                lambda: [engine._evaluate_cell(pos) for pos in members]
            ) / cells * 1e6
    return out


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
        return results, strip_costs(MIXED_ROWS)

    results, strips = benchmark.pedantic(run, rounds=1, iterations=1)

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
    lines.append(f"\nstrip by strip, {MIXED_ROWS:,} rows each (µs per cell, best of 5):")
    lines.append(ascii_table(
        ["strip", "kind", "as a strip", "cell by cell", "ratio"],
        [
            [label, strips["kinds"][label], f"{cost:.2f}",
             f"{strips['per_cell'][label]:.2f}" if label in PER_CELL else "-",
             f"{strips['per_cell'][label] / cost:.1f}x" if label in PER_CELL else "-"]
            for label, cost in strips["strip"].items()
        ],
    ))
    for label in PER_CELL:
        ratio = strips["per_cell"][label] / strips["strip"][label]
        passed = ratio >= STRIP_KERNEL_GATE
        ok = ok and passed
        verdicts.append(
            f"{'OK' if passed else 'REGRESSION'}: the {label!r} strip runs "
            f"{ratio:.1f}x faster than its cells one by one, gate {STRIP_KERNEL_GATE:.1f}x"
        )
    for label, gate in US_PER_CELL_GATES.items():
        cost = strips["strip"][label]
        passed = cost < gate
        ok = ok and passed
        verdicts.append(
            f"{'OK' if passed else 'REGRESSION'}: the {label!r} strip costs "
            f"{cost:.3f} µs per cell, gate < {gate:.2f}"
        )
    lines.append("\n" + "\n".join(verdicts))
    emit("recalc_throughput", "\n".join(lines))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "recalc_throughput.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"rows": ROWS, "workloads": results, "strip_rows": MIXED_ROWS,
             "strip_us_per_cell": strips["strip"],
             "per_cell_us_per_cell": strips["per_cell"]},
            handle, indent=2,
        )

    assert ok, "\n".join(verdicts)
    # The fast paths must actually engage, or the speedup is a fluke.
    assert results["running_total"]["eval_paths"]["windowed_cells"] == ROWS
    # Every formula compiles: the XOR column, which no strip kernel
    # takes, is the mixed corpus's compiled cells, and nothing falls to
    # the interpreter.
    assert results["mixed_corpus"]["eval_paths"]["interpreted_cells"] == 0
    assert results["mixed_corpus"]["eval_paths"]["compiled_cells"] == MIXED_ROWS
    assert [strips["kinds"][label][0] for label in STRIPS] == [label[0] for label in STRIPS]
