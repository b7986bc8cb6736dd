"""Columnar value store vs dict-of-Cells: memory and recalc throughput.

The compressed formula graph is O(patterns), but the seed's sheet model
spent a boxed ``Cell`` (plus a dict entry and a boxed float) on every
cell — on dense corpora that per-cell object overhead dominated both
resident memory and recalculation time.  This benchmark quantifies what
the typed columnar store (:mod:`repro.sheet.columnar`) buys, two ways:

* **memory**: build the same dense value population on the columnar
  store and on the seed's dict-of-Cells model
  (:mod:`repro.baselines.object_store`) and measure the allocation delta
  with ``tracemalloc``, cross-checked by a deterministic
  ``sys.getsizeof`` walk over each store's internals.  Gate: the object
  store allocates **>= 5x** the columnar store's bytes per value cell.
* **formula memory**: two autofilled columns (``=A1*$F$1+B1``,
  ``=SUM($A$1:A1)``) on the columnar store, ``tracemalloc`` bytes per
  formula cell straight after the fill and again after
  ``build_from_sheet`` + ``recalculate_all`` — the graph, the engine and
  anything memoised along the way included (reported).  A fill is one
  run record and the planes its cached values will land in, nothing per
  member, so the gate is **<= 32 B** per cell straight after the fill
  (207 B when every member was a registered cell object, 1,156 B when
  each also owned a shifted AST, a reference list and a key string).  The
  fill itself is timed per member, untraced.
* **throughput**: a broadcast-input edit (``$F$1``) dirties an entire
  ``=A1*$F$1+B1`` column; the engine re-evaluates it as one sweep over
  plane slices, the engine with the sweep declining runs the compiled
  closure loop, the interpreter walks the tree per cell.  All three arms
  must end bit-identical; the sweep speedups are reported (and the sweep
  must actually dispatch).

Besides the ASCII artifact, the run writes machine-readable JSON to
``benchmarks/results/columnar_store.json`` (per-arm bytes, bytes/cell,
ratio, per-arm edit timings, speedups), like ``bench_snapshot_load.py``.
"""

import gc
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

from _common import RESULTS_DIR, emit

from repro.baselines.object_store import ObjectSheet
from repro.bench.reporting import ascii_table, banner, format_ms
from repro.core.taco_graph import build_from_sheet
from repro.engine import recalc
from repro.engine.recalc import RecalcEngine
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

ROWS = int(os.environ.get("REPRO_COLUMNAR_ROWS", "20000"))
VALUE_COLS = 4
EDIT_ROUNDS = 5

MEMORY_GATE = 5.0
FORMULA_ROWS = ROWS // 2
FORMULA_BYTES_GATE = 32.0


# -- memory arm ----------------------------------------------------------------

def fill_values(sheet: Sheet, rows: int) -> int:
    for col in range(1, VALUE_COLS + 1):
        for r in range(1, rows + 1):
            sheet.set_value((col, r), float((r * 31 + col) % 1013) / 7.0)
    return VALUE_COLS * rows


def traced_build(sheet_class: type[Sheet], rows: int) -> tuple[Sheet, int]:
    """Build the population and return (sheet, allocated bytes)."""
    gc.collect()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    sheet = sheet_class("M")
    fill_values(sheet, rows)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return sheet, after - before


def sized_store_bytes(sheet: Sheet) -> int:
    """Deterministic ``getsizeof`` walk over the store's own structures
    (cross-check for the tracemalloc delta; excludes interpreter
    overheads like small-int caches either way)."""
    cells = sheet._cells
    if isinstance(sheet, ObjectSheet):
        total = sys.getsizeof(cells._cells)
        for pos, cell in cells.items():
            total += sys.getsizeof(pos) + sys.getsizeof(cell)
            total += sys.getsizeof(cell.value)
        return total
    total = sys.getsizeof(cells._columns)
    for column in cells._columns.values():
        total += (sys.getsizeof(column) + sys.getsizeof(column.values)
                  + sys.getsizeof(column.tags) + sys.getsizeof(column.side))
    return total


# -- formula memory arm --------------------------------------------------------

def formula_inputs(rows: int) -> Sheet:
    sheet = Sheet("F")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float((r * 37) % 101) / 3.0)
        sheet.set_value((2, r), float(r % 13) - 6.5)
    sheet.set_value((6, 1), 1.5)
    return sheet


def fill_us_per_member(rows: int) -> float:
    """Wall time of the two fills per formula cell, untraced (best of 5)."""
    best = float("inf")
    for _ in range(5):
        sheet = formula_inputs(rows)
        start = time.perf_counter()
        fill_formula_column(sheet, 3, 1, rows, "=A1*$F$1+B1")
        fill_formula_column(sheet, 4, 1, rows, "=SUM($A$1:A1)")
        best = min(best, time.perf_counter() - start)
        assert sheet.formula_count == 2 * rows
    return best / (2 * rows) * 1e6


def traced_formula_bytes(rows: int) -> tuple[float, float]:
    """Bytes per autofilled formula cell: (after the fill, after build +
    full recalc).  The value inputs are in place before tracing starts."""
    sheet = formula_inputs(rows)
    gc.collect()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    fill_formula_column(sheet, 3, 1, rows, "=A1*$F$1+B1")
    fill_formula_column(sheet, 4, 1, rows, "=SUM($A$1:A1)")
    filled, _ = tracemalloc.get_traced_memory()
    engine = RecalcEngine(sheet, build_from_sheet(sheet))
    engine.recalculate_all()
    gc.collect()
    settled, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert sheet.get_value((4, rows)) is not None and engine.graph is not None
    return (filled - before) / (2 * rows), (settled - before) / (2 * rows)


# -- throughput arm ------------------------------------------------------------

def build_formula_sheet(rows: int) -> Sheet:
    sheet = Sheet("T")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float((r * 37) % 101) / 3.0)
        sheet.set_value((2, r), float(r % 13) - 6.5)
    sheet.set_value((6, 1), 1.0)                       # $F$1 broadcast input
    fill_formula_column(sheet, 3, 1, rows, "=A1*$F$1+B1")
    return sheet


def time_broadcast_edits(engine: RecalcEngine) -> float:
    start = time.perf_counter()
    for i in range(EDIT_ROUNDS):
        engine.set_value((6, 1), 1.0 + float(i + 1) / 8.0)
    return time.perf_counter() - start


def _leave_every_lane(engine, node, leave) -> int:
    """A sweep kernel that declines: every lane is the closure's."""
    leave(node.lanes())
    return 0


@contextmanager
def sweeps_refused(refused: bool):
    """Inside the block, the elementwise sweep declines every strip, so
    every lane takes the compiled closure loop."""
    saved = recalc._KINDS["e"]
    if refused:
        recalc._KINDS["e"] = saved._replace(kernel=_leave_every_lane)
    try:
        yield
    finally:
        recalc._KINDS["e"] = saved


def test_columnar_store_memory_and_throughput(benchmark):
    def run():
        # Memory: same dense population, both stores.
        columnar_sheet, columnar_bytes = traced_build(Sheet, ROWS)
        object_sheet, object_bytes = traced_build(ObjectSheet, ROWS)
        cells = VALUE_COLS * ROWS
        sized_columnar = sized_store_bytes(columnar_sheet)
        sized_object = sized_store_bytes(object_sheet)
        del columnar_sheet, object_sheet
        filled_bytes, settled_bytes = traced_formula_bytes(FORMULA_ROWS)
        fill_us = fill_us_per_member(FORMULA_ROWS)

        # Throughput: broadcast edit over an elementwise column.
        engines, timings = {}, {}
        for arm, mode in {
            "columnar-sweep": "auto",
            "columnar-compiled": "auto",
            "interpreter": "interpreter",
        }.items():
            with sweeps_refused(arm == "columnar-compiled"):
                engine = RecalcEngine(build_formula_sheet(ROWS), evaluation=mode)
                engine.recalculate_all()
                timings[arm] = time_broadcast_edits(engine)
            engines[arm] = engine
        reference = engines["interpreter"].sheet
        for arm in ("columnar-sweep", "columnar-compiled"):
            subject = engines[arm].sheet
            for r in range(1, ROWS + 1):
                got, want = subject.get_value((3, r)), reference.get_value((3, r))
                assert got == want, (arm, r, got, want)
        swept = engines["columnar-sweep"].eval_stats.elementwise_cells
        assert swept > 0, "sweep never dispatched"
        assert engines["columnar-compiled"].eval_stats.elementwise_cells == 0

        return {
            "rows": ROWS,
            "value_cells": cells,
            "columnar_bytes": columnar_bytes,
            "object_bytes": object_bytes,
            "columnar_bytes_per_cell": columnar_bytes / cells,
            "object_bytes_per_cell": object_bytes / cells,
            "memory_ratio": object_bytes / columnar_bytes,
            "sized_columnar_bytes": sized_columnar,
            "sized_object_bytes": sized_object,
            "sized_ratio": sized_object / sized_columnar,
            "memory_gate": MEMORY_GATE,
            "formula_cells": 2 * FORMULA_ROWS,
            "formula_bytes_per_cell_filled": filled_bytes,
            "formula_bytes_per_cell_settled": settled_bytes,
            "formula_bytes_gate": FORMULA_BYTES_GATE,
            "fill_us_per_member": fill_us,
            "edit_rounds": EDIT_ROUNDS,
            "elementwise_cells": swept,
            "seconds": timings,
            "sweep_speedup_vs_compiled":
                timings["columnar-compiled"] / timings["columnar-sweep"],
            "sweep_speedup_vs_interpreter":
                timings["interpreter"] / timings["columnar-sweep"],
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [banner(
        "Columnar value store vs dict-of-Cells",
        f"rows={ROWS} x {VALUE_COLS} value columns; "
        f"{EDIT_ROUNDS} broadcast edits over =A1*$F$1+B1",
    )]
    lines.append(ascii_table(
        ["store", "alloc bytes", "bytes/cell", "getsizeof bytes"],
        [
            ["columnar", f"{results['columnar_bytes']:,}",
             f"{results['columnar_bytes_per_cell']:.1f}",
             f"{results['sized_columnar_bytes']:,}"],
            ["object", f"{results['object_bytes']:,}",
             f"{results['object_bytes_per_cell']:.1f}",
             f"{results['sized_object_bytes']:,}"],
        ],
    ))
    lines.append(ascii_table(
        ["formula cells (columnar)", "bytes/cell after fill",
         "bytes/cell after build + recalc", "fill us/member"],
        [[f"{results['formula_cells']:,}",
          f"{results['formula_bytes_per_cell_filled']:.1f}",
          f"{results['formula_bytes_per_cell_settled']:.0f}",
          f"{results['fill_us_per_member']:.3f}"]],
    ))
    lines.append(ascii_table(
        ["arm", "edit time", "speedup vs sweep"],
        [
            ["columnar-sweep", format_ms(results["seconds"]["columnar-sweep"]),
             "1.0x"],
            ["columnar-compiled", format_ms(results["seconds"]["columnar-compiled"]),
             f"{results['sweep_speedup_vs_compiled']:.1f}x"],
            ["interpreter", format_ms(results["seconds"]["interpreter"]),
             f"{results['sweep_speedup_vs_interpreter']:.1f}x"],
        ],
    ))
    passed = (
        results["memory_ratio"] >= results["memory_gate"]
        and results["formula_bytes_per_cell_filled"] <= results["formula_bytes_gate"]
    )
    verdict = (
        f"{'OK' if passed else 'REGRESSION'}: object store allocates "
        f"{results['memory_ratio']:.1f}x the columnar store's bytes "
        f"(gate {results['memory_gate']:.1f}x); an autofilled formula cell "
        f"costs {results['formula_bytes_per_cell_filled']:.1f} B straight after "
        f"the fill (gate {results['formula_bytes_gate']:.0f} B; "
        f"{results['formula_bytes_per_cell_settled']:.0f} B after build + recalc) "
        f"and {results['fill_us_per_member']:.3f} us to fill; "
        f"elementwise sweep "
        f"{results['sweep_speedup_vs_compiled']:.1f}x vs the compiled closure loop, "
        f"{results['sweep_speedup_vs_interpreter']:.1f}x vs interpreter"
    )
    lines.append("\n" + verdict)
    emit("columnar_store", "\n".join(lines))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "columnar_store.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)

    assert passed, verdict
