"""Shared-plan scenario sweeps vs K independent recalculations.

The scenario engine (``repro.engine.scenario``) claims a K-scenario
sweep over the same seed cells should not pay K times the per-edit
pipeline: the dirty frontier and the Kahn/super-node plan are computed
once, each scenario just writes its trial values and replays the frozen
plan, and ``workers=N`` fans whole scenarios across the PR 7 process
pool.  This benchmark measures that on the what-if dashboard corpus
(``examples/whatif_dashboard.py``): three ``$``-fixed assumption seeds
driving ``REPRO_SCENARIO_MONTHS`` months of chained/elementwise/
windowed projections (default 360), swept over ``REPRO_SCENARIO_K``
scenarios (default 64).

The baseline arm is the workflow the engine replaces — write each
assumption with ``engine.set_value`` (every write pays its own
dependents-BFS, ordering, and recompute) and read the KPIs.  The shared
arms run the same sweep through one :class:`ScenarioEngine`, serially
and with ``workers=N``.  All three produce identical results — asserted
unconditionally, along with the fan-out actually dispatching and never
falling back.  The **>= 10x** gate compares the baseline against the
best shared arm and is asserted only when the machine exposes enough
usable cores for the pool; smaller boxes record the ratio and skip.

Artifacts: ASCII table + ``benchmarks/results/scenario_sweep.json``.
"""

import json
import os
import time

import pytest
from _common import RESULTS_DIR, emit

from repro.bench.reporting import ascii_table, banner, format_ms
from repro.core.taco_graph import TacoGraph, dependencies_column_major
from repro.engine.recalc import RecalcEngine
from repro.engine.scenario import ScenarioEngine
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

MONTHS = int(os.environ.get("REPRO_SCENARIO_MONTHS", "360"))
K = int(os.environ.get("REPRO_SCENARIO_K", "64"))
WORKERS = int(os.environ.get("REPRO_SCENARIO_WORKERS", "4"))

SPEEDUP_GATE = 10.0

SEEDS = ("B1", "B2", "B3")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_dashboard() -> Sheet:
    """The what-if dashboard: an assumptions block (growth, cost ratio,
    fx) driving MONTHS of revenue/costs/profit/cumulative projections."""
    sheet = Sheet("plan")
    sheet.set_value("B1", 1.02)
    sheet.set_value("B2", 0.62)
    sheet.set_value("B3", 1.08)
    sheet.set_value("D6", 1000.0)
    fill_formula_column(sheet, 4, 7, 5 + MONTHS, "=D6*$B$1")        # revenue
    fill_formula_column(sheet, 5, 6, 5 + MONTHS, "=D6*$B$2")        # costs
    fill_formula_column(sheet, 6, 6, 5 + MONTHS, "=(D6-E6)*$B$3")   # profit
    sheet.set_formula("G6", "=F6")
    fill_formula_column(sheet, 7, 7, 5 + MONTHS, "=G6+F7")          # cumulative
    sheet.set_formula("I1", f"=G{5 + MONTHS}")                      # KPI
    return sheet


def make_scenarios(count: int) -> list[dict]:
    return [
        {
            "B1": 1.0 + (k % 9) / 100.0,
            "B2": 0.5 + (k % 7) / 50.0,
            "B3": 0.9 + (k % 11) / 40.0,
        }
        for k in range(count)
    ]


def independent_sweep(engine: RecalcEngine, scenarios, outputs) -> list[dict]:
    """The pre-scenario-engine workflow: one engine, every assumption
    write pays the full per-edit pipeline, read the KPIs after each."""
    results = []
    for scenario in scenarios:
        for cell, value in scenario.items():
            engine.set_value(cell, value)
        results.append({out: engine.sheet.get_value(out) for out in outputs})
    return results


def test_scenario_sweep(benchmark):
    def run():
        sheet = build_dashboard()
        graph = TacoGraph()
        graph.build(dependencies_column_major(sheet))
        engine = RecalcEngine(sheet, graph)
        engine.recalculate_all()
        base = {cell: sheet.get_value(cell) for cell in SEEDS}
        baseline_kpi = sheet.get_value("I1")

        outputs = ["I1", f"G{5 + MONTHS}"]
        scenarios = make_scenarios(K)

        independent_sweep(engine, scenarios[:2], outputs)  # warm: memos
        start = time.perf_counter()
        independent = independent_sweep(engine, scenarios, outputs)
        independent_s = time.perf_counter() - start
        for cell, value in base.items():  # the baseline arm must clean up
            engine.set_value(cell, value)

        whatif = ScenarioEngine(engine, SEEDS)
        stats = engine.eval_stats

        whatif.run(scenarios[:2], outputs, workers=0)  # warm: plan, memos
        start = time.perf_counter()
        serial = whatif.run(scenarios, outputs, workers=0)
        serial_s = time.perf_counter() - start

        whatif.run(scenarios[:2], outputs, workers=WORKERS)  # warm: pool
        dispatches0 = stats.parallel_dispatches
        start = time.perf_counter()
        fanned = whatif.run(scenarios, outputs, workers=WORKERS)
        fanned_s = time.perf_counter() - start

        best_s = min(serial_s, fanned_s)
        return {
            "months": MONTHS,
            "scenarios": K,
            "workers": WORKERS,
            "plan_cells": whatif.plan_size,
            "independent_seconds": independent_s,
            "shared_serial_seconds": serial_s,
            "shared_workers_seconds": fanned_s,
            "speedup_serial": independent_s / serial_s if serial_s else float("inf"),
            "speedup_workers": independent_s / fanned_s if fanned_s else float("inf"),
            "speedup": independent_s / best_s if best_s else float("inf"),
            "identical_serial": serial == independent,
            "identical_workers": fanned == independent,
            "restored": (sheet.get_value("I1") == baseline_kpi
                         and all(sheet.get_value(c) == v
                                 for c, v in base.items())),
            "dispatches": stats.parallel_dispatches - dispatches0,
            "fallbacks": stats.serial_fallbacks,
            "plan_reuses": stats.scenario_plan_reuses,
            "usable_cores": usable_cores(),
            "gate": SPEEDUP_GATE,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    cores = results["usable_cores"]
    gated = cores >= WORKERS
    lines = [banner(
        "What-if sweeps: K independent recalcs vs one shared plan",
        f"{K} scenarios x {results['plan_cells']:,} dirty cells "
        f"({MONTHS} months), workers={WORKERS}, {cores} usable cores",
    )]
    lines.append(ascii_table(
        ["arm", "wall", "per scenario", "speedup"],
        [
            ["independent recalcs", format_ms(results["independent_seconds"]),
             format_ms(results["independent_seconds"] / K), "1.00x"],
            ["shared plan (serial)", format_ms(results["shared_serial_seconds"]),
             format_ms(results["shared_serial_seconds"] / K),
             f"{results['speedup_serial']:.2f}x"],
            [f"shared plan (workers={WORKERS})",
             format_ms(results["shared_workers_seconds"]),
             format_ms(results["shared_workers_seconds"] / K),
             f"{results['speedup_workers']:.2f}x"],
        ],
    ))
    lines.append(
        f"\nspeedup: {results['speedup']:.2f}x (gate >= {SPEEDUP_GATE:.1f}x, "
        f"{'enforced' if gated else f'not enforced: {cores} < {WORKERS} cores'})"
    )
    lines.append(
        "differential: serial "
        + ("identical" if results["identical_serial"] else "DIVERGED")
        + ", workers "
        + ("identical" if results["identical_workers"] else "DIVERGED")
        + ", sheet " + ("restored" if results["restored"] else "NOT RESTORED")
    )
    emit("scenario_sweep", "\n".join(lines))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "scenario_sweep.json"), "w",
              encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)

    # Correctness is unconditional: both shared arms reproduce the
    # independent-recalc results exactly, the sheet comes back to its
    # baseline state, and the fan-out actually dispatched without ever
    # falling back to serial.
    assert results["identical_serial"], "shared-plan results diverged"
    assert results["identical_workers"], "fanned results diverged"
    assert results["restored"], "sheet not restored after the sweeps"
    assert results["dispatches"] >= 1, "process fan-out did not engage"
    assert results["fallbacks"] == 0, "unexpected serial fallbacks"

    if not gated:
        pytest.skip(
            f"speedup gate requires >= {WORKERS} usable cores, found {cores} "
            f"(measured {results['speedup']:.2f}x, artifact written)"
        )
    assert results["speedup"] >= SPEEDUP_GATE, (
        f"shared-plan speedup {results['speedup']:.2f}x "
        f"below gate {SPEEDUP_GATE:.1f}x"
    )
