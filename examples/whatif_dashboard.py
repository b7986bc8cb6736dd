"""What-if analysis over a budget dashboard, on the scenario engine.

A planning workbook where one assumptions block (growth rate, cost
ratio, FX rate — all ``$``-fixed FF references) drives ten years of
monthly projections.  What-if analysis hammers exactly the path the
paper optimises — every scenario must find the dependents of an
assumption cell before anything can be recomputed — and
:class:`repro.engine.ScenarioEngine` pays that path *once*: the dirty
frontier and its evaluation plan are shared by every scenario, each
replay just writes the trial values and re-executes the frozen plan,
and the sheet is restored bit-identically afterwards.

Run with:  python examples/whatif_dashboard.py
"""

import time

from repro import Sheet, fill_formula_column
from repro.engine import RecalcEngine, ScenarioEngine

MONTHS = 120  # ten years of monthly projections


def build_dashboard() -> Sheet:
    sheet = Sheet("plan")
    # Assumptions block (B1:B3) — fixed references from everywhere below.
    sheet.set_value("A1", "growth")
    sheet.set_value("B1", 1.02)
    sheet.set_value("A2", "cost ratio")
    sheet.set_value("B2", 0.62)
    sheet.set_value("A3", "fx")
    sheet.set_value("B3", 1.08)

    # Projection table from row 6: D revenue, E costs, F profit, G cum.
    sheet.set_value("D6", 1000.0)
    fill_formula_column(sheet, 4, 7, 5 + MONTHS, "=D6*$B$1")        # revenue chain
    fill_formula_column(sheet, 5, 6, 5 + MONTHS, "=D6*$B$2")        # costs
    fill_formula_column(sheet, 6, 6, 5 + MONTHS, "=(D6-E6)*$B$3")   # profit in EUR
    sheet.set_formula("G6", "=F6")
    fill_formula_column(sheet, 7, 7, 5 + MONTHS, "=G6+F7")          # cumulative
    sheet.set_formula("I1", f"=G{5 + MONTHS}")                      # headline KPI
    return sheet


def main() -> None:
    engine = RecalcEngine(build_dashboard())
    engine.recalculate_all()
    sheet = engine.sheet
    baseline = sheet.get_value("I1")
    print(f"dashboard: {MONTHS} months, {engine.graph.raw_edge_count()} "
          f"dependencies in {len(engine.graph)} compressed edges")
    print(f"baseline cumulative profit: {baseline:,.0f}\n")

    # One plan for every what-if on the assumptions block.
    whatif = ScenarioEngine(engine, ["B1", "B2", "B3"])
    print(f"shared plan: {whatif.plan_size} dirty cells, planned once\n")

    scenarios = {
        "optimistic growth": {"B1": 1.035},
        "cost blowout": {"B2": 0.75},
        "weak euro": {"B3": 0.95},
        "stagflation": {"B1": 1.005, "B2": 0.70},
    }
    results = whatif.run(scenarios.values(), outputs=["I1"])
    print(f"{'scenario':<20} {'KPI':>14} {'vs baseline':>12}")
    for label, result in zip(scenarios, results):
        kpi = result["I1"]
        print(f"{label:<20} {kpi:>14,.0f} {kpi / baseline - 1:>11.1%}")
    print(f"sheet restored: I1 still {sheet.get_value('I1'):,.0f}\n")

    # Monte Carlo over the same plan: uncertain growth and cost ratio.
    def draw(rng):
        return {"B1": rng.gauss(1.02, 0.008), "B2": rng.gauss(0.62, 0.03)}

    n = 500
    start = time.perf_counter()
    kpis = sorted(r["I1"] for r in whatif.sample(n, draw, outputs=["I1"], seed=7))
    elapsed = time.perf_counter() - start
    print(f"monte carlo ({n} draws in {elapsed * 1000:.0f} ms):")
    for label, q in (("p5", 0.05), ("median", 0.50), ("p95", 0.95)):
        print(f"  {label:<7} {kpis[int(q * (n - 1))]:>14,.0f}")
    reuses = engine.eval_stats.scenario_plan_reuses
    print(f"  plan reused {reuses} times instead of re-planning per draw\n")

    # Goal-seek on the shared plan: growth needed to double the baseline.
    growth = whatif.solve("B1", "I1", 2 * baseline, 1.0, 1.1, tol=1e-10)
    print(f"goal-seek: doubling cumulative profit needs growth = {growth:.4%}")


if __name__ == "__main__":
    main()
