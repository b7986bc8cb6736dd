"""Tests for the shared-plan what-if scenario engine."""

import pytest

from repro.engine.recalc import CircularReferenceError, RecalcEngine
from repro.engine.scenario import ScenarioEngine
from repro.formula.errors import ExcelError
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

from helpers import assert_same_values, clone_sheet, engine_for

MONTHS = 30


def build_model() -> Sheet:
    """A small planning model: recurrence + elementwise + windowed tiers."""
    sheet = Sheet("plan")
    sheet.set_value("B1", 1.02)                                  # growth
    sheet.set_value("B2", 0.62)                                  # cost ratio
    sheet.set_value("B3", "label")                               # non-numeric seed
    sheet.set_value("D1", 1000.0)
    fill_formula_column(sheet, 4, 2, MONTHS, "=D1*$B$1")         # revenue chain
    fill_formula_column(sheet, 5, 1, MONTHS, "=D1*$B$2")         # costs
    fill_formula_column(sheet, 6, 1, MONTHS, "=D1-E1")           # profit
    fill_formula_column(sheet, 7, 1, MONTHS, "=SUM($F$1:F1)")    # cumulative
    sheet.set_formula("I1", f"=G{MONTHS}")                       # KPI
    return sheet


def whatif_for(mode: str = "auto", seeds=("B1", "B2")):
    engine = engine_for(build_model(), mode)
    engine.recalculate_all()
    return ScenarioEngine(engine, seeds), engine


SCENARIOS = [
    {"B1": 1.05},
    {"B2": 0.8},
    {"B1": 0.97, "B2": 0.5},
    {},                        # pure baseline replay
    {"B1": "oops"},            # errors must replay faithfully too
]


def oracle(mode: str, scenario: dict, outputs):
    """Independent engine per scenario — the semantics being promised."""
    engine = engine_for(build_model(), mode)
    engine.recalculate_all()
    for cell, value in scenario.items():
        engine.set_value(cell, value)
    return [engine.sheet.get_value(out) for out in outputs]


@pytest.mark.parametrize("mode", ["auto", "interpreter"])
def test_sweep_matches_independent_recalcs(mode):
    whatif, _engine = whatif_for(mode)
    outputs = ["I1", "G5", "F1"]
    results = whatif.run(SCENARIOS, outputs)
    for scenario, result in zip(SCENARIOS, results):
        want = oracle(mode, scenario, outputs)
        for out, expected in zip(outputs, want):
            got = result[out]
            if isinstance(expected, ExcelError):
                assert got == expected, (scenario, out)
            else:
                assert type(got) is type(expected) and got == expected, \
                    (scenario, out)


def test_sheet_restored_bit_identically():
    whatif, engine = whatif_for()
    reference = clone_sheet(engine.sheet)
    engine_for(reference).recalculate_all()
    whatif.run(SCENARIOS, ["I1"])
    assert_same_values(engine.sheet, reference)
    assert engine.sheet._cells.export_planes() == reference._cells.export_planes()


def test_plan_reuse_counter():
    whatif, engine = whatif_for()
    whatif.run(SCENARIOS, ["I1"])
    assert engine.eval_stats.scenario_plan_reuses == len(SCENARIOS) - 1
    whatif.run(SCENARIOS[:2], ["I1"])
    assert engine.eval_stats.scenario_plan_reuses == len(SCENARIOS) + 1


def test_sequence_scenarios_and_tuple_keys():
    whatif, _engine = whatif_for()
    results = whatif.run([(1.05, 0.62)], [(9, 1)])
    assert results[0][(9, 1)] == oracle("auto", {"B1": 1.05}, ["I1"])[0]
    with pytest.raises(ValueError, match="2 seeds"):
        whatif.run([(1.05,)], ["I1"])


def test_monte_carlo_is_deterministic():
    whatif, _engine = whatif_for()

    def draw(rng):
        return {"B1": 1.0 + rng.random() / 10}

    a = whatif.sample(8, draw, outputs=["I1"], seed=42)
    b = whatif.sample(8, draw, outputs=["I1"], seed=42)
    assert a == b
    assert len({r["I1"] for r in a}) > 1      # the draws actually vary


def test_goal_seek():
    whatif, engine = whatif_for()
    target = oracle("auto", {"B1": 1.04}, ["I1"])[0]
    found = whatif.solve("B1", "I1", target, 0.9, 1.2, tol=1e-12)
    assert found == pytest.approx(1.04, abs=1e-9)
    # the search itself must not leak state
    assert engine.sheet.get_value("B1") == 1.02


def test_goal_seek_rejects_unbracketed_and_non_numeric():
    whatif, _engine = whatif_for()
    with pytest.raises(ValueError, match="does not straddle"):
        whatif.solve("B1", "I1", -1e9, 1.0, 1.1)
    with pytest.raises(ValueError, match="not numeric"):
        whatif.solve("B1", "I1", 0.0, "a", "b")
    with pytest.raises(ValueError, match="not one of"):
        whatif.solve("D1", "I1", 0.0, 1.0, 1.1)


def test_formula_seed_rejected():
    engine = engine_for(build_model())
    engine.recalculate_all()
    with pytest.raises(ValueError, match="formula cell"):
        ScenarioEngine(engine, ["I1"])


def test_unknown_scenario_cell_rejected():
    whatif, _engine = whatif_for()
    with pytest.raises(ValueError, match="not one of"):
        whatif.run([{"D1": 5.0}], ["I1"])


def test_cycle_raises_at_construction():
    sheet = build_model()
    engine = engine_for(sheet)
    engine.recalculate_all()
    with pytest.raises(CircularReferenceError):
        engine.set_formula("E1", "=F1+B2")
    with pytest.raises(CircularReferenceError):
        ScenarioEngine(engine, ["B2"])


def test_structural_staleness_guard():
    whatif, engine = whatif_for()
    engine.insert_rows(2)
    with pytest.raises(RuntimeError, match="stale"):
        whatif.run([{"B1": 1.05}], ["I2"])


def test_formula_staleness_guard():
    """A formula edit after planning leaves the plan replaying the old
    formula; the sweep refuses, as after a structural edit."""
    def model():
        sheet = Sheet("S")
        sheet.set_value("A1", 1.0)
        fill_formula_column(sheet, 2, 1, 20, "=$A$1*10")
        engine = engine_for(sheet)
        engine.recalculate_all()
        return engine

    engine = model()
    whatif = ScenarioEngine(engine, ["A1"])
    engine.set_formula("B5", "=$A$1*1000")
    with pytest.raises(RuntimeError, match="scenario plan is stale"):
        whatif.run([[3.0]], ["B5"])
    assert ScenarioEngine(engine, ["A1"]).run([[3.0]], ["B5"]) == [{"B5": 3000.0}]


def test_open_batch_guard():
    whatif, engine = whatif_for()
    batch = engine.begin_batch()
    try:
        with pytest.raises(RuntimeError, match="open batch"):
            whatif.run([{"B1": 1.05}], ["I1"])
    finally:
        batch.discard()


def test_plan_executor_shadow_rejected():
    sheet = build_model()
    engine_for(sheet).recalculate_all()
    shadow = RecalcEngine.plan_executor(sheet)
    with pytest.raises(ValueError, match="graph"):
        ScenarioEngine(shadow, ["B1"])


class TestProcessFanOut:
    def test_workers_match_serial_values_and_counters(self):
        serial, serial_engine = whatif_for()
        fanned, fanned_engine = whatif_for()
        scenarios = [{"B1": 1.0 + k / 200} for k in range(12)]
        a = serial.run(scenarios, ["I1", "G7"], workers=0)
        b = fanned.run(scenarios, ["I1", "G7"], workers=3)
        assert a == b
        assert fanned_engine.eval_stats.parallel_dispatches >= 2
        assert fanned_engine.eval_stats.serial_fallbacks == 0
        # deterministic cell counters are identical across execution modes
        assert serial_engine.eval_stats.counter_snapshot() == \
            fanned_engine.eval_stats.counter_snapshot()
        assert serial_engine.eval_stats.scenario_plan_reuses == \
            fanned_engine.eval_stats.scenario_plan_reuses

    def test_workers_restore_sheet(self):
        whatif, engine = whatif_for()
        reference = clone_sheet(engine.sheet)
        engine_for(reference).recalculate_all()
        whatif.run([{"B1": 1.0 + k / 100} for k in range(8)], ["I1"],
                   workers=2)
        assert engine.sheet._cells.export_planes() == \
            reference._cells.export_planes()

    def test_cross_sheet_formula_falls_back(self):
        sheet = build_model()
        sheet.set_formula("J1", "=Other!A1+I1")
        whatif, _ = (lambda e: (ScenarioEngine(e, ["B1"]), e))(
            engine_for(sheet))
        whatif.engine.recalculate_all()
        scenarios = [{"B1": 1.0 + k / 100} for k in range(4)]
        serial = whatif.run(scenarios, ["J1"], workers=0)
        fanned = whatif.run(scenarios, ["J1"], workers=2)
        assert serial == fanned
        assert whatif.engine.eval_stats.serial_fallbacks > 0
        assert whatif.engine.eval_stats.fallback_reason == "cross-sheet"
