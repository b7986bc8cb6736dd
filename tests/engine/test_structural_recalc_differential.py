"""Differential suite: post-edit recalculation is observationally
identical across evaluation modes and against a full rebuild.

For any generated sheet and any structural edit, the values left by the
end-to-end pipeline (``RecalcEngine.insert_rows`` and friends) with
``evaluation="auto"`` must equal bit-for-bit those with
``evaluation="interpreter"`` — and both must equal a from-scratch
oracle: edit a clone through the sheet-level rewriter, build a fresh
graph, recalculate everything.  ``#REF!`` propagation is covered by
deletes striking referenced bands.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.taco_graph import TacoGraph, dependencies_column_major
from repro.engine.recalc import RecalcEngine
from repro.formula.errors import ExcelError
from repro.sheet import structural as sheet_structural
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.spatial.registry import available_indexes

BACKENDS = available_indexes()
OPS = ("insert_rows", "delete_rows", "insert_columns", "delete_columns")

TEMPLATES = (
    "=SUM($A$1:A1)",          # growing window (FR)
    "=SUM(A1:A4)",            # sliding window (RR)
    "=SUM(A1:$A$20)",         # shrinking window (RF)
    "=MIN(A1:B2)",
    "=A1*2+B1",
    "=IF(A1>B1,A1-B1,B1+1)",
    "=XOR(A1>5,B1>5)",        # lazy builtin, per-cell closure
    "=ROWS($A$1:A1)",         # size-sensitive: changes on pure inserts
    "=ROW(A1)*10+B1",         # position-sensitive: changes on pure shifts
)

ROWS = 20


@st.composite
def sheets(draw):
    sheet = Sheet("S")
    for r in range(1, ROWS + 1):
        sheet.set_value((1, r), float(draw(st.integers(-30, 30))))
        sheet.set_value((2, r), float(draw(st.integers(1, 9))))
    for i in range(draw(st.integers(1, 3))):
        template = draw(st.sampled_from(TEMPLATES))
        fill_formula_column(sheet, 3 + i, 1, ROWS, template)
    # A couple of point references so deletes reliably strike #REF!.
    sheet.set_formula((8, 1), f"=A{draw(st.integers(1, ROWS))}+1")
    sheet.set_formula((8, 2), "=H1*2")       # dependent of the strikable cell
    return sheet


def clone(sheet: Sheet) -> Sheet:
    copy = Sheet(sheet.name)
    for pos, cell in sheet.items():
        if cell.is_formula:
            copy.set_formula(pos, cell.formula_text)
        else:
            copy.set_value(pos, cell.value)
    return copy


def assert_same_values(got_sheet: Sheet, want_sheet: Sheet) -> None:
    positions = set(got_sheet.positions()) | set(want_sheet.positions())
    for pos in positions:
        got = got_sheet.get_value(pos)
        want = want_sheet.get_value(pos)
        if isinstance(want, ExcelError):
            assert isinstance(got, ExcelError) and got.code == want.code, pos
        else:
            assert type(got) is type(want) and got == want, pos


def engine_for(sheet: Sheet, mode: str, index: str) -> RecalcEngine:
    graph = TacoGraph.full(index=index)
    graph.build(dependencies_column_major(sheet))
    return RecalcEngine(sheet, graph, evaluation=mode)


@pytest.mark.parametrize("index", BACKENDS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_auto_interpreter_rebuild_agree(index, data):
    base = data.draw(sheets())
    op = data.draw(st.sampled_from(OPS))
    at = data.draw(st.integers(1, ROWS + 2))
    count = data.draw(st.integers(1, 3))

    auto = engine_for(clone(base), "auto", index)
    auto.recalculate_all()
    interp = engine_for(clone(base), "interpreter", index)
    interp.recalculate_all()
    getattr(auto, op)(at, count)
    getattr(interp, op)(at, count)

    # From-scratch oracle: sheet-level edit, fresh graph, full recalc.
    oracle_sheet = clone(base)
    getattr(sheet_structural, op)(oracle_sheet, at, count)
    oracle = engine_for(oracle_sheet, "interpreter", index)
    oracle.recalculate_all()

    assert_same_values(auto.sheet, oracle_sheet)
    assert_same_values(interp.sheet, oracle_sheet)


@pytest.mark.parametrize("index", BACKENDS)
def test_ref_strike_propagates_in_both_modes(index):
    base = Sheet("S")
    for r in range(1, 11):
        base.set_value((1, r), float(r))
    base.set_formula("B1", "=A5")
    base.set_formula("C1", "=B1+1")
    fill_formula_column(base, 4, 1, 10, "=SUM($A$1:A1)")
    for mode in ("auto", "interpreter"):
        engine = engine_for(clone(base), mode, index)
        engine.recalculate_all()
        result = engine.delete_rows(5, 1)
        assert result.ref_errors == 1
        assert isinstance(engine.sheet.get_value("B1"), ExcelError)
        assert isinstance(engine.sheet.get_value("C1"), ExcelError)
        # The running total shrank past the deleted value.
        assert engine.sheet.get_value((4, 9)) == sum(range(1, 11)) - 5.0
