"""Unit tests for the recalculation engine (the paper's application)."""

import pytest

from helpers import build_fig2_sheet

from repro.engine.recalc import CircularReferenceError, RecalcEngine
from repro.formula.errors import CYCLE_ERROR, ExcelError
from repro.graphs.nocomp import NoCompGraph
from repro.core.taco_graph import build_from_sheet, dependencies_column_major
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet


def build_sales_sheet() -> Sheet:
    sheet = Sheet("sales")
    for i, amount in enumerate([100.0, 200.0, 300.0, 400.0], start=1):
        sheet.set_value((1, i), amount)           # A: amounts
    sheet.set_formula("B1", "=A1")
    for i in range(2, 5):
        sheet.set_formula((2, i), f"=B{i - 1}+A{i}")   # running total chain
    sheet.set_formula("C1", "=SUM(A1:A4)")
    sheet.set_formula("C2", "=B4/C1")
    return sheet


class TestFullRecalc:
    def test_recalculate_all(self):
        engine = RecalcEngine(build_sales_sheet())
        count = engine.recalculate_all()
        assert count == 6
        assert engine.sheet.get_value("B4") == 1000.0
        assert engine.sheet.get_value("C1") == 1000.0
        assert engine.sheet.get_value("C2") == 1.0

    def test_fig2_semantics(self):
        engine = RecalcEngine(build_fig2_sheet(rows=20))
        engine.recalculate_all()
        # N-column: running subtotal per group of A values.
        assert engine.sheet.get_value("N2") == 2.0
        # A3=3%7=3 != A2=2 -> N3 = M3 = 3.
        assert engine.sheet.get_value("N3") == 3.0
        # Rows 8 and 9: A8=1, A9=2 differ; A15=1,A14=0 differ... check a
        # matching pair: A8=8%7=1, A15=15%7=1 not adjacent. Use direct eval:
        for r in range(3, 21):
            a_now = engine.sheet.get_value((1, r))
            a_prev = engine.sheet.get_value((1, r - 1))
            m_now = engine.sheet.get_value((13, r))
            n_prev = engine.sheet.get_value((14, r - 1))
            expected = n_prev + m_now if a_now == a_prev else m_now
            assert engine.sheet.get_value((14, r)) == expected


class TestIncremental:
    def test_value_update_propagates(self):
        engine = RecalcEngine(build_sales_sheet())
        engine.recalculate_all()
        result = engine.set_value("A1", 1100.0)
        assert engine.sheet.get_value("B1") == 1100.0
        assert engine.sheet.get_value("B4") == 2000.0
        assert engine.sheet.get_value("C1") == 2000.0
        assert result.recomputed == 6
        assert result.control_return_seconds <= result.total_seconds

    def test_incremental_matches_full(self):
        engine = RecalcEngine(build_fig2_sheet(rows=30))
        engine.recalculate_all()
        engine.set_value((13, 5), 999.0)  # M5
        incremental = {
            pos: cell.value for pos, cell in engine.sheet.formula_cells()
        }
        fresh = RecalcEngine(build_fig2_sheet(rows=30))
        fresh.sheet.set_value((13, 5), 999.0)
        fresh.recalculate_all()
        full = {pos: cell.value for pos, cell in fresh.sheet.formula_cells()}
        assert incremental == full

    def test_untouched_cells_not_recomputed(self):
        engine = RecalcEngine(build_sales_sheet())
        engine.recalculate_all()
        result = engine.set_value("A4", 500.0)
        # A4's dependents: B4, C1, C2 (B1..B3 untouched).
        assert result.recomputed == 3

    def test_formula_update_rewires_graph(self):
        engine = RecalcEngine(build_sales_sheet())
        engine.recalculate_all()
        engine.set_formula("C1", "=MAX(A1:A4)")
        assert engine.sheet.get_value("C1") == 400.0
        result = engine.set_value("A2", 9999.0)
        assert engine.sheet.get_value("C1") == 9999.0
        assert result.dirty_count > 0

    def test_same_template_formula_edit_keeps_graph_compact(self):
        """Re-setting formulas to their own text moves no edge: the graph
        stays the size of a fresh build, and the cell and its dependents
        are still recomputed."""
        sheet = Sheet("S")
        for r in range(1, 301):
            sheet.set_value((1, r), float(r))
        fill_formula_column(sheet, 2, 1, 300, "=A1*2")
        fill_formula_column(sheet, 3, 1, 300, "=SUM($B$1:B1)")
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        for row in range(2, 300, 3):
            for pos in ((2, row), (3, row)):
                result = engine.set_formula(pos, sheet.formula_at(pos).formula_text)
                assert result.recomputed >= 1
        assert len(engine.graph) == len(build_from_sheet(sheet))
        engine.set_value("A1", 7.0)
        assert sheet.get_value("C300") == 300 * 301 - 2.0 + 14.0

    def test_clear_cell(self):
        engine = RecalcEngine(build_sales_sheet())
        engine.recalculate_all()
        engine.clear_cell("A4")
        assert engine.sheet.get_value("B4") == 600.0  # blank counts as 0

    def test_works_with_nocomp_backend(self):
        sheet = build_sales_sheet()
        graph = NoCompGraph()
        graph.build(dependencies_column_major(sheet))
        engine = RecalcEngine(sheet, graph)
        engine.recalculate_all()
        engine.set_value("A1", 0.0)
        assert engine.sheet.get_value("B4") == 900.0


class TestErrorsAndCycles:
    def test_cycle_raises_and_marks_cells(self):
        sheet = Sheet("cyc")
        sheet.set_formula("A1", "=B1+1")
        sheet.set_formula("B1", "=A1+1")
        engine = RecalcEngine(sheet)
        with pytest.raises(CircularReferenceError):
            engine.recalculate_all()
        assert engine.sheet.get_value("A1") == CYCLE_ERROR
        assert engine.sheet.get_value("B1") == CYCLE_ERROR

    def test_cycle_error_reports_offending_chain(self):
        """Regression: the raised error names the actual cell chain."""
        sheet = Sheet("cyc")
        sheet.set_value("Z9", 1.0)
        sheet.set_formula("A1", "=B1+1")
        sheet.set_formula("B1", "=C1+1")
        sheet.set_formula("C1", "=A1+1")
        sheet.set_formula("D1", "=A1*2")    # downstream of the cycle
        sheet.set_formula("E1", "=Z9+1")    # healthy, must still evaluate
        engine = RecalcEngine(sheet)
        with pytest.raises(CircularReferenceError) as excinfo:
            engine.recalculate_all()
        err = excinfo.value
        # The chain is closed and contains exactly the three-cycle.
        assert err.cycle[0] == err.cycle[-1]
        assert {(1, 1), (2, 1), (3, 1)} == set(err.cycle)
        for name in ("A1", "B1", "C1"):
            assert name in str(err)
        # Cycle members and their downstream cells are marked ...
        assert engine.sheet.get_value("A1") == CYCLE_ERROR
        assert engine.sheet.get_value("D1") == CYCLE_ERROR
        # ... while the healthy part of the sheet was evaluated first.
        assert engine.sheet.get_value("E1") == 2.0

    def test_self_reference_is_a_cycle(self):
        """Regression: a direct self-reference must not silently evaluate."""
        sheet = Sheet("selfref")
        sheet.set_formula("A1", "=A1+1")
        engine = RecalcEngine(sheet)
        with pytest.raises(CircularReferenceError) as excinfo:
            engine.recalculate_all()
        assert excinfo.value.cycle == [(1, 1), (1, 1)]
        assert engine.sheet.get_value("A1") == CYCLE_ERROR

    def test_range_containing_own_cell_is_a_cycle(self):
        """Regression: B5=SUM(B1:B10) includes B5 itself — circular."""
        sheet = Sheet("selfrange")
        for r in (1, 2, 3):
            sheet.set_value((2, r), float(r))
        sheet.set_formula("B5", "=SUM(B1:B10)")
        engine = RecalcEngine(sheet)
        with pytest.raises(CircularReferenceError):
            engine.recalculate_all()
        assert engine.sheet.get_value("B5") == CYCLE_ERROR

    def test_cycle_created_mid_propagation_raises(self):
        """Regression: an edit that closes a cycle raises with the chain."""
        sheet = Sheet("cyc")
        sheet.set_formula("A1", "=B1+1")
        sheet.set_value("B1", 1.0)
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        assert engine.sheet.get_value("A1") == 2.0
        with pytest.raises(CircularReferenceError, match="circular reference"):
            engine.set_formula("B1", "=A1+1")
        assert engine.sheet.get_value("A1") == CYCLE_ERROR
        assert engine.sheet.get_value("B1") == CYCLE_ERROR

    def test_error_propagates_through_chain(self):
        sheet = Sheet("err")
        sheet.set_value("A1", 0.0)
        sheet.set_formula("B1", "=1/A1")
        sheet.set_formula("C1", "=B1+1")
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        assert engine.sheet.get_value("B1") == ExcelError("#DIV/0!")
        assert engine.sheet.get_value("C1") == ExcelError("#DIV/0!")

    def test_error_recovers_after_fix(self):
        sheet = Sheet("err")
        sheet.set_value("A1", 0.0)
        sheet.set_formula("B1", "=1/A1")
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        engine.set_value("A1", 4.0)
        assert engine.sheet.get_value("B1") == 0.25
