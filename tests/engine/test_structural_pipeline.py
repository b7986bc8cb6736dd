"""The workbook-level structural-edit pipeline, end-to-end.

Covers the engine entry points (``RecalcEngine.insert_rows`` and
friends): sheet rewrite + incremental graph maintenance + dirty
recalculation in one call, cross-sheet rewriting via ``workbook=``, the
guards against structural edits under open batch sessions or deferred
maintenance windows, and structural ops recorded through
``BatchEditSession``.
"""

import pytest

from repro.core.taco_graph import TacoGraph, build_from_sheet, dependencies_column_major
from repro.engine.batch import BatchEditSession
from repro.engine.recalc import RecalcEngine
from repro.formula.errors import REF_ERROR
from repro.graphs.nocomp import NoCompGraph
from repro.grid.range import Range
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook


def ledger(rows: int = 20) -> Sheet:
    sheet = Sheet("Ledger")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float(r))
    sheet.set_formula("B1", "=A1")
    fill_formula_column(sheet, 2, 2, rows, "=B1+A2")   # running balance chain
    fill_formula_column(sheet, 3, 1, rows, "=SUM($A$1:A1)")
    sheet.set_formula("D1", "=SUM(A1:A9999)" if rows > 9999 else f"=SUM(A1:A{rows})")
    return sheet


def maintained_equals_rebuilt(engine: RecalcEngine) -> bool:
    rebuilt = TacoGraph.full()
    rebuilt.build(dependencies_column_major(engine.sheet))
    mine = {(d.prec.as_tuple(), d.dep.head) for d in engine.graph.decompress()}
    theirs = {(d.prec.as_tuple(), d.dep.head) for d in rebuilt.decompress()}
    return mine == theirs


class TestEndToEnd:
    def test_insert_rows_values_and_graph(self):
        sheet = ledger()
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        before_total = sheet.get_value("D1")
        result = engine.insert_rows(10, 3)
        assert result.op == "insert_rows"
        assert maintained_equals_rebuilt(engine)
        # Blank rows contribute nothing: every surviving value is intact.
        assert sheet.get_value("D1") == before_total
        assert sheet.get_value((2, 23)) == sum(range(1, 21))  # last balance moved
        assert result.moved_cells > 0 and result.recomputed > 0

    def test_delete_rows_values_and_ref_propagation(self):
        sheet = ledger()
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        engine.set_formula("E1", "=A5*2")
        engine.set_formula("F1", "=E1+1")
        result = engine.delete_rows(5, 1)
        assert maintained_equals_rebuilt(engine)
        assert result.removed_cells > 0
        # E1 referenced the deleted row: #REF!, propagated to F1.
        assert sheet.get_value("E1") is REF_ERROR
        assert sheet.get_value("F1") is REF_ERROR
        # The straddling SUM shrank and was recomputed.
        assert sheet.get_value("D1") == sum(range(1, 21)) - 5.0

    def test_insert_and_delete_columns(self):
        sheet = Sheet("s")
        for c in range(1, 5):
            sheet.set_value((c, 1), float(c))
        sheet.set_formula("A2", "=SUM(A1:D1)")
        sheet.set_formula("B2", "=C1")
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        engine.insert_columns(2, 1)
        assert maintained_equals_rebuilt(engine)
        assert sheet.get_value("A2") == 10.0
        engine.delete_columns(4, 1)   # the old column C
        assert maintained_equals_rebuilt(engine)
        assert sheet.get_value("A2") == 7.0
        assert sheet.get_value("C2") is REF_ERROR

    def test_cross_sheet_rewrite_through_workbook(self):
        workbook = Workbook("w")
        sheet = workbook.attach_sheet(ledger())
        other = workbook.add_sheet("Summary")
        other.set_formula("A1", "=Ledger!A15")
        other.set_formula("A2", "=Ledger!A3")
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        result = engine.insert_rows(10, 2, workbook=workbook)
        assert result.cross_sheet_rewrites == 1
        assert other.cell_at("A1").formula_text == "Ledger!A17"
        assert other.cell_at("A2").formula_text == "Ledger!A3"
        # The affected sibling cells are enumerable (their cached values
        # stay stale until Summary's own engine recalculates).
        assert set(result.sibling_reports) == {"Summary"}
        assert result.sibling_reports["Summary"].rewritten == [Range.cell(1, 1)]

    def test_dirty_set_is_incremental(self):
        # An insert near the bottom leaves formulas above the edit alone.
        sheet = ledger(100)
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        result = engine.insert_rows(99, 1)
        # Only the moved tail cells (and the stretched whole-column SUM
        # plus its dependents) are recomputed, not all ~300 formulas.
        assert result.recomputed < 50

    def test_windowed_runs_survive_the_edit(self):
        # The auto evaluation path still dispatches rolling-window runs
        # over the shifted running-total column after the edit.
        sheet = Sheet("s")
        rows = 60
        for r in range(1, rows + 1):
            sheet.set_value((1, r), float(r))
        fill_formula_column(sheet, 2, 1, rows, "=SUM($A$1:A1)")
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        windowed_before = engine.eval_stats.windowed_cells
        engine.insert_rows(5, 2)
        assert engine.eval_stats.windowed_cells > windowed_before
        assert sheet.get_value((2, rows + 2)) == sum(range(1, rows + 1))

    def test_position_sensitive_functions_recompute(self):
        # ROW()/COLUMN() read position, not values: a wholesale shift
        # changes their result, so they must seed the dirty set even
        # though no referenced value changed.
        sheet = Sheet("s")
        for r in range(1, 13):
            sheet.set_value((1, r), float(r))
        sheet.set_formula("B1", "=ROW(A10)")
        sheet.set_formula("C8", "=ROW()")
        sheet.set_formula("D1", "=B1+1")         # dependent of the volatile cell
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        assert sheet.get_value("B1") == 10.0 and sheet.get_value("C8") == 8.0
        engine.insert_rows(3, 2)
        assert sheet.get_value("B1") == 12.0     # ROW(A12) now
        assert sheet.get_value("C10") == 10.0    # moved, re-asked its row
        assert sheet.get_value("D1") == 13.0
        result = engine.insert_columns(1, 3)
        assert sheet.get_value((5, 1)) == 12.0   # B1 -> E1, ROW unchanged
        assert sheet.get_value((6, 10)) == 10.0  # C10 -> F10, row unchanged
        assert result.recomputed >= 0

    def test_invalid_op_and_args(self):
        engine = RecalcEngine(Sheet("s"))
        from repro.engine.edits import ClearRange, SetValue, Structural

        with pytest.raises(ValueError):
            engine.apply(Structural("transpose", 1, 1))
        with pytest.raises(ValueError):
            engine.insert_rows(0)
        with pytest.raises(TypeError, match="batch"):     # a range clear is batch-only
            engine.apply(ClearRange(Range.from_a1("A1:B2")))
        with pytest.raises(TypeError, match="recalc"):    # a cell edit takes no options
            engine.apply(SetValue("A1", 1.0), recalc=False)

    def test_nocomp_graph_falls_back_to_rebuild(self):
        sheet = ledger()
        graph = NoCompGraph()
        graph.build(dependencies_column_major(sheet))
        engine = RecalcEngine(sheet, graph)
        engine.recalculate_all()
        result = engine.insert_rows(10, 3)
        assert isinstance(engine.graph, NoCompGraph)
        assert engine.graph is not graph          # rebuilt instance
        assert result.maintenance.edges_touched == 0
        assert sheet.get_value((2, 23)) == sum(range(1, 21))

    def test_unsupported_graph_backend_raises_cleanly(self):
        class Opaque:
            def find_dependents(self, rng, budget=None):
                return []

        engine = RecalcEngine(ledger(), Opaque())
        with pytest.raises(TypeError, match="neither"):
            engine.insert_rows(5)


class TestGuards:
    def test_structural_edit_with_open_batch_raises(self):
        engine = RecalcEngine(ledger())
        engine.recalculate_all()
        batch = engine.begin_batch()
        batch.set_value("A1", 99.0)
        with pytest.raises(RuntimeError, match="open batch"):
            engine.insert_rows(5)
        batch.discard()
        engine.insert_rows(5)      # fine once the session is closed

    def test_batch_on_same_sheet_via_other_engine_blocks(self):
        # Sessions register on the *sheet*: a batch opened through a
        # throwaway engine (sheet.begin_batch) must still block
        # structural edits issued through a different engine.
        sheet = ledger()
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        batch = sheet.begin_batch(graph=engine.graph)
        batch.set_value("A9", 5.0)
        with pytest.raises(RuntimeError, match="open batch"):
            engine.insert_rows(5, 2)
        batch.discard()
        engine.insert_rows(5, 2)

    def test_mismatched_workbook_rejected_before_mutation(self):
        # A workbook holding a *different* sheet with the same name must
        # be rejected up front, leaving sheet and graph untouched.
        sheet = ledger()
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        stranger = Workbook("w")
        stranger.attach_sheet(ledger())   # same name, different object
        with pytest.raises(ValueError, match="not part of workbook"):
            engine.insert_rows(3, 2, workbook=stranger)
        assert sheet.get_value((1, 20)) == 20.0   # nothing moved
        assert maintained_equals_rebuilt(engine)

    def test_structural_edit_in_deferred_window_raises(self):
        engine = RecalcEngine(ledger())
        engine.graph.begin_deferred_maintenance()
        with pytest.raises(RuntimeError, match="deferred-maintenance"):
            engine.delete_rows(3)
        engine.graph.end_deferred_maintenance()
        engine.delete_rows(3)

    def test_structural_after_cell_edits_in_batch_raises(self):
        engine = RecalcEngine(ledger())
        engine.recalculate_all()
        with pytest.raises(RuntimeError, match="structural ops first"):
            with engine.begin_batch() as batch:
                batch.set_value("A1", 99.0)
                batch.insert_rows(5)
        # The failed batch rolled back: nothing moved.
        assert engine.sheet.get_value("A1") == 1.0

    def test_discarded_batch_applies_nothing(self):
        engine = RecalcEngine(ledger())
        engine.recalculate_all()
        batch = engine.begin_batch()
        batch.insert_rows(5, 2)
        batch.discard()
        assert engine.sheet.get_value((1, 20)) == 20.0
        assert maintained_equals_rebuilt(engine)


class TestBatchComposition:
    def test_structural_then_cell_edits_commit_together(self):
        sheet = ledger()
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        with engine.begin_batch() as batch:
            batch.insert_rows(10, 2)
            # Post-edit addresses: A12 is the old A10.
            batch.set_value("A12", 100.0)
        result = batch.result
        assert result.structural_ops == 1
        assert sheet.get_value("A12") == 100.0
        assert maintained_equals_rebuilt(engine)
        # Values equal a from-scratch recalculation of the edited sheet.
        oracle = RecalcEngine(clone_sheet(sheet), evaluation="interpreter")
        oracle.recalculate_all()
        for pos, cell in sheet.items():
            if cell.is_formula:
                assert oracle.sheet.get_value(pos) == cell.value, pos

    def test_multiple_structural_ops_in_one_batch(self):
        sheet = ledger()
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        with engine.begin_batch() as batch:
            batch.insert_rows(5, 1)
            batch.delete_rows(12, 2)
            batch.insert_columns(1, 1)
        assert batch.result.structural_ops == 3
        assert maintained_equals_rebuilt(engine)
        oracle = RecalcEngine(clone_sheet(sheet), evaluation="interpreter")
        oracle.recalculate_all()
        for pos, cell in sheet.items():
            if cell.is_formula:
                assert oracle.sheet.get_value(pos) == cell.value, pos

    def test_workbook_begin_batch_inherits_workbook(self):
        # A batch opened *on the workbook* must rewrite sibling sheets'
        # references when structural ops commit — same as the non-batch
        # workbook.insert_rows path.
        workbook = Workbook("w")
        sheet = workbook.attach_sheet(ledger())
        other = workbook.add_sheet("Summary")
        other.set_formula("A1", "=Ledger!A7*10")
        with workbook.begin_batch() as batch:
            batch.insert_rows(5, 2)
        assert other.cell_at("A1").formula_text == "(Ledger!A9*10)"

    def test_abandoned_batch_does_not_lock_the_sheet(self):
        # Sessions register weakly: an abandoned (never committed or
        # discarded) session must not block structural edits forever.
        import gc

        sheet = ledger()
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        batch = engine.begin_batch()
        batch.set_value("A1", 0.0)
        batch = None
        gc.collect()
        engine.insert_rows(5, 2)          # no RuntimeError
        assert sheet.get_value((1, 22)) == 20.0

    def test_batch_workbook_threads_through(self):
        workbook = Workbook("w")
        sheet = workbook.attach_sheet(ledger())
        other = workbook.add_sheet("Summary")
        other.set_formula("A1", "=Ledger!A15")
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        with engine.begin_batch(workbook=workbook) as batch:
            batch.insert_rows(10, 2)
        assert other.cell_at("A1").formula_text == "Ledger!A17"


def clone_sheet(sheet: Sheet) -> Sheet:
    copy = Sheet(sheet.name)
    for pos, cell in sheet.items():
        if cell.is_formula:
            copy.set_formula(pos, cell.formula_text)
        else:
            copy.set_value(pos, cell.value)
    return copy
