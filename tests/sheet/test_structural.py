"""Unit tests for structural sheet edits (insert/delete rows/columns)."""

import pytest

from repro.baselines.object_store import ObjectSheet
from helpers import report_cells

from repro.formula.errors import REF_ERROR
from repro.graphs.base import expand_cells
from repro.grid.range import Range
from repro.sheet.sheet import Sheet
from repro.sheet.structural import (
    delete_columns,
    delete_rows,
    insert_columns,
    insert_rows,
    rewrite_for_edit,
    shift_range_for_delete,
    shift_range_for_insert,
)
from repro.sheet.workbook import Workbook


class TestRangeArithmetic:
    def test_insert_below_range(self):
        rng = Range.from_a1("A1:A3")
        assert shift_range_for_insert(rng, 5, 2) == rng

    def test_insert_above_range_shifts(self):
        assert shift_range_for_insert(Range.from_a1("A5:A8"), 2, 3) == Range.from_a1("A8:A11")

    def test_insert_inside_stretches(self):
        assert shift_range_for_insert(Range.from_a1("A2:A6"), 4, 2) == Range.from_a1("A2:A8")

    def test_insert_at_head_shifts(self):
        assert shift_range_for_insert(Range.from_a1("A4:A6"), 4, 1) == Range.from_a1("A5:A7")

    def test_delete_below(self):
        rng = Range.from_a1("A1:A3")
        assert shift_range_for_delete(rng, 5, 2) == rng

    def test_delete_above_shifts_up(self):
        assert shift_range_for_delete(Range.from_a1("A8:A9"), 2, 3) == Range.from_a1("A5:A6")

    def test_delete_overlap_shrinks(self):
        assert shift_range_for_delete(Range.from_a1("A2:A8"), 4, 2) == Range.from_a1("A2:A6")
        assert shift_range_for_delete(Range.from_a1("A4:A8"), 2, 4) == Range.from_a1("A2:A4")

    def test_delete_whole_range_is_ref_error(self):
        assert shift_range_for_delete(Range.from_a1("A4:A5"), 3, 4) is None

    def test_column_axis(self):
        assert shift_range_for_insert(Range.from_a1("C1:E1"), 2, 1, "col") == Range.from_a1("D1:F1")
        assert shift_range_for_delete(Range.from_a1("C1:E1"), 4, 1, "col") == Range.from_a1("C1:D1")


class TestSheetInsertRows:
    def make(self) -> Sheet:
        sheet = Sheet("s")
        for r in range(1, 7):
            sheet.set_value((1, r), float(r))
        sheet.set_formula("B2", "=A2*2")
        sheet.set_formula("B6", "=SUM(A1:A6)")
        sheet.set_formula("C1", "=SUM($A$2:$A$4)")
        return sheet

    def test_cells_move(self):
        sheet = self.make()
        insert_rows(sheet, 3, 2)
        assert sheet.get_value((1, 2)) == 2.0     # above: unchanged
        assert sheet.get_value((1, 3)) is None    # inserted blank
        assert sheet.get_value((1, 5)) == 3.0     # shifted down

    def test_references_rewritten(self):
        sheet = self.make()
        insert_rows(sheet, 3, 2)
        # Above the edit: untouched — the cell (and its source text) survive.
        assert sheet.cell_at("B2").formula_text == "A2*2"
        assert sheet.cell_at("B8").formula_text == "SUM(A1:A8)"   # stretched
        # Absolute references also move under structural edits.
        assert sheet.cell_at("C1").formula_text == "SUM($A$2:$A$6)"

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            insert_rows(Sheet(), 0, 1)
        with pytest.raises(ValueError):
            insert_rows(Sheet(), 1, 0)


class TestSheetDeleteRows:
    def make(self) -> Sheet:
        sheet = Sheet("s")
        for r in range(1, 9):
            sheet.set_value((1, r), float(r))
        sheet.set_formula("B8", "=SUM(A1:A8)")
        sheet.set_formula("C1", "=A5")
        sheet.set_formula("C2", "=SUM(A3:A4)")
        sheet.set_formula("D4", "=A1")     # formula inside deleted band
        return sheet

    def test_cells_and_formulas_move(self):
        sheet = self.make()
        delete_rows(sheet, 3, 2)   # rows 3-4 gone
        assert sheet.get_value((1, 3)) == 5.0
        assert sheet.cell_at("B6").formula_text == "SUM(A1:A6)"   # shrunk
        assert sheet.cell_at("C1").formula_text == "A3"           # shifted

    def test_reference_into_deleted_band_is_ref_error(self):
        sheet = self.make()
        delete_rows(sheet, 3, 2)
        assert sheet.cell_at("C2").formula_text == "SUM(#REF!)"

    def test_formula_in_deleted_band_removed(self):
        sheet = self.make()
        delete_rows(sheet, 3, 2)
        assert sheet.cell_at("D4") is None
        assert all(pos != (4, 4) for pos, _ in sheet.items())


class TestCrossSheetReferences:
    """Regression tests: edits are sheet-scoped in both directions."""

    def test_other_sheet_reference_never_shifts(self):
        # A formula on the edited sheet referencing Sheet2 must not move
        # its Sheet2 reference when Sheet1 rows shift.
        sheet = Sheet("Sheet1")
        sheet.set_value("A5", 1.0)
        sheet.set_formula("B5", "=Sheet2!A5+A5")
        insert_rows(sheet, 3, 2)
        assert sheet.cell_at("B7").formula_text == "(Sheet2!A5+A7)"

    def test_self_qualified_reference_shifts(self):
        sheet = Sheet("Sheet1")
        sheet.set_formula("B1", "=Sheet1!A5")
        insert_rows(sheet, 3, 2)
        assert sheet.cell_at("B1").formula_text == "Sheet1!A7"

    def test_other_sheet_reference_survives_delete(self):
        sheet = Sheet("Sheet1")
        sheet.set_formula("B1", "=SUM(Sheet2!A3:A4)")
        delete_rows(sheet, 3, 2)
        assert sheet.cell_at("B1").formula_text == "SUM(Sheet2!A3:A4)"

    def test_rewrite_for_edit_shifts_inbound_references(self):
        # A formula on Sheet2 referencing the edited Sheet1 must shift.
        other = Sheet("Sheet2")
        other.set_formula("B1", "=Sheet1!A5*2")
        other.set_formula("B2", "=Sheet2!C1+A9")   # own-sheet refs untouched
        report = rewrite_for_edit(other, "Sheet1", "insert_rows", 3, 2)
        assert other.cell_at("B1").formula_text == "(Sheet1!A7*2)"
        assert other.cell_at("B2").formula_text == "Sheet2!C1+A9"  # untouched
        assert expand_cells(report.rewritten) == {(2, 1)}
        assert not report.moved and not report.ref_struck

    def test_rewrite_for_edit_strikes_deleted_band(self):
        other = Sheet("Sheet2")
        other.set_formula("B1", "=Sheet1!A5")
        report = rewrite_for_edit(other, "Sheet1", "delete_rows", 5, 1)
        assert other.cell_at("B1").formula_text == REF_ERROR.code
        assert expand_cells(report.ref_struck) == {(2, 1)}

    def test_rewrite_for_edit_rejects_the_edited_sheet(self):
        sheet = Sheet("Sheet1")
        with pytest.raises(ValueError):
            rewrite_for_edit(sheet, "Sheet1", "insert_rows", 1, 1)


class TestWorkbookEdits:
    def make(self) -> Workbook:
        workbook = Workbook("w")
        ledger = workbook.add_sheet("Ledger")
        for r in range(1, 9):
            ledger.set_value((1, r), float(r))
        ledger.set_formula("B8", "=SUM(A1:A8)")
        summary = workbook.add_sheet("Summary")
        summary.set_formula("A1", "=Ledger!A6")
        summary.set_formula("A2", "=Summary!A1")
        return workbook

    def test_insert_rewrites_both_sheets(self):
        workbook = self.make()
        report = workbook.insert_rows("Ledger", 3, 2)
        assert workbook.sheet("Ledger").cell_at("B10").formula_text == "SUM(A1:A10)"
        assert workbook.sheet("Summary").cell_at("A1").formula_text == "Ledger!A8"
        assert workbook.sheet("Summary").cell_at("A2").formula_text == "Summary!A1"
        assert report.cross_sheet_rewrites == 1
        assert report.moved == 1      # B8 -> B10
        assert report.sheet == "Ledger"

    def test_delete_strikes_inbound_reference(self):
        workbook = self.make()
        report = workbook.delete_rows("Ledger", 6, 1)
        assert workbook.sheet("Summary").cell_at("A1").formula_text == REF_ERROR.code
        assert report.ref_errors == 1
        assert report.removed == 1    # the A6 value cell

    def test_detached_sheet_rejected(self):
        workbook = self.make()
        with pytest.raises(ValueError):
            workbook.insert_rows(Sheet("Ledger"), 1, 1)


class TestEditReports:
    def test_insert_report_sets(self):
        sheet = Sheet("s")
        sheet.set_value("A1", 1.0)
        sheet.set_value("A5", 5.0)
        sheet.set_formula("B1", "=A1")       # untouched
        sheet.set_formula("B5", "=A5")       # moves and rewrites
        sheet.set_formula("C1", "=SUM(A1:A5)")  # stretches in place
        report = insert_rows(sheet, 3, 2)
        moved, rewritten, resized, _, struck, removed = report_cells(report)
        assert moved == {(2, 7)}
        # B5 translated in lockstep with A5: same template, only moved.
        assert rewritten == {(3, 1)}
        assert resized == {(3, 1)}   # only the straddling SUM stretched
        assert struck == set() and removed == 0
        # B5's value cannot change either; the stretched SUM is the only
        # dirty seed.
        assert expand_cells(report.dirty_seeds) == {(3, 1)}
        # The untouched formula keeps its very Cell object (memos intact).
        assert sheet.cell_at("B1").formula_text == "A1"

    def test_delete_report_counts_removed_and_struck(self):
        sheet = Sheet("s")
        for r in range(1, 7):
            sheet.set_value((1, r), float(r))
        sheet.set_formula("B1", "=A4")
        report = delete_rows(sheet, 3, 2)
        assert report.removed == 2
        assert expand_cells(report.ref_struck) == {(2, 1)}


class TestCrossedRanges:
    """A range written with its corners crossed (head below its tail)
    keeps each corner's ``$`` flags with that corner when it moves."""

    @pytest.mark.parametrize("row,host,text", [
        (28, "E13", "SUM($C$34:C15)"),     # stretches: the fixed head moves
        (1, "E14", "SUM($C$34:C16)"),      # shifts whole, host too
    ])
    def test_each_corner_keeps_its_flags(self, row, host, text):
        sheet = Sheet("s")
        sheet.set_formula("E13", "=SUM($C$33:C15)")
        insert_rows(sheet, row, 1)
        assert sheet.cell_at(host).formula_text == text


class TestColumns:
    def test_insert_columns(self):
        sheet = Sheet("s")
        sheet.set_value("A1", 1.0)
        sheet.set_value("B1", 2.0)
        sheet.set_formula("C1", "=A1+B1")
        insert_columns(sheet, 2, 1)
        assert sheet.get_value("C1") == 2.0
        assert sheet.cell_at("D1").formula_text == "(A1+C1)"

    def test_delete_columns(self):
        sheet = Sheet("s")
        for c in range(1, 5):
            sheet.set_value((c, 1), float(c))
        sheet.set_formula("A2", "=SUM(A1:D1)")
        sheet.set_formula("B2", "=C1")
        delete_columns(sheet, 3, 1)
        assert sheet.cell_at("A2").formula_text == "SUM(A1:C1)"
        assert sheet.cell_at("B2").formula_text == "#REF!"


@pytest.mark.parametrize("store", ["columnar", "object"])
class TestEditsThroughAFamily:
    """Autofilled cells are (template, host) pairs: an edit through the
    middle of a family must leave every member saying what a sheet of
    individually typed formulas would say."""

    ROWS = 10
    #: The columnar store, and the seed's per-cell store as its oracle.
    SHEETS = {"columnar": Sheet, "object": ObjectSheet}

    def filled(self, store) -> Sheet:
        from repro.sheet.autofill import fill_formula_column

        sheet = self.SHEETS[store]("s")
        for r in range(1, self.ROWS + 1):
            sheet.set_value((1, r), float(r))
        sheet.set_value("F1", 3.0)
        fill_formula_column(sheet, 2, 1, self.ROWS, "=A1*$F$1")
        fill_formula_column(sheet, 3, 1, self.ROWS, "=SUM($A$1:A1)")
        fill_formula_column(sheet, 4, 2, self.ROWS, "=A2-A1")
        return sheet

    def typed(self, store) -> Sheet:
        """The same sheet with every formula typed in by hand."""
        sheet = self.SHEETS[store]("s")
        for pos, cell in self.filled(store).items():
            if cell.is_formula:
                sheet.set_formula(pos, cell.formula_text)
            else:
                sheet.set_value(pos, cell.value)
        return sheet

    @staticmethod
    def formulas(sheet) -> dict:
        return {pos: cell.formula_ast for pos, cell in sheet.formula_cells()}

    @pytest.mark.parametrize("op,index,count", [
        (insert_rows, 5, 2), (delete_rows, 4, 2), (delete_rows, 1, 1),
        (insert_columns, 2, 1), (delete_columns, 1, 1), (insert_rows, 1, 3),
    ])
    def test_members_match_hand_typed_formulas(self, store, op, index, count):
        filled, typed = self.filled(store), self.typed(store)
        assert self.formulas(filled) == self.formulas(typed)
        report, oracle = op(filled, index, count), op(typed, index, count)
        assert self.formulas(filled) == self.formulas(typed)
        assert report_cells(report) == report_cells(oracle)
        for pos, cell in filled.formula_cells():
            assert cell.references == typed.formula_at(pos).references
            assert cell.template_key(*pos) == typed.formula_at(pos).template_key(*pos)

    def test_insert_keeps_the_texts_spreadsheets_show(self, store):
        sheet = self.filled(store)
        report = insert_rows(sheet, 5, 2)
        assert sheet.cell_at("B4").formula_text == "(A4*$F$1)"       # above: untouched
        assert sheet.cell_at("B7").formula_text == "(A7*$F$1)"       # was B5
        assert sheet.cell_at("C4").formula_text == "SUM($A$1:A4)"
        assert sheet.cell_at("C9").formula_text == "SUM($A$1:A9)"    # was C7, stretched
        assert sheet.cell_at("D7").formula_text == "(A7-A4)"         # was D5: straddles
        assert sheet.cell_at("B5") is None and sheet.cell_at("B6") is None
        moved = expand_cells(report.moved)
        assert (2, 4) not in moved and (2, 7) in moved
        # Members that moved together with what they reference land back
        # on one shared template; the straddling one is on its own.
        assert sheet.formula_at("B7").template is sheet.formula_at("B4").template
        assert sheet.formula_at("D7").template is not sheet.formula_at("D8").template

    def test_delete_strikes_only_the_members_that_lost_a_reference(self, store):
        sheet = self.filled(store)
        report = delete_rows(sheet, 4, 2)
        assert sheet.cell_at("D4").formula_text == "(A4-#REF!)"      # was D6 = A6-A5
        assert sheet.cell_at("D5").formula_text == "(A5-A4)"         # was D7 = A7-A6
        assert sheet.cell_at("D3").formula_text == "(A3-A2)"
        assert sheet.cell_at("C4").formula_text == "SUM($A$1:A4)"    # was C6, shrunk
        assert expand_cells(report.ref_struck) == {(4, 4)}
        assert len(sheet) == 1 + (self.ROWS - 2) * 4 - 1
