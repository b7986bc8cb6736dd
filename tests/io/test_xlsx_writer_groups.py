"""Unit tests for shared-formula group planning in the xlsx writer."""

import io
import zipfile
from xml.etree import ElementTree

from repro.grid.range import Range
from repro.io.shared import strip_ns
from repro.io.xlsx_writer import _plan_shared_groups, write_xlsx
from repro.io.xlsx_reader import read_xlsx
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet


class TestGroupPlanning:
    def test_contiguous_identical_run_is_one_group(self):
        sheet = Sheet("s")
        fill_formula_column(sheet, 2, 1, 10, "=A1*2")
        assert _plan_shared_groups(sheet) == [Range.from_a1("B1:B10")]

    def test_gap_splits_groups(self):
        sheet = Sheet("s")
        fill_formula_column(sheet, 2, 1, 4, "=A1*2")
        fill_formula_column(sheet, 2, 7, 10, "=A7*2")
        assert _plan_shared_groups(sheet) == [
            Range.from_a1("B1:B4"), Range.from_a1("B7:B10"),
        ]

    def test_different_formulas_split_groups(self):
        sheet = Sheet("s")
        sheet.set_formula("B1", "=A1*2")
        sheet.set_formula("B2", "=A2*2")
        sheet.set_formula("B3", "=A3+1")   # breaks the run
        sheet.set_formula("B4", "=A4+1")
        assert _plan_shared_groups(sheet) == [
            Range.from_a1("B1:B2"), Range.from_a1("B3:B4"),
        ]

    def test_lone_formula_not_grouped(self):
        sheet = Sheet("s")
        sheet.set_formula("B1", "=A1*2")
        sheet.set_formula("D9", "=A9*3")
        assert _plan_shared_groups(sheet) == []

    def test_fixed_refs_still_group(self):
        sheet = Sheet("s")
        fill_formula_column(sheet, 2, 1, 5, "=A1*$Z$1")
        assert _plan_shared_groups(sheet) == [Range.from_a1("B1:B5")]

    def test_groups_are_numbered_column_major(self):
        """``si`` is a group's index in the plan, whatever order the
        columns were filled in."""
        sheet = Sheet("s")
        fill_formula_column(sheet, 3, 1, 3, "=A1+1")
        fill_formula_column(sheet, 2, 1, 3, "=A1*2")
        assert _plan_shared_groups(sheet) == [
            Range.from_a1("B1:B3"), Range.from_a1("C1:C3"),
        ]


class TestEmittedXml:
    def _sheet_xml(self, sheet: Sheet) -> ElementTree.Element:
        buffer = io.BytesIO()
        write_xlsx(sheet, buffer)
        buffer.seek(0)
        with zipfile.ZipFile(buffer) as archive:
            return ElementTree.fromstring(archive.read("xl/worksheets/sheet1.xml"))

    def test_anchor_carries_ref_and_body(self):
        sheet = Sheet("s")
        fill_formula_column(sheet, 2, 1, 6, "=A1*2")
        root = self._sheet_xml(sheet)
        anchors = [
            el for el in root.iter()
            if strip_ns(el.tag) == "f" and el.get("t") == "shared" and el.text
        ]
        followers = [
            el for el in root.iter()
            if strip_ns(el.tag) == "f" and el.get("t") == "shared" and not el.text
        ]
        assert len(anchors) == 1
        assert anchors[0].get("ref") == "B1:B6"
        assert len(followers) == 5
        assert all(f.get("si") == anchors[0].get("si") for f in followers)

    def test_round_trip_of_split_groups(self):
        sheet = Sheet("s")
        fill_formula_column(sheet, 2, 1, 4, "=A1*2")
        fill_formula_column(sheet, 2, 7, 10, "=A7*2")
        buffer = io.BytesIO()
        write_xlsx(sheet, buffer)
        buffer.seek(0)
        restored = read_xlsx(buffer)["s"]
        deps_in = {(d.prec.to_a1(), d.dep.to_a1()) for d in sheet.iter_dependencies()}
        deps_out = {(d.prec.to_a1(), d.dep.to_a1()) for d in restored.iter_dependencies()}
        assert deps_in == deps_out

    def test_dimension_element_present(self):
        sheet = Sheet("s")
        sheet.set_value("B2", 1.0)
        sheet.set_value("D9", 2.0)
        root = self._sheet_xml(sheet)
        dims = [el for el in root.iter() if strip_ns(el.tag) == "dimension"]
        assert dims and dims[0].get("ref") == "B2:D9"
