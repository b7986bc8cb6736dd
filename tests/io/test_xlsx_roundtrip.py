"""Round-trip tests: write a workbook to xlsx, read it back, compare."""

import io
import zipfile

import pytest

from helpers import build_fig2_sheet, build_mixed_sheet

from repro.core.taco_graph import dependencies_column_major
from repro.formula.errors import ExcelError
from repro.io.xlsx_reader import read_xlsx
from repro.io.xlsx_writer import write_sheet_xml, write_xlsx
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook


def round_trip(workbook, shared_formulas=True) -> Workbook:
    buffer = io.BytesIO()
    write_xlsx(workbook, buffer, shared_formulas=shared_formulas)
    buffer.seek(0)
    return read_xlsx(buffer)


class TestValues:
    def test_numbers(self):
        sheet = Sheet("S")
        sheet.set_value("A1", 42.0)
        sheet.set_value("A2", 3.14)
        sheet.set_value("A3", -7.0)
        back = round_trip(sheet)["S"]
        assert back.get_value("A1") == 42.0
        assert back.get_value("A2") == 3.14
        assert back.get_value("A3") == -7.0

    def test_strings_inline(self):
        sheet = Sheet("S")
        sheet.set_value("A1", "hello world")
        sheet.set_value("A2", "x < y & z \"quoted\"")
        back = round_trip(sheet)["S"]
        assert back.get_value("A1") == "hello world"
        assert back.get_value("A2") == 'x < y & z "quoted"'

    def test_booleans(self):
        sheet = Sheet("S")
        sheet.set_value("A1", True)
        sheet.set_value("A2", False)
        back = round_trip(sheet)["S"]
        assert back.get_value("A1") is True
        assert back.get_value("A2") is False

    def test_error_values(self):
        sheet = Sheet("S")
        sheet.set_value("A1", ExcelError("#DIV/0!"))
        back = round_trip(sheet)["S"]
        assert back.get_value("A1") == ExcelError("#DIV/0!")

    def test_empty_cells_stay_empty(self):
        sheet = Sheet("S")
        sheet.set_value("B7", 1.0)
        back = round_trip(sheet)["S"]
        assert back.get_value("A1") is None
        assert len(back) == 1


class TestFormulas:
    def test_formula_text_preserved(self):
        sheet = Sheet("S")
        sheet.set_formula("B1", "=SUM(A1:A3)")
        back = round_trip(sheet)["S"]
        assert back.cell_at("B1").formula_text == "SUM(A1:A3)"

    def test_cached_value_preserved(self):
        sheet = Sheet("S")
        sheet.set_formula("B1", "=1+1")
        sheet.cell_at("B1").value = 2.0
        back = round_trip(sheet)["S"]
        assert back.cell_at("B1").value == 2.0
        assert back.cell_at("B1").is_formula

    def test_string_result_formula(self):
        sheet = Sheet("S")
        sheet.set_formula("B1", '="a"&"b"')
        sheet.cell_at("B1").value = "ab"
        back = round_trip(sheet)["S"]
        assert back.cell_at("B1").value == "ab"

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "plain"])
    def test_dependencies_survive(self, shared):
        sheet = build_mixed_sheet(seed=4)
        back = round_trip(sheet, shared_formulas=shared)["mixed"]
        original = {(d.prec.to_a1(), d.dep.to_a1()) for d in sheet.iter_dependencies()}
        restored = {(d.prec.to_a1(), d.dep.to_a1()) for d in back.iter_dependencies()}
        assert restored == original


class TestSharedFormulas:
    def test_shared_groups_emitted(self):
        sheet = build_fig2_sheet(rows=30)
        buffer = io.BytesIO()
        write_xlsx(sheet, buffer, shared_formulas=True)
        buffer.seek(0)
        with zipfile.ZipFile(buffer) as archive:
            xml = archive.read("xl/worksheets/sheet1.xml").decode()
        assert 't="shared"' in xml
        # Followers must carry no formula body.
        assert xml.count('<f t="shared"') > xml.count("si=\"0\">")

    def test_shared_formulas_reconstructed(self):
        from repro.formula.parser import parse_formula

        sheet = build_fig2_sheet(rows=30)
        back = round_trip(sheet)["fig2"]
        # A follower cell's formula must be the shifted anchor formula
        # (compare ASTs: rendering may add explicit parentheses).
        assert back.cell_at("N10").formula_ast == parse_formula("=IF(A10=A9,N9+M10,M10)")

    def test_shared_groups_reopen_as_one_template_each(self):
        from repro.sheet.autofill import fill_formula_column

        sheet = Sheet("S")
        for r in range(1, 41):
            sheet.set_value((1, r), float(r))
        fill_formula_column(sheet, 2, 1, 40, "=A1*$D$1")
        fill_formula_column(sheet, 3, 1, 20, "=SUM($A$1:A1)")
        fill_formula_column(sheet, 3, 21, 40, "=A21-A20")     # a second group below
        sheet.set_formula("E1", "=B40+C40")                    # ungrouped
        back = round_trip(sheet)["S"]
        groups = {"B": range(1, 41), "C-top": range(1, 21), "C-bottom": range(21, 41)}
        families = {
            name: {back.formula_at((2 if name == "B" else 3, r)).template for r in rows}
            for name, rows in groups.items()
        }
        assert all(len(templates) == 1 for templates in families.values())
        assert len(set.union(*families.values())) == 3
        # Followers carry no text of their own, yet read like the originals.
        assert back.formula_at("B40").source_text is None
        assert back.formula_at("B1").source_text is not None
        for pos, cell in sheet.formula_cells():
            assert back.formula_at(pos).formula_ast == cell.formula_ast
        assert write_sheet_xml(back) == write_sheet_xml(sheet)

    def test_unevaluated_formulas_are_written_without_a_value(self):
        sheet = Sheet("S")
        sheet.set_formula("B2", "=A1+1")                       # never recalculated
        back = round_trip(sheet)["S"]
        assert back.formula_at("B2").formula_text == "A1+1"
        assert back.get_value("B2") is None
        assert back.used_range() == sheet.used_range()

    def test_shared_and_plain_read_identically(self):
        sheet = build_fig2_sheet(rows=20)
        with_shared = round_trip(sheet, shared_formulas=True)["fig2"]
        without = round_trip(sheet, shared_formulas=False)["fig2"]
        deps_a = {(d.prec.to_a1(), d.dep.to_a1()) for d in with_shared.iter_dependencies()}
        deps_b = {(d.prec.to_a1(), d.dep.to_a1()) for d in without.iter_dependencies()}
        assert deps_a == deps_b

    def test_shared_file_is_smaller(self):
        sheet = build_fig2_sheet(rows=200)
        shared_buf, plain_buf = io.BytesIO(), io.BytesIO()
        write_xlsx(sheet, shared_buf, shared_formulas=True)
        write_xlsx(sheet, plain_buf, shared_formulas=False)
        assert len(shared_buf.getvalue()) < len(plain_buf.getvalue())


class TestWhatTheEngineCanHold:
    """Values the engine itself produces or accepts must export."""

    def test_non_finite_numbers_are_num_errors(self):
        from repro.engine.recalc import RecalcEngine

        sheet = Sheet("S")
        sheet.set_value("A1", 1e308)
        sheet.set_formula("B1", "=A1*10")               # inf
        sheet.set_formula("B2", "=A1*10-A1*10")         # nan
        RecalcEngine(sheet).recalculate_all()
        assert sheet.get_value("B1") == float("inf") and sheet.get_value("B2") != sheet.get_value("B2")
        sheet.set_value("C1", float("-inf"))            # pure values alike
        sheet.set_value("C2", float("nan"))
        back = round_trip(sheet)["S"]
        for ref in ("B1", "B2", "C1", "C2"):
            assert back.get_value(ref) == ExcelError("#NUM!"), ref
        assert back.formula_at("B2").formula_text == "A1*10-A1*10"
        assert back.get_value("A1") == 1e308

    @pytest.mark.parametrize("text", [
        "x\x00y", "x\x0by", "\x1f", "tab\tnewline\nstay", "cr\rtoo", "_x0041_ is literal",
        "_x005F_x0041_", "\ufffe\uffff", "_x", "__x0000__",
    ])
    def test_characters_xml_cannot_carry_round_trip(self, text):
        sheet = Sheet("S")
        sheet.set_value("A1", text)
        sheet.set_formula("A2", '="' + text.replace("\n", " ") + '"&A1')
        sheet.formula_at("A2").value = text + "!"         # a cached string
        back = round_trip(sheet)["S"]
        assert back.get_value("A1") == text
        assert back.get_value("A2") == text + "!"
        assert back.formula_at("A2").formula_text == sheet.formula_at("A2").formula_text


class TestWorksheetXmlIsPinned:
    """The worksheet part, byte for byte: digests taken before the writer
    read runs (it sorted every row and asked every cell for its text)."""

    MIX = (("sliding_window", 1.0), ("derived_column", 1.0), ("chain", 0.8), ("fig2", 0.8),
           ("fixed_lookup", 0.6), ("running_total", 0.4), ("shrinking_window", 0.15),
           ("gapone", 0.02))

    @staticmethod
    def md5(text: str) -> str:
        import hashlib

        return hashlib.md5(text.encode()).hexdigest()

    def test_github_like_sheet(self):
        from repro.datasets.generator import RegionSpec, SheetSpec, generate_sheet
        from repro.engine.recalc import RecalcEngine

        regions = tuple(RegionSpec(kind, max(8, int(120 * w))) for kind, w in self.MIX)
        sheet = generate_sheet(SheetSpec("gh", regions, seed=7))
        assert (len(sheet), sheet.formula_count) == (1544, 579)
        # Never evaluated: every formula is written without a <v>.
        assert self.md5(write_sheet_xml(sheet)) == "25c5c6200acc0ed3dfbefbe94d6e05d4"
        RecalcEngine(sheet, evaluation="interpreter").recalculate_all()
        sheet.set_value("A1", "a <b> & \"c\"")
        sheet.set_value("A2", True)
        assert self.md5(write_sheet_xml(sheet)) == "c1bbb93f95f27ccae34e0fba4308aa36"
        assert self.md5(write_sheet_xml(sheet, shared_formulas=False)) == \
            "d3ffcc3d0304976df4f040f0be61b0f0"

    def test_a_formula_with_no_value_sits_in_its_row_in_column_order(self):
        sheet = Sheet("S")
        sheet.set_value("A2", 1.0)
        sheet.set_value("C2", "c")
        sheet.set_formula("B2", "=A2+1")                # between two values, never evaluated
        sheet.set_formula("D1", "=A2")                  # a column with no value at all
        xml = write_sheet_xml(sheet)
        assert '<row r="1"><c r="D1"><f>A2</f></c></row>' in xml
        assert ('<row r="2"><c r="A2"><v>1</v></c><c r="B2"><f>A2+1</f></c>'
                '<c r="C2" t="inlineStr"><is><t>c</t></is></c></row>') in xml


class TestWorkbooks:
    def test_multiple_sheets(self):
        wb = Workbook()
        data = wb.add_sheet("Data")
        report = wb.add_sheet("Report")
        data.set_value("A1", 10.0)
        report.set_formula("A1", "=Data!A1*2")
        back = round_trip(wb)
        assert back.sheet_names == ["Data", "Report"]
        assert back["Data"].get_value("A1") == 10.0
        assert back["Report"].cell_at("A1").formula_text == "Data!A1*2"

    def test_sheet_name_with_spaces(self):
        wb = Workbook()
        wb.add_sheet("My Data").set_value("A1", 1.0)
        back = round_trip(wb)
        assert back.sheet_names == ["My Data"]

    def test_empty_workbook_rejected(self):
        with pytest.raises(ValueError):
            write_xlsx(Workbook(), io.BytesIO())

    def test_graph_pipeline_from_xlsx(self, tmp_path):
        # The full paper pipeline: file -> parse -> compress -> query.
        from repro.core.taco_graph import TacoGraph

        sheet = build_fig2_sheet(rows=40)
        path = tmp_path / "fig2.xlsx"
        write_xlsx(sheet, str(path))
        back = read_xlsx(str(path)).active_sheet
        graph = TacoGraph.full()
        graph.build(dependencies_column_major(back))
        assert graph.raw_edge_count() == len(dependencies_column_major(sheet))
        assert len(graph) <= 6
