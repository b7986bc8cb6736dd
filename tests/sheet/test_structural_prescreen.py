"""The screens never change a structural edit's outcome.

``sheet.structural`` decides each run record piece by piece, and two
screens let it skip work: ``_may_touch`` passes over typed formulas whose
source text provably cannot be affected (they are never parsed), and a
record that stays put with no reference the edit moves is passed over on
its template.  The differential here pins the contract against a
per-member reference (``helpers.structural_reference``): every pre-edit
formula's own AST at its host, rewritten and rendered at the host the
edit moves it to.  Values, formula texts by meaning, report cells and run
records must match for every op, over formulas and autofilled columns
chosen to sit on both sides of the screens.  The sanity tests below prove
the fast paths really engage — untouched formulas stay unparsed, and a
family that moves whole builds no member AST.
"""

from unittest import mock

import pytest
from helpers import assert_matches_reference, structural_reference
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formula.template import FormulaTemplate
from repro.graphs.base import expand_cells
from repro.sheet import structural
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.sheet.structural import _may_touch

FORMULAS = (
    "=A1+B2",
    "=SUM(A1:A8)",
    "=SUM($A$4:$B$9)",
    "=A10*2",
    "=ROW(A1)",
    "=COLUMN(B2)+1",
    "=IF(A3>0,SUM(B1:B6),C7)",
    '=IF(A1>0,"C9 high",B2)',     # reference-looking text in a string
    "=LOG10(A2)",                  # digits inside a function name
    "=Other!C9+A1",                # qualified into another sheet
)

OPS = (
    ("insert_rows", 3, 2),
    ("delete_rows", 4, 2),
    ("insert_columns", 2, 1),
    ("delete_columns", 2, 1),
)


def build(formulas) -> Sheet:
    sheet = Sheet("Main")
    for r in range(1, 11):
        sheet.set_value((1, r), float(r))
        sheet.set_value((2, r), float(r * 3))
    for i, text in enumerate(formulas):
        sheet.set_formula((3 + i % 3, 1 + i), text)
    # Autofill families: members carry no text, only (template, host).
    fill_formula_column(sheet, 7, 1, 10, "=A1+$B$2")
    fill_formula_column(sheet, 8, 2, 10, "=SUM(A$1:A2)+H1")
    fill_formula_column(sheet, 9, 1, 8, "=SUM(A1:B3)")      # reaches two rows, one column ahead
    return sheet


def run_op(sheet: Sheet, op: str, index: int, count: int) -> None:
    """Apply one op, checking it against the per-member reference."""
    reference = structural_reference(sheet, op, index, count)
    report = getattr(structural, op)(sheet, index, count)
    assert_matches_reference(sheet, report, reference)


@pytest.mark.parametrize("op,index,count", OPS)
def test_prescreened_equals_full_ast_path(op, index, count):
    run_op(build(FORMULAS), op, index, count)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_prescreened_equals_full_ast_path_generated(data):
    formulas = data.draw(st.lists(st.sampled_from(FORMULAS), min_size=1,
                                  max_size=6))
    op = data.draw(st.sampled_from([o for o, _, _ in OPS]))
    index = data.draw(st.integers(1, 8))
    count = data.draw(st.integers(1, 3))
    run_op(build(formulas), op, index, count)


def test_fast_path_really_engages():
    """Untouched formulas on a lazily parsed sheet stay *unparsed* after
    the edit — proof the differential above compares two distinct paths
    (and the proof the optimisation exists at all)."""
    from repro.formula.parser import parse_formula

    sheet = build([])
    sheet.set_formula((3, 1), "=SUM(A1:A3)")       # far above the edit line
    sheet.set_formula((4, 9), "=A9+B9")            # moves, refs shift
    parse_formula.cache_clear()
    structural.insert_rows(sheet, 8, 2)
    assert parse_formula.cache_info().misses == 1  # only the touched formula parsed
    untouched = sheet.cell_at((3, 1))
    assert untouched.source_text == "SUM(A1:A3)"   # still just its text
    moved = sheet.cell_at((4, 11))
    assert moved is not None
    assert "A11" in moved.formula_text and "B11" in moved.formula_text


def test_fast_path_engages_for_template_members():
    """An autofilled column is decided per piece of its run record, not
    per member.  The members above the edit line stay one record with
    their text, the ones below are one piece with one AST built, and a
    family that moves whole builds no member AST at all: its one piece
    starts at the template's anchor."""
    sheet = Sheet("Main")
    # Formulas no other test interns: each template is anchored here.
    fill_formula_column(sheet, 2, 1, 40, "=A1*413")
    fill_formula_column(sheet, 3, 33, 40, "=A33*709+B33*3")
    template = sheet.formula_at("B1").template
    built = []
    ast_at = FormulaTemplate.ast_at

    def spy(self, col, row):
        if (col, row) != (self.col, self.row):
            built.append((col, row))
        return ast_at(self, col, row)

    with mock.patch.object(FormulaTemplate, "ast_at", spy):
        report = structural.insert_rows(sheet, 31, 2)
    assert built == [(2, 31)]
    assert sheet.run_index(join=False)[2][0] == (1, 30, template, "A1*413")
    assert expand_cells(report.moved) == {
        (col, r) for col, top in ((2, 33), (3, 35)) for r in range(top, 43)
    }
    assert not report.rewritten
    assert sheet.cell_at("B42").formula_text == "(A42*413)"
    assert sheet.cell_at("C35").formula_text == "((A35*709)+(B35*3))"


def test_cross_sheet_prescreen_sees_escaped_sheet_names():
    """A sheet name with an apostrophe appears in formula source only in
    its escaped spelling ('It''s'); the textual shortcut must still find
    it, or inbound references silently stop being rewritten."""
    from repro.sheet.structural import rewrite_for_edit

    sheet = Sheet("Other")
    sheet.set_formula("A1", "='It''s'!A5+1")
    # Parse first so the stored text is the canonical rendering.
    assert sheet.cell_at("A1").references[0].sheet == "It's"
    report = rewrite_for_edit(sheet, "It's", "insert_rows", 2, 3)
    assert expand_cells(report.rewritten) == {(1, 1)}
    assert sheet.cell_at("A1").references[0].range.r1 == 8


class TestMayTouch:
    def test_far_references_screened_out(self):
        assert not _may_touch("SUM(A1:A5)", "row", 6)
        assert not _may_touch("A1+B2*C3", "row", 4)
        assert not _may_touch("A1+B2", "col", 3)

    def test_crossing_references_force_parse(self):
        assert _may_touch("SUM(A1:A9)", "row", 6)
        assert _may_touch("A10*2", "row", 10)
        assert _may_touch("C1+A1", "col", 3)
        assert _may_touch("$AB$3", "col", 5)

    def test_position_functions_force_parse(self):
        assert _may_touch("ROW(A1)", "row", 99)
        assert _may_touch("column(A1)", "col", 99)
        assert _may_touch("ROW()", "row", 99)

    def test_function_digits_do_not_count_as_rows(self):
        assert not _may_touch("LOG10(A1)", "row", 5)

    def test_string_literals_are_conservative(self):
        # A ref-looking token inside a string just forces the slow path.
        assert _may_touch('IF(A1>0,"Z99",B1)', "row", 50)

    def test_qualified_references_are_conservative(self):
        assert _may_touch("Other!C9+A1", "row", 5)
