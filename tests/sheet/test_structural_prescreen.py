"""The prescreen never changes a structural edit's outcome.

``sheet.structural._may_touch`` lets an edit skip parsing formulas whose
source text provably cannot be affected, and a template member that
stays put and reaches nothing at or beyond the edit line is skipped on
its reference geometry alone.  The differential here pins the contract
against the real oracle: one arm edits with the prescreen active (fast
paths taken wherever text or geometry allows), the other with it
switched off — every formula goes down the full AST-rewrite path,
exactly the pre-prescreen behaviour.  Cells, formula texts-by-meaning,
values, and report sets must be identical for every op, over formulas
and autofilled columns chosen to sit on both sides of the screen.  (Both
arms must *not* share a code path: sanity tests below prove the fast
paths really engage — untouched formulas stay unparsed, untouched
members never have their AST built.)
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formula.template import FormulaTemplate
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


def run_op(sheet: Sheet, op: str, index: int, count: int, *, prescreen: bool):
    """Apply one op with the prescreen active, or forced off (every
    formula takes the full AST-rewrite path — the oracle)."""
    if prescreen:
        return getattr(structural, op)(sheet, index, count)
    decide = structural._outcome
    with mock.patch.object(structural, "_outcome",
                           lambda *args: decide(*args[:-1], None)):
        return getattr(structural, op)(sheet, index, count)


def outcome(sheet: Sheet, report):
    return (
        {pos: (cell.formula_text if cell.is_formula else None, cell.value)
         for pos, cell in sheet.items()},
        report.moved, report.rewritten, report.resized,
        report.volatile, report.ref_struck, report.removed,
    )


def canonicalize(state):
    """Formula text compared by parsed meaning: the fast path keeps the
    verbatim source, the AST path renders canonically."""
    from repro.formula.parser import parse_formula

    cells, *rest = state
    canon = {}
    for pos, (text, value) in cells.items():
        key = parse_formula(text).to_formula() if text is not None else None
        canon[pos] = (key, value)
    return (canon, *rest)


@pytest.mark.parametrize("op,index,count", OPS)
def test_prescreened_equals_full_ast_path(op, index, count):
    fast_sheet = build(FORMULAS)
    oracle_sheet = build(FORMULAS)
    fast_report = run_op(fast_sheet, op, index, count, prescreen=True)
    oracle_report = run_op(oracle_sheet, op, index, count, prescreen=False)
    assert canonicalize(outcome(fast_sheet, fast_report)) == \
        canonicalize(outcome(oracle_sheet, oracle_report))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_prescreened_equals_full_ast_path_generated(data):
    formulas = data.draw(st.lists(st.sampled_from(FORMULAS), min_size=1,
                                  max_size=6))
    op = data.draw(st.sampled_from([o for o, _, _ in OPS]))
    index = data.draw(st.integers(1, 8))
    count = data.draw(st.integers(1, 3))
    fast_sheet = build(formulas)
    oracle_sheet = build(formulas)
    fast_report = run_op(fast_sheet, op, index, count, prescreen=True)
    oracle_report = run_op(oracle_sheet, op, index, count, prescreen=False)
    assert canonicalize(outcome(fast_sheet, fast_report)) == \
        canonicalize(outcome(oracle_sheet, oracle_report))


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
    """Members of an autofilled column that sit above the edit line and
    reference nothing at or below it stay as they are (one run record on
    a columnar sheet), and no AST is materialised for them; the ones the
    line reaches are rewritten."""
    sheet = Sheet("Main")
    fill_formula_column(sheet, 2, 1, 40, "=A1*2")
    before = {pos: cell for pos, cell in sheet.formula_cells()}
    built = []
    ast_at = FormulaTemplate.ast_at
    with mock.patch.object(FormulaTemplate, "ast_at",
                           lambda self, col, row: built.append(row) or ast_at(self, col, row)):
        report = structural.insert_rows(sheet, 31, 2)
    assert sorted(built) == list(range(31, 41))        # only the members that move
    template = before[(2, 1)].template
    assert sheet.run_index(join=False)[2][0] == (1, 30, template, "A1*2")
    assert report.moved == {(2, r) for r in range(33, 43)}
    assert sheet.cell_at("B42").formula_text == "(A42*2)"


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
    assert report.rewritten == {(1, 1)}
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
