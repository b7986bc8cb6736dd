"""A template member equals the per-cell oracle, without its own AST.

A formula cell is *(template, host)*; everything it reports is derived
from the family's anchor.  The oracle is what the sheet used to store
per cell: the anchor's AST under the autofill shift, walked
(``extract_references``), rendered relative to the host (``to_r1c1``)
and rendered as text (``to_formula``).  Generated anchors mix ``$``
markers on cells and range corners, corners that cross under a shift
(``A$5:A1``), references that coincide only at some hosts, sheet
qualifiers, and hosts near both edges of the grid — where a shift leaves
it and the member must fall out of the family with a ``#REF!`` literal.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formula.ast_nodes import (
    BinaryOp,
    CellNode,
    ErrorLiteral,
    FunctionCall,
    Number,
    RangeNode,
    walk,
)
from repro.formula.evaluator import Evaluator
from repro.formula.parser import parse_formula
from repro.formula.r1c1 import to_r1c1
from repro.formula.references import extract_references
from repro.formula.template import intern_template
from repro.grid.ref import MAX_COL, MAX_ROW, CellRef
from repro.sheet.sheet import Sheet

# Few distinct coordinates, so references collide and corners cross
# often; both edges of the grid, so shifts fall off either side.
COLS = st.one_of(st.integers(1, 6), st.integers(MAX_COL - 3, MAX_COL))
ROWS = st.one_of(st.integers(1, 6), st.integers(MAX_ROW - 3, MAX_ROW))
SHEETS = st.sampled_from([None, None, "Data", "It's"])


@st.composite
def cell_refs(draw, cols, rows):
    return CellRef(draw(cols), draw(rows), draw(st.booleans()), draw(st.booleans()))


@st.composite
def references(draw, cols, rows):
    if draw(st.booleans()):
        return CellNode(draw(cell_refs(cols, rows)), draw(SHEETS))
    return RangeNode(draw(cell_refs(cols, rows)), draw(cell_refs(cols, rows)), draw(SHEETS))


@st.composite
def anchors(draw, cols=COLS, rows=ROWS):
    refs = draw(st.lists(references(cols, rows), min_size=1, max_size=5))
    body = FunctionCall("SUM", refs)
    if draw(st.booleans()):
        body = BinaryOp("+", body, BinaryOp("*", refs[0], Number(2.0)))
    return body


@settings(max_examples=300, deadline=None)
@given(anchor=anchors(), ac=COLS, ar=ROWS, mc=COLS, mr=ROWS)
def test_member_equals_per_cell_oracle(anchor, ac, ar, mc, mr):
    oracle = anchor.shifted(mc - ac, mr - ar)
    sheet = Sheet("S")
    sheet.set_formula_ast((ac, ar), anchor)
    family = sheet.formula_at((ac, ar)).template
    sheet.set_formula_template((mc, mr), family)
    member = sheet.formula_at((mc, mr))

    assert member.references == extract_references(oracle)
    assert member.template_key(mc, mr) == to_r1c1(oracle, mc, mr)
    assert member.formula_text == oracle.to_formula()
    assert member.formula_ast == oracle
    left_the_grid = any(isinstance(node, ErrorLiteral) for node in walk(oracle))
    assert (member.template is family) == (not left_the_grid)
    assert family.admits(mc, mr) == (not left_the_grid)


@settings(max_examples=300, deadline=None)
@given(anchor=anchors(), dc=st.integers(-8, 8), dr=st.integers(-8, 8))
def test_displaced_text_is_the_shifted_copys_text(anchor, dc, dr):
    """``to_formula(dc, dr)`` is the text of ``shifted(dc, dr)`` — same
    ``$`` markers, same sheet prefixes, ``#REF!`` where a reference leaves
    the grid — without the copy."""
    assert anchor.to_formula(dc, dr) == anchor.shifted(dc, dr).to_formula()
    assert anchor.to_formula(0, 0) == anchor.to_formula()


class _PositionResolver:
    """Every cell holds a number naming its own position."""

    lookup_probe = None

    def get_value(self, sheet, col, row):
        return float(col * 100 + row) + (0.5 if sheet else 0.0)

    def iter_cells(self, sheet, rng):
        for col, row in rng.cells():
            yield col, row, self.get_value(sheet, col, row)


NEAR = st.integers(1, 6)    # ranges small enough to sum cell by cell


@settings(max_examples=150, deadline=None)
@given(anchor=anchors(NEAR, NEAR), ac=NEAR, ar=NEAR, mc=NEAR, mr=NEAR)
def test_interpreter_walks_the_anchor_displaced(anchor, ac, ar, mc, mr):
    """Evaluating the anchor ``written_at`` its own host, on behalf of a
    member, is evaluating the member's shifted AST."""
    family = intern_template(anchor, ac, ar)
    if not family.admits(mc, mr):
        return
    interpreter = Evaluator(_PositionResolver())
    assert interpreter.evaluate(anchor, "S", mc, mr, written_at=(ac, ar)) == \
        interpreter.evaluate(anchor.shifted(mc - ac, mr - ar), "S", mc, mr)


def test_references_that_coincide_only_at_some_hosts():
    sheet = Sheet("S")
    sheet.set_formula("B1", "=A1+$A$1")     # one dependency here ...
    family = sheet.formula_at("B1").template
    sheet.set_formula_template("B2", family)    # ... two one row down
    assert [r.cue for r in sheet.formula_at("B1").references] == ["RR"]
    assert [(r.range.to_a1(), r.cue) for r in sheet.formula_at("B2").references] == \
        [("A2", "RR"), ("A1", "FF")]


def test_templates_are_interned_weakly():
    ast = parse_formula("=A1*31337")
    family = intern_template(ast, 2, 1)
    assert intern_template(ast.shifted(0, 4), 2, 5) is family
    key = family.key
    del family
    gc.collect()
    from repro.formula import template as module

    assert key not in module._TEMPLATES
