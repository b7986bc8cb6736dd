"""Structural edits decide per run record: a differential over both stores.

``sheet.structural`` cuts every run record into pieces whose members all
land their references on the same side of the edit, and rewrites each
piece once.  Random families — fixed, mixed and crossed corners,
``ROW()``, references that coincide at one host, self- and other-sheet
qualifiers — and typed cells, parsed or not, go through all four ops.
After every edit the sheet is checked against the per-member reference
(``helpers.structural_reference``): values, formula texts by meaning,
report cells and run records.  A sibling sheet goes through the
cross-sheet pass beside it.  Both stores run: the columnar one and the
seed's per-cell store.
"""

from collections import Counter
from unittest import mock

import pytest
from helpers import (
    assert_matches_reference,
    build_ledger_sheet,
    canonical,
    structural_reference,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.object_store import ObjectSheet
from repro.formula.template import FormulaTemplate
from repro.sheet import structural
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.sheet.structural import STRUCTURAL_OPS, rewrite_for_edit

ROWS = 12
STORES = {"columnar": Sheet, "object": ObjectSheet}


@st.composite
def corners(draw) -> str:
    return "".join((
        draw(st.sampled_from(("", "$"))), draw(st.sampled_from("ABCDEF")),
        draw(st.sampled_from(("", "$"))), str(draw(st.integers(1, ROWS + 2))),
    ))


@st.composite
def terms(draw, qualifiers) -> str:
    qualifier = draw(st.sampled_from(qualifiers))
    kind = draw(st.sampled_from(("cell", "range", "row", "coincide")))
    if kind == "cell":
        return qualifier + draw(corners())
    if kind == "range":         # corners drawn apart cross as often as not
        return f"SUM({qualifier}{draw(corners())}:{draw(corners())})"
    if kind == "row":
        return draw(st.sampled_from(("ROW()", f"ROW({draw(corners())})")))
    col = draw(st.sampled_from("ABC"))
    row, fixed = draw(st.integers(1, ROWS)), draw(st.integers(1, ROWS))
    return f"{qualifier}{col}{row}+{col}${fixed}"     # meets at one host


@st.composite
def formulas(draw, qualifiers) -> str:
    return "=" + "+".join(draw(st.lists(terms(qualifiers), min_size=1, max_size=3)))


def build(draw, cls, name: str, qualifiers) -> Sheet:
    sheet = cls(name)
    for r in range(1, ROWS + 1):
        sheet.set_value((1, r), float(r))
        sheet.set_value((2, r), float(r * 3))
    for _ in range(draw(st.integers(1, 3))):
        col, first = draw(st.integers(3, 6)), draw(st.integers(1, ROWS))
        last = draw(st.integers(first, ROWS))
        fill_formula_column(sheet, col, first, last, draw(formulas(qualifiers)))
    for _ in range(draw(st.integers(0, 3))):
        pos = (draw(st.integers(3, 7)), draw(st.integers(1, ROWS)))
        sheet.set_formula(pos, draw(formulas(qualifiers)))
        if draw(st.booleans()):
            sheet.formula_at(pos).template      # parsed: its record learns it
    for pos, cell in list(sheet.formula_cells()):
        cell.value = float(pos[0] * 100 + pos[1])
    return sheet


@pytest.mark.parametrize("store", sorted(STORES))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_record_pass_equals_the_per_member_reference(store, data):
    cls = STORES[store]
    sheet = build(data.draw, cls, "S", ("", "", "S!", "Other!"))
    sibling = build(data.draw, cls, "T", ("S!", "S!", "", "T!"))
    for _ in range(data.draw(st.integers(1, 2))):
        op = data.draw(st.sampled_from(sorted(STRUCTURAL_OPS)))
        index, count = data.draw(st.integers(1, ROWS + 2)), data.draw(st.integers(1, 3))
        reference = structural_reference(sheet, op, index, count)
        sibling_reference = structural_reference(sibling, op, index, count, target="S")
        report = getattr(structural, op)(sheet, index, count)
        assert_matches_reference(sheet, report, reference)
        sibling_report = rewrite_for_edit(sibling, "S", op, index, count)
        assert_matches_reference(sibling, sibling_report, sibling_reference)


def test_a_ledger_insert_decides_per_piece():
    """The ledger's ``insert_rows`` through its middle: one AST and one
    intern per piece, two templates changed (C's first member below the
    line and the F1 sentinel), and what is left equals a fresh grouping
    of the same texts — and a fresh graph."""
    from helpers import dependency_set

    from repro.core.taco_graph import build_from_sheet
    from repro.engine.recalc import RecalcEngine

    rows = 600
    sheet = build_ledger_sheet(rows)
    sheet.run_index()                               # parse the typed cells
    calls: Counter = Counter()
    ast_at, run_pieces = FormulaTemplate.ast_at, FormulaTemplate.run_pieces
    intern = structural.intern_template

    def count(name, fn):
        def spy(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += len(result) if name == "pieces" else 1
            return result
        return spy

    with mock.patch.object(FormulaTemplate, "ast_at", count("ast_at", ast_at)), \
            mock.patch.object(FormulaTemplate, "run_pieces", count("pieces", run_pieces)), \
            mock.patch.object(structural, "intern_template", count("intern", intern)):
        report = structural.insert_rows(sheet, rows // 2, 3)
    assert calls["ast_at"] <= calls["pieces"] and calls["intern"] <= calls["pieces"]
    assert sum(rng.size for rng in report.rewritten) == 2
    fresh = Sheet("Ledger")
    for pos, cell in sheet.formula_cells():
        fresh.set_formula(pos, canonical(cell.formula_text))
    assert [(col, a, b, t.key) for col, runs in sheet.run_index().items() for a, b, t in runs] \
        == [(col, a, b, t.key) for col, runs in fresh.run_index().items() for a, b, t in runs]

    sheet = build_ledger_sheet(rows)
    engine = RecalcEngine(sheet)
    engine.recalculate_all()
    result = engine.insert_rows(rows // 2, 3)
    assert result.rewritten_formulas == 2
    assert dependency_set(engine.graph) == dependency_set(build_from_sheet(sheet))
