"""The run-granular build is Algorithm 2's build, reached without the walk.

``build_from_sheet`` builds a TACO graph from the sheet's autofill runs
(one ``insert_run`` per run and reference); the differential oracle is
the column-major stream, ``TacoGraph.build(dependencies_column_major(
sheet))``, which it must match edge for edge (hence on the decompressed
dependency multiset and the edge count) and agree with on every query —
for every graph variant.  Generated sheets draw their fills from a small pool of
templates with few distinct coordinates, so that fills stack, cross,
overlap (a row fill through the head of a column fill), share geometry
across templates (``=A1+1`` above ``=A2*2``), and hold references whose
corners cross (``A$5:A1``) or coincide at some hosts only (``A1+A$5``).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.object_store import ObjectSheet
from repro.core.patterns import extended_patterns
from repro.core.taco_graph import TacoGraph, build_from_sheet, dependencies_column_major
from repro.engine.recalc import RecalcEngine
from repro.formula.references import extract_references
from repro.graphs.base import Budget, DNFError, expand_cells
from repro.graphs.nocomp import NoCompGraph
from repro.grid.range import Range
from repro.grid.ref import format_cell
from repro.sheet.autofill import autofill, fill_formula_column
from repro.sheet.sheet import Sheet
from repro.sheet.structural import insert_rows

SIDE = 12   # fills start inside A1:L12 and run at most 8 cells on

VARIANTS = {
    "full": TacoGraph.full,
    "inrow": TacoGraph.inrow,
    "extended": lambda: TacoGraph(patterns=extended_patterns()),
    "no-cues": lambda: TacoGraph.full(use_cues=False),
    "gridbucket": lambda: TacoGraph.full(index="gridbucket"),
    "row-first": lambda: TacoGraph.full(prefer_column=False),
}

# One corner axis of a template reference: ``$``-fixed at a coordinate,
# or relative at an offset from wherever the fill starts.
AXES = st.one_of(
    st.tuples(st.just(True), st.integers(1, 6)),
    st.tuples(st.just(False), st.integers(-2, 2)),
)
CORNERS = st.tuples(AXES, AXES)


@st.composite
def reference_shapes(draw):
    head = draw(CORNERS)
    tail = draw(CORNERS) if draw(st.booleans()) else None
    return head, tail, draw(st.sampled_from([None, None, None, "S", "Other"]))


TEMPLATES = st.tuples(
    st.lists(reference_shapes(), min_size=1, max_size=3),
    st.sampled_from(["+1", "*2"]),      # same geometry, different template
)


def _corner_text(corner, col: int, row: int) -> str:
    (col_fixed, c), (row_fixed, r) = corner
    return format_cell(
        c if col_fixed else max(1, col + c), r if row_fixed else max(1, row + r),
        col_fixed, row_fixed,
    )


def formula_at(template, col: int, row: int) -> str:
    """The template's formula as typed into ``(col, row)``."""
    shapes, suffix = template
    refs = []
    for head, tail, sheet in shapes:
        text = _corner_text(head, col, row)
        if tail is not None:
            text += ":" + _corner_text(tail, col, row)
        refs.append(text if sheet is None else f"{sheet}!{text}")
    return f"=SUM({','.join(refs)}){suffix}"


FILLS = st.tuples(
    st.sampled_from(["down", "down", "right", "block", "single", "blank"]),
    st.integers(0, 3),                                  # template (mod pool size)
    st.integers(1, SIDE), st.integers(1, SIDE),         # origin
    st.integers(2, 8), st.integers(2, 4),               # length, block width
)


#: The store-layer oracle: every stream below is read off the columnar
#: store and off the seed's per-cell store alike.
SHEETS = {"columnar": Sheet, "object": ObjectSheet}


@st.composite
def sheets(draw) -> Sheet:
    pool = draw(st.lists(TEMPLATES, min_size=1, max_size=4))
    sheet = draw(st.sampled_from(list(SHEETS.values())))("S")
    for kind, which, col, row, length, width in draw(st.lists(FILLS, min_size=1, max_size=8)):
        if kind == "blank":     # a gap punched into whatever was filled before
            sheet.clear_cell((col, row))
            continue
        sheet.set_formula((col, row), formula_at(pool[which % len(pool)], col, row))
        if kind == "down":
            autofill(sheet, (col, row), Range(col, row, col, row + length - 1))
        elif kind == "right":
            autofill(sheet, (col, row), Range(col, row, col + length - 1, row))
        elif kind == "block":
            autofill(sheet, (col, row), Range(col, row, col + width - 1, row + length - 1))
    return sheet


PROBES = st.builds(
    lambda c, r, w, h: Range(c, r, c + w, r + h),
    st.integers(1, SIDE + 8), st.integers(1, SIDE + 8), st.integers(0, 2), st.integers(0, 4),
)


def multiset(graph) -> Counter:
    return Counter((d.prec, d.dep) for d in graph.decompress())


def edge_list(graph) -> list[str]:
    return sorted(edge.describe() for edge in graph.edges())


def stream_built(variant: str, sheet: Sheet) -> TacoGraph:
    graph = VARIANTS[variant]()
    graph.build(dependencies_column_major(sheet))
    return graph


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@settings(max_examples=120, deadline=None)
@given(sheet=sheets(), probes=st.lists(PROBES, min_size=1, max_size=4), cleared=PROBES)
def test_run_build_matches_the_stream(variant, sheet, probes, cleared):
    runs = build_from_sheet(sheet, graph=VARIANTS[variant]())
    stream = stream_built(variant, sheet)

    assert multiset(runs) == multiset(stream)
    assert len(runs) <= len(stream)
    # Stronger than the two above: the second cell of every run chooses
    # its edge by select_final_edge over Algorithm 2's own candidates, so
    # the run build ends on the stream's edges, pattern for pattern.
    assert edge_list(runs) == edge_list(stream)
    for probe in probes:
        assert expand_cells(runs.find_dependents(probe)) == \
            expand_cells(stream.find_dependents(probe))
        assert expand_cells(runs.find_precedents(probe)) == \
            expand_cells(stream.find_precedents(probe))

    # Maintenance on a run-built graph: clear a region's formulas, put
    # them back one dependency at a time, and nothing is lost or doubled.
    runs.clear_cells(cleared)
    for dependency in dependencies_column_major(sheet):
        if cleared.contains(dependency.dep):
            runs.add_dependency(dependency)
    assert multiset(runs) == multiset(stream)


def test_stacked_templates_with_one_reference_shape_share_an_edge():
    sheet = Sheet("S")
    fill_formula_column(sheet, 2, 1, 5, "=A1+1")
    fill_formula_column(sheet, 2, 6, 9, "=A6*2")
    graph = build_from_sheet(sheet)
    assert edge_list(graph) == ["A1:A9 -> B1:B9 [RR]"]


def test_crossing_corners_split_where_algorithm_2_splits_them():
    sheet = Sheet("S")
    fill_formula_column(sheet, 2, 1, 9, "=SUM(A$5:A1)")
    graph = build_from_sheet(sheet)
    assert edge_list(graph) == ["A1:A5 -> B1:B5 [RF]", "A5:A9 -> B6:B9 [FR]"]
    assert multiset(graph) == multiset(stream_built("full", sheet))


def test_a_row_fill_through_the_head_of_a_column_fill():
    """Algorithm 2 gives the shared corner to the row-wise edge (it got
    there first); the run path must not end up with an edge more."""
    sheet = Sheet("S")
    sheet.set_formula("B5", "=B4")
    autofill(sheet, "B5", Range(2, 5, 4, 5))        # B5:D5
    autofill(sheet, "B5", Range(3, 5, 3, 9))        # C5:C9, same template
    runs, stream = build_from_sheet(sheet), stream_built("full", sheet)
    assert edge_list(runs) == edge_list(stream) == \
        ["B4:D4 -> B5:D5 [RR]", "C5:C8 -> C6:C9 [RR-Chain]"]


def test_without_the_cue_a_sibling_reference_can_win_the_second_cell():
    """``$A$3`` at I2 pairs with ``$A$2`` at I1 as RR (same offsets, and
    RR outranks FF once the ``$`` cue is off): the run declines and the
    stream's odd-looking edges are reproduced, not improved on."""
    sheet = Sheet("S")
    sheet.set_formula("I1", "=SUM($A$3,$A$2)")
    autofill(sheet, "I1", Range(9, 1, 9, 2))
    graph = TacoGraph.full(use_cues=False)
    assert edge_list(build_from_sheet(sheet, graph=graph)) == \
        edge_list(stream_built("no-cues", sheet)) == \
        ["A2 -> I2 [Single]", "A2:A3 -> I1:I2 [RR]", "A3 -> I1 [Single]"]
    assert edge_list(build_from_sheet(sheet)) == ["A2 -> I1:I2 [FF]", "A3 -> I1:I2 [FF]"]


# -- the stream itself, against a per-cell oracle --------------------------------


def per_cell_stream(sheet: Sheet) -> list[tuple]:
    """What the stream must be, worked out with nothing the sheet's own
    stream uses: every formula cell's own AST, its references into this
    sheet (a qualifier naming it is no qualifier) with repeats of one
    range collapsed onto the first, cells in column-major order."""
    out = []
    for (col, row), cell in sorted(sheet.formula_cells()):
        seen = set()
        for ref in extract_references(cell.formula_ast):
            if ref.sheet in (None, sheet.name) and ref.range not in seen:
                seen.add(ref.range)
                out.append((ref.range, Range.cell(col, row), ref.cue))
    return out


def streamed(sheet: Sheet) -> list[tuple]:
    return [(d.prec, d.dep, d.cue) for d in dependencies_column_major(sheet)]


@settings(max_examples=150, deadline=None)
@given(sheet=sheets())
def test_the_stream_is_the_per_cell_oracle_in_column_major_order(sheet):
    assert streamed(sheet) == per_cell_stream(sheet)
    assert [(d.prec, d.dep, d.cue) for d in sheet.iter_dependencies()] == streamed(sheet)
    for (col, row), cell in sheet.formula_cells():
        assert [(d.prec, d.dep, d.cue) for d in sheet.dependencies_at(cell.template, col, row)] \
            == [dep for dep in per_cell_stream(sheet) if dep[1] == Range.cell(col, row)]


@pytest.mark.parametrize("store", ["columnar", "object"])
@pytest.mark.parametrize("text,rows", [
    ("=SUM(A$5:A1)", (1, 9)),            # corners cross at row 5
    ("=A1+A$5", (1, 9)),                 # coincide at row 5 only
    ("=A1+S!A1", (1, 9)),                # coincide everywhere, by the sheet's own name
    ("=A1+S!A$5", (1, 9)),               # both at once
    ("=A1+Other!A1+Other!B$2", (1, 9)),  # other sheets contribute nothing
    ("=SUM(S!A1:A3,A3:A1)", (1, 9)),     # one range, corners written both ways
    ("=A3+B4", (4, 9)),                  # filled up as well: a #REF! head
])
def test_the_stream_on_the_shapes_that_break_a_run(store, text, rows):
    sheet = SHEETS[store]("S")
    first, last = rows
    sheet.set_formula((3, first), text)
    autofill(sheet, (3, first), Range(3, 1, 3, last))
    sheet.set_formula((3, 7), "=A7*2")              # a typed cell inside the family
    assert streamed(sheet) == per_cell_stream(sheet)
    assert multiset(build_from_sheet(sheet)) == multiset(stream_built("full", sheet))
    assert edge_list(build_from_sheet(sheet)) == edge_list(stream_built("full", sheet))


def test_a_reference_qualified_with_the_sheets_own_name_is_one_dependency():
    """``=A1+S!A1`` on sheet ``S`` used to stream ``A1 -> B1`` twice."""
    sheet = Sheet("S")
    fill_formula_column(sheet, 2, 1, 9, "=A1+S!A$5")
    assert [d.prec.to_a1() for d in sheet.dependencies_at(sheet.formula_at("B5").template, 2, 5)] \
        == ["A5"]
    assert sheet.formula_at("B1").template.run_pieces(2, 1, 9, "S") == [(1, 4), (5, 5), (6, 9)]
    assert sheet.formula_at("B1").template.run_pieces(2, 1, 9, "Other") == [(1, 9)]
    assert len(dependencies_column_major(sheet)) == 17
    nocomp = NoCompGraph()
    nocomp.build(dependencies_column_major(sheet))
    assert sorted(nocomp._adjacency[Range.cell(1, 5)]) == [(2, r) for r in range(1, 10)]
    graph = build_from_sheet(sheet)
    assert graph.raw_edge_count() == 17 and multiset(graph) == multiset(stream_built("full", sheet))
    engine = RecalcEngine(sheet, graph)
    engine.set_formula("B5", "=A5+S!A5")                # the edit path collapses too
    assert multiset(graph)[(Range.cell(1, 5), Range.cell(2, 5))] == 1


def every_pattern_sheet(store: str) -> Sheet:
    """FF, FR, RF and RR columns, a chain, a Fig. 2 IF-chain, cells with
    several references (repeats and a typed cell among them) and a lone
    formula: each run streams through the piece path, each lone cell
    through the one-row path."""
    sheet = SHEETS[store]("S")
    for row in range(1, 41):
        sheet.set_value((1, row), float(row % 5))
        sheet.set_value((2, row), float(row))
    fill_formula_column(sheet, 3, 1, 30, "=SUM($A$1:$B$4)")             # FF
    fill_formula_column(sheet, 4, 1, 30, "=SUM($A$1:A1)")               # FR
    fill_formula_column(sheet, 5, 1, 30, "=SUM(A1:$B$40)")              # RF
    fill_formula_column(sheet, 6, 1, 30, "=A1+B2*SUM(A1:B3)")           # RR, several
    sheet.set_value((7, 1), 0.0)
    fill_formula_column(sheet, 7, 2, 30, "=G1+A2")                      # chain
    sheet.set_formula((8, 2), "=B2")
    fill_formula_column(sheet, 8, 3, 30, "=IF(A3=A2,H2+B3,B3)")        # Fig. 2
    fill_formula_column(sheet, 9, 1, 30, "=$B$1+A1+$B$1+S!A1+B$3")      # repeats
    sheet.set_formula((9, 12), "=A12*2")                                # typed cell
    sheet.set_formula((10, 7), "=SUM(A1:B9)+C7")                        # lone cell
    return sheet


@pytest.mark.parametrize("store", ["columnar", "object"])
def test_the_stream_of_every_pattern_is_the_per_cell_oracle(store):
    """Member-major and, inside a member, formula order — on the piece
    path (C iterators) and the one-row path alike."""
    sheet = every_pattern_sheet(store)
    stream = streamed(sheet)
    assert stream == per_cell_stream(sheet)
    # C, D, E: one each; F: three; G: two; H: one, then four; I: three
    # (S!A1 is A1), the typed cell one; J: two
    assert len(stream) == 3 * 30 + 3 * 30 + 2 * 29 + 1 + 4 * 28 + 3 * 29 + 1 + 2
    for (col, row), cell in sheet.formula_cells():
        assert [(d.prec, d.dep, d.cue) for d in sheet.dependencies_at(cell.template, col, row)] \
            == [dep for dep in stream if dep[1] == Range.cell(col, row)]
    # a reference fixed at both ends is one range down its whole column
    assert len({id(d.prec) for d in dependencies_column_major(sheet) if d.dep.c1 == 3}) == 1


# -- what the run path costs ---------------------------------------------------


def autofilled(rows: int) -> Sheet:
    sheet = Sheet("wide")
    fill_formula_column(sheet, 3, 1, rows, "=SUM(A1:B3)")
    fill_formula_column(sheet, 4, 1, rows, "=SUM($A$1:A1)*B1")
    fill_formula_column(sheet, 5, 2, rows, "=E1+C2")
    fill_formula_column(sheet, 6, 1, rows, "=VLOOKUP(A1,$A$1:$B$50,2,FALSE)")
    return sheet


def test_index_work_is_per_edge_not_per_dependency():
    sheet = autofilled(10_000)
    graph = build_from_sheet(sheet)
    assert len(graph) == 7
    assert graph.raw_edge_count() == len(dependencies_column_major(sheet))
    # The closing repack is a bulk load, counted apart from inserts.
    for index in (graph._prec_index, graph._dep_index):
        counts = index.op_counts()
        assert counts["insert_ops"] <= len(graph)      # one per edge per side
        assert counts["delete_ops"] == 0
        assert counts["bulk_loads"] == 1


# -- Sheet.formula_runs ----------------------------------------------------------


def brute_force_runs(sheet: Sheet):
    """Group cell by cell: same column, next row, same template object."""
    runs: list[list] = []
    for (col, row), cell in sorted(sheet.formula_cells()):
        if runs and runs[-1][0] is cell.template and runs[-1][1] == col and runs[-1][3] == row - 1:
            runs[-1][3] = row
        else:
            runs.append([cell.template, col, row, row])
    return [tuple(run) for run in runs]


@settings(max_examples=80, deadline=None)
@given(sheet=sheets())
def test_formula_runs_equal_a_brute_force_grouping(sheet):
    runs = list(sheet.formula_runs())
    assert runs == brute_force_runs(sheet)
    assert sum(r1 - r0 + 1 for _, _, r0, r1 in runs) == sheet.formula_count


@pytest.mark.parametrize("store", ["columnar", "object"])
def test_formula_runs_after_an_insert_through_a_family(store):
    sheet = SHEETS[store]("S")
    fill_formula_column(sheet, 2, 1, 10, "=A1*2")
    fill_formula_column(sheet, 3, 1, 10, "=SUM(A$1:A1)")
    assert [(col, r0, r1) for _, col, r0, r1 in sheet.formula_runs()] == [(2, 1, 10), (3, 1, 10)]
    insert_rows(sheet, 5, 2)
    runs = list(sheet.formula_runs())
    assert runs == brute_force_runs(sheet)
    assert {(col, r0, r1) for _, col, r0, r1 in runs} >= {(2, 1, 4), (2, 7, 12)}
    assert multiset(build_from_sheet(sheet)) == multiset(stream_built("full", sheet))


# -- budget, baselines, arguments ------------------------------------------------


def test_an_exhausted_budget_raises_from_the_run_path():
    with pytest.raises(DNFError):
        build_from_sheet(autofilled(50), budget=Budget(-1.0, "build"))


def test_other_graphs_take_the_stream_unchanged():
    sheet = autofilled(40)
    streamed = NoCompGraph()
    streamed.build(dependencies_column_major(sheet))
    built = build_from_sheet(sheet, graph=NoCompGraph())
    assert built.stats().as_dict() == streamed.stats().as_dict()
    probe = Range(1, 1, 2, 40)
    assert expand_cells(built.find_dependents(probe)) == expand_cells(streamed.find_dependents(probe))


def test_index_with_graph_is_an_error():
    with pytest.raises(ValueError, match="index="):
        build_from_sheet(Sheet("S"), graph=TacoGraph.full(), index="gridbucket")
