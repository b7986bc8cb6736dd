"""Differential tests: one batched commit ≡ the same edits one-by-one.

The batch pipeline promises that a committed
:class:`~repro.engine.batch.BatchEditSession` leaves the system in the
same state as replaying the identical edit sequence through the per-edit
:class:`~repro.engine.recalc.RecalcEngine` paths:

* every cell value identical,
* the graph's decompressed dependency set identical (and equal to the
  ground truth enumerated from the final sheet),
* the spatial indexes consistent with the edge set (each live edge
  indexed exactly once per side, no stale entries), and
* dependents queries answering identically.

Hypothesis drives random edit sequences; the whole contract is asserted
for every registered spatial-index backend, on both the delete-replay
and bulk-repack commit paths.

Edits come from :func:`helpers.edits`; formulas read only columns left
of their own, so no sequence creates a cycle and the comparison is
total.  The per-edit side clears a range cell by cell, an independent
check of the batch's range-clear path.
"""

import pytest
from helpers import dependency_set, edits
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import taco_graph
from repro.core.taco_graph import TacoGraph, dependencies_column_major
from repro.engine.edits import ClearCell, ClearRange
from repro.engine.recalc import RecalcEngine
from repro.graphs.base import expand_cells
from repro.grid.range import Range
from repro.sheet.sheet import Sheet
from repro.spatial.registry import available_indexes

BACKENDS = available_indexes()
ROWS = 6


def build_base_sheet() -> Sheet:
    sheet = Sheet("diff")
    for col in (1, 2):
        for row in range(1, ROWS + 1):
            sheet.set_value((col, row), float(col * 10 + row))
    sheet.set_formula("C1", "=A1+B1")
    sheet.set_formula("C3", "=SUM(A1:A6)")
    sheet.set_formula("D2", "=C1*2")
    sheet.set_formula("E5", "=SUM(C1:D6)")
    return sheet


def make_engine(backend: str) -> RecalcEngine:
    sheet = build_base_sheet()
    graph = TacoGraph.full(index=backend)
    graph.build(dependencies_column_major(sheet))
    engine = RecalcEngine(sheet, graph)
    engine.recalculate_all()
    return engine


def apply_batched(engine: RecalcEngine, ops, **kwargs) -> None:
    with engine.begin_batch(**kwargs) as batch:
        for edit in ops:
            batch.apply(edit)


def all_values(sheet: Sheet) -> dict:
    return {pos: cell.value for pos, cell in sheet.items()}


def assert_indexes_consistent(graph: TacoGraph) -> None:
    edge_ids = {id(edge) for edge in graph.edges()}
    for index in (graph._prec_index, graph._dep_index):
        seen = [id(entry.payload) for entry in index]
        assert len(seen) == len(edge_ids)
        assert set(seen) == edge_ids


@pytest.mark.parametrize("backend", BACKENDS)
@given(ops=st.lists(edits(ROWS, ranges=True), min_size=1, max_size=20))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batched_commit_equals_one_by_one(backend, ops):
    sequential = make_engine(backend)
    batched = make_engine(backend)

    for edit in ops:
        if isinstance(edit, ClearRange):
            for pos in edit.rng.cells():
                sequential.apply(ClearCell(pos))
        else:
            sequential.apply(edit)
    apply_batched(batched, ops)

    # Values: every cell in either sheet, compared on both.
    assert all_values(batched.sheet) == all_values(sequential.sheet)
    # Graph: both decompress to the final sheet's exact dependency set.
    truth = {(d.prec.as_tuple(), d.dep.as_tuple())
             for d in sequential.sheet.iter_dependencies()}
    assert dependency_set(sequential.graph) == truth
    assert dependency_set(batched.graph) == truth
    # Spatial indexes: no stale entries, every edge indexed once per side.
    assert_indexes_consistent(sequential.graph)
    assert_indexes_consistent(batched.graph)
    # Queries answer identically on both graphs.
    for probe in (Range.from_a1("A1"), Range.from_a1("B3"), Range(1, 1, 2, 6)):
        assert expand_cells(batched.graph.find_dependents(probe)) == \
            expand_cells(sequential.graph.find_dependents(probe))


@pytest.mark.parametrize("backend", BACKENDS)
@given(ops=st.lists(edits(ROWS, ranges=True), min_size=5, max_size=20))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_repack_path_matches_replay_path(backend, ops):
    """Forcing the bulk-repack commit path changes nothing observable."""
    replayed = make_engine(backend)
    repacked = make_engine(backend)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(taco_graph, "REPACK_MIN", 10**9)     # always replay deletes
        apply_batched(replayed, ops)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(taco_graph, "REPACK_MIN", 0)
        mp.setattr(taco_graph, "REPACK_FRACTION", 0.0)
        apply_batched(repacked, ops)

    assert all_values(repacked.sheet) == all_values(replayed.sheet)
    assert dependency_set(repacked.graph) == dependency_set(replayed.graph)
    assert_indexes_consistent(replayed.graph)
    assert_indexes_consistent(repacked.graph)
