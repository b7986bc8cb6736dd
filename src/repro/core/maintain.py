"""Incremental maintenance of the compressed graph (paper Sec. IV-C).

Inserts go through Algorithm 2 (:mod:`repro.core.compress`).  Clearing a
run of formula cells finds the edges whose dependents overlap the cleared
range through the vertex index, asks each pattern's ``remove_dep`` for the
surviving edges, and swaps them in — no decompression.  An update is
modelled as clear + insert, as in the paper.

Batch commits add a second mode on top of the per-edit primitives:

* :func:`coalesce_cells` merges an edited cell set into its exact
  rectangle cover, so one ``clear_cells`` index search (and one pattern
  ``remove_dep`` split per touched edge) replaces per-cell maintenance;
* :func:`batch_update` wraps a whole clear+insert wave in the graph's
  deferred-maintenance mode, feeding the insertions column-major (the
  order that maximises pattern merges) and letting the graph settle its
  vertex indexes once at the end — replaying the queued deletes when the
  batch was small, bulk-repacking (STR on the R-Tree) when it was large.

Maintenance invariant, both modes: after any sequence of clears and
inserts, :meth:`TacoGraph.decompress` equals the raw dependency set the
same sequence would leave in an uncompressed graph.  The compressed
*edge* set may differ between the two modes (greedy compression is order
sensitive); the represented dependencies never do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from ..grid.range import Range
from ..graphs.base import Budget
from ..sheet.sheet import Dependency

if TYPE_CHECKING:  # pragma: no cover
    from .taco_graph import TacoGraph

__all__ = [
    "BatchMaintenanceResult",
    "batch_update",
    "clear_cells",
    "coalesce_cells",
    "update_cell",
]


def clear_cells(graph: "TacoGraph", rng: Range, budget: Budget | None = None) -> int:
    """Remove the dependencies of all formula cells within ``rng``.

    One dependent-index search plus a constant-time ``remove_dep`` per
    overlapping edge: ``O(S + k)`` for ``k`` touched edges, where ``S``
    is the backend's search cost — never proportional to the number of
    raw dependencies the touched edges compress.  Returns the number of
    compressed edges actually removed or replaced — index hits whose
    dependent range turns out not to intersect the cleared range are not
    counted.
    """
    affected = graph.dep_overlapping(rng)
    touched = 0
    for edge in affected:
        if budget is not None:
            budget.check()
        overlap = rng.intersect(edge.dep)
        if overlap is None:
            continue
        replacements = edge.pattern.remove_dep(edge, overlap)
        graph.remove_edge(edge)
        for piece in replacements:
            graph.add_edge_raw(piece)
        touched += 1
    return touched


def update_cell(
    graph: "TacoGraph",
    cell: Range,
    new_dependencies: Iterable[Dependency],
    budget: Budget | None = None,
) -> None:
    """Replace a formula cell's dependencies (clear + insert)."""
    clear_cells(graph, cell, budget)
    for dependency in new_dependencies:
        if budget is not None:
            budget.check()
        graph.add_dependency(dependency, budget)


def coalesce_cells(positions: Iterable[tuple[int, int]]) -> list[Range]:
    """Exact rectangle cover of a cell set: column runs, then stripes.

    Cells are first merged into maximal vertical runs per column, then
    runs with identical row extents in consecutive columns are merged
    into one rectangle — so a rectangular edit region coalesces to a
    single range, a column edit to one run, and scattered edits stay
    single cells.  The cover is *exact* (no cell outside ``positions`` is
    covered), which matters because ``clear_cells`` clears every formula
    cell inside the ranges it is given.  ``O(n log n)`` in the number of
    cells.
    """
    runs: list[tuple[int, int, int]] = []  # (col, r1, r2)
    for col, row in sorted(set(positions)):
        if runs and runs[-1][0] == col and runs[-1][2] == row - 1:
            runs[-1] = (col, runs[-1][1], row)
        else:
            runs.append((col, row, row))
    # Merge consecutive columns whose runs span the same rows.
    by_rows: list[tuple[int, int, int, int]] = []  # (c1, c2, r1, r2)
    for col, r1, r2 in sorted(runs, key=lambda t: (t[1], t[2], t[0])):
        if by_rows and by_rows[-1][2:] == (r1, r2) and by_rows[-1][1] == col - 1:
            c1, _, _, _ = by_rows[-1]
            by_rows[-1] = (c1, col, r1, r2)
        else:
            by_rows.append((col, col, r1, r2))
    return [Range(c1, r1, c2, r2) for c1, c2, r1, r2 in by_rows]


class BatchMaintenanceResult(NamedTuple):
    """What one :func:`batch_update` did to the graph."""

    cleared_ranges: int
    edges_touched: int
    inserted: int
    repacked: bool


def batch_update(
    graph,
    cleared_ranges: Iterable[Range],
    new_dependencies: Iterable[Dependency],
    budget: Budget | None = None,
) -> BatchMaintenanceResult:
    """Apply a coalesced wave of clears and inserts in one deferred pass.

    Works on any :class:`~repro.graphs.base.FormulaGraph`; graphs that
    expose ``begin/end_deferred_maintenance`` (TACO) get their vertex
    index deletes queued and settled once — replayed when few, bulk
    repacked when the touched share is large (see
    :meth:`TacoGraph.end_deferred_maintenance`).  Insertions are sorted
    into column-major dependent order first, the same order a full build
    uses, so neighbouring formulas merge into compressed runs regardless
    of the order the batch recorded them in.
    """
    ranges = list(cleared_ranges)
    deps = sorted(new_dependencies, key=lambda d: (d.dep.c1, d.dep.r1))
    begin = getattr(graph, "begin_deferred_maintenance", None)
    end = getattr(graph, "end_deferred_maintenance", None)
    deferred = begin is not None and end is not None
    if deferred:
        begin()
    repacked = False
    touched = 0
    try:
        for rng in ranges:
            touched += graph.clear_cells(rng, budget) or 0
        for dep in deps:
            if budget is not None:
                budget.check()
            graph.add_dependency(dep, budget)
    finally:
        if deferred:
            repacked = end()
    return BatchMaintenanceResult(
        cleared_ranges=len(ranges),
        edges_touched=touched,
        inserted=len(deps),
        repacked=repacked,
    )
