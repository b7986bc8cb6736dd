"""Greedy compression of dependencies into the graph (paper Algorithm 2).

Exact edge minimisation (CEM) is NP-hard (Theorem 1; see
:mod:`repro.core.optimal` for the exact solver used to demonstrate it), so
TACO inserts dependencies one at a time:

1. *Find candidate edges*: edges whose dependent range is adjacent to the
   new formula cell along the row or column axis, found by probing the
   vertex index around the cell.
2. *Find valid candidates*: ask each pattern's ``addDep`` whether the
   dependency fits (``try_pair`` for uncompressed candidates, the edge's
   own ``try_merge`` otherwise).
3. *Select the final edge* by the paper's heuristics: column-wise
   compression first, then special-case patterns (RR-Chain over RR), then
   the dollar-sign cue, then deterministic tie-breaks.

:func:`insert_dependency` is that algorithm, one dependency at a time.
:func:`insert_run` is the same three steps taken once for a whole
autofill run: an autofilled column states up front that its members'
references move in lock-step, so steps 1-3 are run for the run's *first*
cell (what is already there that each reference joins?) and its *second*
(which edge does each reference carry on from?), and the edges they
settle on are stretched to the last cell directly — every cell in
between would have found exactly those edges as its only column-wise
candidates and been absorbed by ``try_merge``.  The heuristics exist
once (:func:`select_final_edge`); the run path only skips repeating them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sheet.sheet import Dependency
from .patterns.base import COLUMN_AXIS, CompressedEdge, run_axis
from .patterns.single import SINGLE

if TYPE_CHECKING:  # pragma: no cover
    from .taco_graph import TacoGraph

__all__ = ["insert_dependency", "insert_run", "select_final_edge"]


def _merges_into(
    graph: "TacoGraph", edge: CompressedEdge, dependency: Dependency
) -> list[tuple[CompressedEdge, CompressedEdge]]:
    """Step 2 for one candidate: ``(merged, edge)`` for every way the
    dependency fits it — any graph pattern for a Single, the edge's own
    pattern otherwise."""
    if edge.pattern is SINGLE:
        merges = [pattern.try_pair(edge, dependency) for pattern in graph.patterns]
    else:
        merges = [edge.pattern.try_merge(edge, dependency)]
    return [(merged, edge) for merged in merges if merged is not None]


def _valid_merges(
    graph: "TacoGraph", dependency: Dependency
) -> list[tuple[CompressedEdge, CompressedEdge]]:
    """Steps 1-2: ``(merged, old)`` for every adjacent edge the dependency fits."""
    return [
        pair
        for candidate in graph.candidate_edges(dependency.dep.head)
        for pair in _merges_into(graph, candidate, dependency)
    ]


def insert_dependency(graph: "TacoGraph", dependency: Dependency) -> CompressedEdge:
    """Compress one dependency into the graph; returns the edge it landed in."""
    valid = _valid_merges(graph, dependency)
    if valid:
        merged, old = select_final_edge(graph, valid, dependency)
        graph.remove_edge(old)
        graph.add_edge_raw(merged)
        return merged
    fresh = CompressedEdge(dependency.prec, dependency.dep, SINGLE, None)
    graph.add_edge_raw(fresh)
    return fresh


def insert_run(
    graph: "TacoGraph",
    first: list[Dependency],
    second: list[Dependency],
    last: list[Dependency],
) -> bool:
    """Insert a vertical autofill run: one edge per reference.

    ``first``, ``second`` and ``last`` hold the dependencies of the run's
    first, second and last formula cells, reference by reference
    (``second is last`` for a run of two); the cells in between are
    implied — one column, consecutive rows, every precedent corner either
    fixed or moving with the row.

    Algorithm 2 decides the edges exactly as it would cell by cell.  Each
    reference of the first cell joins an adjacent edge if one fits (the
    run above with the same reference shape, a lone formula it pairs
    with) and otherwise starts as a Single.  Each reference of the second
    cell then chooses, by :func:`select_final_edge`, among the edges of
    the first cell; when it chooses its own reference's edge, so will
    every cell after it, and the edge is stretched to ``last`` and goes
    in with one ``add_edge_raw`` — two index inserts per edge, not per
    dependency.

    Returns ``False``, graph untouched, when the second cell does not
    carry on the first cell's edges one for one — a reference merged
    row-wise into a fill on its left, no pattern of this graph pairs
    the two cells, the tie-breaks prefer a sibling reference's edge —
    and the caller streams the run through :func:`insert_dependency`.

    Sound for column-first graphs whose patterns only reach adjacent
    cells (``prefer_column`` and reach 1 — ``build_from_sheet`` checks):
    there a cell's column-wise candidates are exactly the edges ending on
    the cell above it, and a pattern's meta does not change as its edge
    grows.
    """
    replaced: list[CompressedEdge | None] = []
    edges: list[CompressedEdge] = []
    for dependency in first:
        valid = _valid_merges(graph, dependency)
        joined, old = (
            select_final_edge(graph, valid, dependency) if valid
            else (SINGLE.make(dependency), None)
        )
        if old is not None and any(old is other for other in replaced):
            return False
        edges.append(joined)
        replaced.append(old)
    for k, dependency in enumerate(second):
        valid = [pair for edge in edges for pair in _merges_into(graph, edge, dependency)]
        if not valid:
            return False
        grown, chosen = select_final_edge(graph, valid, dependency)
        if chosen is not edges[k]:
            return False
        edges[k] = grown
    for old, edge, tail in zip(replaced, edges, last):
        if old is not None:
            graph.remove_edge(old)
        if second is not last:
            edge = CompressedEdge(
                edge.prec.bounding(tail.prec), edge.dep.bounding(tail.dep),
                edge.pattern, edge.meta,
            )
        graph.add_edge_raw(edge)
    return True


def select_final_edge(
    graph: "TacoGraph",
    valid: list[tuple[CompressedEdge, CompressedEdge]],
    dependency: Dependency,
) -> tuple[CompressedEdge, CompressedEdge]:
    """Rank valid merges by the paper's heuristics and return the best."""
    pattern_priority = graph.pattern_priority

    def score(pair: tuple[CompressedEdge, CompressedEdge]):
        merged, old = pair
        column_wise = run_axis(merged.dep) == COLUMN_AXIS
        cue_hit = graph.use_cues and merged.pattern.cue == dependency.cue
        return (
            0 if (column_wise or not graph.prefer_column) else 1,
            0 if merged.pattern.is_special else 1,
            0 if cue_hit else 1,
            # Prefer growing an existing compressed run over pairing two
            # singles; larger runs first.
            0 if old.pattern is not SINGLE else 1,
            -old.dep.size,
            pattern_priority.get(merged.pattern.name, len(pattern_priority)),
            old.prec.as_tuple(),
            old.dep.as_tuple(),
        )

    return min(valid, key=score)
