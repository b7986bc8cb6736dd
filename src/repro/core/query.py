"""Querying the compressed graph without decompression (paper Algorithm 3).

A modified BFS: the frontier holds ranges, the vertex index finds the
compressed edges whose precedent overlaps the frontier, each pattern's
``find_dep`` computes — in constant time — which subset of the edge's
dependent range actually depends on the frontier, and a result
:class:`~repro.grid.rangeset.RangeSet` (backed by the graph's own index
backend) keeps only the not-yet-visited pieces.  Finding precedents is
the symmetric dual.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable

from ..grid.range import Range
from ..grid.rangeset import RangeSet
from ..graphs.base import Budget

if TYPE_CHECKING:  # pragma: no cover
    from .taco_graph import TacoGraph

__all__ = [
    "dependents_of_seeds",
    "find_dependents",
    "find_dependents_multi",
    "find_precedents",
]


def dependents_of_seeds(graph, seeds: Iterable[Range]) -> list[Range]:
    """Transitive dependents of ``seeds`` on *any* formula graph.

    Dispatches to the graph's ``find_dependents_multi`` (one shared BFS)
    when it has one — TACO does — and otherwise falls back to one
    ``find_dependents`` call per seed, deduplicating overlapping results
    through a :class:`~repro.grid.rangeset.RangeSet`.  This is the
    common dirty-set probe of the batch-commit and structural-edit
    pipelines.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    multi = getattr(graph, "find_dependents_multi", None)
    if multi is not None:
        return multi(seeds)
    merged = RangeSet(index=getattr(graph, "index_spec", "rtree"))
    for seed in seeds:
        for rng in graph.find_dependents(seed):
            merged.add_new(rng)
    return merged.ranges


def find_dependents(
    graph: "TacoGraph", rng: Range, budget: Budget | None = None
) -> list[Range]:
    """All ranges whose cells (transitively) depend on ``rng``.

    Cost is ``O(E' · (S + P))`` where ``E'`` is the number of compressed
    edges actually reached, ``S`` the backend's search cost and ``P`` the
    pattern's constant-time ``find_dep`` — independent of how many raw
    dependencies the reached edges compress away.
    """
    return find_dependents_multi(graph, (rng,), budget)


def find_dependents_multi(
    graph: "TacoGraph", seeds: Iterable[Range], budget: Budget | None = None
) -> list[Range]:
    """Dependents of *all* ``seeds`` in one BFS pass (batch-commit path).

    Seeding a single traversal with every edited range visits each
    compressed edge at most once per distinct overlap, instead of once
    per seed as repeated :func:`find_dependents` calls would; the shared
    :class:`~repro.grid.rangeset.RangeSet` also deduplicates dependents
    reachable from several seeds.  Returned ranges are disjoint.
    """
    queue: deque[Range] = deque(seeds)
    result = RangeSet(index=graph.index_spec)
    stats = graph.query_stats
    while queue:
        prec_to_visit = queue.popleft()
        for edge in graph.prec_overlapping(prec_to_visit):
            stats.edge_accesses += 1
            if budget is not None:
                budget.check()
            overlap = prec_to_visit.intersect(edge.prec)
            if overlap is None:
                continue
            for dep_range in edge.pattern.find_dep(edge, overlap):
                for fresh in result.add_new(dep_range):
                    queue.append(fresh)
    return result.ranges


def find_precedents(
    graph: "TacoGraph", rng: Range, budget: Budget | None = None
) -> list[Range]:
    """All ranges whose cells ``rng`` (transitively) depends on."""
    queue: deque[Range] = deque([rng])
    result = RangeSet(index=graph.index_spec)
    stats = graph.query_stats
    while queue:
        dep_to_visit = queue.popleft()
        for edge in graph.dep_overlapping(dep_to_visit):
            stats.edge_accesses += 1
            if budget is not None:
                budget.check()
            overlap = dep_to_visit.intersect(edge.dep)
            if overlap is None:
                continue
            for prec_range in edge.pattern.find_prec(edge, overlap):
                for fresh in result.add_new(prec_range):
                    queue.append(fresh)
    return result.ranges
