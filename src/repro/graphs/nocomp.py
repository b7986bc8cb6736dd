"""NoComp: the uncompressed formula graph baseline (paper Sec. IV-D).

Dependencies are stored raw in an adjacency list keyed by precedent range;
a spatial index over the vertices answers "which referenced ranges overlap
this query".  Finding dependents is a BFS whose frontier is made of
individual formula cells — no pattern knowledge, no compression — which is
precisely what makes it slow on spreadsheets with hundreds of thousands of
edges.

The vertex index is any registered spatial backend: :class:`NoCompGraph`
defaults to the R-Tree (the paper's NoComp) and
:class:`repro.graphs.calc.NoCompCalcGraph` selects the Calc-style
container index (the paper's NoComp-Calc).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from ..grid.range import Range
from ..grid.rangeset import RangeSet
from ..sheet.sheet import Dependency
from ..spatial.registry import IndexFactory, make_index
from .base import Budget, FormulaGraph, GraphStats

__all__ = ["NoCompGraph"]


class NoCompGraph(FormulaGraph):
    """Adjacency-list formula graph without compression."""

    name = "NoComp"

    def __init__(self, index: IndexFactory = "rtree"):
        self.index_spec = index
        # prec range -> list of dependent formula cells (col, row)
        self._adjacency: dict[Range, list[tuple[int, int]]] = {}
        # dep cell -> list of prec ranges
        self._reverse: dict[tuple[int, int], list[Range]] = {}
        self._prec_index = make_index(index)
        self._dep_index = make_index(index)
        self._edge_count = 0
        self._stats = GraphStats()

    # -- construction / maintenance -------------------------------------------

    def add_dependency(self, dep: Dependency, budget: Budget | None = None) -> None:
        prec, host = dep.prec, dep.dep
        cell = (host.c1, host.r1)
        dependents = self._adjacency.get(prec)
        if dependents is None:
            self._adjacency[prec] = [cell]
            self._prec_index.insert(prec, prec)
        else:
            dependents.append(cell)
        precs = self._reverse.get(cell)
        if precs is None:
            self._reverse[cell] = [prec]
            self._dep_index.insert(host, cell)
        else:
            precs.append(prec)
        self._edge_count += 1

    def build(self, deps: Iterable[Dependency], budget: Budget | None = None) -> None:
        """Bulk construction: fill the adjacency first — one loop, no
        call per dependency — then bulk-load the vertex indexes over the
        settled key sets (STR packing for the R-Tree) instead of
        inserting every vertex one at a time.  A formula cell is indexed
        under the host range the stream brought it with."""
        adjacency, reverse = self._adjacency, self._reverse
        # every formula cell's index key, in the order of ``reverse``
        hosts = {cell: Range.cell(*cell) for cell in reverse}
        edges = 0
        for prec, host, _ in deps:
            if budget is not None:
                budget.check()
            cell = host[:2]
            dependents = adjacency.get(prec)
            if dependents is None:
                adjacency[prec] = [cell]
            else:
                dependents.append(cell)
            precs = reverse.get(cell)
            if precs is None:
                reverse[cell] = [prec]
                hosts[cell] = host
            else:
                precs.append(prec)
            edges += 1
        self._edge_count += edges
        self._prec_index.bulk_load(zip(adjacency, adjacency))
        self._dep_index.bulk_load(zip(hosts.values(), hosts))

    def clear_cells(self, rng: Range, budget: Budget | None = None) -> None:
        self._stats.index_searches += 1
        hits = self._dep_index.search_items(rng)
        for key, cell in hits:
            if budget is not None:
                budget.check()
            precs = self._reverse.pop(cell, [])
            self._dep_index.delete(key, cell)
            for prec in precs:
                dependents = self._adjacency.get(prec)
                if dependents is None:
                    continue
                dependents.remove(cell)
                self._edge_count -= 1
                if not dependents:
                    del self._adjacency[prec]
                    # Delete by key only: the index holds exactly one
                    # entry per unique prec range, and `prec` here comes
                    # from the _reverse list — an *equal* Range, but not
                    # necessarily the same object the index stores, so an
                    # identity-matched (key, payload) delete can miss and
                    # leave a stale entry behind.
                    self._prec_index.delete(prec)

    # -- queries ---------------------------------------------------------------

    def find_dependents(self, rng: Range, budget: Budget | None = None) -> list[Range]:
        """BFS over raw edges; the result is a list of single cells."""
        visited: set[tuple[int, int]] = set()
        queue: deque[Range] = deque([rng])
        while queue:
            frontier = queue.popleft()
            self._stats.index_searches += 1
            for prec in self._prec_index.search_keys(frontier):
                for cell in self._adjacency[prec]:
                    self._stats.edge_accesses += 1
                    if budget is not None:
                        budget.check()
                    if cell in visited:
                        continue
                    visited.add(cell)
                    queue.append(Range.cell(*cell))
        return [Range.cell(*cell) for cell in visited]

    def find_precedents(self, rng: Range, budget: Budget | None = None) -> list[Range]:
        result = RangeSet(index=self.index_spec)
        queue: deque[Range] = deque([rng])
        while queue:
            frontier = queue.popleft()
            self._stats.index_searches += 1
            for _, cell in self._dep_index.search_items(frontier):
                for prec in self._reverse[cell]:
                    self._stats.edge_accesses += 1
                    if budget is not None:
                        budget.check()
                    for fresh in result.add_new(prec):
                        queue.append(fresh)
        return result.ranges

    def direct_dependents(self, rng: Range) -> list[Range]:
        """One-hop dependents (no transitive closure)."""
        out: list[Range] = []
        seen: set[tuple[int, int]] = set()
        for prec in self._prec_index.search_keys(rng):
            for cell in self._adjacency[prec]:
                if cell not in seen:
                    seen.add(cell)
                    out.append(Range.cell(*cell))
        return out

    def direct_precedents(self, rng: Range) -> list[Range]:
        out: list[Range] = []
        seen: set[Range] = set()
        for _, cell in self._dep_index.search_items(rng):
            for prec in self._reverse[cell]:
                if prec not in seen:
                    seen.add(prec)
                    out.append(prec)
        return out

    # -- introspection -----------------------------------------------------------

    def stats(self) -> GraphStats:
        self._stats.vertices = len(self._adjacency) + len(self._reverse)
        self._stats.edges = self._edge_count
        return self._stats

    def edges(self) -> Iterable[tuple[Range, tuple[int, int]]]:
        for prec, dependents in self._adjacency.items():
            for cell in dependents:
                yield prec, cell

    def formula_cells(self) -> list[tuple[int, int]]:
        return list(self._reverse)

    def precedent_ranges(self) -> list[Range]:
        return list(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}Graph(edges={self._edge_count}, precs={len(self._adjacency)})"
