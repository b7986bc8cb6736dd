"""The TACO compressed formula graph.

Storage follows the paper's prototype (Sec. VI-A): compressed edges in an
adjacency structure with a spatial index over the vertices so that the
edges whose precedent (or dependent) overlaps an input range are found
quickly.  The index backend is pluggable (``index="rtree"`` by default;
see :mod:`repro.spatial`).  ``TacoGraph.full()`` is TACO-Full (all
predefined patterns); ``TacoGraph.inrow()`` is the TACO-InRow variant of
Sec. VI-B.

Two ways in.  ``TacoGraph.build(deps)`` / ``add_dependency`` are the
paper's Algorithm 2, one dependency at a time: incremental maintenance,
the baselines' ingest and the reference the other way is tested
against.  :func:`build_from_sheet` is "the graph of this sheet" — what
engines, snapshots and the CLI call — and builds a ``TacoGraph`` from the
sheet's autofill runs instead (:func:`repro.core.compress.insert_run`):
the same edges for one index insert pair per edge, not per dependency.

Maintenance invariants (paper Sec. IV-C):

* ``_edges`` is always the true compressed edge set; outside deferred
  mode both vertex indexes contain exactly one entry per edge per side.
* In deferred mode (:meth:`TacoGraph.begin_deferred_maintenance`, used
  by batch commits) the indexes may hold stale entries for removed
  edges; every lookup filters them, and
  :meth:`TacoGraph.end_deferred_maintenance` restores the exact-match
  invariant by replaying the queued deletes or bulk-repacking.
* :meth:`TacoGraph.decompress` always reconstructs the exact raw
  dependency set — compression and maintenance are lossless.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from ..bulk import bulk
from ..graphs.base import Budget, FormulaGraph, GraphStats
from ..grid.range import Range
from ..sheet.sheet import Dependency, Sheet
from ..spatial.registry import IndexFactory, make_index
from . import compress, maintain, query
from .patterns.base import CompressedEdge, Pattern
from .patterns.registry import default_patterns, inrow_patterns
from .patterns.single import SINGLE

__all__ = ["TacoGraph", "build_from_sheet", "dependencies_column_major"]


class TacoGraph(FormulaGraph):
    """Compressed formula graph with pattern-based edges."""

    name = "TACO"

    def __init__(
        self,
        patterns: list[Pattern] | None = None,
        use_cues: bool = True,
        prefer_column: bool = True,
        index: IndexFactory = "rtree",
    ):
        self.patterns = default_patterns() if patterns is None else list(patterns)
        self.use_cues = use_cues
        self.prefer_column = prefer_column
        self._reach = max((p.reach for p in self.patterns), default=1)
        # Selection-heuristic rank of each pattern, fixed at construction
        # so edge insertion does not rebuild it per dependency.
        self.pattern_priority = {p.name: i for i, p in enumerate(self.patterns)}
        self._edges: set[CompressedEdge] = set()
        self.index_spec = index
        self._prec_index = make_index(index)
        self._dep_index = make_index(index)
        self.query_stats = GraphStats()
        # Deferred-maintenance state (see begin_deferred_maintenance).
        self._deferred = False
        self._pending_index_deletes: list[CompressedEdge] = []

    # -- variants ---------------------------------------------------------------

    @classmethod
    def full(cls, **kwargs) -> "TacoGraph":
        return cls(patterns=default_patterns(), **kwargs)

    @classmethod
    def inrow(cls, **kwargs) -> "TacoGraph":
        graph = cls(patterns=inrow_patterns(), **kwargs)
        graph.name = "TACO-InRow"
        return graph

    # -- edge storage -----------------------------------------------------------

    def add_edge_raw(self, edge: CompressedEdge) -> None:
        """Insert an edge without attempting any compression.

        Two backend inserts — ``O(log n)`` on the R-Tree, ``O(area)`` on
        the grid buckets.  Inserts are applied eagerly even in deferred
        mode, because the compression probes of Algorithm 2 must see an
        edge as soon as it exists.
        """
        self._edges.add(edge)
        self._prec_index.insert(edge.prec, edge)
        self._dep_index.insert(edge.dep, edge)

    def remove_edge(self, edge: CompressedEdge) -> None:
        """Drop an edge from the graph (and, eventually, its indexes).

        In deferred-maintenance mode the backend deletes — the expensive
        half of maintenance (R-Tree condense can cascade re-inserts) —
        are queued; the edge leaves ``_edges`` immediately, and lookups
        filter the stale index entries until
        :meth:`end_deferred_maintenance` settles the indexes.
        """
        self._edges.remove(edge)
        if self._deferred:
            self._pending_index_deletes.append(edge)
            return
        self._prec_index.delete(edge.prec, edge)
        self._dep_index.delete(edge.dep, edge)

    def edges(self) -> Iterator[CompressedEdge]:
        return iter(self._edges)

    def rebuild_indexes(self) -> None:
        """Repack both vertex indexes from the final edge set.

        Incremental construction leaves the indexes shaped by insertion
        order (and, for the R-Tree, loosely packed); a bulk load over the
        settled edges produces the tightest layout the backend supports,
        which pays off across the subsequent query workload.
        """
        self._prec_index.bulk_load((edge.prec, edge) for edge in self._edges)
        self._dep_index.bulk_load((edge.dep, edge) for edge in self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    # -- deferred maintenance -----------------------------------------------------

    def begin_deferred_maintenance(self) -> None:
        """Enter deferred mode: queue index deletes instead of applying them.

        Invariants while deferred: ``_edges`` is always the true edge
        set; the vertex indexes are a *superset* of it (stale entries for
        removed edges remain), so every lookup filters hits through an
        ``O(1)`` membership check.  Net effect: a commit touching ``k``
        edges pays ``k`` set-removals now and either ``k`` backend
        deletes or one bulk repack later — never both, and never the
        R-Tree's per-delete condense cascades.
        """
        if self._deferred:
            raise RuntimeError("deferred maintenance is already active")
        self._deferred = True

    def end_deferred_maintenance(
        self, repack_fraction: float = 0.25, repack_min: int = 64
    ) -> bool:
        """Leave deferred mode and settle the vertex indexes.

        When the queued deletes amount to a large share of the graph
        (``>= repack_fraction`` of the live edges, and at least
        ``repack_min``), both indexes are rebuilt from the live edge set
        in one bulk load — STR packing on the R-Tree — which is ``O(n
        log n)`` total instead of ``O(k log n)`` scattered deletes and
        leaves the tightest layout the backend supports.  Otherwise the
        queued deletes are replayed individually.  Returns ``True`` when
        the bulk repack path ran.
        """
        if not self._deferred:
            raise RuntimeError("deferred maintenance is not active")
        self._deferred = False
        pending, self._pending_index_deletes = self._pending_index_deletes, []
        if not pending:
            return False
        threshold = max(repack_min, repack_fraction * max(len(self._edges), 1))
        if len(pending) >= threshold:
            self.rebuild_indexes()
            return True
        for edge in pending:
            self._prec_index.delete(edge.prec, edge)
            self._dep_index.delete(edge.dep, edge)
        return False

    # -- index lookups ------------------------------------------------------------

    def prec_overlapping(self, rng: Range) -> list[CompressedEdge]:
        """Edges whose precedent range overlaps ``rng`` (one index search)."""
        edges = self._prec_index.search_payloads(rng)
        if self._deferred:
            return [edge for edge in edges if edge in self._edges]
        return edges

    def dep_overlapping(self, rng: Range) -> list[CompressedEdge]:
        """Edges whose dependent range overlaps ``rng`` (one index search)."""
        edges = self._dep_index.search_payloads(rng)
        if self._deferred:
            return [edge for edge in edges if edge in self._edges]
        return edges

    def candidate_edges(self, cell: tuple[int, int]) -> list[CompressedEdge]:
        """Edges whose dependent is adjacent to ``cell`` on a row/column axis.

        Implemented as the paper describes: probe the vertex index around
        the cell (one expanded search instead of four shifted point
        searches) and keep the edges containing an axis-neighbour.
        """
        col, row = cell
        probe = Range.cell(col, row).expand(self._reach)
        neighbours = [
            pos
            for distance in range(1, self._reach + 1)
            for pos in (
                (col, row - distance),
                (col, row + distance),
                (col - distance, row),
                (col + distance, row),
            )
        ]
        out: list[CompressedEdge] = []
        seen: set[int] = set()
        deferred = self._deferred
        for dep_range, edge in self._dep_index.search_items(probe):
            if id(edge) in seen:
                continue
            if deferred and edge not in self._edges:
                continue
            for ncol, nrow in neighbours:
                if ncol >= 1 and nrow >= 1 and dep_range.contains_cell(ncol, nrow):
                    seen.add(id(edge))
                    out.append(edge)
                    break
        return out

    # -- FormulaGraph interface ----------------------------------------------------

    def add_dependency(self, dep: Dependency, budget: Budget | None = None) -> None:
        """Compress one dependency into the graph (paper Algorithm 2).

        One bounded index probe around the formula cell plus a
        constant number of pattern fit checks per candidate —
        ``O(S + C)`` for search cost ``S`` and ``C`` candidates, never
        proportional to the size of the ranges involved.
        """
        compress.insert_dependency(self, dep)

    def find_dependents(self, rng: Range, budget: Budget | None = None) -> list[Range]:
        """Transitive dependents of ``rng`` by BFS on compressed edges
        (paper Algorithm 3); cost tracks compressed edges reached, not
        raw dependencies."""
        return query.find_dependents(self, rng, budget)

    def find_dependents_multi(
        self, seeds: Iterable[Range], budget: Budget | None = None
    ) -> list[Range]:
        """Dependents of all ``seeds`` in one shared BFS (see query module)."""
        return query.find_dependents_multi(self, seeds, budget)

    def find_precedents(self, rng: Range, budget: Budget | None = None) -> list[Range]:
        """Transitive precedents of ``rng`` — the symmetric dual of
        :meth:`find_dependents` over the dependent-side index."""
        return query.find_precedents(self, rng, budget)

    def clear_cells(self, rng: Range, budget: Budget | None = None) -> int:
        """Remove the dependencies of the formula cells in ``rng``;
        returns the number of compressed edges removed or replaced
        (see :func:`repro.core.maintain.clear_cells` for the cost)."""
        return maintain.clear_cells(self, rng, budget)

    # -- statistics -----------------------------------------------------------------

    def vertices(self) -> set[Range]:
        """The vertex set induced from the compressed edge set."""
        out: set[Range] = set()
        for edge in self._edges:
            out.add(edge.prec)
            out.add(edge.dep)
        return out

    def raw_edge_count(self) -> int:
        """Number of uncompressed dependencies the graph represents."""
        return sum(edge.member_count for edge in self._edges)

    def stats(self) -> GraphStats:
        stats = GraphStats(
            vertices=len(self.vertices()),
            edges=len(self._edges),
            edge_accesses=self.query_stats.edge_accesses,
            index_searches=self._prec_index.search_ops + self._dep_index.search_ops,
        )
        return stats

    def pattern_breakdown(self) -> dict[str, dict[str, int]]:
        """Per-pattern edge counts and edges-reduced (paper Table V).

        The number of edges reduced by a pattern is
        ``sum(|E'_i| - 1)`` over the compressed edges with that pattern.
        """
        edge_count: Counter[str] = Counter()
        reduced: Counter[str] = Counter()
        members: Counter[str] = Counter()
        for edge in self._edges:
            name = edge.pattern.name
            edge_count[name] += 1
            count = edge.member_count
            members[name] += count
            reduced[name] += count - 1
        return {
            name: {
                "edges": edge_count[name],
                "members": members[name],
                "reduced": reduced[name],
            }
            for name in edge_count
        }

    def decompress(self) -> list[Dependency]:
        """Reconstruct every raw dependency (lossless-ness check)."""
        out: list[Dependency] = []
        for edge in self._edges:
            out.extend(edge.pattern.member_dependencies(edge))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        singles = sum(1 for e in self._edges if e.pattern is SINGLE)
        return (
            f"TacoGraph(edges={len(self._edges)}, singles={singles}, "
            f"raw={self.raw_edge_count()})"
        )


@bulk()
def dependencies_column_major(sheet: Sheet) -> list[Dependency]:
    """The sheet's dependency stream in column-major dependent order.

    The paper configures POI to load spreadsheets by columns (Sec. VI-A);
    feeding dependents column-by-column maximises the chance that each
    dependency finds its already-inserted neighbour.  That is the order
    :meth:`Sheet.iter_dependencies` reads the runs in, the multiple
    references of one formula in formula order.  The list is built with
    the cycle collector paused (:mod:`repro.bulk`).
    """
    return list(sheet.iter_dependencies())


def build_from_sheet(
    sheet: Sheet,
    graph: FormulaGraph | None = None,
    budget: Budget | None = None,
    index: IndexFactory | None = None,
) -> FormulaGraph:
    """Build the formula graph of a sheet (TACO-Full by default).

    A :class:`TacoGraph` is built from the sheet's autofill runs
    (:meth:`Sheet.formula_runs`): one compressed edge per run and
    reference, Algorithm 2 only for what a run cannot state — the same
    dependencies, and the edges the column-major stream
    ``graph.build(dependencies_column_major(sheet))`` compresses them
    into, without visiting every cell's every reference.  Any other
    graph (the uncompressed baselines) and a TACO graph configured so
    that a run's interior is not a foregone conclusion — row-first
    selection, patterns that reach past the adjacent cell — takes that
    stream.

    Either way, graphs that support it then get their vertex indexes
    bulk-repacked (STR for the R-Tree), replacing the
    one-vertex-at-a-time layout with a packed one.  ``index`` picks the
    backend of the default graph; it cannot be combined with ``graph``.
    """
    if graph is None:
        graph = TacoGraph.full() if index is None else TacoGraph.full(index=index)
    elif index is not None:
        raise ValueError("index= configures the default graph; pass it to graph= instead")
    if isinstance(graph, TacoGraph) and graph.prefer_column and graph._reach == 1:
        _build_from_runs(graph, sheet, budget)
    else:
        graph.build(dependencies_column_major(sheet), budget)
    rebuild = getattr(graph, "rebuild_indexes", None)
    if rebuild is not None:
        rebuild()
    return graph


def _build_from_runs(graph: TacoGraph, sheet: Sheet, budget: Budget | None) -> None:
    """Feed ``sheet`` to ``graph`` run by run, in column-major order.

    Each run is cut where its template's references change shape
    (:meth:`FormulaTemplate.run_pieces`); a piece of two or more cells
    is one :func:`compress.insert_run`, and whatever that declines — and
    every lone cell — streams through Algorithm 2, cell by cell, at its
    place in the order.
    """
    def insert_piece(template, col: int, r0: int, r1: int) -> None:
        if r1 > r0:
            second = sheet.dependencies_at(template, col, r0 + 1)
            last = second if r1 == r0 + 1 else sheet.dependencies_at(template, col, r1)
            if compress.insert_run(graph, sheet.dependencies_at(template, col, r0), second, last):
                return
        for row in range(r0, r1 + 1):
            graph.add_dependencies(sheet.dependencies_at(template, col, row), budget)

    for template, col, r0, r1 in sheet.formula_runs():
        if budget is not None:
            budget.check_now()
        for first, last in template.run_pieces(col, r0, r1, sheet.name):
            insert_piece(template, col, first, last)
