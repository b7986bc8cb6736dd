"""Shared, cached corpus state for the benchmark suite.

Building corpora and graphs dominates benchmark wall-clock, and several
benchmarks need the same artefacts (the TACO graph of every sheet, the
probe cells, ...).  This module materialises each corpus once per process
and caches derived state lazily per sheet.
"""

from __future__ import annotations

from ..core.taco_graph import TacoGraph, dependencies_column_major
from ..datasets.corpora import corpus_specs
from ..datasets.stats import longest_path, max_dependents
from ..graphs.base import Budget
from ..graphs.calc import NoCompCalcGraph
from ..graphs.nocomp import NoCompGraph
from ..grid.range import Range
from ..sheet.sheet import Dependency, Sheet
from ..spatial.registry import IndexFactory

__all__ = ["BenchSheet", "get_corpus", "top_sheets"]

_CORPUS_CACHE: dict[str, list["BenchSheet"]] = {}


class BenchSheet:
    """One corpus sheet plus lazily cached derived artefacts."""

    def __init__(self, corpus: str, spec):
        self.corpus = corpus
        self.spec = spec
        self._sheet: Sheet | None = None
        self._deps: list[Dependency] | None = None
        self._taco: TacoGraph | None = None
        self._inrow: TacoGraph | None = None
        self._nocomp: NoCompGraph | None = None
        self._max_dep: tuple[Range, int] | None = None
        self._longest: tuple[Range, int] | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    def sheet(self) -> Sheet:
        if self._sheet is None:
            from ..datasets.generator import generate_sheet

            self._sheet = generate_sheet(self.spec)
        return self._sheet

    def deps(self) -> list[Dependency]:
        if self._deps is None:
            self._deps = dependencies_column_major(self.sheet())
        return self._deps

    # -- cached graphs ------------------------------------------------------

    def taco(self) -> TacoGraph:
        if self._taco is None:
            self._taco = self.fresh_taco()
        return self._taco

    def inrow(self) -> TacoGraph:
        if self._inrow is None:
            self._inrow = self.fresh_inrow()
        return self._inrow

    def nocomp(self) -> NoCompGraph:
        if self._nocomp is None:
            self._nocomp = self.fresh_nocomp()
        return self._nocomp

    # -- fresh builds (for build-time measurements) -----------------------------

    def fresh_taco(
        self, budget: Budget | None = None, index: IndexFactory = "rtree"
    ) -> TacoGraph:
        # The paper's Fig. 11 arm, kept as written: Algorithm 2 over the
        # column-major stream, then the repack.  Production builds go
        # through build_from_sheet (autofill runs, same edges, same repack).
        graph = TacoGraph.full(index=index)
        graph.build(self.deps(), budget)
        graph.rebuild_indexes()
        return graph

    def fresh_inrow(self, budget: Budget | None = None) -> TacoGraph:
        graph = TacoGraph.inrow()
        graph.build(self.deps(), budget)
        graph.rebuild_indexes()
        return graph

    def fresh_nocomp(
        self, budget: Budget | None = None, index: IndexFactory = "rtree"
    ) -> NoCompGraph:
        graph = NoCompGraph(index=index)
        graph.build(self.deps(), budget)
        return graph

    def fresh_calc(self, budget: Budget | None = None) -> NoCompCalcGraph:
        graph = NoCompCalcGraph()
        graph.build(self.deps(), budget)
        return graph

    # -- probe cells ----------------------------------------------------------------

    def max_dependents_probe(self) -> tuple[Range, int]:
        """(cell, count) for the Maximum-Dependents query case."""
        if self._max_dep is None:
            self._max_dep = max_dependents(self.taco())
        return self._max_dep

    def longest_path_probe(self) -> tuple[Range, int]:
        """(cell, length) for the Longest-Path query case."""
        if self._longest is None:
            self._longest = longest_path(self.nocomp())
        return self._longest

    def modify_range(self, length: int = 1000) -> Range:
        """The paper's modification workload: clear a column of ``length``
        cells starting at the cell with the most dependents.

        The max-dependents cell is usually a data cell; clearing data does
        not change the formula graph, so the workload anchors at that
        cell's largest run of *formula* dependents — the column whose
        removal actually exercises graph maintenance.
        """
        cell, _ = self.max_dependents_probe()
        dependents = self.taco().find_dependents(cell)
        if dependents:
            anchor = max(dependents, key=lambda r: r.size)
            return Range(anchor.c1, anchor.r1, anchor.c1, anchor.r1 + length - 1)
        return Range(cell.c1, cell.r1, cell.c1, cell.r1 + length - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BenchSheet({self.name})"


def get_corpus(name: str) -> list[BenchSheet]:
    """All sheets of a corpus, cached for the process lifetime."""
    cached = _CORPUS_CACHE.get(name)
    if cached is None:
        cached = [BenchSheet(cs.corpus, cs.spec) for cs in corpus_specs(name)]
        _CORPUS_CACHE[name] = cached
    return cached


def top_sheets(name: str, key, count: int = 10) -> list[BenchSheet]:
    """The ``count`` sheets maximising ``key`` (e.g. TACO build time)."""
    sheets = get_corpus(name)
    return sorted(sheets, key=key, reverse=True)[:count]
