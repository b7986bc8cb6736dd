"""Shared formula-graph interface, budgets, and helpers.

Every dependency-graph implementation in this repository — TACO, NoComp,
NoComp-Calc, and the external-system stand-ins — exposes the same small
surface: build from a dependency stream, find dependents/precedents of a
range, and maintain the graph under clears and inserts.  The benchmark
harness drives them interchangeably through this interface.

Long-running operations accept an optional :class:`Budget`; exceeding it
raises :class:`DNFError`, reproducing the paper's did-not-finish handling
(Sec. VI-D/E).
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from ..bulk import bulk
from ..grid.range import Range
from ..sheet.sheet import Dependency

__all__ = ["Budget", "DNFError", "FormulaGraph", "GraphStats", "expand_cells"]


class DNFError(RuntimeError):
    """An operation exceeded its time budget (a paper-style DNF)."""

    def __init__(self, operation: str, limit_seconds: float):
        super().__init__(f"{operation} did not finish within {limit_seconds:.1f}s")
        self.operation = operation
        self.limit_seconds = limit_seconds


class Budget:
    """A wall-clock budget checked cooperatively inside long loops."""

    __slots__ = ("limit_seconds", "_deadline", "operation", "_counter", "check_every")

    def __init__(self, limit_seconds: float, operation: str = "operation", check_every: int = 256):
        self.limit_seconds = limit_seconds
        self.operation = operation
        self.check_every = check_every
        self._deadline = time.perf_counter() + limit_seconds
        self._counter = 0

    def check(self) -> None:
        """Cheap amortised deadline check; raises DNFError when exceeded."""
        self._counter += 1
        if self._counter % self.check_every:
            return
        if time.perf_counter() > self._deadline:
            raise DNFError(self.operation, self.limit_seconds)

    def check_now(self) -> None:
        if time.perf_counter() > self._deadline:
            raise DNFError(self.operation, self.limit_seconds)


class GraphStats:
    """Size and instrumentation counters reported by every graph."""

    __slots__ = ("vertices", "edges", "edge_accesses", "index_searches")

    def __init__(self, vertices: int = 0, edges: int = 0,
                 edge_accesses: int = 0, index_searches: int = 0):
        self.vertices = vertices
        self.edges = edges
        self.edge_accesses = edge_accesses
        self.index_searches = index_searches

    def as_dict(self) -> dict[str, int]:
        return {
            "vertices": self.vertices,
            "edges": self.edges,
            "edge_accesses": self.edge_accesses,
            "index_searches": self.index_searches,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphStats(vertices={self.vertices}, edges={self.edges})"


class FormulaGraph:
    """Abstract base for dependency graphs over one sheet."""

    name = "abstract"

    def add_dependency(self, dep: Dependency, budget: Budget | None = None) -> None:
        raise NotImplementedError

    @bulk()
    def build(self, deps: Iterable[Dependency], budget: Budget | None = None) -> None:
        """Insert a stream of dependencies (the paper's graph construction)
        with the cycle collector paused (:mod:`repro.bulk`)."""
        self.add_dependencies(deps, budget)

    def add_dependencies(self, deps: Iterable[Dependency], budget: Budget | None = None) -> None:
        """Insert dependencies one at a time, the collector untouched —
        how the run build streams a handful of cells."""
        for dep in deps:
            if budget is not None:
                budget.check()
            self.add_dependency(dep, budget)

    def find_dependents(self, rng: Range, budget: Budget | None = None) -> list[Range]:
        raise NotImplementedError

    def find_precedents(self, rng: Range, budget: Budget | None = None) -> list[Range]:
        raise NotImplementedError

    def clear_cells(self, rng: Range, budget: Budget | None = None) -> None:
        """Remove the dependencies of the formula cells inside ``rng``."""
        raise NotImplementedError

    def stats(self) -> GraphStats:
        raise NotImplementedError

    @property
    def num_edges(self) -> int:
        return self.stats().edges

    @property
    def num_vertices(self) -> int:
        return self.stats().vertices


def expand_cells(ranges: Iterable[Range]) -> set[tuple[int, int]]:
    """Materialise a result-range list into its member cells (tests only)."""
    cells: set[tuple[int, int]] = set()
    for rng in ranges:
        cells.update(rng.cells())
    return cells


def iter_dependency_cells(ranges: Iterable[Range]) -> Iterator[tuple[int, int]]:
    for rng in ranges:
        yield from rng.cells()


def total_cells(ranges: Iterable[Range]) -> int:
    """Total cell count across disjoint result ranges."""
    return sum(rng.size for rng in ranges)
