"""A set of cell ranges with covered-subset queries.

Algorithm 3 in the paper maintains the BFS ``result`` set together with an
R-Tree over it, so that for every freshly discovered dependent range the
*not-yet-visited* subset can be extracted before being enqueued.  This
module packages that structure: :meth:`RangeSet.subtract_covered` returns
the maximal sub-rectangles of an input range not covered by any member.
"""

from __future__ import annotations

from typing import Iterator

from ..spatial.registry import IndexFactory, make_index
from .range import Range

__all__ = ["RangeSet", "merge_ranges"]


def _uncovered(rng: Range, members: list[Range]) -> list[Range]:
    """The maximal sub-rectangles of ``rng`` outside every member."""
    pieces = [rng]
    for member in members:
        next_pieces: list[Range] = []
        for piece in pieces:
            next_pieces.extend(piece.subtract(member))
        pieces = next_pieces
        if not pieces:
            break
    return pieces


def _join(a: Range, b: Range) -> "Range | None":
    """The union of two disjoint ranges when it is a rectangle — they
    share a whole edge — else None."""
    if a.c1 == b.c1 and a.c2 == b.c2:
        if a.r2 + 1 == b.r1 or b.r2 + 1 == a.r1:
            return a.bounding(b)
    elif a.r1 == b.r1 and a.r2 == b.r2:
        if a.c2 + 1 == b.c1 or b.c2 + 1 == a.c1:
            return a.bounding(b)
    return None


def merge_ranges(groups, index: IndexFactory = "rtree") -> "list[Range]":
    """Disjoint union of possibly-overlapping range lists.

    Feeds every range of every group through one :class:`RangeSet`, so
    overlapping inputs contribute each cell once; ``index`` selects the
    backing spatial index (callers merging graph query results pass the
    graph's own ``index_spec`` so the whole query path shares a backend).
    """
    merged = RangeSet(index=index)
    for ranges in groups:
        for rng in ranges:
            merged.add_new(rng)
    return merged.ranges


class RangeSet:
    """A collection of ranges supporting overlap and coverage queries.

    The member index is any registered spatial backend (``index=`` takes a
    name or factory); graphs thread their own backend choice through so an
    ablation swaps every index in the query path, not just the vertex one.
    """

    def __init__(self, initial: "list[Range] | None" = None, index: IndexFactory = "rtree"):
        self._tree = make_index(index)
        # The members, in the order they became members (a dict: merging
        # in add_new removes members by value).
        self._ranges: dict[Range, None] = {}
        self._cell_count = 0
        if initial:
            for rng in initial:
                self.add(rng)

    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self) -> Iterator[Range]:
        return iter(self._ranges)

    @property
    def ranges(self) -> list[Range]:
        return list(self._ranges)

    @property
    def cell_count(self) -> int:
        """Total member cells, counting each range's area.

        Members added through :meth:`add_new` never overlap, so for that
        usage this is the exact covered-cell count.
        """
        return self._cell_count

    def add(self, rng: Range) -> None:
        """Add a range without any overlap checking (a range that is
        already a member is not added twice)."""
        if rng in self._ranges:
            return
        self._tree.insert(rng, rng)
        self._ranges[rng] = None
        self._cell_count += rng.size

    def _discard(self, member: Range) -> None:
        self._tree.delete(member, member)
        del self._ranges[member]
        self._cell_count -= member.size

    def overlaps(self, rng: Range) -> bool:
        return bool(self._tree.search_keys(rng))

    def covers_cell(self, col: int, row: int) -> bool:
        return bool(self._tree.search_keys(Range.cell(col, row)))

    def covers(self, rng: Range) -> bool:
        """True when every cell of ``rng`` is covered by some member."""
        return not self.subtract_covered(rng)

    def subtract_covered(self, rng: Range) -> list[Range]:
        """Maximal sub-rectangles of ``rng`` not covered by any member.

        This is the paper's "find the subset of the dependent that has not
        yet been visited" step.  Pieces are produced by successive
        rectangle subtraction against each overlapping member.
        """
        return _uncovered(rng, self._tree.search_keys(rng))

    def add_new(self, rng: Range) -> list[Range]:
        """Add only the uncovered parts of ``rng``; return the parts added.

        Members stay disjoint and few: a fresh piece is stored merged
        with every member it shares a whole edge with — only the members
        ``rng`` overlaps are candidates, which is where the cuts that
        made the pieces came from — so a column visited in scattered
        order stays one member.  When ``rng`` overlaps nothing it is
        stored as it is, with no search beyond the one that found that.
        """
        neighbours = self._tree.search_keys(rng)
        if not neighbours:
            self.add(rng)
            return [rng]
        fresh = _uncovered(rng, neighbours)
        for piece in fresh:
            i = 0
            while i < len(neighbours):
                joined = _join(piece, neighbours[i])
                if joined is None:
                    i += 1
                else:
                    self._discard(neighbours.pop(i))
                    piece, i = joined, 0
            self.add(piece)
            neighbours.append(piece)
        return fresh

    def expand_cells(self) -> set[tuple[int, int]]:
        """Materialise the member cells; intended for tests on small sets."""
        cells: set[tuple[int, int]] = set()
        for rng in self._ranges:
            cells.update(rng.cells())
        return cells

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(r.to_a1() for r in self._ranges[:6])
        suffix = ", ..." if len(self._ranges) > 6 else ""
        return f"RangeSet([{preview}{suffix}])"
