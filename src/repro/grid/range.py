"""Rectangular ranges and range algebra.

A :class:`Range` is a rectangular region of cells identified by its head
(top-left) and tail (bottom-right) cells, the paper's 2-D windows.  Ranges
are the universal currency of the formula graph: vertices are ranges,
compressed edges store a precedent range and a dependent range, and queries
take and return ranges.  A single cell is the degenerate 1x1 range.

All coordinates are 1-based ``(col, row)`` pairs.  The algebra implemented
here — bounding box (the paper's ``(+)`` operator), intersection,
containment, subtraction into maximal sub-rectangles, and adjacency — is
everything the patterns and the BFS query need.

A :class:`Range` is a value: a ``tuple`` of its four corners, so that
construction, hashing, equality and ordering — paid by the tens of
thousands in every build, query and maintenance step — run in C.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

from .ref import col_to_letters, format_cell, parse_cell

__all__ = ["Range", "Offset", "cell_range"]

# An offset is a plain (dcol, drow) pair: cheap, hashable, and arithmetic
# stays explicit at call sites.
Offset = tuple[int, int]

# The corner fields are namedtuple's C item getters, borrowed rather than
# inherited: a namedtuple's ``_make`` / ``_replace`` / ``_asdict`` iterate
# the tuple, and iterating a Range walks its cells.
_Corners = namedtuple("_Corners", "c1 r1 c2 r2")
# Builds a Range whose corners are valid by construction, skipping the checks.
_new = tuple.__new__


class Range(tuple):
    """An immutable rectangular range ``[head=(c1,r1), tail=(c2,r2)]``.

    The tuple ``(c1, r1, c2, r2)``: equal to, hashed and ordered as its
    corners, but iterating (``list``, unpacking, ``in``) its *cells*.
    """

    __slots__ = ()
    c1, r1, c2, r2 = _Corners.c1, _Corners.r1, _Corners.c2, _Corners.r2

    def __new__(cls, c1: int, r1: int, c2: int, r2: int):
        if c1 > c2 or r1 > r2:
            raise ValueError(f"invalid range corners: ({c1},{r1})..({c2},{r2})")
        if c1 < 1 or r1 < 1:
            raise ValueError(f"range out of sheet bounds: ({c1},{r1})..({c2},{r2})")
        return _new(cls, (c1, r1, c2, r2))

    def __getnewargs__(self) -> tuple[int, int, int, int]:
        # Pickle and copy as the four corners: tuple's own would iterate.
        return self[:]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_a1(cls, text: str) -> "Range":
        """Parse ``A1`` or ``A1:B3`` (``$`` markers are accepted and ignored)."""
        text = text.strip()
        if ":" in text:
            head_text, tail_text = text.split(":", 1)
            hc, hr = parse_cell(head_text)
            tc, tr = parse_cell(tail_text)
            # Normalise reversed corners, as spreadsheets do (B3:A1 == A1:B3).
            return cls(min(hc, tc), min(hr, tr), max(hc, tc), max(hr, tr))
        col, row = parse_cell(text)
        return cls(col, row, col, row)

    @classmethod
    def from_cells(cls, head: tuple[int, int], tail: tuple[int, int]) -> "Range":
        return cls(head[0], head[1], tail[0], tail[1])

    @classmethod
    def cell(cls, col: int, row: int) -> "Range":
        return cls(col, row, col, row)

    # -- basic accessors ---------------------------------------------------

    @property
    def head(self) -> tuple[int, int]:
        return (self.c1, self.r1)

    @property
    def tail(self) -> tuple[int, int]:
        return (self.c2, self.r2)

    @property
    def width(self) -> int:
        return self.c2 - self.c1 + 1

    @property
    def height(self) -> int:
        return self.r2 - self.r1 + 1

    @property
    def size(self) -> int:
        return self.width * self.height

    @property
    def is_cell(self) -> bool:
        return self.c1 == self.c2 and self.r1 == self.r2

    @property
    def is_column_slice(self) -> bool:
        """True for a 1-wide vertical run (including a single cell)."""
        return self.c1 == self.c2

    @property
    def is_row_slice(self) -> bool:
        """True for a 1-tall horizontal run (including a single cell)."""
        return self.r1 == self.r2

    def to_a1(self) -> str:
        if self.is_cell:
            return format_cell(self.c1, self.r1)
        return f"{format_cell(self.c1, self.r1)}:{format_cell(self.c2, self.r2)}"

    # -- geometry ----------------------------------------------------------

    def contains_cell(self, col: int, row: int) -> bool:
        return self.c1 <= col <= self.c2 and self.r1 <= row <= self.r2

    def contains(self, other: "Range") -> bool:
        return (
            self.c1 <= other.c1
            and self.r1 <= other.r1
            and other.c2 <= self.c2
            and other.r2 <= self.r2
        )

    def overlaps(self, other: "Range") -> bool:
        return (
            self.c1 <= other.c2
            and other.c1 <= self.c2
            and self.r1 <= other.r2
            and other.r1 <= self.r2
        )

    def intersect(self, other: "Range") -> "Range | None":
        c1 = self.c1 if self.c1 > other.c1 else other.c1
        r1 = self.r1 if self.r1 > other.r1 else other.r1
        c2 = self.c2 if self.c2 < other.c2 else other.c2
        r2 = self.r2 if self.r2 < other.r2 else other.r2
        if c1 > c2 or r1 > r2:
            return None
        return _new(Range, (c1, r1, c2, r2))

    def bounding(self, other: "Range") -> "Range":
        """The minimal bounding range of both inputs (the paper's ``(+)``)."""
        return _new(Range, (
            self.c1 if self.c1 < other.c1 else other.c1,
            self.r1 if self.r1 < other.r1 else other.r1,
            self.c2 if self.c2 > other.c2 else other.c2,
            self.r2 if self.r2 > other.r2 else other.r2,
        ))

    def subtract(self, other: "Range") -> "list[Range]":
        """Maximal sub-rectangles of ``self`` not covered by ``other``.

        Returns up to four pieces (above, below, left, right of the
        intersection); returns ``[self]`` when the ranges are disjoint and
        ``[]`` when ``other`` covers ``self`` entirely.
        """
        inter = self.intersect(other)
        if inter is None:
            return [self]
        pieces: list[Range] = []
        if self.r1 < inter.r1:  # strip above
            pieces.append(_new(Range, (self.c1, self.r1, self.c2, inter.r1 - 1)))
        if inter.r2 < self.r2:  # strip below
            pieces.append(_new(Range, (self.c1, inter.r2 + 1, self.c2, self.r2)))
        if self.c1 < inter.c1:  # strip left (middle band)
            pieces.append(_new(Range, (self.c1, inter.r1, inter.c1 - 1, inter.r2)))
        if inter.c2 < self.c2:  # strip right (middle band)
            pieces.append(_new(Range, (inter.c2 + 1, inter.r1, self.c2, inter.r2)))
        return pieces

    def shift(self, dc: int, dr: int) -> "Range":
        return Range(self.c1 + dc, self.r1 + dr, self.c2 + dc, self.r2 + dr)

    def expand(self, margin: int = 1) -> "Range":
        """Grow by ``margin`` cells on every side, clamped to sheet bounds."""
        return Range(
            max(1, self.c1 - margin),
            max(1, self.r1 - margin),
            self.c2 + margin,
            self.r2 + margin,
        )

    def is_adjacent_to(self, other: "Range") -> bool:
        """True when the ranges touch edge-to-edge along a row or column axis."""
        if self.overlaps(other):
            return False
        expanded = self.expand(1)
        return expanded.overlaps(other)

    def cells(self) -> Iterator[tuple[int, int]]:
        """Iterate all member cell positions in row-major order."""
        for row in range(self.r1, self.r2 + 1):
            for col in range(self.c1, self.c2 + 1):
                yield (col, row)

    def cell_ranges(self) -> Iterator["Range"]:
        """Iterate all member cells as degenerate ranges."""
        for col, row in self.cells():
            yield Range(col, row, col, row)

    def corner_distance(self, other: "Range") -> int:
        """Chebyshev distance between the two head corners (a tie-breaker)."""
        return max(abs(self.c1 - other.c1), abs(self.r1 - other.r1))

    # -- dunder ------------------------------------------------------------

    def as_tuple(self) -> tuple[int, int, int, int]:
        """The corners as a plain tuple."""
        return self[:]

    def __repr__(self) -> str:
        return f"Range({self.to_a1()})"

    def __str__(self) -> str:
        return self.to_a1()

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Range):
            return self.contains(item)
        if isinstance(item, tuple) and len(item) == 2:  # a position, never a Range
            return self.contains_cell(item[0], item[1])
        return False

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self.cells()


def cell_range(col: int, row: int) -> Range:
    """Shorthand for a degenerate single-cell range."""
    return Range(col, row, col, row)


def describe_span(rng: Range) -> str:  # pragma: no cover - debugging aid
    """Human-readable description, e.g. ``B2:D9 (3 cols x 8 rows)``."""
    return (
        f"{rng.to_a1()} ({rng.width} col{'s' if rng.width != 1 else ''}"
        f" x {rng.height} row{'s' if rng.height != 1 else ''})"
    )


def column_span(col: int, r1: int, r2: int) -> Range:
    """A vertical run in column ``col`` covering rows ``r1..r2``."""
    return Range(col, r1, col, r2)


def row_span(row: int, c1: int, c2: int) -> Range:
    """A horizontal run in row ``row`` covering columns ``c1..c2``."""
    return Range(c1, row, c2, row)


def format_column(col: int) -> str:
    """Column index to letters; re-exported here for convenience."""
    return col_to_letters(col)
