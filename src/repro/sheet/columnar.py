"""Typed columnar value store: O(cells) values without O(cells) objects.

The compressed formula graph is O(patterns), but a dict-of-``Cell``
sheet still spends a boxed Python object (plus a boxed float and a dict
entry) on every cell — on dense corpora that per-cell object overhead,
not graph work, dominates both memory and recalculation time.  This
module stores cell *values* column-wise in typed arrays instead:

======  ==========  ====================================================
tag     name        payload
======  ==========  ====================================================
0       EMPTY       (none — the position is unoccupied / value is None)
1       NUMBER      ``values[i]`` (IEEE-754 float64)
2       STRING      ``side[i]`` (the Python str)
3       BOOL        ``values[i]`` (0.0 / 1.0)
4       ERROR       ``side[i]`` (the :class:`ExcelError`)
5       OBJECT      ``side[i]`` (escape hatch for exotic values)
======  ==========  ====================================================

Each column is one ``array('d')`` of values plus one ``bytearray`` of
tags (9 bytes per cell before growth headroom) and a sparse ``side``
dict for the rare non-numeric payloads.  The store is pure stdlib, as
is everything that reads it.  Whole bands of a column move through :meth:`ColumnarStore.read_band` (flat slices of
both planes) and :meth:`ColumnarStore.write_band` (cached numbers of a
strip of formula cells: one write, one version step) — what the strip
kernels are built on.

The formula plane is stored the way autofill made it — as *runs*: per
column, a sorted list of records ``(first_row, last_row, template,
text)`` whose rows are members of one interned template
(:mod:`repro.formula.template`), ``text`` being the first row's source
text if that cell was typed.  A filled-down column of any length is one
record, so a fill, a snapshot run or an xlsx shared group attaches in
O(1) and nothing exists per formula cell; cached values live in the
arrays like any other value.  ``Sheet.formula_at`` / ``cell_at`` hand out
a transient :class:`ColumnarCell` *view* of a position, whose ``value``
is a write-through property over the arrays.

:class:`ColumnarStore` is the store every ``Sheet`` holds; the seed's
dict-of-Cells model survives as a reference to check it against
(:mod:`repro.baselines.object_store`).  Numbers are canonicalised to float64 on write (``42`` comes back as ``42.0``),
exactly as a host spreadsheet stores them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, compress, repeat
from typing import Iterator

from ..formula.ast_nodes import Node
from ..formula.errors import ExcelError
from ..formula.template import FormulaTemplate, intern_template
from .cell import Cell

__all__ = [
    "TAG_BOOL",
    "TAG_EMPTY",
    "TAG_ERROR",
    "TAG_NUMBER",
    "TAG_OBJECT",
    "TAG_STRING",
    "ColumnarCell",
    "ColumnarStore",
    "RunIndex",
    "square_off",
]

TAG_EMPTY = 0
TAG_NUMBER = 1
TAG_STRING = 2
TAG_BOOL = 3
TAG_ERROR = 4
TAG_OBJECT = 5

#: Tags whose payload lives in the ``side`` dict, not the value array.
_SIDE_TAGS = (TAG_STRING, TAG_ERROR, TAG_OBJECT)

_D_ZERO = array("d", (0.0,))
_NUMBER_TAG = bytes((TAG_NUMBER,))
#: ``bytes.translate`` table: 1 for a NUMBER tag, 0 for any other.
_IS_NUMBER = bytes(1 if tag == TAG_NUMBER else 0 for tag in range(256))


class _Column:
    """One column's arrays: float64 values, tag bytes, sparse side table.

    Rows are 0-based indexes (``row - 1``); the arrays grow geometrically
    to the highest touched row.  Invariant: ``values[i]`` is 0.0 whenever
    ``tags[i]`` is not NUMBER/BOOL, so a raw value-buffer read of an
    empty lane is already the ``to_number(None)`` coercion.

    ``version`` counts content writes (growth excluded — appended lanes
    are EMPTY, which reads identically to out-of-bounds); lookaside
    structures (:mod:`repro.engine.lookup`) stamp it at build time and
    rebuild lazily when it moves.
    """

    __slots__ = ("values", "tags", "side", "version")

    def __init__(self, capacity: int = 0):
        self.values = array("d", bytes(8 * capacity))
        self.tags = bytearray(capacity)
        self.side: dict[int, object] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self.tags)

    def grow_to(self, size: int) -> None:
        have = len(self.tags)
        if size <= have:
            return
        # Geometric headroom so repeated appends stay amortised O(1) —
        # in fixed steps, so a column filled at once and one filled cell
        # by cell end up the same length.
        target = max(have, 16)
        while target < size:
            target += target >> 1
        self.values.extend(_D_ZERO * (target - have))
        self.tags.extend(bytes(target - have))

    def occupied(self) -> int:
        return len(self.tags) - self.tags.count(0)


#: ``{col: [record, ...]}`` — columns ascending, each column's records
#: disjoint and ascending by row.  Joined, a record is ``(first_row,
#: last_row, template)``; unjoined it also carries the first row's source
#: text, ``(first_row, last_row, template | None, text | None)``: a typed
#: cell always starts a record, and until something parses it that is a
#: record of one whose template reads None — so that saving a snapshot
#: is not what parses an untouched typed cell.
RunIndex = dict[int, list[tuple]]

_INF = float("inf")     # (row, _INF) bisects past every record starting at row


def _absorb_next(runs: list, i: int) -> None:
    """Merge record ``i + 1`` into record ``i`` if it carries it on: right
    below it, untyped, the same template."""
    if i + 1 < len(runs):
        first, last, template, text = runs[i]
        below = runs[i + 1]
        if below[0] == last + 1 and below[3] is None and below[2] is template:
            runs[i] = (first, below[1], template, text)
            del runs[i + 1]


def _blank(tags, first: int, last: int) -> int:
    """How many of rows ``first..last`` hold no value in ``tags``."""
    hi = min(last, len(tags))
    lo = min(first - 1, hi)
    return (last - first + 1) - (hi - lo) + tags.count(TAG_EMPTY, lo, hi)


def square_off(bands: list[tuple[array, bytearray]], height: int = 0) -> int:
    """Pad :meth:`ColumnarStore.read_band` slices, in place, to the
    longest of them (and at least ``height``) with blank lanes — which is
    what the rows a slice was cut short of are.  Returns that height."""
    height = max(height, *(len(tags) for _, tags in bands))
    for values, tags in bands:
        short = height - len(tags)
        values.extend(_D_ZERO * short)
        tags.extend(bytes(short))
    return height


def _classify(value) -> tuple[int, float, object]:
    """``value -> (tag, array payload, side payload)``."""
    if value is None:
        return TAG_EMPTY, 0.0, None
    if value is True or value is False:
        return TAG_BOOL, 1.0 if value else 0.0, None
    if isinstance(value, (int, float)):
        return TAG_NUMBER, float(value), None
    if isinstance(value, str):
        return TAG_STRING, 0.0, value
    if isinstance(value, ExcelError):
        return TAG_ERROR, 0.0, value
    return TAG_OBJECT, 0.0, value


class ColumnarCell(Cell):
    """A transient view of one position of the store: what
    ``Sheet.cell_at`` / ``formula_at`` hand out, for formula cells (the
    template and source text of the position's run record) and pure
    values alike.  Reading ``.value`` consults the column arrays and
    assigning it forwards there, so the arrays are never stale; the rest
    describes the cell as it was when the view was taken — the next
    change to the formula plane may make it stale.
    """

    __slots__ = ("_store",)

    def __init__(
        self,
        store: "ColumnarStore",
        col: int,
        row: int,
        formula_text: str | None = None,
        template: FormulaTemplate | None = None,
    ):
        # Not Cell.__init__: assigning ``value`` here would write through.
        self._store = store
        self._col = col
        self._row = row
        self._formula_text = formula_text
        self._template = template

    @property
    def value(self):
        return self._store.read_value(self._col, self._row)

    @value.setter
    def value(self, new_value) -> None:
        self._store.write_through(self._col, self._row, new_value)

    @property
    def template(self) -> FormulaTemplate | None:
        """As :attr:`Cell.template`; what a typed cell's first parse
        finds is written back into its record, so no later view parses."""
        template = self._template
        if template is None and self._formula_text is not None:
            template = super().template
            self._store.learn_template(self._col, self._row, self._formula_text, template)
        return template


class ColumnarStore:
    """Per-sheet columnar backing store."""

    __slots__ = ("_columns", "_runs", "_joined", "_count", "epoch", "formula_version")

    def __init__(self) -> None:
        self._columns: dict[int, _Column] = {}
        #: The formula plane: per column (ascending), its run records
        #: ``(first_row, last_row, template, text)``, sorted and disjoint.
        #: A typed cell always starts a record and, until something
        #: parses it, is a record of one whose template is None; an
        #: untyped record never sits right below a record of its own
        #: template (they are one record).
        self._runs: RunIndex = {}
        #: Moves whenever a formula comes, goes, changes or moves — and
        #: only then: value writes (cached formula values included) never
        #: touch it.  Stamps the joined run index, and any plan laid out
        #: over it.
        self.formula_version = 0
        #: ``(formula_version, index)`` of the last joined read.
        self._joined: tuple[int, RunIndex] | None = None
        #: Occupied positions: non-EMPTY tags plus formula cells whose
        #: cached value is None (their tag is EMPTY but they exist).
        self._count = 0
        #: Store generation: bumped by whole-store reshapes (structural
        #: edits, plane installs) that move values *between*
        #: columns, which per-column versions cannot express.
        self.epoch = 0

    # -- value plane -----------------------------------------------------------

    def read_value(self, col: int, row: int):
        """Value at (col, row) — the hot-loop read (None when blank)."""
        column = self._columns.get(col)
        if column is None:
            return None
        i = row - 1
        if i >= len(column.tags):
            return None
        tag = column.tags[i]
        if tag == TAG_EMPTY:
            return None
        if tag == TAG_NUMBER:
            return column.values[i]
        if tag == TAG_BOOL:
            return column.values[i] != 0.0
        return column.side[i]

    def _column_for(self, col: int, row: int) -> _Column:
        column = self._columns.get(col)
        if column is None:
            column = self._columns[col] = _Column()
        column.grow_to(row)
        return column

    def _write_raw(self, column: _Column, i: int, value) -> int:
        """Write one value into the arrays; returns the *old* tag."""
        if type(value) is float:
            tag, payload, side = TAG_NUMBER, value, None
        else:
            tag, payload, side = _classify(value)
        column.version += 1
        old = column.tags[i]
        if old in _SIDE_TAGS:
            column.side.pop(i, None)
        column.tags[i] = tag
        column.values[i] = payload
        if side is not None:
            column.side[i] = side
        return old

    def write_pure(self, col: int, row: int, value) -> None:
        """``Sheet.set_value`` semantics: a value write replaces whatever
        occupied the position (formula included); None erases it."""
        formula = col in self._runs and self._cut(col, row, row)[1]
        if value is None:
            column = self._columns.get(col)
            if column is None or row - 1 >= len(column.tags):
                if formula:
                    self._count -= 1
                return
            old = self._write_raw(column, row - 1, None)
            if old != TAG_EMPTY or formula:
                self._count -= 1
            return
        column = self._columns.get(col)
        if column is None or row > len(column.tags):
            column = self._column_for(col, row)
        old = self._write_raw(column, row - 1, value)
        if old == TAG_EMPTY and not formula:
            self._count += 1

    def write_through(self, col: int, row: int, value) -> None:
        """The view write path (``cell.value = x``).

        On a formula cell this updates the cached value; occupancy is
        keyed by the formula plane, so only the arrays change.  On a
        pure-value position it behaves like ``Sheet.set_value`` —
        including ``None`` erasing the cell.
        """
        if self._record_at(col, row) is not None:
            self._write_raw(self._column_for(col, row), row - 1, value)
        else:
            self.write_pure(col, row, value)

    def clear_range(self, c1: int, r1: int, c2: int, r2: int) -> None:
        """Erase every value and formula of the rectangle: a cut in each
        column's runs and a blanked slice of its arrays."""
        for col, column in self._columns.items():
            if not c1 <= col <= c2:
                continue
            self._count -= self._cut(col, r1, r2)[2]
            i0, i1 = r1 - 1, min(r2, len(column.tags))
            occupied = i1 - i0 - column.tags.count(TAG_EMPTY, i0, i1) if i0 < i1 else 0
            if occupied:
                self._count -= occupied
                column.version += 1
                column.tags[i0:i1] = bytes(i1 - i0)
                column.values[i0:i1] = _D_ZERO * (i1 - i0)
                for i in [i for i in column.side if i0 <= i < i1]:
                    del column.side[i]

    # -- formula plane ---------------------------------------------------------

    def _record_at(self, col: int, row: int) -> tuple | None:
        """The run record holding ``(col, row)``, found by bisect."""
        runs = self._runs.get(col)
        if runs:
            # (index -1, no record at or above: the last one, which fails the test)
            record = runs[bisect_right(runs, (row, _INF)) - 1]
            if record[0] <= row <= record[1]:
                return record
        return None

    def _cut(self, col: int, first: int, last: int) -> tuple[int, int, int]:
        """Take rows ``first..last`` of ``col`` out of the formula plane,
        splitting the records they cut through: ``(at, removed, blank)`` —
        the index at which a record for those rows now belongs, how many
        formula cells went, and how many of them held no cached value."""
        runs = self._runs.get(col)
        if not runs or runs[-1][1] < first:     # nothing there: the append case
            return len(runs or ()), 0, 0
        at = bisect_right(runs, (first, _INF)) - 1
        if at < 0 or runs[at][1] < first:
            at += 1
        stop, keep, removed, blank = at, [], 0, 0
        tags = self._columns[col].tags
        while stop < len(runs) and runs[stop][0] <= last:
            head, tail, template, text = runs[stop]
            a, b = max(head, first), min(tail, last)
            removed += b - a + 1
            blank += _blank(tags, a, b)
            if head < first:
                keep.append((head, first - 1, template, text))
            if tail > last:
                keep.append((last + 1, tail, template, None))
            stop += 1
        if removed:
            runs[at:stop] = keep
            self.formula_version += 1
            if keep and keep[0][0] < first:
                at += 1
            elif not runs:
                del self._runs[col]
        return at, removed, blank

    def attach_run(self, col: int, first_row: int, last_row: int,
                   template: FormulaTemplate | None, text: str | None = None) -> None:
        """Make rows ``first_row..last_row`` of ``col`` members of
        ``template`` — one record, however long — keeping the cached
        values the planes hold there.  ``text`` is the first member's
        source text (all there is to a single typed cell attached without
        its template).  The record replaces whatever formulas held those
        rows and joins its neighbours where one carries the other on."""
        tags = self._column_for(col, last_row).tags
        self.formula_version += 1
        runs = self._runs.get(col)
        if runs and text is None:
            # Everyday cases off one bisect: a moved family re-installed
            # member by member (already in this very run) and a follower
            # read below its run (free rows: extend it).
            i = bisect_right(runs, (first_row, _INF)) - 1
            head, tail, held, held_text = runs[i]
            if i >= 0 and held is template:
                if tail >= last_row and (head < first_row or held_text is None):
                    return
                if tail == first_row - 1 and (i + 1 == len(runs) or runs[i + 1][0] > last_row):
                    self._count += _blank(tags, first_row, last_row)
                    runs[i] = (head, last_row, template, held_text)
                    _absorb_next(runs, i)
                    return
        at, _, blank = self._cut(col, first_row, last_row)
        self._count += _blank(tags, first_row, last_row) - blank
        runs = self._runs.get(col)
        if runs is None:
            ordered = not self._runs or col > next(reversed(self._runs))
            runs = self._runs[col] = []
            if not ordered:
                self._runs = dict(sorted(self._runs.items()))
        runs.insert(at, (first_row, last_row, template, text))
        _absorb_next(runs, at)
        if at:
            _absorb_next(runs, at - 1)

    def put_formula(
        self,
        pos: tuple[int, int],
        formula_text: str | None = None,
        formula_ast: Node | None = None,
        value=None,
        template: FormulaTemplate | None = None,
    ) -> None:
        """Install a formula cell at ``pos`` (cached value reset to
        ``value``, None by default — matching a fresh ``Cell``) from its
        source text, its own AST, or the template it is a member of."""
        col, row = pos
        if formula_ast is not None:
            template = intern_template(formula_ast, col, row)
        self.attach_run(col, row, row, template, formula_text)
        self._write_raw(self._columns[col], row - 1, value)

    def learn_template(self, col: int, row: int, text: str, template: FormulaTemplate) -> None:
        """A view of the typed cell at ``(col, row)`` parsed ``text``:
        keep ``template`` in the cell's record (which may now be carried
        on by the one below).  A view gone stale is ignored."""
        runs = self._runs.get(col)
        if runs:
            i = bisect_right(runs, (row, _INF)) - 1
            if i >= 0 and runs[i][0] == row and runs[i][2] is None and runs[i][3] is text:
                runs[i] = (row, runs[i][1], template, text)
                _absorb_next(runs, i)

    def formula_at(self, pos: tuple[int, int]) -> ColumnarCell | None:
        """A view of the formula cell at ``pos``, or None."""
        record = self._record_at(*pos)
        if record is None:
            return None
        first, _, template, text = record
        return ColumnarCell(self, *pos, text if pos[1] == first else None, template)

    def formula_items(self) -> Iterator[tuple[tuple[int, int], ColumnarCell]]:
        """Every formula cell as ``((col, row), view)``, column-major: a
        compatibility iteration that allocates a view per cell — whole-
        sheet readers walk :meth:`run_index` instead."""
        for col, runs in list(self._runs.items()):
            for first, last, template, text in tuple(runs):
                yield (col, first), ColumnarCell(self, col, first, text, template)
                for row in range(first + 1, last + 1):
                    yield (col, row), ColumnarCell(self, col, row, None, template)

    def formula_positions(self, ranges) -> set[tuple[int, int]]:
        """The formula cells inside ``ranges``, read off the runs."""
        found: set[tuple[int, int]] = set()
        index = self._runs
        for rng in ranges:
            r1, r2 = rng.r1, rng.r2
            for col in range(rng.c1, rng.c2 + 1) if rng.width < len(index) else index:
                runs = index.get(col)
                if not runs or not rng.c1 <= col <= rng.c2:
                    continue
                i = max(bisect_right(runs, (r1, _INF)) - 1, 0)
                while i < len(runs) and runs[i][0] <= r2:
                    found.update(zip(
                        repeat(col), range(max(runs[i][0], r1), min(runs[i][1], r2) + 1)
                    ))
                    i += 1
        return found

    @property
    def formula_count(self) -> int:
        return sum(
            last - first + 1 for runs in self._runs.values() for first, last, _, _ in runs
        )

    def run_index(self, join: bool = True) -> RunIndex:
        """The formula plane as runs.  Unjoined it *is* the storage (see
        :data:`RunIndex` for the record shape).  Joined, every
        typed cell has parsed and adjacent records of one template are
        one ``(first_row, last_row, template)`` run: a view rebuilt in
        O(records) once per :attr:`formula_version`.  Callers must not
        mutate either."""
        if not join:
            return self._runs
        memo = self._joined
        if memo is None or memo[0] != self.formula_version:
            index: RunIndex = {}
            for col, runs in self._runs.items():
                joined = index[col] = []
                i = 0
                while i < len(runs):
                    if runs[i][2] is None:
                        # Parsing through a view is what teaches the record.
                        self.formula_at((col, runs[i][0])).template
                    first, last, template, _ = runs[i]
                    if joined and joined[-1][1] == first - 1 and joined[-1][2] is template:
                        joined[-1] = (joined[-1][0], last, template)
                    else:
                        joined.append((first, last, template))
                    i += 1
            memo = self._joined = (self.formula_version, index)
        return memo[1]

    # -- positions -------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def _occupied(self, pos: tuple[int, int]) -> bool:
        column = self._columns.get(pos[0])
        if column is None:
            return False
        i = pos[1] - 1
        if i < len(column.tags) and column.tags[i] != TAG_EMPTY:
            return True
        return self._record_at(*pos) is not None

    def cell_at(self, pos: tuple[int, int]) -> ColumnarCell | None:
        """A view of whatever occupies ``pos`` — formula or value — or None."""
        cell = self.formula_at(pos)
        if cell is None and self._occupied(pos):
            cell = ColumnarCell(self, pos[0], pos[1])
        return cell

    def column_version(self, col: int) -> int:
        """Content-write counter of ``col`` (-1 when the column does not
        exist — distinct from any live version, which starts at 0)."""
        column = self._columns.get(col)
        return -1 if column is None else column.version

    def _walk(self) -> Iterator[tuple[int, int, tuple | None]]:
        """``(col, row, record)`` of every occupied position — ``record``
        None for a pure value — column by column, rows ascending."""
        for col, column in self._columns.items():
            tags = column.tags
            at = 0
            for record in tuple(self._runs.get(col, ())):
                for i in range(at, min(record[0] - 1, len(tags))):
                    if tags[i]:
                        yield col, i + 1, None
                for row in range(record[0], record[1] + 1):
                    yield col, row, record
                at = record[1]
            for i in range(at, len(tags)):
                if tags[i]:
                    yield col, i + 1, None

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for col, row, _ in self._walk():
            yield (col, row)

    def items(self) -> Iterator[tuple[tuple[int, int], Cell]]:
        for col, row, record in self._walk():
            if record is None:
                yield (col, row), ColumnarCell(self, col, row)
            else:
                text = record[3] if row == record[0] else None
                yield (col, row), ColumnarCell(self, col, row, text, record[2])

    def iter_values(self) -> Iterator[tuple[int, int, object]]:
        """Every non-blank value as (col, row, value), column-major —
        pure values and formula cached values alike, read straight off
        the typed planes (no views)."""
        for col, column in sorted(self._columns.items()):
            values, side = column.values, column.side
            for i, tag in enumerate(column.tags):
                if tag == TAG_EMPTY:
                    continue
                if tag == TAG_NUMBER:
                    yield col, i + 1, values[i]
                elif tag == TAG_BOOL:
                    yield col, i + 1, values[i] != 0.0
                else:
                    yield col, i + 1, side[i]

    # -- range iteration -------------------------------------------------------

    def iter_range(self, rng) -> Iterator[tuple[int, int, object]]:
        """Non-blank cells of ``rng`` as (col, row, value), row-major —
        the order a per-cell walk of the rectangle gives, on which
        iteration-order-dependent choices (which error an aggregate
        propagates) rely."""
        columns = []
        for col in range(rng.c1, rng.c2 + 1):
            column = self._columns.get(col)
            if column is not None:
                columns.append((col, column.tags, column.values, column.side))
        if not columns:
            return
        for row in range(rng.r1, rng.r2 + 1):
            i = row - 1
            for col, tags, values, side in columns:
                if i >= len(tags):
                    continue
                tag = tags[i]
                if tag == TAG_EMPTY:
                    continue
                if tag == TAG_NUMBER:
                    yield col, row, values[i]
                elif tag == TAG_BOOL:
                    yield col, row, values[i] != 0.0
                else:
                    yield col, row, side[i]

    def bounds(self) -> tuple[int, int, int, int] | None:
        """Bounding box of occupied positions, or None when empty.

        Read off each column's tag-buffer extents (C-speed strips, no
        per-cell loop); formula cells without a cached value occupy no
        tag, so they are scanned for only when the occupancy count says
        some exist."""
        if not self._count:
            return None
        cols: list[int] = []
        rows: list[int] = []
        tagged = 0
        for col, column in self._columns.items():
            body = column.tags.rstrip(b"\0")
            if not body:
                continue
            cols.append(col)
            rows.append(len(body))
            rows.append(len(body) - len(body.lstrip(b"\0")) + 1)
            tagged += len(body) - body.count(0)
        if tagged != self._count:
            for col, runs in self._runs.items():
                cols.append(col)
                rows += (runs[0][0], runs[-1][1])
        return (min(cols), min(rows), max(cols), max(rows))

    # -- raw buffer access (the strip kernels' window) -------------------------

    def column_buffers(self, col: int) -> tuple[array, bytearray] | None:
        """The raw (values, tags) buffers of a column, or None."""
        column = self._columns.get(col)
        if column is None:
            return None
        return column.values, column.tags

    def ensure_column(self, col: int, row: int) -> _Column:
        """Grow ``col`` to cover ``row`` and return its :class:`_Column`."""
        return self._column_for(col, row)

    def read_band(self, col: int, first_row: int, last_row: int) -> tuple[array, bytearray]:
        """Rows ``first_row..last_row`` of ``col`` as two flat copies —
        ``(values, tags)``, an ``array('d')`` and a ``bytearray`` — cut
        off where the column physically ends: rows past it are EMPTY and
        simply absent (a whole-column reference costs what the column
        holds, not what it names).  A lane's payload is ``values[k]``
        for NUMBER and BOOL, 0.0 otherwise; strings, errors and objects
        stay in the side table.  The read half of the strip kernels
        (:mod:`repro.engine.vectorized`, :mod:`repro.engine.lookup`) and
        of :meth:`range_numbers`."""
        column = self._columns.get(col)
        if column is None:
            return array("d"), bytearray()
        i0 = max(first_row - 1, 0)
        return column.values[i0:last_row], column.tags[i0:last_row]

    def write_band(self, col: int, first_row: int, values) -> None:
        """Make ``values`` — any float64 buffer — the cached numbers of
        the formula cells at rows ``first_row..`` of ``col``: two slice
        stores, stale side-table payloads under the band evicted, the
        column's version moved once.  The write half of the strip
        kernels; occupancy is keyed by the formula plane, so (as in
        :meth:`merge_result_columns`) every row must be a formula cell."""
        n = len(values)
        if not n:
            return
        i0, i1 = first_row - 1, first_row - 1 + n
        column = self._column_for(col, i1)
        column.version += 1
        side = column.side
        if side:
            for i in [i for i in side if i0 <= i < i1]:
                del side[i]
        with memoryview(column.values) as plane:
            plane[i0:i1] = values
        column.tags[i0:i1] = _NUMBER_TAG * n

    def range_numbers(self, c1: int, r1: int, c2: int, r2: int):
        """The NUMBER lanes of a rectangle as an iterable of floats in
        row-major order (the order :meth:`iter_range` walks) — or None
        when a lane holds an error or an object, and that ordered
        per-cell walk has to decide what an aggregate makes of it.  Tags
        are screened and lanes selected in bulk (``count``,
        ``translate``, ``compress``); nothing is looked at per cell."""
        bands = [self.read_band(col, r1, r2) for col in range(c1, c2 + 1)]
        for _, tags in bands:
            if tags.count(TAG_ERROR) or tags.count(TAG_OBJECT):
                return None
        if len(bands) == 1:
            values, tags = bands[0]
            if tags.count(TAG_NUMBER) == len(tags):
                return values
            return compress(values, tags.translate(_IS_NUMBER))
        square_off(bands)
        return compress(
            chain.from_iterable(zip(*[values for values, _ in bands])),
            chain.from_iterable(zip(*[tags.translate(_IS_NUMBER) for _, tags in bands])),
        )

    # -- structural edits ------------------------------------------------------

    def structural_edit(self, axis: str, mode: str, index: int, count: int) -> int:
        """Apply a row/column insert/delete to the arrays wholesale.

        Values move as array splices (O(column length) memmoves instead
        of O(cells) dict rebuilds), side tables are rekeyed, and the
        formula plane moves by its run bounds: a run the edit line cuts
        through splits there, a run a deleted band cuts through closes up.
        A member that moved still holds its template (and a typed first
        member its text) and so reads its formula at the new host,
        autofill-shifted with the move — which is what a member that moved
        in lockstep with everything it reads should say.  The sheet-level
        pass (:mod:`repro.sheet.structural`) re-installs only the pieces
        whose template the edit changes.  Returns the number of occupied
        positions removed with the deleted band (0 for inserts).
        """
        self.epoch += 1
        self.formula_version += 1
        if mode == "insert":
            (self._insert_rows if axis == "row" else self._insert_columns)(index, count)
            return 0
        removed = (self._delete_rows if axis == "row" else self._delete_columns)(index, count)
        self._count -= removed
        return removed

    def _insert_rows(self, row: int, count: int) -> None:
        i0 = row - 1
        for column in self._columns.values():
            if len(column.tags) <= i0:
                continue
            column.values[i0:i0] = _D_ZERO * count
            column.tags[i0:i0] = bytes(count)
            if column.side:
                column.side = {
                    (i + count if i >= i0 else i): v for i, v in column.side.items()
                }
        for runs in self._runs.values():
            at = bisect_left(runs, (row,))      # the first record at or below the line
            if at and runs[at - 1][1] >= row:   # the one above straddles it: two records
                first, last, template, text = runs[at - 1]
                runs[at - 1:at] = [(first, row - 1, template, text), (row, last, template, None)]
            runs[at:] = [(a + count, b + count, t, x) for a, b, t, x in runs[at:]]

    def _delete_rows(self, row: int, count: int) -> int:
        i0, i1 = row - 1, row - 1 + count
        removed = 0
        for col, runs in list(self._runs.items()):
            # Formula cells with a None cached value occupy no tag slot;
            # count them here, the tag scan below covers the rest.
            at, _, blank = self._cut(col, row, row + count - 1)
            removed += blank
            runs[at:] = [(a - count, b - count, t, x) for a, b, t, x in runs[at:]]
            if at:
                _absorb_next(runs, at - 1)
        for column in self._columns.values():
            n = len(column.tags)
            if n <= i0:
                continue
            band = column.tags[i0:i1]
            removed += len(band) - band.count(0)
            del column.values[i0:i1]
            del column.tags[i0:i1]
            if column.side:
                side: dict[int, object] = {}
                for i, v in column.side.items():
                    if i < i0:
                        side[i] = v
                    elif i >= i1:
                        side[i - count] = v
                column.side = side
        return removed

    def _insert_columns(self, col: int, count: int) -> None:
        self._columns, self._runs = (
            {(c + count if c >= col else c): held for c, held in plane.items()}
            for plane in (self._columns, self._runs)
        )

    def _delete_columns(self, col: int, count: int) -> int:
        end = col + count - 1
        removed = sum(self._occupied_in_column(c) for c in range(col, end + 1))
        self._columns, self._runs = (
            {(c - count if c > end else c): held
             for c, held in plane.items() if not col <= c <= end}
            for plane in (self._columns, self._runs)
        )
        return removed

    # -- whole-plane shipping (worker freight and snapshot persistence) --------

    def export_planes(self) -> dict[int, tuple[bytes, bytes, dict[int, object]]]:
        """Column raw arrays — formula cached values *included* — as
        picklable bytes: ``{col: (tags, float64_values, side)}``.

        What a snapshot persists as is and (through
        :meth:`export_plane_delta`, the same planes column by column) what
        a resident worker boots from: clean formula cells' cached values
        ride along, the formulas travel beside them as run records and
        are attached over them.  Inverses: :meth:`install_planes` for a
        whole store, :meth:`import_column` for one trimmed run.
        """
        return {
            col: (bytes(column.tags), column.values.tobytes(), dict(column.side))
            for col, column in self._columns.items()
        }

    def install_planes(
        self, planes: dict[int, tuple[bytes, bytes, dict[int, object]]]
    ) -> None:
        """Install :meth:`export_planes` output into this *fresh* store."""
        self.epoch += 1
        for col, (tags, value_bytes, side) in planes.items():
            column = _Column()
            column.tags = bytearray(tags)
            values = array("d")
            values.frombytes(value_bytes)
            column.values = values
            column.side = dict(side)
            self._columns[col] = column
            self._count += len(tags) - tags.count(TAG_EMPTY)

    # -- incremental plane shipping (the persistent-shard delta path) ----------

    def _occupied_in_column(self, col: int) -> int:
        """Occupied positions a single column contributes to ``_count``:
        non-EMPTY tags plus formula cells whose tag slot is EMPTY (or
        beyond the arrays)."""
        column = self._columns.get(col)
        tags = b"" if column is None else column.tags
        return len(tags) - tags.count(TAG_EMPTY) + sum(
            _blank(tags, first, last) for first, last, _, _ in self._runs.get(col, ())
        )

    def export_plane_delta(
        self,
        since_versions: dict[int, int],
        cols: "set[int] | None" = None,
    ) -> tuple[dict[int, tuple[bytes, bytes, dict[int, object]]], dict[int, int]]:
        """Planes of the columns whose :attr:`_Column.version` moved past
        ``since_versions`` — the incremental counterpart of
        :meth:`export_planes`.

        Returns ``(planes, versions)``: ``planes`` holds full raw arrays
        only for columns that changed (or that ``since_versions`` has
        never seen); ``versions`` stamps every selected live column with
        its current version, so the caller can feed it straight back in
        next time.  ``cols`` restricts the scan to a shard's read
        closure; None scans everything.  Inverse: :meth:`apply_plane_delta`.
        """
        planes: dict[int, tuple[bytes, bytes, dict[int, object]]] = {}
        versions: dict[int, int] = {}
        for col, column in self._columns.items():
            if cols is not None and col not in cols:
                continue
            versions[col] = column.version
            if since_versions.get(col) != column.version:
                planes[col] = (
                    bytes(column.tags), column.values.tobytes(), dict(column.side)
                )
        return planes, versions

    def apply_plane_delta(
        self, planes: dict[int, tuple[bytes, bytes, dict[int, object]]]
    ) -> None:
        """Replace the named columns with :meth:`export_plane_delta`
        output, in place.

        Unlike :meth:`install_planes` this does *not* bump the store
        epoch — only the replaced columns' versions move, so resident
        lookaside indexes over untouched columns stay fresh.  The formula
        plane is untouched (only the column objects mutate) and occupancy
        is recounted per replaced column.
        """
        for col, (tags, value_bytes, side) in planes.items():
            before = self._occupied_in_column(col)
            column = self._columns.get(col)
            if column is None:
                column = self._columns[col] = _Column()
            column.tags = bytearray(tags)
            values = array("d")
            values.frombytes(value_bytes)
            column.values = values
            column.side = dict(side)
            column.version += 1
            self._count += self._occupied_in_column(col) - before

    # -- typed result columns (the parallel worker → parent merge path) --------

    def pack_result_columns(self, positions):
        """Pack the cached values of formula ``positions`` into typed
        column runs: ``[(col, rows, tags, float64_values, side_pairs)]``
        with ``side_pairs`` as ``(index_into_rows, payload)`` tuples.

        The worker-side half of the parallel result protocol — shipping
        tag+plane bytes instead of per-cell Python objects keeps the
        return payload ~9 bytes per number — and a scenario sweep's
        snapshot.  A formula never evaluated may sit past its column's
        value plane; the plane grows to cover it, so a later merge (and
        any write in between) never reallocates.  Inverse:
        :meth:`merge_result_columns`.
        """
        by_col: dict[int, list[int]] = {}
        for col, row in positions:
            by_col.setdefault(col, []).append(row)
        packed = []
        for col in sorted(by_col):
            rows = sorted(by_col[col])
            column = self._column_for(col, rows[-1])
            tags = bytearray(len(rows))
            values = array("d", bytes(8 * len(rows)))
            side = []
            for k, row in enumerate(rows):
                i = row - 1
                tag = column.tags[i]
                tags[k] = tag
                values[k] = column.values[i]
                if tag in _SIDE_TAGS:
                    side.append((k, column.side[i]))
            packed.append((col, rows, bytes(tags), values.tobytes(), side))
        return packed

    def merge_result_columns(self, packed) -> None:
        """Install :meth:`pack_result_columns` output from a worker.

        Only *formula* positions are merged (occupancy is keyed by the
        formula registration, so ``_count`` is untouched) — this is the
        cached-value write of ``cell.value = x`` done as array stores.
        """
        for col, rows, tags, value_bytes, side in packed:
            values = array("d")
            values.frombytes(value_bytes)
            column = self._column_for(col, rows[-1])
            column.version += 1
            ctags, cvalues, cside = column.tags, column.values, column.side
            for k in range(len(rows)):
                i = rows[k] - 1
                if ctags[i] in _SIDE_TAGS:
                    cside.pop(i, None)
                ctags[i] = tags[k]
                cvalues[i] = values[k]
            for k, payload in side:
                cside[rows[k] - 1] = payload

    def import_column(self, col: int, start_row: int, tags: bytes,
                      values: array, side: dict[int, object]) -> None:
        """Bulk-install one column run — a plane of :meth:`export_planes`,
        trimmed to its occupied rows, formula cached values included.

        Two slice copies, no per-cell work; the rows must be vacant (no
        value, no formula), which is how a snapshot load uses it: planes
        land first, :meth:`attach_run` lays the formulas over them."""
        if len(tags) != len(values):
            raise ValueError("columnar run: tags/values length mismatch")
        i0, i1 = start_row - 1, start_row - 1 + len(tags)
        column = self._column_for(col, i1)
        if column.tags.count(TAG_EMPTY, i0, i1) != len(tags):
            raise ValueError("columnar run: rows already occupied")
        column.version += 1
        column.tags[i0:i1] = tags
        column.values[i0:i1] = values
        for i, v in side.items():
            column.side[i0 + i] = v
        self._count += len(tags) - tags.count(TAG_EMPTY)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarStore({self._count} cells, {len(self._columns)} columns, "
            f"{self.formula_count} formulas)"
        )
