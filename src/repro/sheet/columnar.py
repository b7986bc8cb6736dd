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
dict for the rare non-numeric payloads.  The store is pure stdlib — no
numpy required — but its buffers expose the buffer protocol, so the
vectorized evaluator (:mod:`repro.engine.vectorized`) wraps them
zero-copy with ``numpy.frombuffer`` when numpy is available.

Formula cells keep a small registered object — a :class:`ColumnarCell`
holding the host position and a pointer to the template its autofill
family shares (:mod:`repro.formula.template`); the AST, references and
R1C1 key live on the template, once per family.  Its ``value`` attribute
is a *write-through property* over the arrays: ``cell.value = x`` lands
in the column arrays, never in a shadow slot, so bulk array reads can
never observe a stale value.  Pure-value positions materialise a
``ColumnarCell`` view lazily — and only when someone actually asks for
the object via ``Sheet.cell_at``.

:class:`ColumnarStore` also speaks the small mapping dialect the sheet
layer uses (``items``/``get``/``pop``/``__setitem__``/...), so
``Sheet`` code written against the dict-of-Cells store runs against it
unchanged.  Numbers are canonicalised to float64 on write (``42`` comes
back as ``42.0``), exactly as a host spreadsheet stores them.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

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
    "scan_formula_runs",
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
        # Geometric headroom so repeated appends stay amortised O(1).
        target = max(size, have + (have >> 1), 16)
        self.values.extend(_D_ZERO * (target - have))
        self.tags.extend(bytes(target - have))

    def occupied(self) -> int:
        return len(self.tags) - self.tags.count(0)


#: ``{col: [(first_row, last_row, template), ...]}`` — columns ascending,
#: each column's runs disjoint and ascending by row.
RunIndex = dict[int, list[tuple[int, int, "FormulaTemplate | None"]]]


def scan_formula_runs(
    formula_items: Iterable[tuple[tuple[int, int], Cell]], join: bool = True
) -> tuple[RunIndex, bool]:
    """Group formula cells into maximal vertical runs sharing a template:
    ``(index, joined)``.

    Members of a family hold the *same* interned template object, so a
    run is found by pointer compares — no AST, reference or range is
    built.  With ``join`` every cell set from text parses and joins its
    template first (adjacent typed cells that say the same thing in R1C1
    are then one run).  Without it such a cell is left as it is: a run of
    one whose template reads None, and ``joined`` comes back False if
    there was any — the view a snapshot save takes, so that saving an
    untouched typed cell is not what parses it.
    """
    by_col: dict[int, list] = {}
    for (col, row), cell in formula_items:
        cells = by_col.get(col)
        if cells is None:
            cells = by_col[col] = []
        cells.append((row, cell))
    index: RunIndex = {}
    joined = True
    for col in sorted(by_col):
        cells = by_col[col]
        cells.sort()                    # rows are unique: cells never compare
        runs = index[col] = []
        first = last = 0
        run = None
        for row, cell in cells:
            template = cell.template if join else cell._template
            if first and row == last + 1 and template is run and run is not None:
                last = row
                continue
            if first:
                runs.append((first, last, run))
            first = last = row
            run = template
            if template is None:
                joined = False
        runs.append((first, last, run))
    return index, joined


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
    """A cell whose ``value`` is a write-through view over the store.

    Used both for registered formula cells (a long-lived *(template,
    host)* pair) and for the lazy views ``Sheet.cell_at`` hands out for
    pure-value positions.  Either way, reading ``.value`` consults the
    column arrays and assigning it forwards there — direct writes can
    never leave the arrays stale.
    """

    __slots__ = ("_store",)

    def __init__(
        self,
        store: "ColumnarStore",
        col: int,
        row: int,
        formula_text: str | None = None,
        formula_ast: Node | None = None,
        template: FormulaTemplate | None = None,
    ):
        # Not Cell.__init__: assigning ``value`` here would write through.
        self._store = store
        self._col = col
        self._row = row
        self._formula_text = formula_text
        if formula_ast is not None:
            template = intern_template(formula_ast, col, row)
        self._template = template

    @property
    def value(self):
        return self._store.read_value(self._col, self._row)

    @value.setter
    def value(self, new_value) -> None:
        self._store.write_through(self._col, self._row, new_value)

    @property
    def position(self) -> tuple[int, int]:
        """The (col, row) this view is bound to."""
        return (self._col, self._row)


class ColumnarStore:
    """Per-sheet columnar backing store with a dict-of-Cells facade."""

    __slots__ = ("_columns", "_formulas", "_count", "epoch",
                 "formula_version", "_runs")

    def __init__(self) -> None:
        self._columns: dict[int, _Column] = {}
        #: Registered formula cells; their cached values live in the
        #: arrays (write-through), only AST state lives on the object.
        self._formulas: dict[tuple[int, int], ColumnarCell] = {}
        #: Moves whenever ``_formulas`` gains, loses, replaces or rekeys
        #: an entry — and only then: value writes (cached formula values
        #: included) never touch it.  Stamps the memoised run index, and
        #: any plan laid out over it.
        self.formula_version = 0
        #: ``(formula_version, index, joined)`` of the last run scan.
        self._runs: tuple[int, RunIndex, bool] | None = None
        #: Occupied positions: non-EMPTY tags plus formula cells whose
        #: cached value is None (their tag is EMPTY but they exist).
        self._count = 0
        #: Store generation: bumped by whole-store reshapes (structural
        #: edits, clear, plane installs) that move values *between*
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
        pos = (col, row)
        formula = self._formulas.pop(pos, None)
        if formula is not None:
            self.formula_version += 1
        if value is None:
            column = self._columns.get(col)
            if column is None or row - 1 >= len(column.tags):
                if formula is not None:
                    self._count -= 1
                return
            old = self._write_raw(column, row - 1, None)
            if old != TAG_EMPTY or formula is not None:
                self._count -= 1
            return
        column = self._column_for(col, row)
        old = self._write_raw(column, row - 1, value)
        if old == TAG_EMPTY and formula is None:
            self._count += 1

    def write_through(self, col: int, row: int, value) -> None:
        """The view write path (``cell.value = x``).

        On a formula cell this updates the cached value; occupancy is
        keyed by the formula registration, so only the arrays change.
        On a pure-value view it behaves like ``Sheet.set_value`` —
        including ``None`` erasing the cell.
        """
        if (col, row) in self._formulas:
            self._write_raw(self._column_for(col, row), row - 1, value)
        else:
            self.write_pure(col, row, value)

    # -- formula plane ---------------------------------------------------------

    def put_formula(
        self,
        pos: tuple[int, int],
        formula_text: str | None = None,
        formula_ast: Node | None = None,
        value=None,
        template: FormulaTemplate | None = None,
    ) -> ColumnarCell:
        """Install a formula cell at ``pos`` (cached value reset to
        ``value``, None by default — matching a fresh ``Cell``) from its
        source text, its own AST, or the template it is a member of."""
        col, row = pos
        column = self._column_for(col, row)
        old = column.tags[row - 1]
        was_occupied = old != TAG_EMPTY or pos in self._formulas
        cell = ColumnarCell(self, col, row, formula_text, formula_ast, template)
        self._formulas[pos] = cell
        self.formula_version += 1
        self._write_raw(column, row - 1, value)
        if not was_occupied:
            self._count += 1
        return cell

    def formula_at(self, pos: tuple[int, int]) -> ColumnarCell | None:
        return self._formulas.get(pos)

    def formula_items(self):
        return self._formulas.items()

    @property
    def formula_count(self) -> int:
        return len(self._formulas)

    def run_index(self, join: bool = True) -> RunIndex:
        """The formula plane as runs (:func:`scan_formula_runs`),
        memoised: scanned once per :attr:`formula_version`, and once more
        if a scan that left typed cells unjoined is later asked to join
        them.  Callers must not mutate the result."""
        memo = self._runs
        if memo is None or memo[0] != self.formula_version or (join and not memo[2]):
            index, joined = scan_formula_runs(self._formulas.items(), join)
            memo = self._runs = (self.formula_version, index, joined)
        return memo[1]

    # -- mapping facade (the dialect Sheet code speaks) ------------------------

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def _occupied(self, pos: tuple[int, int]) -> bool:
        if pos in self._formulas:
            return True
        column = self._columns.get(pos[0])
        if column is None:
            return False
        i = pos[1] - 1
        return i < len(column.tags) and column.tags[i] != TAG_EMPTY

    def __contains__(self, pos) -> bool:
        return self._occupied(pos)

    def get(self, pos, default=None):
        cell = self._formulas.get(pos)
        if cell is not None:
            return cell
        if self._occupied(pos):
            return ColumnarCell(self, pos[0], pos[1])
        return default

    def __getitem__(self, pos):
        cell = self.get(pos)
        if cell is None:
            raise KeyError(pos)
        return cell

    def __setitem__(self, pos, cell) -> None:
        """Adopt a ``Cell`` (or view): formulas register, values inline.

        The cell's current value is read *before* any store mutation, so
        adopting a view of this very store is safe.
        """
        value = cell.value
        if cell.is_formula:
            # The formula the cell shows at *its* host lands here verbatim
            # (source text if it has any, else its own AST).
            text = cell.source_text
            self.put_formula(
                pos,
                formula_text=text,
                formula_ast=None if text is not None else cell.formula_ast,
                value=value,
            )
        else:
            self.write_pure(pos[0], pos[1], value)

    def pop(self, pos, default=None):
        cell = self.get(pos)
        if cell is None:
            return default
        self.write_pure(pos[0], pos[1], None)
        return cell

    def __delitem__(self, pos) -> None:
        if not self._occupied(pos):
            raise KeyError(pos)
        self.write_pure(pos[0], pos[1], None)

    def clear(self) -> None:
        self._columns.clear()
        self._formulas.clear()
        self._count = 0
        self.epoch += 1
        self.formula_version += 1

    def column_version(self, col: int) -> int:
        """Content-write counter of ``col`` (-1 when the column does not
        exist — distinct from any live version, which starts at 0)."""
        column = self._columns.get(col)
        return -1 if column is None else column.version

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for col, column in self._columns.items():
            tags = column.tags
            for i in range(len(tags)):
                if tags[i]:
                    yield (col, i + 1)
        for pos in self._formulas:
            column = self._columns.get(pos[0])
            if column is None or column.tags[pos[1] - 1] == TAG_EMPTY:
                yield pos

    def items(self) -> Iterator[tuple[tuple[int, int], Cell]]:
        formulas = self._formulas
        for pos in self:
            cell = formulas.get(pos)
            yield pos, (cell if cell is not None else ColumnarCell(self, *pos))

    def iter_values(self) -> Iterator[tuple[int, int, object]]:
        """Every non-blank value as (col, row, value), column by column —
        pure values and formula cached values alike, read straight off
        the typed planes (no views)."""
        for col, column in self._columns.items():
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
        the same geometric order the object store's resolver uses, so
        iteration-order-dependent choices (which error an aggregate
        propagates) are store-independent."""
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
            for col, row in self._formulas:
                cols.append(col)
                rows.append(row)
        return (min(cols), min(rows), max(cols), max(rows))

    # -- raw buffer access (the vectorized evaluator's window) -----------------

    def column_buffers(self, col: int) -> tuple[array, bytearray] | None:
        """The raw (values, tags) buffers of a column, or None."""
        column = self._columns.get(col)
        if column is None:
            return None
        return column.values, column.tags

    def ensure_column(self, col: int, row: int) -> _Column:
        """Grow ``col`` to cover ``row`` and return its :class:`_Column`."""
        return self._column_for(col, row)

    # -- structural edits ------------------------------------------------------

    def structural_edit(self, axis: str, mode: str, index: int, count: int) -> int:
        """Apply a row/column insert/delete to the arrays wholesale.

        Values move as array splices (O(column length) memmoves instead
        of O(cells) dict rebuilds), side tables and the formula registry
        are rekeyed, and registered views are rebound to their post-edit
        coordinates.  A rebound template member now reads its formula at
        the new host (autofill-shifted with the move); what each moved
        formula *should* say after the edit is the sheet-level pass's
        business (:mod:`repro.sheet.structural`), which re-installs every
        one of them.  Returns the number of occupied positions removed
        with the deleted band (0 for inserts).
        """
        self.epoch += 1
        if axis == "row":
            if mode == "insert":
                self._insert_rows(index, count)
                return 0
            return self._delete_rows(index, count)
        if mode == "insert":
            self._insert_columns(index, count)
            return 0
        return self._delete_columns(index, count)

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
        self._rekey_formulas(
            lambda pos: (pos[0], pos[1] + count) if pos[1] >= row else pos
        )

    def _delete_rows(self, row: int, count: int) -> int:
        i0, i1 = row - 1, row - 1 + count
        removed = 0
        for pos in self._formulas:
            # Formula cells with a None cached value occupy no tag slot;
            # count them here, the tag scan below covers the rest.
            if row <= pos[1] < row + count:
                column = self._columns.get(pos[0])
                i = pos[1] - 1
                if column is None or i >= len(column.tags) or not column.tags[i]:
                    removed += 1
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
        end = row + count - 1

        def move(pos):
            col, r = pos
            if row <= r <= end:
                return None
            return (col, r - count) if r > end else pos

        self._rekey_formulas(move)
        self._count -= removed
        return removed

    def _insert_columns(self, col: int, count: int) -> None:
        self._columns = {
            (c + count if c >= col else c): column
            for c, column in self._columns.items()
        }
        self._rekey_formulas(
            lambda pos: (pos[0] + count, pos[1]) if pos[0] >= col else pos
        )

    def _delete_columns(self, col: int, count: int) -> int:
        end = col + count - 1
        removed = 0
        for pos in self._formulas:
            if col <= pos[0] <= end:
                column = self._columns.get(pos[0])
                i = pos[1] - 1
                if column is None or i >= len(column.tags) or not column.tags[i]:
                    removed += 1
        columns: dict[int, _Column] = {}
        for c, column in self._columns.items():
            if col <= c <= end:
                removed += column.occupied()
            elif c > end:
                columns[c - count] = column
            else:
                columns[c] = column
        self._columns = columns

        def move(pos):
            c, row = pos
            if col <= c <= end:
                return None
            return (c - count, row) if c > end else pos

        self._rekey_formulas(move)
        self._count -= removed
        return removed

    def _rekey_formulas(self, move) -> None:
        formulas: dict[tuple[int, int], ColumnarCell] = {}
        for pos, cell in self._formulas.items():
            new_pos = move(pos)
            if new_pos is None:
                continue
            cell._col, cell._row = new_pos
            formulas[new_pos] = cell
        self._formulas = formulas
        self.formula_version += 1

    # -- whole-plane shipping (worker freight and snapshot persistence) --------

    def export_planes(
        self, cols: "set[int] | None" = None
    ) -> dict[int, tuple[bytes, bytes, dict[int, object]]]:
        """Column raw arrays — formula cached values *included* — as
        picklable bytes: ``{col: (tags, float64_values, side)}``.

        The one export surface: a parallel process worker reads clean
        formula cells' cached values off it without their formulas being
        shipped, and a snapshot persists it as is (formulas travel beside
        it as run records).  ``cols`` restricts the export to the columns
        a region actually reads (its freight optimisation); None exports
        everything.  Inverses: :meth:`install_planes` for a whole store,
        :meth:`import_column` for one trimmed run.
        """
        return {
            col: (bytes(column.tags), column.values.tobytes(), dict(column.side))
            for col, column in self._columns.items()
            if cols is None or col in cols
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
        non-EMPTY tags plus registered formulas whose tag slot is EMPTY
        (or beyond the arrays)."""
        column = self._columns.get(col)
        n = 0 if column is None else column.occupied()
        tags = None if column is None else column.tags
        for (c, row) in self._formulas:
            if c != col:
                continue
            i = row - 1
            if tags is None or i >= len(tags) or not tags[i]:
                n += 1
        return n

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
        lookaside indexes over untouched columns stay fresh.  Registered
        formula views survive (the column objects mutate, the registry is
        untouched) and occupancy is recounted per replaced column.
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
        return payload ~9 bytes per number.  Inverse:
        :meth:`merge_result_columns`.
        """
        by_col: dict[int, list[int]] = {}
        for col, row in positions:
            by_col.setdefault(col, []).append(row)
        packed = []
        for col in sorted(by_col):
            rows = sorted(by_col[col])
            column = self._columns[col]
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
        value, no registered formula), which is how a snapshot load uses
        it: planes land first, :meth:`attach_run` registers the formulas
        over them."""
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

    def attach_run(self, col: int, first_row: int, last_row: int,
                   template: FormulaTemplate | None, text: str | None = None) -> None:
        """Register rows ``first_row..last_row`` of ``col`` as members of
        ``template`` — :meth:`put_formula` for a whole run, except that
        the cached values the planes already hold there stay.  ``text``
        is the first member's source text (all there is to a single typed
        cell attached without its template).  A row counts as newly
        occupied only if it held neither a value nor a formula."""
        tags = self._column_for(col, last_row).tags
        formulas = self._formulas
        self.formula_version += 1
        for row in range(first_row, last_row + 1):
            pos = (col, row)
            if not tags[row - 1] and pos not in formulas:
                self._count += 1
            formulas[pos] = ColumnarCell(self, col, row, text, None, template)
            text = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarStore({self._count} cells, {len(self._columns)} columns, "
            f"{len(self._formulas)} formulas)"
        )
