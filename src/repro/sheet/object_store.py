"""The object store: one boxed :class:`Cell` per occupied position.

The second implementation of the store surface a
:class:`~repro.sheet.sheet.Sheet` calls — the first, and the default, is
the typed columnar store (:mod:`repro.sheet.columnar`).  Values and
formulas live in a dict keyed by ``(col, row)``; a formula cell is a
``Cell`` holding its template and host.  There are no value planes, so
nothing here answers a range by slice (:meth:`ObjectStore.range_numbers`
always declines) and bands are assembled cell by cell.  The store keeps
the same two stamps as the columnar one — ``epoch`` for whole-store
reshapes, ``formula_version`` for any change to the set of formulas —
and is the differential oracle the columnar store is checked against.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from ..formula.ast_nodes import Node
from ..formula.template import FormulaTemplate
from ..grid.range import Range
from .cell import Cell
from .columnar import RunIndex, _classify, scan_formula_runs

__all__ = ["ObjectStore", "position_mover"]


def position_mover(axis: str, mode: str, index: int, count: int):
    """``pos -> pos | None``: where a structural edit — ``count`` rows
    (``axis="row"``) or columns inserted before / deleted from ``index``
    — takes a position; None when it is deleted."""
    at = 1 if axis == "row" else 0
    end = index + count - 1

    def move(pos):
        line = pos[at]
        if line < index:
            return pos
        if mode == "insert":
            line += count
        elif line > end:
            line -= count
        else:
            return None
        return (pos[0], line) if at else (line, pos[1])

    return move


class ObjectStore:
    """Per-sheet dict-of-Cells backing store."""

    __slots__ = ("_cells", "epoch", "formula_version")

    def __init__(self) -> None:
        self._cells: dict[tuple[int, int], Cell] = {}
        #: Bumped by structural edits, which move cells between positions.
        self.epoch = 0
        #: Moves whenever a formula comes, goes, changes or moves — and
        #: only then (:attr:`ColumnarStore.formula_version`).
        self.formula_version = 0

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._cells)

    def items(self) -> Iterator[tuple[tuple[int, int], Cell]]:
        return iter(self._cells.items())

    def cell_at(self, pos: tuple[int, int]) -> Cell | None:
        return self._cells.get(pos)

    # -- values ----------------------------------------------------------------

    def read_value(self, col: int, row: int):
        cell = self._cells.get((col, row))
        return None if cell is None else cell.value

    def _drop(self, pos: tuple[int, int]) -> None:
        cell = self._cells.pop(pos, None)
        if cell is not None and cell.is_formula:
            self.formula_version += 1

    def write_pure(self, col: int, row: int, value) -> None:
        """A value write replaces whatever occupied the position (formula
        included); None erases it."""
        self._drop((col, row))
        if value is not None:
            self._cells[(col, row)] = Cell(value=value)

    def clear_range(self, c1: int, r1: int, c2: int, r2: int) -> None:
        rng, cells = Range(c1, r1, c2, r2), self._cells
        if rng.size < len(cells):
            doomed = [pos for pos in rng.cells() if pos in cells]
        else:
            doomed = [pos for pos in cells if rng.contains_cell(*pos)]
        for pos in doomed:
            self._drop(pos)

    def iter_values(self) -> Iterator[tuple[int, int, object]]:
        return iter(sorted(
            (col, row, cell.value)
            for (col, row), cell in self._cells.items() if cell.value is not None
        ))

    def iter_range(self, rng: Range) -> Iterator[tuple[int, int, object]]:
        """Non-blank cells of ``rng`` as (col, row, value), row-major —
        :meth:`ColumnarStore.iter_range`'s order."""
        cells = self._cells
        if rng.size <= len(cells):
            for pos in rng.cells():
                cell = cells.get(pos)
                if cell is not None and cell.value is not None:
                    yield pos[0], pos[1], cell.value
            return
        found = sorted(
            (row, col, cell.value)
            for (col, row), cell in cells.items()
            if rng.contains_cell(col, row) and cell.value is not None
        )
        for row, col, value in found:
            yield col, row, value

    def bounds(self) -> tuple[int, int, int, int] | None:
        if not self._cells:
            return None
        cols = [col for col, _ in self._cells]
        rows = [row for _, row in self._cells]
        return (min(cols), min(rows), max(cols), max(rows))

    def read_band(self, col: int, first_row: int, last_row: int) -> tuple[array, bytearray]:
        """:meth:`ColumnarStore.read_band`'s ``(values, tags)``, assembled
        cell by cell (never cut short: there is no physical end)."""
        first_row = max(first_row, 1)
        n = max(last_row - first_row + 1, 0)
        values, tags = array("d", bytes(8 * n)), bytearray(n)
        for k in range(n):
            cell = self._cells.get((col, first_row + k))
            if cell is not None:
                tags[k], values[k], _ = _classify(cell.value)
        return values, tags

    def write_band(self, col: int, first_row: int, values) -> None:
        """Make ``values`` the cached numbers of the formula cells at rows
        ``first_row..`` of ``col``."""
        cells = self._cells
        for k, value in enumerate(values):
            cells[(col, first_row + k)].value = float(value)

    def pack_result_columns(self, positions) -> list[tuple[tuple[int, int], object]]:
        """The cached values of formula ``positions`` as ``(pos, value)``
        pairs — :meth:`ColumnarStore.pack_result_columns` without planes
        to pack; only :meth:`merge_result_columns` reads them."""
        cells = self._cells
        return [(pos, cells[pos].value) for pos in positions]

    def merge_result_columns(self, packed) -> None:
        cells = self._cells
        for pos, value in packed:
            cells[pos].value = value

    def range_numbers(self, c1: int, r1: int, c2: int, r2: int) -> None:
        """No planes to slice: every range aggregate takes the ordered walk."""
        return None

    # -- formulas --------------------------------------------------------------

    def put_formula(
        self,
        pos: tuple[int, int],
        formula_text: str | None = None,
        formula_ast: Node | None = None,
        value=None,
        template: FormulaTemplate | None = None,
    ) -> None:
        self._cells[pos] = Cell(value, formula_text, formula_ast, template=template, host=pos)
        self.formula_version += 1

    def attach_run(self, col: int, first_row: int, last_row: int,
                   template: FormulaTemplate | None, text: str | None = None) -> None:
        """A cell per member of the run, each keeping the value it held."""
        cells = self._cells
        for row in range(first_row, last_row + 1):
            held = cells.get((col, row))
            cells[(col, row)] = Cell(
                None if held is None else held.value, text,
                template=template, host=(col, row),
            )
            text = None
        self.formula_version += 1

    def formula_at(self, pos: tuple[int, int]) -> Cell | None:
        cell = self._cells.get(pos)
        return cell if cell is not None and cell.is_formula else None

    def formula_items(self) -> Iterator[tuple[tuple[int, int], Cell]]:
        for pos, cell in self._cells.items():
            if cell.is_formula:
                yield pos, cell

    def formula_positions(self, ranges) -> set[tuple[int, int]]:
        cells = self._cells
        return {
            pos for rng in ranges for pos in rng.cells()
            if pos in cells and cells[pos].is_formula
        }

    @property
    def formula_count(self) -> int:
        return sum(1 for _ in self.formula_items())

    def run_index(self, join: bool = True) -> RunIndex:
        """The formula cells grouped into runs, scanned per call."""
        return scan_formula_runs(self.formula_items(), join)

    # -- structural edits ------------------------------------------------------

    def structural_edit(self, axis: str, mode: str, index: int, count: int) -> int:
        """Rekey every cell for a row/column insert or delete (see
        :meth:`ColumnarStore.structural_edit`).  Only the keys move: a
        moved formula keeps its old host until the sheet-level pass
        re-installs it, as it does every formula that moves.  Returns the
        number of cells removed with the deleted band."""
        self.epoch += 1
        self.formula_version += 1
        move = position_mover(axis, mode, index, count)
        kept: dict[tuple[int, int], Cell] = {}
        for pos, cell in self._cells.items():
            new_pos = move(pos)
            if new_pos is not None:
                kept[new_pos] = cell
        removed = len(self._cells) - len(kept)
        self._cells = kept
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectStore({len(self._cells)} cells)"
