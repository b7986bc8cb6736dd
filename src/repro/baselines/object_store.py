"""The seed's sheet model: one boxed :class:`Cell` per occupied position.

Before the typed columnar store (:mod:`repro.sheet.columnar`) a sheet
was a dict keyed by ``(col, row)`` whose values are ``Cell`` objects, a
formula cell holding its template and host.  It survives here for two
jobs:

* the **memory baseline** — what a cell costs as an object, against
  which the columnar store's footprint is gated (``bench_columnar.py``);
* the **store-layer oracle** — :class:`ObjectSheet` is a
  :class:`~repro.sheet.sheet.Sheet` over this store, and the tests that
  check the columnar store itself (its values, formula plane, run
  records and structural moves) compare the two.

:class:`ObjectStore` answers only what the sheet's store-layer methods
and the structural pass (:mod:`repro.sheet.structural`) call.  It has no
value planes and no bands, so engines, kernels, lookup indexes, the
resident runtime and the snapshot writer run over the columnar store
only; the interpreter over a columnar sheet is their oracle.
"""

from __future__ import annotations

from typing import Iterator

from ..formula.ast_nodes import Node
from ..formula.template import FormulaTemplate
from ..grid.range import Range
from ..sheet.cell import Cell
from ..sheet.columnar import RunIndex
from ..sheet.sheet import Sheet
from ..sheet.structural import position_mover

__all__ = ["ObjectSheet", "ObjectStore"]


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
        """The formula cells grouped into maximal vertical runs sharing a
        template, scanned per call.

        Members of a family hold the *same* interned template object, so
        a run is found by pointer compares.  With ``join`` every cell set
        from text parses and joins its template first (adjacent typed
        cells that say the same thing in R1C1 are then one run).  Without
        it the records are the ones the columnar store keeps
        (:data:`~repro.sheet.columnar.RunIndex`): a typed cell starts a
        record carrying its source text, and one never parsed reads None.
        """
        by_col: dict[int, list] = {}
        for (col, row), cell in self.formula_items():
            by_col.setdefault(col, []).append((row, cell))
        index: RunIndex = {}
        for col in sorted(by_col):
            cells = by_col[col]
            cells.sort()                    # rows are unique: cells never compare
            runs = index[col] = []
            for row, cell in cells:
                template = cell.template if join else cell._template
                text = None if join else cell.source_text
                run = runs[-1] if runs else None
                if (run is not None and run[1] == row - 1 and run[2] is template
                        and template is not None and text is None):
                    runs[-1] = (run[0], row, *run[2:])
                else:
                    runs.append((row, row, template) if join else (row, row, template, text))
        return index

    # -- structural edits ------------------------------------------------------

    def structural_edit(self, axis: str, mode: str, index: int, count: int) -> int:
        """Rekey every cell for a row/column insert or delete (see
        :meth:`ColumnarStore.structural_edit`): a formula that moves is
        re-hosted with its template and text, so it reads its formula at
        the new host, autofill-shifted with the move.  Returns the number
        of cells removed with the deleted band."""
        self.epoch += 1
        self.formula_version += 1
        move = position_mover(axis, mode, index, count)
        kept: dict[tuple[int, int], Cell] = {}
        for pos, cell in self._cells.items():
            new_pos = move(pos)
            if new_pos is None:
                continue
            if new_pos != pos and cell.is_formula:
                cell = Cell(cell.value, cell.source_text, template=cell._template, host=new_pos)
            kept[new_pos] = cell
        removed = len(self._cells) - len(kept)
        self._cells = kept
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectStore({len(self._cells)} cells)"


class ObjectSheet(Sheet):
    """A :class:`~repro.sheet.sheet.Sheet` over :class:`ObjectStore`."""

    _store_class = ObjectStore
