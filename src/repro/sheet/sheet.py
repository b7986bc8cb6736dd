"""The sheet: a sparse grid of cells plus dependency enumeration.

A :class:`Sheet` stores cells sparsely in one of two stores that speak
the same surface — by default the typed columnar store
(:mod:`repro.sheet.columnar`), or one boxed cell per position
(:mod:`repro.sheet.object_store`, ``store="object"``) — so nothing above
the store asks which one it holds.  Besides the value/formula accessors
the sheet provides :meth:`Sheet.iter_dependencies`, which enumerates the
raw formula-graph edges (referenced range -> formula cell) together with
their dollar-sign cues — exactly the stream that both NoComp and TACO
ingest.
"""

from __future__ import annotations

import weakref
from array import array
from collections import namedtuple
from itertools import chain, repeat
from typing import Iterable, Iterator

from ..formula.ast_nodes import Node
from ..formula.template import FormulaTemplate
from ..grid.range import Range
from ..grid.ref import parse_cell
from .cell import Cell
from .columnar import ColumnarStore, RunIndex
from .object_store import ObjectStore

__all__ = ["Sheet", "Dependency", "DEFAULT_STORE", "STORE_KINDS"]

_STORES = {"columnar": ColumnarStore, "object": ObjectStore}

#: Valid ``Sheet(store=...)`` kinds.
STORE_KINDS = tuple(_STORES)

#: The store used when ``Sheet(store=None)``.
DEFAULT_STORE = "columnar"


class Dependency(namedtuple("Dependency", "prec dep cue", defaults=("RR",))):
    """One raw formula-graph dependency: ``prec -> dep`` with its cue.

    The tuple ``(prec, dep, cue)``, equal to and hashed as ``(prec,
    dep)``: the cue says how the reference was written, not what it is.
    """

    __slots__ = ()

    def as_tuple(self) -> tuple[Range, Range]:
        return self[:2]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dependency):
            return NotImplemented
        return self[0] == other[0] and self[1] == other[1]

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self[:2])

    def __repr__(self) -> str:
        return f"Dependency({self.prec.to_a1()} -> {self.dep.to_a1()}, cue={self.cue})"


_new = tuple.__new__


def _coerce_pos(target) -> tuple[int, int]:
    if isinstance(target, str):
        return parse_cell(target)
    if isinstance(target, Range):
        if not target.is_cell:
            raise ValueError(f"expected a single cell, got {target.to_a1()}")
        return target.head
    col, row = target
    return (col, row)


def _row_dependencies(refs: list[tuple], col: int, row: int) -> list[Dependency]:
    """The dependencies of the member at ``(col, row)``, in formula order."""
    dep = _new(Range, (col, row, col, row))
    return [
        _new(Dependency, (
            _new(Range, (c1, top if top_fixed else row + top, c2, low if low_fixed else row + low)),
            dep, cue,
        ))
        for c1, c2, (top_fixed, top), (low_fixed, low), cue in refs
    ]


def _piece_dependencies(refs: list[tuple], col: int, first: int, last: int) -> Iterable[Dependency]:
    """The dependencies of the members at rows ``first..last`` of
    ``col``, member by member, given their piece's :meth:`Sheet._own_refs`
    (which checked every range at both ends of the piece, so none is
    checked again here).

    A piece of several rows is built by C iterators: one precedent
    column per reference, zipped member by member and chained, with no
    Python frame per dependency.  A reference fixed at both ends is one
    shared range down the whole column."""
    if first == last:
        return _row_dependencies(refs, col, first)
    rows = range(first, last + 1)
    deps = list(map(_new, repeat(Range), zip(repeat(col), rows, repeat(col), rows)))
    columns = []
    for c1, c2, (top_fixed, top), (low_fixed, low), cue in refs:
        if top_fixed and low_fixed:
            precs = repeat(_new(Range, (c1, top, c2, low)))
        else:
            tops = repeat(top) if top_fixed else range(first + top, last + 1 + top)
            lows = repeat(low) if low_fixed else range(first + low, last + 1 + low)
            precs = map(_new, repeat(Range), zip(repeat(c1), tops, repeat(c2), lows))
        columns.append(map(_new, repeat(Dependency), zip(precs, deps, repeat(cue))))
    return chain.from_iterable(zip(*columns))


class Sheet:
    """A sparse spreadsheet grid."""

    def __init__(self, name: str = "Sheet1", store: str | None = None):
        self.name = name
        kind = DEFAULT_STORE if store is None else store
        if kind not in _STORES:
            raise ValueError(
                f"unknown store kind {kind!r}; expected one of {STORE_KINDS}"
            )
        self._cells = _STORES[kind]()
        self.store_kind = kind
        #: ``raw_value(col, row)``: the value at bare integer coordinates,
        #: the hot-loop accessor (no target coercion) — bound straight to
        #: the store.
        self.raw_value = self._cells.read_value
        # Open BatchEditSessions register here (on the sheet, not their
        # engine, so sessions from throwaway engines over the same sheet
        # are visible too); structural edits refuse to run while any is
        # open — buffered cell addresses would straddle the shift.  Weak
        # references: an abandoned session must not lock the sheet out
        # of structural edits forever.
        self._open_batches: weakref.WeakSet = weakref.WeakSet()

    def __len__(self) -> int:
        return len(self._cells)

    # -- cell access -----------------------------------------------------------

    def cell_at(self, target) -> Cell | None:
        return self._cells.cell_at(_coerce_pos(target))

    def formula_at(self, target) -> Cell | None:
        """The formula cell at ``target``, or None for blank/pure-value
        positions.  On a columnar sheet: a transient view of the
        position's run record, found by bisect — readers of many cells
        use :meth:`run_index` or :meth:`formula_positions` instead."""
        return self._cells.formula_at(_coerce_pos(target))

    def formula_positions(self, ranges) -> set[tuple[int, int]]:
        """The positions inside ``ranges`` that hold a formula."""
        return self._cells.formula_positions(ranges)

    def get_value(self, target):
        col, row = _coerce_pos(target)
        return self._cells.read_value(col, row)

    def read_band(self, col: int, first_row: int, last_row: int) -> tuple[array, bytearray]:
        """Rows ``first_row..last_row`` of ``col`` as flat ``(values,
        tags)`` copies — :meth:`ColumnarStore.read_band`, which see; the
        object store assembles the same thing cell by cell."""
        return self._cells.read_band(col, first_row, last_row)

    def write_band(self, col: int, first_row: int, values) -> None:
        """Make ``values`` the cached numbers of the formula cells at rows
        ``first_row..`` of ``col`` (:meth:`ColumnarStore.write_band`)."""
        self._cells.write_band(col, first_row, values)

    def set_value(self, target, value) -> None:
        col, row = target if type(target) is tuple else _coerce_pos(target)
        self._cells.write_pure(col, row, value)

    def import_column(self, col: int, start_row: int, tags: bytes,
                      values: array, side: dict[int, object]) -> None:
        """Install a column run of values in one call: row
        ``start_row + i`` gets tag ``tags[i]`` (``repro.sheet.columnar``'s
        ``TAG_*``) with its number ``values[i]`` or, for strings, errors
        and objects, ``side[i]``.  Every row must be vacant (ValueError
        otherwise).  Two slice copies on the columnar store
        (:meth:`ColumnarStore.import_column`); the object store writes
        the cells one by one."""
        self._cells.import_column(col, start_row, tags, values, side)

    def set_formula(self, target, text: str) -> None:
        """Set a formula from text (leading ``=`` optional)."""
        body = text[1:] if text.startswith("=") else text
        self._cells.put_formula(_coerce_pos(target), formula_text=body)

    def set_formula_ast(self, target, ast: Node) -> None:
        """Set a formula from a pre-built AST written for ``target``."""
        self._cells.put_formula(_coerce_pos(target), formula_ast=ast)

    def set_formula_template(self, target, template: FormulaTemplate) -> None:
        """Make ``target`` a member of ``template``'s autofill family.

        The fill fast path: no AST is shifted, the new cell is just the
        template pointer and its position.  A position at which one of
        the template's relative references would leave the grid cannot be
        a member — it gets its own ``#REF!``-bearing formula instead.
        """
        pos = _coerce_pos(target)
        if not template.admits(*pos):
            self.set_formula_ast(pos, template.ast_at(*pos))
            return
        self._cells.put_formula(pos, template=template)

    def attach_formula_run(
        self, col: int, first_row: int, last_row: int,
        template: FormulaTemplate | None, text: str | None = None,
    ) -> None:
        """Make rows ``first_row..last_row`` of ``col`` members of
        ``template``, keeping the cached values they hold — the inverse of
        one :meth:`run_index` record, and how a fill, an xlsx shared group
        and a snapshot load create a family: one record on a columnar
        sheet, however long the run.  ``text`` becomes the first member's
        source text.  Every row must be one ``template`` admits.  A run
        of one cell may come without its template: it is then just its
        ``text``, like any typed cell, and parses if something needs more.
        """
        if template is None and (text is None or last_row != first_row):
            raise ValueError("only a single typed cell can do without its template")
        self._cells.attach_run(col, first_row, last_row, template, text)

    def clear_cell(self, target) -> None:
        col, row = _coerce_pos(target)
        self._cells.write_pure(col, row, None)

    def clear_range(self, rng: Range) -> None:
        self._cells.clear_range(rng.c1, rng.r1, rng.c2, rng.r2)

    # -- iteration ------------------------------------------------------------

    def positions(self) -> Iterator[tuple[int, int]]:
        return iter(self._cells)

    def items(self) -> Iterator[tuple[tuple[int, int], Cell]]:
        return self._cells.items()

    def iter_values(self) -> Iterator[tuple[int, int, object]]:
        """Every non-blank value as ``(col, row, value)``, column-major —
        formula cached values included — without a cell object per
        position on a columnar sheet."""
        return self._cells.iter_values()

    def formula_cells(self) -> Iterator[tuple[tuple[int, int], Cell]]:
        return self._cells.formula_items()

    def run_index(self, join: bool = True) -> RunIndex:
        """Every maximal vertical run of formula cells sharing a template,
        per column: ``{col: [(first_row, last_row, template), ...]}``,
        columns and rows ascending.

        An autofilled column is one run; a lone formula is a run of
        length one.  The runs are the unit the graph is built from
        (:func:`repro.core.taco_graph.build_from_sheet`), the dependency
        stream is read off, recalculation is planned in and xlsx shared
        groups are written as.  With ``join=False`` nothing parses and
        the records are what a snapshot writes — ``(first_row, last_row,
        template | None, text | None)``, cut at every typed cell
        (:func:`~repro.sheet.columnar.scan_formula_runs`).  On a columnar
        sheet those *are* the formula plane's storage and the joined view
        is rebuilt from them once per :attr:`formula_version`; the object
        store scans its cells per call.  Read-only.
        """
        return self._cells.run_index(join)

    def formula_runs(self) -> Iterator[tuple[FormulaTemplate, int, int, int]]:
        """:meth:`run_index` flattened: ``(template, col, first_row,
        last_row)`` in column-major order."""
        for col, runs in self.run_index().items():
            for first, last, template in runs:
                yield template, col, first, last

    @property
    def formula_version(self) -> int:
        """A counter that moves exactly when the set of formula cells or
        any cell's formula changes (never on a value write): what every
        plan kept across edits is stamped with."""
        return self._cells.formula_version

    @property
    def formula_count(self) -> int:
        return self._cells.formula_count

    def used_range(self) -> Range | None:
        """Bounding box of all occupied cells, or None for an empty sheet."""
        bounds = self._cells.bounds()
        return None if bounds is None else Range(*bounds)

    # -- batched editing ---------------------------------------------------------

    def begin_batch(self, graph=None, **kwargs):
        """Open a batched edit session on this sheet.

        Convenience entry point for the edit-batch pipeline
        (:mod:`repro.engine.batch`): builds a
        :class:`~repro.engine.recalc.RecalcEngine` over this sheet (and
        ``graph``, or a freshly built TACO graph) and returns its
        :class:`~repro.engine.batch.BatchEditSession`.  Callers that
        already hold an engine should use ``engine.begin_batch()``
        instead so the graph is reused across batches.
        """
        from ..engine.recalc import RecalcEngine  # deferred: engine sits above sheet

        return RecalcEngine(self, graph).begin_batch(**kwargs)

    # -- formula graph input ----------------------------------------------------

    def iter_dependencies(self) -> Iterator[Dependency]:
        """All same-sheet dependencies (prec range -> formula cell), the
        formula cells in column-major order, each cell's in formula order.

        Cross-sheet references are skipped: formula graphs in the paper
        are per-sheet, and a reference into another sheet contributes no
        edge to this sheet's graph.  The stream is read off the runs
        (:meth:`run_index`): references are resolved once per piece of a
        run and only the rows are worked out per member.
        """
        for col, runs in self.run_index().items():
            for first, last, template in runs:
                pieces = [(first, last)]
                if last > first:
                    pieces = template.run_pieces(col, first, last, self.name)
                for a, b in pieces:
                    yield from _piece_dependencies(self._own_refs(template, col, a, b), col, a, b)

    def _own_refs(self, template: FormulaTemplate, col: int, first: int, last: int) -> list[tuple]:
        """``template``'s references into this sheet (a qualifier naming
        it is no qualifier) as the members at rows ``first..last`` of
        ``col`` state them — one piece (:meth:`FormulaTemplate.run_pieces`),
        so all alike: ``(c1, c2, top row axis, bottom row axis, cue)`` in
        formula order, coinciding references collapsed onto the first.
        Each range is checked (``Range`` raises) at both ends of the
        piece: its corners move linearly with the row, so it is then a
        valid range at every member."""
        refs: dict[tuple, tuple] = {}
        for spec in template.refs:
            if spec.sheet in (None, self.name):
                top, low = spec.head_row, spec.tail_row
                # Corners do not cross inside a piece; they may touch at an end.
                if top.at(first) + top.at(last) > low.at(first) + low.at(last):
                    top, low = low, top
                _, c1, r1, c2, r2 = spec.span_at(col, first)
                for end in (first, last):
                    Range(c1, top.at(end), c2, low.at(end))
                refs.setdefault((c1, r1, c2, r2), (c1, c2, top, low, spec.cue))
        return list(refs.values())

    def dependencies_at(self, template: FormulaTemplate, col: int, row: int) -> list[Dependency]:
        """The same-sheet dependencies a member of ``template`` hosted at
        ``(col, row)`` states, in formula order.  References that
        coincide at this host are one dependency (the first one's cue)."""
        return _row_dependencies(self._own_refs(template, col, row, row), col, row)

    def dependency_count(self) -> int:
        return sum(1 for _ in self.iter_dependencies())

    # -- CellResolver protocol (single-sheet form) ------------------------------

    def resolver_get_value(self, sheet: str | None, col: int, row: int):
        if sheet is not None and sheet != self.name:
            return None
        return self.raw_value(col, row)

    def resolver_iter_cells(self, sheet: str | None, rng: Range):
        """Non-blank cells of ``rng`` in row-major geometric order.

        The order is part of the contract: aggregate evaluation picks
        the *first* error a range yields, so both stores must enumerate
        identically for evaluation to be store-independent.
        """
        if sheet is not None and sheet != self.name:
            return
        yield from self._cells.iter_range(rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sheet({self.name!r}, {len(self._cells)} cells)"


class SheetResolver:
    """Adapter presenting a single Sheet as a CellResolver.

    ``lookup_probe`` is the engine's optional lookaside-index hook
    (:mod:`repro.engine.lookup`): lookup builtins duck-type for it on
    the resolver behind a ``RangeValue``, so the formula layer stays
    engine-agnostic.  None means "always linear-scan".

    ``range_numbers`` is the same kind of hook for range aggregates
    (``RangeValue.iter_numbers``): ``(sheet, rng) -> floats | None``,
    the rectangle's numbers off the store's planes by slice, None when
    only the ordered per-cell walk can answer (always, on the object
    store).  Armed by :meth:`read_by_plane`; an unarmed resolver (the
    interpreter oracle) always walks.
    """

    __slots__ = ("_sheet", "lookup_probe", "range_numbers")

    def __init__(self, sheet: Sheet):
        self._sheet = sheet
        self.lookup_probe = None
        self.range_numbers = None

    def read_by_plane(self) -> None:
        # (a closure over the store, not a method of this resolver: no
        # reference cycle keeps an evicted workbook's planes waiting for
        # the cycle collector)
        name, numbers = self._sheet.name, self._sheet._cells.range_numbers

        def plane_numbers(sheet: str | None, rng: Range):
            if sheet is not None and sheet != name:
                return None
            return numbers(rng.c1, rng.r1, rng.c2, rng.r2)

        self.range_numbers = plane_numbers

    def get_value(self, sheet: str | None, col: int, row: int):
        return self._sheet.resolver_get_value(sheet, col, row)

    def iter_cells(self, sheet: str | None, rng: Range):
        return self._sheet.resolver_iter_cells(sheet, rng)
