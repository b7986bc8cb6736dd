"""Batched editing with one coalesced maintenance + recalculation pass.

The paper's modification experiments (Figs. 12/15) time *individual*
clears; real interactive engines, though, receive edits in bursts — a
paste, a fill-down, an imported table — and the dominant cost is paying
graph maintenance, a dependents query, and a topological sort once per
edit.  :class:`BatchEditSession` makes the burst the unit of work:

1. **Record** — edits are buffered against the session, not the sheet.
   Re-edits of the same cell coalesce (last writer wins), so a cell
   edited ``k`` times costs one maintenance operation instead of ``k``.
2. **Commit** — the buffered state is applied to the sheet; the touched
   cells are coalesced into their exact rectangle cover
   (:func:`~repro.core.maintain.coalesce_cells`) and the graph is updated
   in one deferred-maintenance wave (:func:`~repro.core.maintain.batch_update`):
   all clears, then all inserts in column-major order, then one index
   settle — per-entry delete replay when the batch was small, STR bulk
   repack when it rewrote a large share of the graph.
3. **Recalculate** — the dirty set is computed by a single BFS over the
   compressed graph seeded with every touched range
   (:func:`~repro.core.query.find_dependents_multi`), and
   :meth:`~repro.engine.recalc.RecalcEngine.recompute` re-evaluates just
   those cells in one topological order.

Equivalence contract: a committed batch leaves the sheet values, the
decompressed dependency set, and the spatial indexes in the same state
as applying the same edits one-by-one through
:class:`~repro.engine.recalc.RecalcEngine` — only cheaper.  The
differential test ``tests/engine/test_batch_differential.py`` pins this
for every registered index backend.

Usage::

    engine = RecalcEngine(sheet)
    with engine.begin_batch() as batch:
        batch.set_value("A1", 3.0)
        batch.set_formula("B1", "=A1*2")
        batch.clear_cell("C9")
    print(batch.result.recomputed)

An exception raised by the *body* of the ``with`` block discards the
pending edits; the sheet and graph are untouched (edits are buffered
until commit, so rollback is free).  The commit itself is not
transactional: if the batched edits close a dependency cycle, the
commit — like the per-edit path — applies the edits, maintains the
graph, marks the trapped cells ``#CYCLE!``, and then raises
:class:`~repro.engine.recalc.CircularReferenceError` (``result`` stays
``None`` in that case).
"""

from __future__ import annotations

import time
from typing import NamedTuple

from ..core import maintain
from ..core.query import dependents_of_seeds
from ..grid.range import Range
from ..grid.rangeset import merge_ranges
from ..sheet.sheet import Dependency
from .edits import ClearCell, ClearRange, Edit, SetFormula, SetValue, Structural
from .recalc import RecalcEngine
from .structural import apply_structural_edit, shift_dirty_ranges

__all__ = ["BatchEditSession", "BatchResult"]


class BatchResult(NamedTuple):
    """What one committed batch did, and what it cost."""

    ops: int                      # raw edit calls recorded
    coalesced_cells: int          # distinct cells they collapsed to
    cleared_ranges: list[Range]   # exact rectangle cover handed to maintenance
    edges_touched: int            # compressed edges removed or replaced
    inserted_dependencies: int    # raw dependencies re-inserted
    repacked: bool                # True when the indexes were bulk-repacked
    dirty_ranges: list[Range]     # transitive dependents of the touched region
    dirty_count: int              # cells in those ranges
    recomputed: int               # formula cells actually re-evaluated
    maintain_seconds: float       # sheet apply + graph maintenance
    recalc_seconds: float         # dirty BFS + topological re-evaluation
    total_seconds: float
    structural_ops: int = 0       # row/column inserts/deletes applied first


class BatchEditSession:
    """Coalesces edits and commits them in one maintenance+recalc pass.

    Sessions are single-use: after :meth:`commit` (or a clean ``with``
    exit, which commits) the session refuses further edits; after
    :meth:`discard` (or an exception in the ``with`` block) the buffered
    edits are dropped and nothing was applied.

    ``recalc=False`` commits maintenance only, leaving stale values (for
    callers that drive recomputation themselves).
    """

    def __init__(
        self,
        engine: RecalcEngine,
        *,
        recalc: bool = True,
        workbook=None,
    ):
        self.engine = engine
        self.recalc = recalc
        #: Optional Workbook: structural ops recorded on this session then
        #: rewrite references on sibling sheets too (see engine.structural).
        self.workbook = workbook
        self.result: BatchResult | None = None
        self._ops = 0
        self._pending: dict[tuple[int, int], SetValue | SetFormula | ClearCell] = {}
        self._range_clears: list[ClearRange] = []
        self._structural: list[Structural] = []
        self._closed = False
        # Register on the *sheet* (any engine over it sees us) so
        # structural edits refuse to run underneath this session's
        # buffered addresses.
        getattr(engine.sheet, "_open_batches", set()).add(self)

    # -- recording ---------------------------------------------------------------

    def apply(self, edit: Edit) -> None:
        """Buffer one :mod:`~repro.engine.edits` edit.

        Re-edits of one cell coalesce (last writer wins).  A range clear
        drops the pending cell edits inside it; edits recorded *after* it
        win over it for their cell, preserving order semantics.
        Structural ops are applied *first* at commit, before the buffered
        cell edits — so cell edits recorded after one use post-edit
        addresses.  Recording a structural op when cell edits are already
        buffered raises: their addresses would silently straddle the
        shift (record structural ops first, or use separate batches).
        Validation waits for :meth:`commit`.
        """
        self._check_open()
        if isinstance(edit, Structural):
            if self._pending or self._range_clears:
                raise RuntimeError(
                    f"cannot record {edit.op} after cell edits in the same batch: "
                    "the buffered addresses would straddle the shift; record "
                    "structural ops first (they commit first), or use a new batch"
                )
            self._structural.append(edit)
        elif isinstance(edit, ClearRange):
            rng = edit.rng
            for pos in [p for p in self._pending if rng.contains_cell(*p)]:
                del self._pending[pos]
            self._range_clears.append(edit)
        else:
            self._pending[edit.pos] = edit
        self._ops += 1

    def set_value(self, target, value) -> None:
        """Buffer a pure-value write (None clears, as on the sheet)."""
        self.apply(SetValue(target, value))

    def set_formula(self, target, text: str) -> None:
        """Buffer a formula write (leading ``=`` optional)."""
        self.apply(SetFormula(target, text))

    def clear_cell(self, target) -> None:
        """Buffer erasing one cell."""
        self.apply(ClearCell(target))

    def clear_range(self, rng: Range) -> None:
        """Buffer erasing a whole range."""
        self.apply(ClearRange(rng))

    def insert_rows(self, row: int, count: int = 1) -> None:
        """Buffer inserting ``count`` blank rows before ``row``."""
        self.apply(Structural("insert_rows", row, count))

    def delete_rows(self, row: int, count: int = 1) -> None:
        """Buffer deleting rows ``[row, row+count)``."""
        self.apply(Structural("delete_rows", row, count))

    def insert_columns(self, col: int, count: int = 1) -> None:
        """Buffer inserting ``count`` blank columns before ``col``."""
        self.apply(Structural("insert_columns", col, count))

    def delete_columns(self, col: int, count: int = 1) -> None:
        """Buffer deleting columns ``[col, col+count)``."""
        self.apply(Structural("delete_columns", col, count))

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("batch session is closed; open a new one")

    @property
    def pending_ops(self) -> int:
        """Raw edit calls recorded so far."""
        return self._ops

    # -- lifecycle ----------------------------------------------------------------

    def __enter__(self) -> "BatchEditSession":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._closed:           # committed or discarded explicitly inside
            return
        if exc_type is None:
            self.commit()
        else:
            self.discard()

    def discard(self) -> None:
        """Drop every buffered edit; the sheet and graph are untouched."""
        self._pending.clear()
        self._range_clears.clear()
        self._structural.clear()
        self._closed = True
        getattr(self.engine.sheet, "_open_batches", set()).discard(self)

    def commit(self) -> BatchResult:
        """Apply the buffered edits: sheet, graph, indexes, then recalc.

        Raises :class:`~repro.engine.recalc.CircularReferenceError` if
        the edits close a dependency cycle — the sheet and graph are
        already updated at that point and the trapped cells are marked
        ``#CYCLE!``, matching per-edit semantics; ``result`` is not set.
        """
        self._check_open()
        self._closed = True
        engine = self.engine
        sheet = engine.sheet
        getattr(sheet, "_open_batches", set()).discard(self)
        # Validate every buffered edit *before* applying anything, so a
        # failure cannot leave the batch half-applied (or, journaled, live
        # state the journal never recorded).
        journaled = engine.journal is not None
        edits = [*self._structural, *self._range_clears, *self._pending.values()]
        for edit in edits:
            edit.check(journaled)
        start = time.perf_counter()

        # 0. Structural edits (always recorded before cell edits) are
        # applied first, each end-to-end minus the recalculation; their
        # dirty sets are carried forward — re-expressed through every
        # later shift — and re-evaluated together with the cell edits'
        # dirty set in the single recompute below.
        structural_dirty: list[Range] = []
        for edit in self._structural:
            structural_dirty = shift_dirty_ranges(structural_dirty, edit)
            structural_result = apply_structural_edit(
                engine, edit, workbook=self.workbook, batched=True,
            )
            structural_dirty.extend(structural_result.dirty_ranges)

        # 1. Sheet state: range clears first (in order), then the
        # surviving per-cell edits — by construction the per-cell buffer
        # already reflects in-order semantics.
        for edit in edits[len(self._structural):]:
            edit.write(sheet)

        # 2. Graph maintenance, one deferred wave over the exact cover.
        cleared = maintain.coalesce_cells(self._pending)
        cleared += [edit.rng for edit in self._range_clears]
        new_deps: list[Dependency] = []
        formula_positions: set[tuple[int, int]] = set()
        for pos, edit in self._pending.items():
            if type(edit) is not SetFormula:
                continue
            cell = sheet.formula_at(pos)
            if cell is None:
                continue
            formula_positions.add(pos)
            new_deps.extend(sheet.dependencies_at(cell.template, *pos))
        graph_result = maintain.batch_update(engine.graph, cleared, new_deps)
        maintain_seconds = time.perf_counter() - start

        # The batch is now committed (sheet + graph); make it durable
        # before recomputing dependents.  One record carries the whole
        # commit, in commit order; a commit of nothing writes nothing.
        if journaled and edits:
            engine.journal.append_edits(
                sheet.name, edits, batch=True, cross_sheet=self.workbook is not None
            )

        # 3. Dirty set by one BFS over the compressed graph, merged with
        # the structural edits' carried-forward dirty sets, then a single
        # topological re-evaluation.
        recalc_start = time.perf_counter()
        dirty_ranges = self._find_dirty(cleared)
        if structural_dirty:
            dirty_ranges = merge_ranges(
                (structural_dirty, dirty_ranges),
                index=getattr(engine.graph, "index_spec", "rtree"),
            )
        recomputed = 0
        if self.recalc:
            recomputed = engine.recompute(dirty_ranges, extra=formula_positions)
        recalc_seconds = time.perf_counter() - recalc_start

        self.result = BatchResult(
            ops=self._ops,
            coalesced_cells=len(self._pending),
            cleared_ranges=cleared,
            edges_touched=graph_result.edges_touched,
            inserted_dependencies=graph_result.inserted,
            repacked=graph_result.repacked,
            dirty_ranges=dirty_ranges,
            dirty_count=sum(r.size for r in dirty_ranges),
            recomputed=recomputed,
            maintain_seconds=maintain_seconds,
            recalc_seconds=recalc_seconds,
            total_seconds=time.perf_counter() - start,
            structural_ops=len(self._structural),
        )
        return self.result

    def _find_dirty(self, seeds: list[Range]) -> list[Range]:
        return dependents_of_seeds(self.engine.graph, seeds)
