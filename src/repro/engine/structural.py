"""Workbook-level structural edits: one row/column insert or delete,
end-to-end.

This is the pipeline that makes the compressed formula graph survive the
most destructive edits a host spreadsheet performs (TACO's maintenance
workload).  One :func:`apply_structural_edit` call runs, in order:

1. **Sheet rewrite** — the edited sheet's store moves its cells and run
   records wholesale, and its formulas' references into itself
   shift/stretch/collapse (:mod:`repro.sheet.structural`), decided once
   per piece of a run record: only pieces whose template changed are
   re-installed.  Sheet-qualified references into *other* sheets are
   untouched.
2. **Cross-sheet rewrite** — when a :class:`~repro.sheet.workbook.Workbook`
   is supplied, formulas on every sibling sheet that reference the
   edited sheet are rewritten too (:func:`~repro.sheet.structural.rewrite_for_edit`).
3. **Graph maintenance** — the compressed graph is maintained
   incrementally (:mod:`repro.core.structural`) inside one
   deferred-maintenance window: index deletes are queued and settled
   once, with an STR bulk repack when the edit touched a large share of
   the graph (the same policy as batched value edits).
4. **Dirty recalculation** — the dirty set is the edit's seed ranges
   (formulas whose range stretched or shrank, moved or rewritten
   formulas asking ``ROW``/``COLUMN``, ``#REF!``-struck formulas) plus
   their transitive dependents from one multi-seed BFS over the
   compressed graph; :meth:`~repro.engine.recalc.RecalcEngine.recompute`
   re-evaluates exactly those cells, on the ``evaluation="auto"`` path —
   filled columns stay single plan nodes even after the edit, and on engines
   configured with ``shards=N`` the residents re-boot for the new layout
   and recalculate their column shards (:mod:`repro.engine.shard`) with no
   change to the result.

On a deferred engine the edit first settles the engine's pending
backlog (its positions predate the shift) and step 5 marks the dirty
set pending instead of evaluating it.

Structural edits do not compose with *concurrently buffered* cell edits:
issuing one while a :class:`~repro.engine.batch.BatchEditSession` is open
on the engine, or while the graph is inside a deferred-maintenance
window, raises ``RuntimeError`` instead of silently corrupting buffered
positions (record the structural op *through* the batch instead — see
:meth:`~repro.engine.batch.BatchEditSession.apply`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, NamedTuple

from ..core import structural as graph_structural
from ..core.query import dependents_of_seeds
from ..core.structural import StructuralMaintenanceStats
from ..core.taco_graph import dependencies_column_major
from ..grid.range import Range
from ..grid.rangeset import merge_ranges
from ..sheet import structural as sheet_structural
from ..sheet.structural import SheetEditReport, _tally, edit_transform
from .edits import Structural

if TYPE_CHECKING:  # pragma: no cover
    from ..sheet.workbook import Workbook
    from .recalc import RecalcEngine

__all__ = ["StructuralEditResult", "apply_structural_edit", "shift_dirty_ranges"]


class StructuralEditResult(NamedTuple):
    """What one structural edit did, and what it cost."""

    op: str                        # insert_rows / delete_rows / insert_columns / delete_columns
    sheet: str                     # name of the edited sheet
    index: int
    count: int
    moved_cells: int               # formula cells relocated on the edited sheet
    rewritten_formulas: int        # formulas whose template changed (all sheets)
    ref_errors: int                # formulas that gained a #REF! (all sheets)
    cross_sheet_rewrites: int      # rewritten formulas on *other* sheets
    removed_cells: int             # cells deleted with the edited band
    maintenance: StructuralMaintenanceStats  # compressed-graph edge accounting
    repacked: bool                 # True when the indexes were bulk-repacked
    dirty_ranges: list[Range]      # seeds + transitive dependents (post-edit)
    dirty_count: int               # cells in those ranges
    recomputed: int                # formula cells actually re-evaluated
    maintain_seconds: float        # sheet rewrite + graph maintenance
    recalc_seconds: float          # dirty BFS + topological re-evaluation
    total_seconds: float
    #: Per-sibling-sheet rewrite reports (sheet name -> SheetEditReport),
    #: so callers can enumerate cross-sheet formulas whose cached values
    #: are stale until those sheets' own engines recalculate.  ``None``
    #: only when constructed without one (a class-level ``{}`` default
    #: would be one shared mutable dict across instances); the pipeline
    #: always fills it in.
    sibling_reports: "dict | None" = None


def _maintain_graph(
    engine: "RecalcEngine", op: str, index: int, count: int,
) -> tuple[StructuralMaintenanceStats, bool]:
    """Incremental graph maintenance, or a rebuild for graphs without
    compressed-edge storage (NoComp and friends)."""
    graph = engine.graph
    if hasattr(graph, "edges") and hasattr(graph, "add_edge_raw"):
        begin = getattr(graph, "begin_deferred_maintenance", None)
        end = getattr(graph, "end_deferred_maintenance", None)
        repacked = False
        if begin is not None and end is not None:
            begin()
            try:
                stats = getattr(graph_structural, op)(graph, index, count)
            finally:
                repacked = end()
        else:
            stats = getattr(graph_structural, op)(graph, index, count)
        return stats, repacked
    # Uncompressed baselines have no pattern-aware maintenance: rebuild
    # from the already-edited sheet (their build is linear anyway).
    try:
        index_spec = getattr(graph, "index_spec", None)
        fresh = type(graph)() if index_spec is None else type(graph)(index=index_spec)
        fresh.build(dependencies_column_major(engine.sheet))
    except (TypeError, AttributeError, NotImplementedError) as err:
        raise TypeError(
            f"graph backend {type(graph).__name__} supports neither "
            "incremental structural maintenance nor a rebuild from the sheet"
        ) from err
    engine.graph = fresh
    return StructuralMaintenanceStats(0, 0, 0, 0), True


def apply_structural_edit(
    engine: "RecalcEngine",
    edit: Structural,
    *,
    workbook: "Workbook | None" = None,
    batched: bool = False,
) -> StructuralEditResult:
    """Perform one :class:`~repro.engine.edits.Structural` edit
    end-to-end on ``engine``'s sheet.

    ``workbook`` (optional) extends the reference rewrite to every other
    sheet that references the edited one; graph maintenance and
    recalculation stay per-sheet, matching the paper's per-sheet formula
    graphs.  ``batched=True`` runs the edit as one op of a batch commit:
    no journal record and no re-evaluation — the batch's own record
    covers the op, and its single recompute takes ``dirty_ranges``.

    Raises ``RuntimeError`` when a batch session is open on the engine
    or the graph is inside a deferred-maintenance window — buffered cell
    addresses and queued index deletes would silently refer to pre-edit
    coordinates otherwise.
    """
    sheet = engine.sheet
    journal = None if batched else getattr(engine, "journal", None)
    edit.check(journal is not None)
    op, index, count = edit.op, edit.index, edit.count
    if getattr(sheet, "_open_batches", None):
        raise RuntimeError(
            "structural edit with an open batch session on this sheet: "
            "buffered cell edits would straddle the shift; commit/discard "
            "the batch first, or record the edit through the batch session"
        )
    if getattr(engine.graph, "_deferred", False):
        raise RuntimeError(
            "structural edit inside a deferred-maintenance window: queued "
            "index deletes refer to pre-edit geometry; settle the window first"
        )
    if workbook is not None and not any(s is sheet for s in workbook.sheets()):
        # Validate *before* mutating: failing halfway through the
        # cross-sheet pass would leave the sheet edited but the graph
        # unmaintained.
        raise ValueError(
            f"engine's sheet {sheet.name!r} is not part of workbook "
            f"{workbook.name!r}"
        )
    # A deferred engine's backlog is (col, row) positions the shift would
    # silently re-address: settle it before anything moves.
    engine.drain()

    start = time.perf_counter()
    report: SheetEditReport = getattr(sheet_structural, op)(sheet, index, count)
    sibling_reports: dict = {}
    if workbook is not None:
        sibling_reports = sheet_structural.rewrite_siblings(
            workbook, sheet, op, index, count
        )
    moved, rewritten, ref_errors, cross_rewrites = _tally(report, sibling_reports)

    # Structural edits reshape every vector a lookaside index was built
    # over; drop the sheet's whole index cache rather than splicing.
    # (Correctness never depends on this — the columnar store's epoch
    # bump already invalidates the entries — but dropping frees them
    # eagerly instead of leaving dead indexes behind the next probes.)
    lookup_cache = getattr(sheet, "_lookup_cache", None)
    if lookup_cache is not None:
        lookup_cache.drop_all()

    stats, repacked = _maintain_graph(engine, op, index, count)
    maintain_seconds = time.perf_counter() - start

    # Committed (sheet rewritten, graph maintained): make the op durable
    # before the recalculation tail.
    if journal is not None:
        journal.append_edits(sheet.name, (edit,), cross_sheet=workbook is not None)

    recalc_start = time.perf_counter()
    seed_ranges = report.dirty_seeds
    dirty_ranges = merge_ranges(
        (seed_ranges, dependents_of_seeds(engine.graph, seed_ranges)),
        index=getattr(engine.graph, "index_spec", "rtree"),
    )
    recomputed = 0
    if not batched:
        recomputed = engine.recompute(dirty_ranges)
    recalc_seconds = time.perf_counter() - recalc_start

    return StructuralEditResult(
        op=op,
        sheet=sheet.name,
        index=index,
        count=count,
        moved_cells=moved,
        rewritten_formulas=rewritten,
        ref_errors=ref_errors,
        cross_sheet_rewrites=cross_rewrites,
        removed_cells=report.removed,
        maintenance=stats,
        repacked=repacked,
        dirty_ranges=dirty_ranges,
        dirty_count=sum(r.size for r in dirty_ranges),
        recomputed=recomputed,
        maintain_seconds=maintain_seconds,
        recalc_seconds=recalc_seconds,
        total_seconds=time.perf_counter() - start,
        sibling_reports=sibling_reports,
    )


def shift_dirty_ranges(ranges: list[Range], edit: Structural) -> list[Range]:
    """Map dirty ranges recorded *before* a later structural ``edit`` into
    its post-edit coordinates (ranges wholly deleted drop out).

    Used by :class:`~repro.engine.batch.BatchEditSession` when several
    structural ops are committed back to back: op ``k``'s dirty set must
    be re-expressed after op ``k+1`` moves the grid under it.
    """
    transform = edit_transform(edit.op, edit.index, edit.count)
    out: list[Range] = []
    for rng in ranges:
        moved = transform(rng)
        if moved is not None:
            out.append(moved)
    return out
