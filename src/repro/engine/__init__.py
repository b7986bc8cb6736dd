"""Recalculation on formula graphs: one engine, :class:`RecalcEngine`,
and two choices about *when* work happens.

* Per edit or per burst — ``set_value`` / ``set_formula`` /
  ``clear_cell`` pay graph maintenance, a dependents BFS and a
  topological ordering per edit (the paper's motivating application,
  Sec. I); :class:`~repro.engine.batch.BatchEditSession`
  (``engine.begin_batch()``) coalesces a burst and pays them once.
* Immediate or deferred — by default an update returns once its dirty
  set is recomputed; with ``deferred=True`` (DataSpread-style) every
  update path returns at the control-return point, dirty set marked
  pending (:class:`UpdateTicket`), and ``step()`` / ``drain()`` execute
  slices of the same plan afterwards.

Every update is one frozen edit of :mod:`repro.engine.edits`, applied
by ``engine.apply`` (the named methods spell it).  Structural edits
(row/column inserts and deletes) run through
:mod:`repro.engine.structural`: ``engine.insert_rows(...)`` and friends
rewrite the sheet (workbook-wide with ``workbook=``), maintain the
compressed graph incrementally, and re-evaluate just the dirty set.

Durability runs through :mod:`repro.engine.journal`: hand a
:class:`Journal` to an engine and every committed edit is appended to an
fsync'd write-ahead log; :func:`recover` (surfaced as
``Workbook.restore``) replays it onto a snapshot after a crash.
"""

from .batch import BatchEditSession, BatchResult
from .journal import (
    Journal,
    JournalFormatError,
    RecoveryResult,
    read_journal,
    recover,
)
from .recalc import (
    CellView,
    CircularReferenceError,
    RecalcEngine,
    RecalcResult,
    UpdateTicket,
)
from .scenario import ScenarioEngine
from .shard import ShardRuntime, shutdown_pools
from .structural import StructuralEditResult, apply_structural_edit

__all__ = [
    "BatchEditSession",
    "BatchResult",
    "CellView",
    "CircularReferenceError",
    "Journal",
    "JournalFormatError",
    "RecalcEngine",
    "RecalcResult",
    "RecoveryResult",
    "ScenarioEngine",
    "ShardRuntime",
    "StructuralEditResult",
    "UpdateTicket",
    "apply_structural_edit",
    "read_journal",
    "recover",
    "shutdown_pools",
]
