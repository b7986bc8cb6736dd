"""Compatibility spelling of the deferred engine.

Deferral — the paper's control-return model (Sec. I, VI-A): an update
returns once its dependents are *identified and marked*, recomputation
is pumped afterwards — is a mode of
:class:`~repro.engine.recalc.RecalcEngine` (``deferred=True``), not a
second engine.  This module keeps the older names importable for
callers that predate that (``benchmarks/ledger`` among them); new code
should construct ``RecalcEngine(sheet, graph, deferred=True)``.
"""

from __future__ import annotations

from ..graphs.base import FormulaGraph
from ..sheet.sheet import Sheet
from .recalc import CellView, RecalcEngine, UpdateTicket

__all__ = ["AsyncRecalcEngine", "UpdateTicket", "CellView"]


class AsyncRecalcEngine(RecalcEngine):
    """``RecalcEngine(sheet, graph, evaluation=..., deferred=True)``."""

    def __init__(
        self, sheet: Sheet, graph: FormulaGraph | None = None, *,
        evaluation: str = "auto",
    ):
        super().__init__(sheet, graph, evaluation=evaluation, deferred=True)

    def note_external_dirty(self, dirty_ranges) -> int:
        """Mark the formula cells of ``dirty_ranges`` pending after a
        sibling engine over the same sheet + graph mutated it; returns
        how many were marked.  (One engine needs no such hand-off: a
        deferred engine's own :meth:`recompute` is this.)"""
        return self.recompute(dirty_ranges)
