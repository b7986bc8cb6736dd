"""Workbook: a named collection of sheets with a cross-sheet resolver."""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ..grid.range import Range
from .sheet import Sheet

__all__ = ["Workbook", "WorkbookEditReport", "WorkbookResolver"]


class WorkbookEditReport(NamedTuple):
    """Summary of one workbook-level structural edit (counts only)."""

    sheet: str                 # the edited sheet
    moved: int                 # formula cells relocated on the edited sheet
    rewritten: int             # formulas rewritten, across every sheet
    ref_errors: int            # formulas that gained a #REF!, across every sheet
    cross_sheet_rewrites: int  # rewritten formulas on *other* sheets
    removed: int               # cells deleted with the edited band


class Workbook:
    def __init__(self, name: str = "workbook"):
        self.name = name
        self._sheets: dict[str, Sheet] = {}
        self._order: list[str] = []

    def add_sheet(self, name: str = "Sheet1") -> Sheet:
        if name in self._sheets:
            raise ValueError(f"sheet {name!r} already exists")
        sheet = Sheet(name)
        self._sheets[name] = sheet
        self._order.append(name)
        return sheet

    def attach_sheet(self, sheet: Sheet) -> Sheet:
        if sheet.name in self._sheets:
            raise ValueError(f"sheet {sheet.name!r} already exists")
        self._sheets[sheet.name] = sheet
        self._order.append(sheet.name)
        return sheet

    def sheet(self, name: str) -> Sheet:
        return self._sheets[name]

    def __contains__(self, name: str) -> bool:
        return name in self._sheets

    def __getitem__(self, name: str) -> Sheet:
        return self._sheets[name]

    def __len__(self) -> int:
        return len(self._sheets)

    @property
    def sheet_names(self) -> list[str]:
        return list(self._order)

    @property
    def active_sheet(self) -> Sheet:
        if not self._order:
            raise ValueError("workbook has no sheets")
        return self._sheets[self._order[0]]

    def sheets(self) -> Iterator[Sheet]:
        for name in self._order:
            yield self._sheets[name]

    def begin_batch(self, sheet: str | None = None, graph=None, **kwargs):
        """Open a batched edit session on one sheet (default: the active one).

        See :meth:`repro.sheet.sheet.Sheet.begin_batch`; formula graphs
        are per-sheet (as in the paper), so a workbook batch targets one
        sheet's graph — but structural ops recorded on the session
        rewrite references on the *other* sheets too (the session
        inherits this workbook unless ``workbook=`` overrides it).
        """
        target = self.active_sheet if sheet is None else self._sheets[sheet]
        kwargs.setdefault("workbook", self)
        return target.begin_batch(graph=graph, **kwargs)

    # -- structural edits ---------------------------------------------------------

    def insert_rows(self, sheet: str | Sheet, row: int, count: int = 1) -> WorkbookEditReport:
        """Insert ``count`` blank rows before ``row`` on ``sheet``.

        Sheet-aware, workbook-wide: cells on the edited sheet move and
        its own references shift; on every *other* sheet only references
        qualified with the edited sheet's name are rewritten.  Cached
        formula values are preserved but stale — recalculation is the
        engine's job (:meth:`repro.engine.recalc.RecalcEngine.insert_rows`
        runs this same rewrite *plus* graph maintenance and dirty
        recalculation).
        """
        return self._structural_edit("insert_rows", sheet, row, count)

    def delete_rows(self, sheet: str | Sheet, row: int, count: int = 1) -> WorkbookEditReport:
        """Delete rows ``[row, row+count)`` on ``sheet``; references into
        them — from any sheet — collapse to ``#REF!``."""
        return self._structural_edit("delete_rows", sheet, row, count)

    def insert_columns(self, sheet: str | Sheet, col: int, count: int = 1) -> WorkbookEditReport:
        """Insert ``count`` blank columns before ``col`` on ``sheet``."""
        return self._structural_edit("insert_columns", sheet, col, count)

    def delete_columns(self, sheet: str | Sheet, col: int, count: int = 1) -> WorkbookEditReport:
        """Delete columns ``[col, col+count)`` on ``sheet``."""
        return self._structural_edit("delete_columns", sheet, col, count)

    def _structural_edit(
        self, op: str, sheet: str | Sheet, index: int, count: int
    ) -> WorkbookEditReport:
        from . import structural

        target = self._sheets[sheet] if isinstance(sheet, str) else sheet
        if target.name not in self._sheets or self._sheets[target.name] is not target:
            raise ValueError(f"sheet {target.name!r} is not part of this workbook")
        report = getattr(structural, op)(target, index, count)
        siblings = structural.rewrite_siblings(self, target, op, index, count)
        return WorkbookEditReport(target.name, *structural._tally(report, siblings), report.removed)

    # -- persistence --------------------------------------------------------------

    def snapshot(self, target, graphs=None):
        """Write a durable snapshot of this workbook to ``target``.

        Persists every sheet's value planes (cached results included),
        its formulas as one record per autofill run, and one compressed
        formula graph per sheet — pass ``graphs`` (sheet name -> graph,
        e.g. each sheet's live ``engine.graph``) to reuse already-built
        graphs; missing ones are built here.  See
        :func:`repro.io.snapshot.save_snapshot`.  Returns the writer's
        :class:`~repro.io.snapshot.SnapshotStats`.
        """
        from ..io.snapshot import save_snapshot  # deferred: io sits above sheet

        return save_snapshot(self, target, graphs)

    @classmethod
    def restore(cls, snapshot, journal=None, **kwargs):
        """Reopen a workbook from a snapshot plus a write-ahead journal.

        Loads the snapshot (one parse per formula run, no
        re-compression, no full recalc), replays the journal's
        complete-record prefix through the batch/structural pipelines —
        a torn tail left by a crash is cut at the last complete record,
        never raised — and recomputes only the journal-dirtied cells.
        Returns a :class:`~repro.engine.journal.RecoveryResult` whose
        ``workbook`` is the restored instance.  See
        :func:`repro.engine.journal.recover`.
        """
        from ..engine.journal import recover  # deferred: engine sits above sheet

        return recover(snapshot, journal, **kwargs)

    def resolver(self) -> "WorkbookResolver":
        return WorkbookResolver(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workbook({self.name!r}, sheets={self._order})"


class WorkbookResolver:
    """CellResolver over a workbook; ``sheet=None`` means the active sheet."""

    __slots__ = ("_workbook", "default_sheet")

    def __init__(self, workbook: Workbook, default_sheet: str | None = None):
        self._workbook = workbook
        self.default_sheet = default_sheet

    def _resolve_sheet(self, sheet: str | None) -> Sheet | None:
        name = sheet if sheet is not None else self.default_sheet
        if name is None:
            return self._workbook.active_sheet if len(self._workbook) else None
        return self._workbook._sheets.get(name)

    def get_value(self, sheet: str | None, col: int, row: int):
        target = self._resolve_sheet(sheet)
        return None if target is None else target.resolver_get_value(None, col, row)

    def iter_cells(self, sheet: str | None, rng: Range):
        target = self._resolve_sheet(sheet)
        if target is None:
            return iter(())
        return target.resolver_iter_cells(None, rng)
