"""Workbook input/output.

xlsx read/write on the standard library (ZIP + SpreadsheetML XML), plus
the snapshot format (:mod:`repro.io.snapshot`) that persists value
planes, one formula record per autofill run, and the *compressed*
per-sheet graphs so a reopen pays no build/recalc cost and one parse
per run.
"""

from .snapshot import (
    Snapshot,
    SnapshotFormatError,
    SnapshotStats,
    load_snapshot,
    save_snapshot,
)
from .xlsx_reader import XlsxFormatError, read_xlsx, read_xlsx_dependencies
from .xlsx_writer import write_xlsx

__all__ = [
    "Snapshot",
    "SnapshotFormatError",
    "SnapshotStats",
    "XlsxFormatError",
    "load_snapshot",
    "read_xlsx",
    "read_xlsx_dependencies",
    "save_snapshot",
    "write_xlsx",
]
