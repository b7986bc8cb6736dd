"""Write-ahead edit journal and crash recovery.

A snapshot (:mod:`repro.io.snapshot`) makes reopening a workbook free of
parse/build/recalc cost; the journal makes it *durable between
snapshots*.  Every committed mutation of an engine — a cell edit, one
:class:`~repro.engine.batch.BatchEditSession` commit, a row/column
structural op — appends one typed record to an append-only file and
fsyncs it, so after a crash the workbook state is exactly

    ``snapshot  +  the journal's complete-record prefix``.

Wire format (version 1), little-endian::

    header   MAGIC(8) = b"TACOJRN1"   version u32
    record   mark(2) = b"JR"   length u32   crc32 u32   payload[length]

Payloads are compact JSON.  Reading stops at the first frame that is
incomplete, fails its checksum, or does not start with the record mark —
the torn tail a crash mid-append leaves behind.  Torn tails are *cut*,
never raised: :func:`read_journal` returns the decoded prefix plus a
``torn`` flag.  A journal whose header names a newer format version is
rejected with an error naming both versions.

A record is a serialised list of edits, in the format
:mod:`repro.engine.edits` owns; a fresh journal starts with an ``open``
record pairing it with its snapshot.

Recovery (:func:`recover`, surfaced as ``Workbook.restore``) loads the
snapshot, decodes each record back into edits and applies them through
the same engine and batch paths with recalculation deferred, then recomputes
only the journal-dirtied cells: one multi-seed BFS over each touched
sheet's compressed graph, one topological re-evaluation.  Untouched
sheets keep their snapshot values and graphs unread.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import IO, NamedTuple

from ..core.query import dependents_of_seeds
from ..grid.range import Range
from ..grid.rangeset import merge_ranges
from ..io.snapshot import Snapshot, fsync_directory, load_snapshot
from ..sheet.workbook import Workbook
from .edits import JournalFormatError, Structural, cell_edit, from_record, to_records
from .recalc import CircularReferenceError, RecalcEngine
from .structural import shift_dirty_ranges

__all__ = [
    "Journal",
    "JournalFormatError",
    "JournalReadResult",
    "RecoveryResult",
    "read_journal",
    "recover",
]

MAGIC = b"TACOJRN1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sI")
_FRAME = struct.Struct("<2sII")
_RECORD_MARK = b"JR"


class Journal:
    """An append-only, checksummed edit journal.

    Open one and hand it to an engine (``RecalcEngine(sheet, graph,
    journal=journal)``): every committed edit is appended and fsync'd
    before the engine starts recomputing dependents, so the on-disk
    prefix always describes committed state.  ``fsync=False`` trades
    durability for speed (tests, bulk imports).

    ``truncate=True`` starts a fresh journal (the usual move right after
    :func:`~repro.io.snapshot.save_snapshot`); the default appends to an
    existing journal — verifying its header and *cutting any torn tail
    first*, so records appended after a crash-and-restart never sit
    behind garbage bytes that recovery would stop at.

    ``snapshot_id`` (from :class:`~repro.io.snapshot.SnapshotStats`)
    pairs a fresh journal with the snapshot it extends: it is written as
    the journal's first record, and :func:`recover` refuses to replay
    the journal onto any *other* snapshot — catching stale or swapped
    snapshot/journal pairs instead of silently corrupting values.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        truncate: bool = False,
        snapshot_id: str | None = None,
    ):
        self.path = path
        self._fsync = fsync
        self.records_written = 0
        #: Complete records already in the file when it was opened for
        #: appending (empty for a fresh journal) — the open pays one full
        #: scan anyway, so callers that need the history (e.g. the CLI's
        #: structural-history check) read it here instead of re-scanning.
        self.preexisting_records: list[dict] = []
        #: Records in the file that are edits — anything but an ``open``
        #: pairing stamp — found at opening or appended since.  Zero means
        #: the paired snapshot alone still is the journaled state.
        self.edit_records = 0
        if truncate and os.path.exists(path):
            os.remove(path)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            # Validates magic/version (any existing non-journal file —
            # full or partial — raises rather than being overwritten),
            # then finds the last complete record.  A torn tail (from a
            # crash mid-append) is cut off here: appending after it
            # would make every later record unreadable.  A torn *header*
            # means no record ever committed — start the file over.
            result = read_journal(path)
            self.preexisting_records = result.records
            self.edit_records = sum(
                1 for record in result.records if record.get("kind") != "open"
            )
            if result.torn:
                keep = result.valid_bytes if result.valid_bytes >= _HEADER.size else 0
                with open(path, "r+b") as handle:
                    handle.truncate(keep)
                    handle.flush()
                    os.fsync(handle.fileno())
                fresh = keep == 0
        if not fresh and snapshot_id:
            # Reopening an existing journal under a *different* snapshot
            # stamp would append acknowledged edits behind the wrong
            # pairing record; refuse now, before anything is written.
            stamps = [
                record.get("snapshot")
                for record in self.preexisting_records
                if record.get("kind") == "open"
            ]
            if snapshot_id not in stamps:
                raise JournalFormatError(
                    f"journal {path!r} already belongs to snapshot "
                    f"{stamps[0] if stamps else '<unstamped>'}; pass "
                    "truncate=True to start a fresh journal for "
                    f"snapshot {snapshot_id}"
                )
        self._handle: IO[bytes] | None = open(path, "ab")
        if fresh:
            # The header and the pairing stamp are committed together: a
            # crash leaves nothing, a torn or header-only file (no record
            # ever committed), or the full pair — each one read_journal
            # already handles.
            self._handle.write(_HEADER.pack(MAGIC, FORMAT_VERSION))
            if snapshot_id:
                self._write({"kind": "open", "snapshot": snapshot_id})
            self._commit()
            # Make the file's *directory entry* durable too: fsync'd
            # records are worthless if the file itself vanishes.
            if self._fsync:
                fsync_directory(path)

    # -- low-level append ------------------------------------------------------

    def append(self, record: dict) -> None:
        """Frame, append, and (by default) fsync one record."""
        if self._handle is None:
            raise RuntimeError("journal is closed")
        self._write(record)
        self._commit()

    def _write(self, record: dict) -> None:
        """Frame one record into the file buffer (not yet committed)."""
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        self._handle.write(
            _FRAME.pack(_RECORD_MARK, len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        )
        self._handle.write(payload)
        self.records_written += 1
        if record.get("kind") != "open":
            self.edit_records += 1

    def _commit(self) -> None:
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    # -- edit records (the engine commit hooks call these) ----------------------

    def append_edits(self, sheet: str, edits, *, batch: bool = False,
                     cross_sheet: bool = False) -> None:
        """Journal committed edits (:func:`~repro.engine.edits.to_records`):
        one ``batch`` record for a batch commit, else one record per edit
        (``cross_sheet``: a workbook-wide reference rewrite ran with them)."""
        for record in to_records(sheet, edits, batch=batch, cross_sheet=cross_sheet):
            self.append(record)

    def record_cell(self, sheet: str, op: str, pos: tuple[int, int], payload=None) -> None:
        """One committed cell edit, spelled with its op string."""
        self.append_edits(sheet, (cell_edit(op, pos, payload),))

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Journal({self.path!r}, records_written={self.records_written})"


class JournalReadResult(NamedTuple):
    """Outcome of one :func:`read_journal`."""

    records: list[dict]     # the decoded complete-record prefix
    torn: bool              # True when trailing bytes were cut
    valid_bytes: int        # offset of the first byte past the last good record


def read_journal(path: str) -> JournalReadResult:
    """Decode the complete-record prefix of the journal at ``path``.

    Never raises on truncation or corruption past the header: the first
    frame that is short, mis-marked, fails its CRC, or does not decode
    is treated as the torn tail and everything from it on is cut.  A
    missing file reads as an empty journal.
    """
    if not os.path.exists(path):
        return JournalReadResult([], False, 0)
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _HEADER.size:
        # A torn header can only be a prefix of the header a writer was
        # laying down; any other short file is not a journal at all.
        if not _HEADER.pack(MAGIC, FORMAT_VERSION).startswith(data):
            raise JournalFormatError(
                f"not a taco journal ({len(data)} bytes, wrong leading bytes)"
            )
        return JournalReadResult([], len(data) > 0, 0)
    magic, version = _HEADER.unpack(data[: _HEADER.size])
    if magic != MAGIC:
        raise JournalFormatError(f"not a taco journal (magic {magic!r})")
    if version > FORMAT_VERSION:
        raise JournalFormatError(
            f"journal was written by format version {version}, but this "
            f"build reads versions 1..{FORMAT_VERSION}; upgrade to load it"
        )
    records: list[dict] = []
    offset = _HEADER.size
    while True:
        frame_end = offset + _FRAME.size
        if frame_end > len(data):
            # Fewer bytes than a frame header remain: a clean end when
            # zero, a torn tail otherwise.
            return JournalReadResult(records, offset < len(data), offset)
        mark, length, crc = _FRAME.unpack(data[offset:frame_end])
        if mark != _RECORD_MARK:
            return JournalReadResult(records, True, offset)
        payload_end = frame_end + length
        if payload_end > len(data):
            return JournalReadResult(records, True, offset)
        payload = data[frame_end:payload_end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return JournalReadResult(records, True, offset)
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return JournalReadResult(records, True, offset)
        if not isinstance(record, dict):
            return JournalReadResult(records, True, offset)
        records.append(record)
        offset = payload_end


class RecoveryResult(NamedTuple):
    """Outcome of one :func:`recover` (a.k.a. ``Workbook.restore``)."""

    workbook: Workbook
    engines: dict                       # sheet name -> RecalcEngine (touched sheets)
    graphs: dict                        # sheet name -> graph (every snapshot sheet)
    records_applied: int                # journal records replayed
    torn_tail: bool                     # journal had trailing bytes cut
    dirty_count: int                    # cells in the final dirty ranges
    recomputed: int                     # formula cells re-evaluated
    cycle_errors: dict                  # sheet name -> CircularReferenceError


def recover(
    snapshot: "str | IO[bytes] | Snapshot",
    journal: str | None = None,
    *,
    evaluation: str = "auto",
    workers: int | None = None,
) -> RecoveryResult:
    """Restore a workbook from ``snapshot`` plus the ``journal`` prefix.

    ``snapshot`` is a path, a binary stream, or an already-loaded
    :class:`~repro.io.snapshot.Snapshot`.  The journal's complete-record
    prefix is replayed through the regular engine/batch/structural
    pipelines with recalculation deferred; afterwards each touched sheet
    pays exactly one multi-seed dependents BFS and one topological
    re-evaluation of its journal-dirtied cells.  A dependency cycle
    closed by the journaled edits is handled like the live paths handle
    it — the trapped cells are marked ``#CYCLE!`` — but reported in
    ``cycle_errors`` instead of raised, so recovery always returns.
    """
    snap = snapshot if isinstance(snapshot, Snapshot) else load_snapshot(snapshot)
    workbook = snap.workbook
    graphs = dict(snap.graphs)
    engines: dict[str, RecalcEngine] = {}
    seeds: dict[str, list[Range]] = {}

    def engine_for(name: str) -> RecalcEngine:
        engine = engines.get(name)
        if engine is None:
            sheet = workbook[name]
            # Replay rides the same resident recompute path as live edits
            # when workers are configured (the engine resolves
            # REPRO_RECALC_SHARDS itself when workers is None).
            engine = RecalcEngine(
                sheet, graphs.get(name), evaluation=evaluation, workers=workers,
            )
            graphs[name] = engine.graph
            engines[name] = engine
            seeds[name] = []
        return engine

    read = read_journal(journal) if journal is not None else JournalReadResult([], False, 0)
    applied = 0
    for record in read.records:
        if record.get("kind") == "open":
            # The pairing stamp a fresh journal starts with: replaying
            # onto a different snapshot would corrupt values silently.
            expected = record.get("snapshot")
            actual = snap.meta.get("snapshot_id")
            if expected and actual and expected != actual:
                raise JournalFormatError(
                    f"journal was opened for snapshot {expected}, but this "
                    f"snapshot is {actual}; the pair does not match"
                )
            continue
        try:
            name, edits, batch, cross_sheet = from_record(record)
            if not isinstance(name, str) or name not in workbook:
                raise JournalFormatError(f"journal record names unknown sheet {name!r}")
            engine = engine_for(name)
            if not batch and type(edits[0]) is not Structural:
                # A point edit: the live path's mutation, minus its BFS
                # and recompute — those are paid once per sheet below.
                engine.mutate(edits[0])
                seeds[name].append(Range.cell(*edits[0].pos))
            else:
                # A batch commit, or a standalone structural op: the same
                # sheet and graph work as the one-op batch it replays as.
                for edit in edits:
                    if type(edit) is Structural:
                        seeds[name] = shift_dirty_ranges(seeds[name], edit)
                scope = workbook if cross_sheet else None
                with engine.begin_batch(recalc=False, workbook=scope) as session:
                    for edit in edits:
                        session.apply(edit)
                seeds[name] += session.result.cleared_ranges + session.result.dirty_ranges
        except JournalFormatError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # CRC-valid but structurally malformed (a buggy or newer
            # writer): surface one consistent error type, not a raw
            # KeyError from half-way through replay.
            raise JournalFormatError(
                f"malformed journal record {applied + 1} "
                f"(kind {record.get('kind')!r}): {exc!r}"
            ) from exc
        applied += 1

    dirty_count = 0
    recomputed = 0
    cycle_errors: dict[str, CircularReferenceError] = {}
    for name, seed_list in seeds.items():
        if not seed_list:
            continue
        engine = engines[name]
        dirty = merge_ranges(
            (seed_list, dependents_of_seeds(engine.graph, seed_list)),
            index=getattr(engine.graph, "index_spec", "rtree"),
        )
        dirty_count += sum(r.size for r in dirty)
        try:
            recomputed += engine.recompute(dirty)
        except CircularReferenceError as err:
            cycle_errors[name] = err
    return RecoveryResult(
        workbook=workbook,
        engines=engines,
        graphs=graphs,
        records_applied=applied,
        torn_tail=read.torn,
        dirty_count=dirty_count,
        recomputed=recomputed,
        cycle_errors=cycle_errors,
    )
