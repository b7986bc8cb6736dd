"""Whole-workbook snapshots: value planes, formula runs, compressed graphs.

The paper's one-off compression cost (Fig. 11) is worth paying once per
*workbook*, not once per process.  A snapshot persists everything a
service needs to reopen a workbook without re-building or re-computing
anything, and it persists an autofilled column the way the paper sees
it — as *one* object:

* the value plane of every sheet as **whole columns**, formula cached
  values included (:meth:`ColumnarStore.export_planes`, the surface the
  worker freight ships), so nothing is encoded per cell;
* the formula plane as **run records** ``[col, first_row, last_row,
  text]``, one per autofill run (:meth:`Sheet.run_index`, unjoined — the
  records are the formula plane itself): the first
  cell's formula text plus the rows of the members that share its
  template.  Loading parses and interns once per run and attaches the
  members by template pointer, so a restored family is joined from the
  start — nothing re-parses on first touch;
* every sheet's **compressed** formula graph, via
  :mod:`repro.core.serialize` — including the spatial-index backend and
  the pattern registry, so the restored graph compresses future edits
  exactly like the saved one.

Wire format (version 3), little-endian::

    header   MAGIC(8) = b"TACOSNP1"   version u32
    section  tag(4)   crc32 u32   length u64   payload[length]
    ...
    end      tag b"END."  crc32(b"") u32  length=0 u64

Sections: ``META`` (workbook name + sheet order), then per sheet its values, a ``RUNS`` section and a ``GRPH``
section, in that order — planes land first, runs attach over them.

``VCOL`` (one per occupied column)
    name_len u16, sheet name, col u32, start_row u32, count u32, then
    ``count`` tag bytes, ``count`` float64 values and a JSON side table
    (strings/errors by 0-based offset, length-prefixed u32).  The run is
    the column's plane trimmed to its first and last occupied row.
``RUNS``
    JSON ``{"sheet", "runs": [[col, first_row, last_row, text], ...]}``
    in column-major order, disjoint.  ``text`` is the first cell's
    ``formula_text`` exactly as the sheet returns it and becomes that
    cell's source text again; rows ``first_row + 1 .. last_row`` hold
    the same interned template and no source text of their own.  A
    member that *has* source text starts its own record (the split
    rule), so every ``formula_text`` round-trips bit-identically and a
    column of hand-typed formulas is one record per cell.  A one-cell
    record comes back as a typed cell does — its text, parsed only if
    something needs its template — and saving never parses either, so
    such a column costs what a ``CELL`` record per formula used to.

Older streams still load.  A ``CELL`` section, JSON ``{"sheet",
"cells": [[col, row, formula, value], ...]}``, carries values cell by
cell: version-3 writers emitted it, formula ``null``, for sheets on the
per-cell object store (and ``META`` named each sheet's store under
``"stores"``, which no loader reads); in version 1 and 2 a record may
carry a formula (set from text, parsed lazily) with its cached value,
and a version-2 ``VCOL`` run is blank on formula rows.  The writer
emits version 3, ``VCOL`` only.

Readers skip sections with unknown tags, so future versions can add
sections without breaking old readers; every payload is protected by
its CRC32, and a missing ``END.`` section means the snapshot is
truncated.  Snapshots are written atomically (temp file + ``fsync`` +
rename), so unlike the edit journal a torn snapshot is an *error*, not
an expected state.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import uuid
import zlib
from array import array
from typing import IO, Iterator, Mapping, NamedTuple

from ..core.serialize import GraphFormatError, graph_from_payload, graph_payload
from ..core.taco_graph import build_from_sheet
from ..formula.errors import ExcelError
from ..formula.parser import parse_formula
from ..formula.template import intern_template
from ..grid.ref import MAX_COL, MAX_ROW
from ..sheet.columnar import TAG_BOOL, TAG_EMPTY, TAG_NUMBER
from ..sheet.sheet import Sheet
from ..sheet.workbook import Workbook

__all__ = [
    "Snapshot",
    "SnapshotFormatError",
    "SnapshotStats",
    "decode_value",
    "encode_value",
    "load_snapshot",
    "save_snapshot",
]

MAGIC = b"TACOSNP1"
FORMAT_VERSION = 3

_TAG_META = b"META"
_TAG_CELLS = b"CELL"
_TAG_VALUE_COLUMN = b"VCOL"
_TAG_RUNS = b"RUNS"
_TAG_GRAPH = b"GRPH"
_TAG_END = b"END."

_SECTION_HEADER = struct.Struct("<4sIQ")

#: VCOL payload: name_len u16, name bytes, then this, then tag bytes,
#: float64 value bytes, side_len u32, side JSON bytes.
_VCOL_HEADER = struct.Struct("<III")  # col, start_row, count


class SnapshotFormatError(ValueError):
    """Raised when a snapshot cannot be decoded (corrupt, truncated,
    or written by an unsupported format version)."""


class Snapshot(NamedTuple):
    """A loaded snapshot: the workbook, its per-sheet graphs, and meta."""

    workbook: Workbook
    graphs: dict            # sheet name -> restored formula graph
    meta: dict              # the META section payload


class SnapshotStats(NamedTuple):
    """What one :func:`save_snapshot` call wrote."""

    sheets: int
    cells: int              # occupied cells across every sheet, each once
    edges: int              # compressed edges across every sheet
    bytes_written: int
    #: Unique id stamped into META; hand it to
    #: :class:`~repro.engine.journal.Journal` so recovery can reject a
    #: journal that belongs to a different (e.g. stale) snapshot.
    snapshot_id: str = ""
    #: Run records across every sheet: O(autofill runs), not O(formulas).
    formula_records: int = 0


# -- value encoding ---------------------------------------------------------------

def encode_value(value):
    """JSON-encode one cell value (scalars pass through, errors are tagged)."""
    if value is None or isinstance(value, (float, int, str, bool)):
        return value
    if isinstance(value, ExcelError):
        return {"$err": value.code}
    raise SnapshotFormatError(
        f"cannot persist cell value of type {type(value).__name__}: {value!r}"
    )


def decode_value(value):
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        code = value.get("$err")
        if not isinstance(code, str):
            raise SnapshotFormatError(f"bad encoded value {value!r}")
        return ExcelError(code)
    return value


# -- section plumbing -------------------------------------------------------------

def _write_section(out: IO[bytes], tag: bytes, payload: bytes) -> int:
    out.write(_SECTION_HEADER.pack(tag, zlib.crc32(payload) & 0xFFFFFFFF, len(payload)))
    out.write(payload)
    return _SECTION_HEADER.size + len(payload)


def fsync_directory(path: str) -> None:
    """fsync the directory containing ``path`` so a freshly created or
    renamed file survives power loss (no-op where unsupported)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


def _read_exact(handle: IO[bytes], size: int, what: str) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise SnapshotFormatError(f"truncated snapshot: incomplete {what}")
    return data


def _read_section(handle: IO[bytes]) -> tuple[bytes, bytes]:
    header = _read_exact(handle, _SECTION_HEADER.size, "section header")
    tag, crc, length = _SECTION_HEADER.unpack(header)
    payload = _read_exact(handle, length, f"{tag!r} section payload")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise SnapshotFormatError(f"checksum mismatch in {tag!r} section")
    return tag, payload


def _json_payload(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _run_records(sheet: Sheet) -> list:
    """The formula plane as ``[col, first_row, last_row, text]`` records:
    a dump of the sheet's unjoined run index (:meth:`Sheet.run_index`),
    whose records are cut at every typed member already.  Read unjoined,
    a typed cell nothing has touched since it was loaded is still only
    its text (a run of one) — saving it must not be what parses it; a
    record whose first cell was not typed gets that cell's text rendered
    off the template."""
    return [
        [col, first, last, template.text_at(col, first) if text is None else text]
        for col, runs in sheet.run_index(join=False).items()
        for first, last, template, text in runs
    ]


def _value_column_payloads(sheet: Sheet) -> "Iterator[bytes]":
    """One VCOL payload per occupied column of ``sheet``.

    Each plane is trimmed to its occupied rows (the arrays carry growth
    headroom) and written as raw little-endian bytes; the sparse side
    table (strings, errors) rides along as JSON keyed by 0-based offset
    within the run.
    """
    name_bytes = sheet.name.encode("utf-8")
    prefix = struct.pack("<H", len(name_bytes)) + name_bytes
    for col, (tags, values, side) in sorted(sheet._cells.export_planes().items()):
        body = tags.rstrip(b"\0")
        run = body.lstrip(b"\0")
        if not run:
            continue
        first = len(body) - len(run)
        values = values[8 * first:8 * len(body)]
        if sys.byteorder == "big":  # pragma: no cover - LE platforms
            swapped = array("d", values)
            swapped.byteswap()
            values = swapped.tobytes()
        side_json = _json_payload(
            {str(i - first): encode_value(v) for i, v in sorted(side.items())}
        )
        yield b"".join((
            prefix,
            _VCOL_HEADER.pack(col, first + 1, len(run)),
            run,
            values,
            struct.pack("<I", len(side_json)),
            side_json,
        ))


def _restore_value_column(workbook: "Workbook | None", payload: bytes) -> None:
    try:
        (name_len,) = struct.unpack_from("<H", payload, 0)
        offset = 2 + name_len
        name = payload[2:offset].decode("utf-8")
        col, start_row, count = _VCOL_HEADER.unpack_from(payload, offset)
        offset += _VCOL_HEADER.size
        tags = payload[offset:offset + count]
        offset += count
        values = array("d")
        values.frombytes(payload[offset:offset + 8 * count])
        offset += 8 * count
        (side_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        side_record = json.loads(payload[offset:offset + side_len].decode("utf-8"))
        if len(tags) != count or len(values) != count:
            raise ValueError("short tag/value runs")
    except (struct.error, ValueError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise SnapshotFormatError(f"bad VCOL section: {exc}") from exc
    if sys.byteorder == "big":  # pragma: no cover - LE platforms
        values.byteswap()
    sheet = _sheet_for(workbook, {"sheet": name})
    side = {int(i): decode_value(v) for i, v in side_record.items()}
    if not sheet.formula_count:
        try:
            sheet.import_column(col, start_row, bytes(tags), values, side)
        except ValueError as exc:
            raise SnapshotFormatError(f"bad VCOL section: {exc}") from exc
        return
    # Expand the run per cell: a version-2 stream registered its formulas
    # first — its runs are blank on their rows, and a slice install would
    # blank their cached values.
    for i in range(count):
        tag = tags[i]
        if tag == TAG_EMPTY:
            continue
        if tag == TAG_NUMBER:
            value = values[i]
        elif tag == TAG_BOOL:
            value = values[i] != 0.0
        else:
            value = side[i]
        sheet.set_value((col, start_row + i), value)


# -- public API -------------------------------------------------------------------

def save_snapshot(
    workbook: Workbook,
    target: "str | IO[bytes]",
    graphs: "Mapping[str, object] | None" = None,
) -> SnapshotStats:
    """Write a snapshot of ``workbook`` (and its graphs) to ``target``.

    ``graphs`` maps sheet names to the formula graphs to persist —
    typically each sheet's live ``engine.graph``, so no compression work
    happens here at all.  Sheets without an entry get a graph built on
    the spot (:func:`~repro.core.taco_graph.build_from_sheet`).  Cached
    cell values are persisted as-is; callers that want the snapshot to
    hold *fresh* values should recalculate before saving.

    A string ``target`` is written atomically: the bytes go to a
    temporary sibling file which is fsync'd and renamed over the
    destination, so a crash mid-save never leaves a torn snapshot behind.
    """
    graphs = dict(graphs) if graphs is not None else {}
    stats_cells = 0
    stats_edges = 0
    stats_records = 0
    snapshot_id = uuid.uuid4().hex
    meta = {
        "format": "taco-snapshot",
        "version": FORMAT_VERSION,
        "workbook": workbook.name,
        "sheets": workbook.sheet_names,
        "snapshot_id": snapshot_id,
    }

    def write_to(out: IO[bytes]) -> int:
        # Sections are built and written one at a time, so peak memory
        # is one section's payload, not the whole snapshot.
        nonlocal stats_cells, stats_edges, stats_records
        written = len(MAGIC) + 4
        out.write(MAGIC)
        out.write(struct.pack("<I", FORMAT_VERSION))
        written += _write_section(out, _TAG_META, _json_payload(meta))
        for sheet in workbook.sheets():
            graph = graphs.get(sheet.name)
            if graph is None:
                graph = build_from_sheet(sheet)
            stats_cells += len(sheet)
            for payload in _value_column_payloads(sheet):
                written += _write_section(out, _TAG_VALUE_COLUMN, payload)
            runs = _run_records(sheet)
            stats_records += len(runs)
            written += _write_section(
                out, _TAG_RUNS, _json_payload({"sheet": sheet.name, "runs": runs})
            )
            payload = graph_payload(graph)
            stats_edges += payload["edge_count"]
            written += _write_section(
                out, _TAG_GRAPH,
                _json_payload({"sheet": sheet.name, "graph": payload}),
            )
        written += _write_section(out, _TAG_END, b"")
        return written

    if isinstance(target, str):
        # A unique sibling temp file per call: concurrent saves of the
        # same path must not interleave into one stream (last complete
        # rename wins instead), and a failing save only removes its own
        # temp file.
        import tempfile

        directory = os.path.dirname(os.path.abspath(target)) or "."
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                written = write_to(handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
            # The rename itself must survive power loss too.
            fsync_directory(target)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
    else:
        written = write_to(target)
    return SnapshotStats(
        sheets=len(workbook), cells=stats_cells, edges=stats_edges,
        bytes_written=written, snapshot_id=snapshot_id, formula_records=stats_records,
    )


def load_snapshot(source: "str | IO[bytes]") -> Snapshot:
    """Read a snapshot back into a :class:`Snapshot`.

    Raises :class:`SnapshotFormatError` on a bad magic, a format version
    newer than this build supports (the error names both versions), a
    checksum mismatch, or a truncated stream.  Graph payloads are loaded
    without per-edge member validation — the section checksum already
    vouches for their integrity — so restore cost is proportional to
    *compressed* edges, not raw dependencies.
    """
    if isinstance(source, str):
        with open(source, "rb") as handle:
            return _load_stream(handle)
    return _load_stream(source)


def _load_stream(handle: IO[bytes]) -> Snapshot:
    magic = _read_exact(handle, len(MAGIC), "magic")
    if magic != MAGIC:
        raise SnapshotFormatError(f"not a taco snapshot (magic {magic!r})")
    (version,) = struct.unpack("<I", _read_exact(handle, 4, "version"))
    if version > FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot was written by format version {version}, but this "
            f"build reads versions 1..{FORMAT_VERSION}; upgrade to load it"
        )
    meta: dict | None = None
    workbook: Workbook | None = None
    graphs: dict = {}
    while True:
        tag, payload = _read_section(handle)
        if tag == _TAG_END:
            break
        if tag == _TAG_META:
            meta = _decode_json(payload, "META")
            workbook = Workbook(str(meta.get("workbook", "workbook")))
            for name in meta.get("sheets", []):
                workbook.add_sheet(str(name))
        elif tag == _TAG_CELLS:
            record = _decode_json(payload, "CELL")
            sheet = _sheet_for(workbook, record)
            _restore_cells(sheet, record.get("cells", []))
        elif tag == _TAG_VALUE_COLUMN:
            _restore_value_column(workbook, payload)
        elif tag == _TAG_RUNS:
            record = _decode_json(payload, "RUNS")
            sheet = _sheet_for(workbook, record)
            _restore_runs(sheet, record.get("runs", []))
        elif tag == _TAG_GRAPH:
            record = _decode_json(payload, "GRPH")
            sheet = _sheet_for(workbook, record)
            try:
                graphs[sheet.name] = graph_from_payload(
                    record.get("graph"), validate=False
                )
            except GraphFormatError as exc:
                raise SnapshotFormatError(
                    f"bad graph section for sheet {sheet.name!r}: {exc}"
                ) from exc
        # Unknown tags are skipped: their checksum was still verified.
    if workbook is None or meta is None:
        raise SnapshotFormatError("snapshot has no META section")
    return Snapshot(workbook=workbook, graphs=graphs, meta=meta)


def _decode_json(payload: bytes, tag: str) -> dict:
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(f"bad {tag} section: {exc}") from exc
    if not isinstance(record, dict):
        raise SnapshotFormatError(f"bad {tag} section: expected an object")
    return record


def _sheet_for(workbook: Workbook | None, record: dict) -> Sheet:
    if workbook is None:
        raise SnapshotFormatError("sheet section before META")
    name = record.get("sheet")
    if not isinstance(name, str) or name not in workbook:
        raise SnapshotFormatError(f"section names unknown sheet {name!r}")
    return workbook[name]


def _restore_cells(sheet: Sheet, records) -> None:
    for record in records:
        try:
            col, row, formula, value = record
            pos = (int(col), int(row))
        except (TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"bad cell record {record!r}") from exc
        if formula is not None:
            sheet.set_formula(pos, str(formula))
            sheet.cell_at(pos).value = decode_value(value)
        else:
            sheet.set_value(pos, decode_value(value))


def _restore_runs(sheet: Sheet, records) -> None:
    """Re-create each record's cells over the values the planes brought.

    A run is parsed and interned once and its members attached by
    template pointer.  A record of one cell is attached as its text and
    left at that, as :meth:`Sheet.set_formula` leaves any typed cell — it
    parses if something ever needs its template — so a column of typed
    formulas loads without a parse per cell.  Records must be
    column-major, disjoint, and on rows their template admits.
    """
    if not isinstance(records, list):
        raise SnapshotFormatError("bad RUNS section: expected a list of records")
    after = (0, 0)      # (col, last_row) of the previous record
    for record in records:
        try:
            col, first, last, text = record
            if not (type(col) is type(first) is type(last) is int
                    and isinstance(text, str) and after < (col, first) <= (col, last)):
                raise ValueError("rows out of order")
            if first == last:
                template = None
                on_grid = 1 <= col <= MAX_COL and 1 <= first <= MAX_ROW
            else:
                template = intern_template(parse_formula(text), col, first)
                on_grid = template.admits(col, first) and template.admits(col, last)
            if not on_grid:
                raise ValueError("rows off the grid")
        except (TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"bad run record {record!r}: {exc}") from exc
        sheet.attach_formula_run(col, first, last, template, text)
        after = (col, last)
