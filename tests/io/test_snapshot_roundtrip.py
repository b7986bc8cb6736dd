"""Property suite: workbook -> snapshot -> restore is the identity.

A restored workbook must be indistinguishable from the one that was
saved: every cell value (including error values), every formula's
source, every graph's decompressed dependency set, every formula's R1C1
template key, and every dependents query answer — for every registered
spatial-index backend and every pattern registry, including the
RR-GapOne extension.
"""

import importlib.util
import io
import json
import os
import struct
import sys
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import build_fig2_sheet, build_mixed_sheet

from repro.core.patterns.registry import (
    default_patterns,
    extended_patterns,
    inrow_patterns,
)
from repro.core.serialize import graph_payload
from repro.core.taco_graph import TacoGraph, build_from_sheet, dependencies_column_major
from repro.engine.recalc import RecalcEngine
from repro.formula.errors import DIV0, NA_ERROR
from repro.formula.parser import parse_formula
from repro.graphs.base import expand_cells
from repro.grid.range import Range
from repro.io.snapshot import (
    SnapshotFormatError,
    encode_value,
    load_snapshot,
    save_snapshot,
)
from repro.sheet.autofill import autofill, fill_formula_column
from repro.sheet.sheet import Sheet
from repro.sheet.structural import delete_rows, insert_rows
from repro.sheet.workbook import Workbook
from repro.spatial.registry import available_indexes

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
sys.path.insert(0, FIXTURES)
import make_snapshot_cells_v3 as cells_v3  # noqa: E402

BACKENDS = available_indexes()
REGISTRIES = {
    "full": default_patterns,
    "extended": extended_patterns,   # includes RR-GapOne
    "inrow": inrow_patterns,
}


def snapshot_bytes(workbook: Workbook, graphs=None) -> bytes:
    buffer = io.BytesIO()
    save_snapshot(workbook, buffer, graphs)
    return buffer.getvalue()


def roundtrip(workbook: Workbook, graphs=None):
    return load_snapshot(io.BytesIO(snapshot_bytes(workbook, graphs)))


def build_graph(sheet: Sheet, backend: str, registry: str) -> TacoGraph:
    graph = TacoGraph(patterns=REGISTRIES[registry](), index=backend)
    graph.build(dependencies_column_major(sheet))
    graph.rebuild_indexes()
    return graph


def cell_state(sheet: Sheet) -> dict:
    return {
        pos: (cell.formula_text, cell.value)
        for pos, cell in sheet.items()
    }


def dependency_set(graph) -> set:
    return {(d.prec.as_tuple(), d.dep.as_tuple()) for d in graph.decompress()}


def template_keys(sheet: Sheet) -> dict:
    return {
        pos: cell.template_key(*pos)
        for pos, cell in sheet.formula_cells()
    }


# -- stream surgery: take a snapshot apart and put one together ----------------

SECTION = struct.Struct("<4sIQ")


def split_stream(data: bytes) -> tuple[int, list[tuple[bytes, bytes]]]:
    """``(version, [(tag, payload)])`` of a well-formed stream."""
    sections, at = [], 12
    while at < len(data):
        tag, _, length = SECTION.unpack_from(data, at)
        at += SECTION.size
        sections.append((tag, bytes(data[at:at + length])))
        at += length
    return int.from_bytes(data[8:12], "little"), sections


def join_stream(version: int, sections) -> bytes:
    out = [b"TACOSNP1", version.to_bytes(4, "little")]
    for tag, payload in sections:
        out.append(SECTION.pack(tag, zlib.crc32(payload) & 0xFFFFFFFF, len(payload)))
        out.append(payload)
    return b"".join(out)


def as_json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def run_records(data: bytes, sheet: str) -> list:
    """The run records a stream holds for ``sheet``."""
    for tag, payload in split_stream(data)[1]:
        if tag == b"RUNS" and json.loads(payload)["sheet"] == sheet:
            return json.loads(payload)["runs"]
    raise AssertionError(f"no RUNS section for {sheet!r}")


# -- generated workbooks -------------------------------------------------------

DATA_COLS = (1, 2)
FORMULA_POOL = (
    "=A{r}+B{r}",
    "=SUM(A1:A{r})",
    "=SUM($A$1:B{r})",
    "=SUM(A{r}:B{rr})",
    "=A{r}*$B$1",
    "=IF(A{r}>B{r},A{r},B{r})",
    "=A{r}/B{r}",          # can produce #DIV/0!
)


@st.composite
def workbooks(draw):
    rows = draw(st.integers(4, 12))
    workbook = Workbook("gen")
    sheet = workbook.add_sheet("Gen")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float(draw(st.integers(-9, 9))))
        sheet.set_value((2, r), float(draw(st.integers(0, 4))))
    n_formulas = draw(st.integers(1, 3))
    for col in range(3, 3 + n_formulas):
        template = draw(st.sampled_from(FORMULA_POOL))
        for r in range(1, rows + 1):
            sheet.set_formula(
                (col, r), template.format(r=r, rr=min(rows, r + 2))
            )
    if draw(st.booleans()):
        sheet.set_value((5, rows + 2), "label")
        sheet.set_value((6, rows + 2), True)
    return workbook


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("registry", sorted(REGISTRIES))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_roundtrip_pins_everything(backend, registry, data):
    workbook = data.draw(workbooks())
    sheet = workbook.active_sheet
    graph = build_graph(sheet, backend, registry)
    RecalcEngine(sheet, graph).recalculate_all()

    restored = roundtrip(workbook, {sheet.name: graph})
    rsheet = restored.workbook[sheet.name]
    rgraph = restored.graphs[sheet.name]

    assert cell_state(rsheet) == cell_state(sheet)
    assert dependency_set(rgraph) == dependency_set(graph)
    assert template_keys(rsheet) == template_keys(sheet)
    # The construction parameters survive too.
    assert rgraph.index_spec == backend
    assert [p.name for p in rgraph.patterns] == [p.name for p in graph.patterns]

    for probe in (Range.from_a1("A1"), Range.from_a1("B2"),
                  Range.from_a1("A1:B4")):
        assert expand_cells(rgraph.find_dependents(probe)) == \
            expand_cells(graph.find_dependents(probe))
        assert expand_cells(rgraph.find_precedents(probe)) == \
            expand_cells(graph.find_precedents(probe))


@pytest.mark.parametrize("backend", BACKENDS)
def test_roundtrip_preserves_error_values(backend):
    workbook = Workbook("err")
    sheet = workbook.add_sheet("Err")
    sheet.set_value("A1", 1.0)
    sheet.set_value("A2", 0.0)
    sheet.set_formula("B1", "=A1/A2")
    graph = build_graph(sheet, backend, "full")
    RecalcEngine(sheet, graph).recalculate_all()
    assert sheet.get_value("B1") is DIV0
    sheet.set_value("C1", NA_ERROR)

    restored = roundtrip(workbook, {sheet.name: graph})
    rsheet = restored.workbook[sheet.name]
    assert rsheet.get_value("B1") is DIV0
    assert rsheet.get_value("C1") is NA_ERROR


def test_roundtrip_restored_graph_stays_maintainable():
    """A restored graph is live: edits through an engine keep the
    coupling invariant (decompressed deps == sheet references)."""
    workbook = Workbook("live")
    sheet = workbook.add_sheet("Mixed")
    source = build_mixed_sheet(seed=11, rows=12)
    for pos, cell in source.items():
        if cell.is_formula:
            sheet.set_formula(pos, cell.formula_text)
        else:
            sheet.set_value(pos, cell.value)
    graph = build_graph(sheet, "rtree", "extended")
    RecalcEngine(sheet, graph).recalculate_all()

    restored = roundtrip(workbook, {sheet.name: graph})
    rsheet = restored.workbook[sheet.name]
    engine = RecalcEngine(rsheet, restored.graphs[sheet.name])
    engine.set_formula("H1", "=SUM(A1:A5)")
    engine.set_value("A1", 99.0)
    truth = {
        (d.prec.as_tuple(), d.dep.as_tuple())
        for d in dependencies_column_major(rsheet)
    }
    assert dependency_set(engine.graph) == truth


def test_multisheet_roundtrip_builds_missing_graphs():
    workbook = Workbook("multi")
    one = workbook.add_sheet("One")
    two = workbook.add_sheet("Two")
    for r in range(1, 6):
        one.set_value((1, r), float(r))
        two.set_value((1, r), float(r * 10))
    one.set_formula("B1", "=SUM(A1:A5)")
    two.set_formula("B1", "=One!B1+A1")    # cross-sheet reference
    RecalcEngine(one).recalculate_all()
    RecalcEngine(two).recalculate_all()

    restored = roundtrip(workbook)          # graphs built by the writer
    assert restored.workbook.sheet_names == ["One", "Two"]
    assert cell_state(restored.workbook["One"]) == cell_state(one)
    assert cell_state(restored.workbook["Two"]) == cell_state(two)
    # Cross-sheet references contribute no edge to the per-sheet graph.
    assert dependency_set(restored.graphs["Two"]) == {
        (Range.from_a1("A1").as_tuple(), Range.from_a1("B1").as_tuple())
    }


def test_fig2_roundtrip_via_path(tmp_path):
    workbook = Workbook("fig2wb")
    workbook.attach_sheet(build_fig2_sheet(rows=30))
    sheet = workbook.active_sheet
    graph = build_graph(sheet, "gridbucket", "full")
    RecalcEngine(sheet, graph).recalculate_all()
    path = str(tmp_path / "fig2.snap")
    stats = save_snapshot(workbook, path, {sheet.name: graph})
    assert stats.sheets == 1 and stats.bytes_written > 0
    restored = load_snapshot(path)
    assert cell_state(restored.workbook[sheet.name]) == cell_state(sheet)
    assert dependency_set(restored.graphs[sheet.name]) == dependency_set(graph)


# -- format validation ---------------------------------------------------------

class TestFormatValidation:
    def make_bytes(self) -> bytearray:
        workbook = Workbook("v")
        sheet = workbook.add_sheet("S")
        sheet.set_value("A1", 1.0)
        sheet.set_formula("B1", "=A1*2")
        buffer = io.BytesIO()
        save_snapshot(workbook, buffer)
        return bytearray(buffer.getvalue())

    def test_bad_magic(self):
        data = self.make_bytes()
        data[0:4] = b"NOPE"
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_snapshot(io.BytesIO(bytes(data)))

    def test_future_version_names_both(self):
        data = self.make_bytes()
        data[8:12] = (99).to_bytes(4, "little")
        with pytest.raises(SnapshotFormatError) as err:
            load_snapshot(io.BytesIO(bytes(data)))
        assert "99" in str(err.value) and "1" in str(err.value)

    def test_truncation_detected(self):
        data = self.make_bytes()
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot(io.BytesIO(bytes(data[:-7])))

    def test_checksum_mismatch_detected(self):
        data = self.make_bytes()
        # Flip one byte somewhere inside the section payloads.
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(SnapshotFormatError):
            load_snapshot(io.BytesIO(bytes(data)))

    def test_failed_save_leaves_no_temp_files(self, tmp_path):
        workbook = Workbook("t")
        sheet = workbook.add_sheet("S")
        sheet.set_value("A1", object())       # unrepresentable
        target = str(tmp_path / "book.snap")
        with pytest.raises(SnapshotFormatError):
            save_snapshot(workbook, target)
        assert list(tmp_path.iterdir()) == []

    def test_save_is_atomic_over_existing_snapshot(self, tmp_path):
        workbook = Workbook("t")
        sheet = workbook.add_sheet("S")
        sheet.set_value("A1", 1.0)
        target = str(tmp_path / "book.snap")
        save_snapshot(workbook, target)
        sheet.set_value("A1", 2.0)
        save_snapshot(workbook, target)       # overwrite via rename
        assert load_snapshot(target).workbook["S"].get_value("A1") == 2.0
        assert [p.name for p in tmp_path.iterdir()] == ["book.snap"]

    def test_unknown_sections_are_skipped(self):
        import struct
        import zlib

        data = self.make_bytes()
        # Splice a checksummed section with an unknown tag before END.
        payload = b"from-the-future"
        extra = struct.pack(
            "<4sIQ", b"XTRA", zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
        ) + payload
        end_size = struct.calcsize("<4sIQ")
        spliced = bytes(data[:-end_size]) + extra + bytes(data[-end_size:])
        restored = load_snapshot(io.BytesIO(spliced))
        assert restored.workbook["S"].get_value("A1") == 1.0


# -- the wire sections: value planes, run records, older versions --------------

class TestColumnarSections:
    """The ``VCOL``/``RUNS`` wire sections, and the older streams that
    still load into them."""

    def snapshot_bytes(self) -> bytes:
        return snapshot_bytes(cells_v3.build_workbook())

    def test_snapshots_carry_vcol_sections_only(self):
        tags = {tag for tag, _ in split_stream(self.snapshot_bytes())[1]}
        assert b"VCOL" in tags and b"CELL" not in tags

    def test_formulas_travel_as_run_records(self):
        """Version 3, a record per run, a record per hand-typed cell."""
        data = self.snapshot_bytes()
        version, _ = split_stream(data)
        assert version == 3
        records = run_records(data, "S")
        assert [r[:3] for r in records] == (
            [[1, 31, 31]]
            + [[2, r, r] for r in range(1, 11)] + [[2, 11, 30]]
            + [[4, 1, 6], [4, 7, 7], [4, 8, 30]]
        )
        assert records[11] == [2, 11, 30, "A11*2"]

    def test_stats_count_every_occupied_cell_once(self):
        """``SnapshotStats.cells`` is ``sum(len(sheet))`` — the ledger's
        ``io.snapshot.bytes_per_cell`` divides by it — and a plane landing
        under a formula run does not count its rows twice."""
        workbook = cells_v3.build_workbook()
        workbook.add_sheet("T").set_formula("B2", "=1+1")  # cached None
        buffer = io.BytesIO()
        stats = save_snapshot(workbook, buffer)
        assert stats.cells == sum(len(sheet) for sheet in workbook.sheets())
        assert stats.cells == 29 + 1 + 30 + 30 + 1 + 1
        restored = load_snapshot(io.BytesIO(buffer.getvalue())).workbook
        assert [len(restored[n]) for n in ("S", "T")] == \
            [len(workbook[n]) for n in ("S", "T")]

    def test_version1_streams_still_load(self):
        """A version-1 stream is ``META`` + per sheet one ``CELL`` section
        of ``[col, row, formula, value]`` records + ``GRPH``; built by
        hand here, since no writer emits it any more."""
        source = cells_v3.build_workbook()["S"]
        cells = [
            [col, row, cell.formula_text, encode_value(cell.value)]
            for (col, row), cell in sorted(source.items())
        ]
        stream = join_stream(1, [
            (b"META", as_json({"format": "taco-snapshot", "version": 1,
                               "workbook": "v1", "sheets": ["S"]})),
            (b"CELL", as_json({"sheet": "S", "cells": cells})),
            (b"GRPH", as_json({"sheet": "S",
                               "graph": graph_payload(build_from_sheet(source))})),
            (b"END.", b""),
        ])
        restored = load_snapshot(io.BytesIO(stream))
        rsheet = restored.workbook["S"]
        assert cell_state(rsheet) == cell_state(source)
        assert template_keys(rsheet) == template_keys(source)
        assert dependency_set(restored.graphs["S"]) == \
            dependency_set(build_from_sheet(source))

    @pytest.mark.parametrize("src", ["columnar", "object"])
    def test_version2_fixtures_still_load(self, src):
        """Byte fixtures the parent commit's writer produced from
        :func:`legacy_workbook` on either store: ``CELL`` sections
        carrying formula text per cell, and (columnar) ``VCOL`` runs
        blank on formula rows."""
        path = os.path.join(FIXTURES, f"snapshot_v2_{src}.snap")
        with open(path, "rb") as handle:
            data = handle.read()
        version, sections = split_stream(data)
        assert version == 2 and b"RUNS" not in {tag for tag, _ in sections}
        restored = load_snapshot(io.BytesIO(data))
        assert restored.meta["stores"] == {"Data": src, "Notes": src}
        expected = legacy_workbook()
        for name in ("Data", "Notes"):
            sheet, rsheet = expected[name], restored.workbook[name]
            assert cell_state(rsheet) == cell_state(sheet)
            assert template_keys(rsheet) == template_keys(sheet)
            assert len(rsheet) == len(sheet)
            assert dependency_set(restored.graphs[name]) == \
                dependency_set(build_from_sheet(sheet))

    def test_version3_cell_sections_still_load(self):
        """``snapshot_cells_v3.snap``: a version-3 stream whose values
        travel as ``CELL`` sections (the per-cell store's, written by the
        last writer that had one) and whose ``META`` names the store.  It
        loads into columnar sheets holding what the columnar-built
        workbook holds, and saves again as that workbook's snapshot."""
        with open(os.path.join(FIXTURES, "snapshot_cells_v3.snap"), "rb") as handle:
            data = handle.read()
        version, sections = split_stream(data)
        tags = [tag for tag, _ in sections]
        assert version == 3 and b"CELL" in tags and b"VCOL" not in tags
        restored = load_snapshot(io.BytesIO(data))
        assert restored.meta["stores"] == {"S": "object"}
        expected = cells_v3.build_workbook()["S"]
        rsheet = restored.workbook["S"]
        assert cell_state(rsheet) == cell_state(expected)
        assert template_keys(rsheet) == template_keys(expected)
        assert len(rsheet) == len(expected)
        assert run_shapes(rsheet) == run_shapes(expected)
        assert dependency_set(restored.graphs["S"]) == \
            dependency_set(build_from_sheet(expected))
        again = snapshot_bytes(restored.workbook, restored.graphs)
        assert strip_id(again) == strip_id(self.snapshot_bytes())

    def test_crash_point_truncation_fuzz(self):
        """A snapshot cut at *any* byte offset — inside a plane, between
        two run records, inside a legacy ``CELL`` section, anywhere — is a
        clean :class:`SnapshotFormatError`: never a partial workbook,
        never a stray exception type."""
        with open(os.path.join(FIXTURES, "snapshot_cells_v3.snap"), "rb") as handle:
            legacy = handle.read()
        for data in (self.snapshot_bytes(), legacy):
            for cut in range(len(data)):
                with pytest.raises(SnapshotFormatError):
                    load_snapshot(io.BytesIO(data[:cut]))

    def test_vcol_payload_corruption_detected(self):
        data = bytearray(self.snapshot_bytes())
        at = data.index(b"VCOL") + 20       # inside the section payload
        data[at] ^= 0xFF
        with pytest.raises(SnapshotFormatError):
            load_snapshot(io.BytesIO(bytes(data)))

    def test_runs_payload_corruption_detected(self):
        data = bytearray(self.snapshot_bytes())
        section = data.index(b"RUNS")
        for at in range(section + 16, section + 16 + 120, 7):   # bytes of the records
            flipped = bytearray(data)
            flipped[at] ^= 0xFF
            with pytest.raises(SnapshotFormatError):
                load_snapshot(io.BytesIO(bytes(flipped)))

    def test_duplicate_value_column_is_refused(self):
        """A plane may only land on vacant rows: a second copy would
        count them twice."""
        version, sections = split_stream(self.snapshot_bytes())
        first = next(i for i, (tag, _) in enumerate(sections) if tag == b"VCOL")
        sections.insert(first, sections[first])
        with pytest.raises(SnapshotFormatError, match="VCOL"):
            load_snapshot(io.BytesIO(join_stream(version, sections)))


def legacy_workbook() -> Workbook:
    """What ``tests/io/fixtures/snapshot_v2_<store>.snap`` hold: this
    function, run on either store at the last commit whose writer
    emitted version 2."""
    workbook = Workbook("legacy")
    data = workbook.add_sheet("Data")
    for r in range(1, 13):
        data.set_value((1, r), r / 7.0)
        data.set_value((2, r), float(r % 4))
    data.set_value("A5", "five")
    data.set_value("A9", True)
    data.set_formula("A13", "=SUM(B1:B12)")          # a formula inside a value column
    data.set_value("A14", 2.5)
    fill_formula_column(data, 3, 1, 12, "=A1+B1")    # an autofill family
    for r in range(1, 7):                            # a hand-typed column
        data.set_formula((4, r), f"=SUM($A$1:A{r})")
    data.set_formula("E1", "=A1/B4")                 # #DIV/0!
    data.set_formula("E2", '="x"&A5')                # a string
    data.set_formula("E3", "=A1>B1")                 # a bool
    RecalcEngine(data).recalculate_all()
    notes = workbook.add_sheet("Notes")
    notes.set_value("A1", "label")
    notes.set_formula("B2", "=Data!A1*2")            # never evaluated
    return workbook


class TestRunRecords:
    """Malformed ``RUNS`` sections, and the size of well-formed ones."""

    def stream_with_runs(self, runs) -> bytes:
        workbook = Workbook("r")
        sheet = workbook.add_sheet("S")
        for r in range(1, 9):
            sheet.set_value((1, r), float(r))
        version, sections = split_stream(snapshot_bytes(workbook))
        sections = [
            (tag, as_json({"sheet": "S", "runs": runs}) if tag == b"RUNS" else payload)
            for tag, payload in sections
        ]
        return join_stream(version, sections)

    def test_well_formed_records_attach(self):
        data = self.stream_with_runs([[2, 1, 8, "A1*2"], [3, 2, 2, "SUM(A1:A2)"]])
        sheet = load_snapshot(io.BytesIO(data)).workbook["S"]
        assert [(col, r0, r1) for _, col, r0, r1 in sheet.formula_runs()] == \
            [(2, 1, 8), (3, 2, 2)]
        assert sheet.cell_at("B8").formula_text == "(A8*2)"
        assert len(sheet) == 8 + 8 + 1

    def test_typed_columns_never_parse(self):
        """A hand-typed column costs what it cost before: a record per
        cell, no parse when it loads, none when the untouched workbook is
        saved again — only touching a cell parses it."""
        workbook = Workbook("t")
        sheet = workbook.add_sheet("S")
        for r in range(1, 41):
            sheet.set_value((1, r), float(r))
            sheet.set_formula((2, r), f"=A{r} * {r}")
        data = snapshot_bytes(workbook)
        assert len(run_records(data, "S")) == 40
        parse_formula.cache_clear()
        restored = load_snapshot(io.BytesIO(data))
        again = snapshot_bytes(restored.workbook, restored.graphs)
        assert parse_formula.cache_info().misses == 0
        assert run_records(again, "S") == run_records(data, "S")
        rsheet = restored.workbook["S"]
        assert rsheet.cell_at("B7").formula_text == "A7 * 7"
        assert rsheet.cell_at("B7").template_key(2, 7) == sheet.cell_at("B7").template_key(2, 7)
        assert parse_formula.cache_info().misses == 1

    def test_a_lone_record_is_text_until_touched(self):
        """Like a ``CELL`` record's, a one-cell record's text is taken as
        it is; only a run needs its template to load."""
        from repro.formula.errors import FormulaSyntaxError

        data = self.stream_with_runs([[2, 3, 3, "A1*(2"]])
        sheet = load_snapshot(io.BytesIO(data)).workbook["S"]
        assert sheet.cell_at("B3").formula_text == "A1*(2"
        with pytest.raises(FormulaSyntaxError):
            sheet.cell_at("B3").template

    @pytest.mark.parametrize("runs", [
        [[2, 5, 3, "A1*2"]],                            # rows reversed
        [[2, 1, 5, "A1*2"], [2, 4, 8, "A4*2"]],         # overlapping
        [[2, 1, 5, "A1*2"], [2, 5, 5, "A5+1"]],         # touching the same row
        [[3, 1, 2, "A1*2"], [2, 1, 2, "A1*2"]],         # not column-major
        [[2, 1, 5, "A1*(2"]],                           # text that does not parse
        [[2, 1, 5, ""]],
        [[2, 0, 5, "A1*2"]],                            # off the grid
        [[2, 0, 0, "A1*2"]],
        [[16385, 1, 1, "A1*2"]],
        [[2, 1, 1048577, "A1*2"]],
        [[2, 1, 1048576, "A1+A2"]],                     # the last member's reference is
        [[2, 1.0, 5, "A1*2"]],                          # not integers
        [[2, True, 5, "A1*2"]],
        [[2, 1, 5, None]],
        [[2, 1, 5]],                                    # not a 4-record
        [7],
        "B1:B5",
        7,
    ])
    def test_malformed_records_are_format_errors(self, runs):
        with pytest.raises(SnapshotFormatError):
            load_snapshot(io.BytesIO(self.stream_with_runs(runs)))

    def test_run_section_is_o_runs(self):
        """The ``bench_snapshot_load.py`` ledger: as many records at
        3 000 rows as at 1 500, and a formula section that does not grow
        with them."""
        bench_dir = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
        sys.path.insert(0, bench_dir)
        try:
            spec = importlib.util.spec_from_file_location(
                "bench_snapshot_load", os.path.join(bench_dir, "bench_snapshot_load.py"))
            bench = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(bench)
        finally:
            sys.path.remove(bench_dir)
        records, sizes = [], []
        for rows in (1500, 3000):
            buffer = io.BytesIO()
            stats = save_snapshot(bench.build_corpus(rows), buffer)
            data = buffer.getvalue()
            assert stats.formula_records == len(run_records(data, "Ledger"))
            records.append(stats.formula_records)
            sizes.append(sum(len(payload) for tag, payload in split_stream(data)[1]
                             if tag == b"RUNS"))
        assert records == [5, 5]
        assert sizes[1] - sizes[0] <= 8     # only the digits of the last rows grow


# -- families: whatever made the sheet, a run goes out and the run comes back ---

FILLS = (
    "=A{r}+B{r}",
    "=SUM($A$1:A{r})",
    "=A{r}/B{r}",                # #DIV/0! where B is 0
    '=A{r}&"x"',                 # strings
    "=A{r}>B{r}",                # bools
    "=IF(B{r}>1,A{r},$B$1)",
)
TYPED = ("=A{r}*2", "= A{r} + B{r}", "=sum(A{r}:B{r})")   # kept exactly as typed


@st.composite
def family_workbooks(draw):
    """A sheet whose formula columns mix everything that makes or breaks
    a run; returns the workbook.  Graphs are left to the writer."""
    rows = draw(st.integers(6, 14))
    workbook = Workbook("fam")
    sheet = workbook.add_sheet("Fam")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float(draw(st.integers(-9, 9))))
        sheet.set_value((2, r), float(draw(st.integers(0, 3))))
    if draw(st.booleans()):
        sheet.set_value((1, draw(st.integers(1, rows))), "text")    # #VALUE! downstream
    for col in range(3, 3 + draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["fill", "typed", "lone", "pair", "edge"]))
        if kind == "typed":
            text = draw(st.sampled_from(TYPED))
            for r in range(1, rows + 1):
                sheet.set_formula((col, r), text.format(r=r))
            continue
        first = draw(st.integers(1, 3))
        fill_formula_column(sheet, col, first, rows,
                            draw(st.sampled_from(FILLS)).format(r=first))
        at = draw(st.integers(first + 1, rows - 1))
        if kind == "lone":          # a different formula inside the family
            sheet.set_formula((col, at), f"=B{at}*3")
        elif kind == "pair":        # two adjacent typed cells sharing one template
            sheet.set_formula((col, at), f"=B{at}*3")
            sheet.set_formula((col, at + 1), f"=B{at + 1}*3")
        elif kind == "edge":        # filled upwards: the top members are #REF!
            sheet.set_formula((col + 5, 3), "=A1+B3")
            autofill(sheet, (col + 5, 3), Range(col + 5, 1, col + 5, rows))
    if draw(st.booleans()):
        RecalcEngine(sheet).recalculate_all()
    if draw(st.booleans()):         # evaluated or not, one formula never was
        sheet.set_formula((15, 2), "=A2*B2")
    cut = draw(st.sampled_from([None, insert_rows, delete_rows]))
    if cut is not None:             # a structural edit through every family
        cut(sheet, draw(st.integers(2, rows - 1)), draw(st.integers(1, 2)))
    return workbook


def run_shapes(sheet: Sheet) -> list:
    return [(t.key, col, r0, r1) for t, col, r0, r1 in sheet.formula_runs()]


def strip_id(data: bytes) -> bytes:
    version, sections = split_stream(data)
    meta = json.loads(sections[0][1])
    assert sections[0][0] == b"META" and meta.pop("snapshot_id")
    return join_stream(version, [(b"META", as_json(meta))] + sections[1:])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_families_round_trip(data):
    workbook = data.draw(family_workbooks())
    sheet = workbook["Fam"]
    saved = snapshot_bytes(workbook)
    records = run_records(saved, "Fam")

    parse_formula.cache_clear()
    restored = load_snapshot(io.BytesIO(saved))
    # Parsed once per record at most (equal texts share one parse) ...
    assert parse_formula.cache_info().misses <= len(records)
    rsheet = restored.workbook["Fam"]

    anchors = {(col, first) for col, first, _, _ in records}
    for pos, cell in rsheet.formula_cells():
        if pos not in anchors:
            assert cell.source_text is None
    assert {pos: cell.formula_text for pos, cell in rsheet.formula_cells()} == \
        {pos: cell.formula_text for pos, cell in sheet.formula_cells()}
    assert template_keys(rsheet) == template_keys(sheet)
    assert run_shapes(rsheet) == run_shapes(sheet)
    # ... and nothing is left to parse on first touch.
    assert parse_formula.cache_info().misses <= len(records)

    assert len(rsheet) == len(sheet)
    state, rstate = cell_state(sheet), cell_state(rsheet)
    assert rstate == state
    for pos, (_, value) in state.items():       # == is too kind: 1 == 1.0 == True
        assert type(rstate[pos][1]) is type(value)
    assert dependency_set(restored.graphs["Fam"]) == dependency_set(build_from_sheet(sheet))

    # save -> load -> save: the same bytes but for the id
    again = snapshot_bytes(restored.workbook, restored.graphs)
    assert strip_id(again) == strip_id(saved)
