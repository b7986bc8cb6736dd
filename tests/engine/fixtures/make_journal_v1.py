"""Write the golden version-1 journal, its snapshot and what recovery made of it.

    PYTHONPATH=src python tests/engine/fixtures/make_journal_v1.py

``journal_v1.wal`` journals :func:`journal_edits` over the two-sheet
``journal_v1.snap``: the ``open`` stamp; ``cell`` records (a number, an
``ExcelError``, a string, a formula, a clear); a cross-sheet ``batch``
(structural ops, a range clear, value / formula / clear ops, one formula
with its ``=``); ``structural`` records with and without ``cross_sheet``.
``journal_v1.json`` holds each record's end offset and each prefix's
recovered values and dependencies.  Regenerate only for a new format version.
"""

import json
import os

from repro.engine.journal import Journal, recover
from repro.engine.recalc import RecalcEngine
from repro.formula.errors import NA_ERROR
from repro.grid.range import Range
from repro.io.snapshot import encode_value, load_snapshot, save_snapshot
from repro.sheet.autofill import fill_formula_column
from repro.sheet.workbook import Workbook

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT, JOURNAL, EXPECTED = (os.path.join(HERE, f"journal_v1.{ext}")
                               for ext in ("snap", "wal", "json"))


def build_workbook() -> Workbook:
    workbook = Workbook("golden")
    main = workbook.add_sheet("Main")
    for r in range(1, 9):
        main.set_value((1, r), float(r))
        main.set_value((2, r), float(r % 3))
    fill_formula_column(main, 3, 1, 8, "=SUM($A$1:A1)")
    fill_formula_column(main, 4, 1, 8, "=A1*B1")
    main.set_formula("E1", "=SUM(C1:C8)")
    side = workbook.add_sheet("Side")
    for r in range(1, 5):
        side.set_value((1, r), float(10 * r))
    side.set_formula("B1", "=Main!E1*A1")
    side.set_formula("B2", "=SUM(Main!A1:A4)")
    side.set_formula("C1", "=SUM(A1:A4)")
    return workbook


def journal_edits(snapshot_path: str, journal_path: str) -> list[dict]:
    """One record per call, into a fresh journal paired with the snapshot;
    returns the live :func:`observed_state` before the calls and after each."""
    snap = load_snapshot(snapshot_path)
    workbook = snap.workbook
    with Journal(journal_path, truncate=True, fsync=False,
                 snapshot_id=snap.meta["snapshot_id"]) as journal:
        main, side = (RecalcEngine(workbook[name], snap.graphs[name], journal=journal)
                      for name in ("Main", "Side"))

        def commit_batch():
            with main.begin_batch(workbook=workbook) as batch:
                batch.insert_rows(2, 1)
                batch.delete_columns(7, 1)
                batch.clear_range(Range.from_a1("B6:B7"))
                batch.set_value("A1", 5.0)
                batch.set_formula("F4", "=A1*3")
                batch.set_formula("F5", "SUM(A1:A3)")
                batch.clear_cell("D4")

        calls = (
            lambda: main.set_value("A2", 10.0),
            lambda: main.set_value("F1", NA_ERROR),
            lambda: main.set_value("F2", "note"),
            lambda: main.set_formula("F3", "=A2+C8"),
            lambda: main.clear_cell("B3"),
            commit_batch,
            lambda: main.insert_rows(4, 2, workbook=workbook),
            lambda: side.delete_rows(3, 1),
            lambda: side.set_value("A1", 7.0),
        )
        states = []
        for call in (lambda: None,) + calls:
            call()
            states.append(observed_state(workbook, {"Main": main.graph, "Side": side.graph}))
    return states


def record_ends(data: bytes) -> list[int]:
    """Where the 12-byte header and each record (a 10-byte frame, then
    the payload its length field counts) end."""
    ends = [12]
    while ends[-1] < len(data):
        ends.append(ends[-1] + 10 + int.from_bytes(data[ends[-1] + 2:ends[-1] + 6], "little"))
    return ends


def observed_state(workbook, graphs) -> dict:
    """Per sheet: its values (A1 -> encoded value) and its graph's dependencies."""
    return {
        sheet.name: {
            "values": {Range.cell(*pos).to_a1(): encode_value(cell.value)
                       for pos, cell in sheet.items()},
            "dependencies": sorted([list(d.prec.as_tuple()), list(d.dep.as_tuple())]
                                   for d in graphs[sheet.name].decompress()),
        }
        for sheet in workbook.sheets()
    }


def main() -> None:
    workbook = build_workbook()
    engines = {sheet.name: RecalcEngine(sheet) for sheet in workbook.sheets()}
    for engine in engines.values():
        engine.recalculate_all()
    save_snapshot(workbook, SNAPSHOT, {name: e.graph for name, e in engines.items()})
    journal_edits(SNAPSHOT, JOURNAL)
    with open(JOURNAL, "rb") as handle:
        data = handle.read()
    expected = {"record_ends": record_ends(data), "prefixes": []}
    cut = JOURNAL + ".cut"
    for end in expected["record_ends"]:
        with open(cut, "wb") as handle:
            handle.write(data[:end])
        result = recover(SNAPSHOT, cut)
        expected["prefixes"].append(observed_state(result.workbook, result.graphs))
    os.remove(cut)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, sort_keys=True)


if __name__ == "__main__":
    main()
