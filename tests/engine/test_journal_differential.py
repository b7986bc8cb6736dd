"""Differential: snapshot + journal replay ≡ the live workbook.

Hypothesis drives random mixes of cell edits, batch commits, and
structural ops through a journaled engine; recovering from the snapshot
plus the recorded journal must land in exactly the live state — values,
decompressed dependency sets, and ``find_dependents`` answers — for
every registered spatial-index backend.

A step is one :func:`helpers.edits` edit (a ``cell`` or ``structural``
record) or a batch of them, range clears included (a ``batch`` record).
Formulas read only columns left of their own, so no mix closes a cycle
(``test_recovery_cycles`` below covers cycles).
"""

import io
import os

import pytest
from helpers import dependency_set, edits
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.taco_graph import TacoGraph, dependencies_column_major
from repro.engine.journal import Journal, recover
from repro.engine.recalc import CircularReferenceError, RecalcEngine
from repro.graphs.base import expand_cells
from repro.grid.range import Range
from repro.io.snapshot import save_snapshot
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook
from repro.spatial.registry import available_indexes

BACKENDS = available_indexes()
ROWS = 6
STEPS = st.one_of(edits(ROWS, structural=True),
                  st.lists(edits(ROWS, ranges=True), min_size=1, max_size=4))


def build_sheet() -> Sheet:
    sheet = Sheet("Diff")
    for r in range(1, ROWS + 1):
        sheet.set_value((1, r), float(r))
        sheet.set_value((2, r), float(r * 2))
        sheet.set_formula((3, r), f"=A{r}+B{r}")
    sheet.set_formula((4, 1), "=SUM(A1:A6)")
    sheet.set_formula((5, 2), "=SUM(C1:C3)*B1")
    return sheet


def state(sheet: Sheet) -> dict:
    return {pos: (cell.formula_text, cell.value) for pos, cell in sheet.items()}


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(STEPS, min_size=1, max_size=8))
def test_replay_equals_live(backend, steps, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("journaldiff")
    journal_path = str(workdir / "diff.wal")

    workbook = Workbook("diff")
    sheet = build_sheet()
    workbook.attach_sheet(sheet)
    graph = TacoGraph.full(index=backend)
    graph.build(dependencies_column_major(sheet))
    engine = RecalcEngine(sheet, graph)
    engine.recalculate_all()

    snapshot = io.BytesIO()
    save_snapshot(workbook, snapshot, {sheet.name: graph})
    engine.journal = Journal(journal_path, truncate=True, fsync=False)
    for step in steps:
        if isinstance(step, list):
            with engine.begin_batch(workbook=workbook) as batch:
                for edit in step:
                    batch.apply(edit)
        else:
            engine.apply(step, workbook=workbook)
    engine.journal.close()

    snapshot.seek(0)
    result = recover(snapshot, journal_path)
    assert result.records_applied == len(steps)
    rsheet = result.workbook[sheet.name]
    rgraph = result.graphs[sheet.name]

    assert state(rsheet) == state(sheet)
    assert dependency_set(rgraph) == dependency_set(engine.graph)
    # The replayed graph answers queries exactly like the live one.
    for probe in (Range.from_a1("A1"), Range.from_a1("B3"),
                  Range.from_a1("A1:B6")):
        assert expand_cells(rgraph.find_dependents(probe)) == \
            expand_cells(engine.graph.find_dependents(probe))
    os.remove(journal_path)


def test_recovery_cycles_match_live(tmp_path):
    """A journaled edit that closes a cycle recovers to the same #CYCLE!
    state; the error is reported, not raised."""
    workbook = Workbook("cyc")
    sheet = workbook.add_sheet("Main")
    sheet.set_value("A1", 1.0)
    sheet.set_formula("B1", "=A1+1")
    engine = RecalcEngine(sheet)
    engine.recalculate_all()
    snapshot = io.BytesIO()
    save_snapshot(workbook, snapshot, {"Main": engine.graph})

    journal_path = str(tmp_path / "cyc.wal")
    engine.journal = Journal(journal_path, truncate=True)
    with pytest.raises(CircularReferenceError):
        engine.set_formula("A1", "=B1")
    engine.journal.close()

    snapshot.seek(0)
    result = recover(snapshot, journal_path)
    assert result.records_applied == 1
    assert "Main" in result.cycle_errors
    assert state(result.workbook["Main"]) == state(sheet)


def test_interpreter_evaluation_mode_roundtrips(tmp_path):
    workbook = Workbook("interp")
    sheet = workbook.add_sheet("Main")
    for r in range(1, 9):
        sheet.set_value((1, r), float(r))
    for r in range(1, 9):
        sheet.set_formula((2, r), f"=SUM(A$1:A{r})")
    engine = RecalcEngine(sheet, evaluation="interpreter")
    engine.recalculate_all()
    snapshot = io.BytesIO()
    save_snapshot(workbook, snapshot, {"Main": engine.graph})
    journal_path = str(tmp_path / "interp.wal")
    engine.journal = Journal(journal_path, truncate=True)
    engine.set_value("A4", 100.0)
    engine.journal.close()
    snapshot.seek(0)
    result = recover(snapshot, journal_path, evaluation="interpreter")
    assert state(result.workbook["Main"]) == state(sheet)
