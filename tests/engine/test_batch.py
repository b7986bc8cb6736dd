"""Unit tests for the batched edit pipeline (engine/batch.py)."""

import pytest

from repro.core.maintain import coalesce_cells
from repro.core import taco_graph
from repro.core.taco_graph import TacoGraph, build_from_sheet
from repro.engine.batch import BatchEditSession
from repro.engine.recalc import CircularReferenceError, RecalcEngine
from repro.formula.errors import CYCLE_ERROR
from repro.graphs.nocomp import NoCompGraph
from repro.grid.range import Range
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook


def build_board(rows: int = 12) -> Sheet:
    sheet = Sheet("board")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float(r))          # A: data
        sheet.set_formula((2, r), f"=A{r}*2")      # B: doubles
    sheet.set_formula("C1", f"=SUM(B1:B{rows})")
    return sheet


class TestCoalesce:
    def test_column_run(self):
        assert coalesce_cells([(1, 3), (1, 1), (1, 2)]) == [Range(1, 1, 1, 3)]

    def test_rectangle(self):
        cells = [(c, r) for c in (2, 3) for r in (5, 6, 7)]
        assert coalesce_cells(cells) == [Range(2, 5, 3, 7)]

    def test_scattered_and_duplicates(self):
        got = coalesce_cells([(1, 1), (1, 1), (3, 9), (1, 3)])
        assert sorted(r.as_tuple() for r in got) == [
            Range(1, 1, 1, 1).as_tuple(),
            Range(1, 3, 1, 3).as_tuple(),
            Range(3, 9, 3, 9).as_tuple(),
        ]

    def test_cover_is_exact(self):
        cells = {(1, 1), (1, 2), (2, 2), (2, 3), (5, 1)}
        cover = coalesce_cells(cells)
        covered = {pos for rng in cover for pos in rng.cells()}
        assert covered == cells

    def test_empty(self):
        assert coalesce_cells([]) == []


class TestBatchSession:
    def test_commit_applies_and_recalculates(self):
        engine = RecalcEngine(build_board())
        engine.recalculate_all()
        with engine.begin_batch() as batch:
            batch.set_value("A1", 100.0)
            batch.set_formula("D1", "=C1/2")
        assert engine.sheet.get_value("B1") == 200.0
        assert engine.sheet.get_value("C1") == 2.0 * (100 + sum(range(2, 13)))
        assert engine.sheet.get_value("D1") == engine.sheet.get_value("C1") / 2
        result = batch.result
        assert result.ops == 2
        assert result.recomputed >= 3  # B1, C1, D1

    def test_last_writer_wins_coalescing(self):
        engine = RecalcEngine(build_board())
        engine.recalculate_all()
        with engine.begin_batch() as batch:
            for value in (1.0, 2.0, 3.0):
                batch.set_value("A1", value)
        assert engine.sheet.get_value("A1") == 3.0
        assert batch.result.ops == 3
        assert batch.result.coalesced_cells == 1

    def test_clear_range_ordering_semantics(self):
        engine = RecalcEngine(build_board())
        engine.recalculate_all()
        with engine.begin_batch() as batch:
            batch.set_value("A1", 50.0)              # superseded by the clear
            batch.clear_range(Range.from_a1("A1:A3"))
            batch.set_value("A2", 7.0)               # wins over the clear
        assert engine.sheet.get_value("A1") is None
        assert engine.sheet.get_value("A2") == 7.0
        assert engine.sheet.get_value("A3") is None
        assert engine.sheet.get_value("B2") == 14.0
        assert engine.sheet.get_value("B3") == 0.0   # blank counts as 0

    def test_exception_discards_everything(self):
        engine = RecalcEngine(build_board())
        engine.recalculate_all()
        before_edges = sorted(
            (d.prec.as_tuple(), d.dep.as_tuple()) for d in engine.graph.decompress()
        )
        with pytest.raises(RuntimeError, match="boom"):
            with engine.begin_batch() as batch:
                batch.set_value("A1", 999.0)
                batch.clear_range(Range.from_a1("B1:B12"))
                raise RuntimeError("boom")
        assert engine.sheet.get_value("A1") == 1.0
        assert engine.sheet.get_value("B5") == 10.0
        after_edges = sorted(
            (d.prec.as_tuple(), d.dep.as_tuple()) for d in engine.graph.decompress()
        )
        assert after_edges == before_edges

    def test_explicit_commit_inside_with_block(self):
        engine = RecalcEngine(build_board())
        engine.recalculate_all()
        with engine.begin_batch() as batch:
            batch.set_value("A1", 5.0)
            result = batch.commit()    # clean exit must not re-commit
        assert result is batch.result
        assert engine.sheet.get_value("B1") == 10.0

    def test_closed_session_refuses_edits(self):
        engine = RecalcEngine(build_board())
        batch = engine.begin_batch()
        batch.commit()
        with pytest.raises(RuntimeError, match="closed"):
            batch.set_value("A1", 1.0)
        with pytest.raises(RuntimeError, match="closed"):
            batch.commit()

    def test_recalc_false_skips_reevaluation(self):
        engine = RecalcEngine(build_board())
        engine.recalculate_all()
        with engine.begin_batch(recalc=False) as batch:
            batch.set_value("A1", 100.0)
        assert batch.result.recomputed == 0
        assert engine.sheet.get_value("B1") == 2.0  # stale by request
        engine.recompute(batch.result.dirty_ranges)
        assert engine.sheet.get_value("B1") == 200.0

    def test_large_batch_triggers_repack(self, monkeypatch):
        monkeypatch.setattr(taco_graph, "REPACK_MIN", 4)
        sheet = build_board(rows=60)
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        with engine.begin_batch() as batch:
            for r in range(1, 61):
                batch.set_formula((2, r), f"=A{r}*3")
        assert batch.result.repacked
        assert engine.sheet.get_value("B7") == 21.0
        # The settled indexes answer queries correctly after the repack.
        dependents = engine.graph.find_dependents(Range.from_a1("A7"))
        cells = {pos for rng in dependents for pos in rng.cells()}
        assert (2, 7) in cells

    def test_small_batch_replays_deletes(self, monkeypatch):
        monkeypatch.setattr(taco_graph, "REPACK_MIN", 1000)
        engine = RecalcEngine(build_board(rows=40))
        engine.recalculate_all()
        with engine.begin_batch() as batch:
            batch.set_formula("B3", "=A3*5")
        assert not batch.result.repacked
        graph = engine.graph
        edge_ids = {id(edge) for edge in graph.edges()}
        for index in (graph._prec_index, graph._dep_index):
            assert {id(entry.payload) for entry in index} == edge_ids
            assert len(index) == len(edge_ids)

    def test_batch_cycle_raises_with_chain(self):
        engine = RecalcEngine(build_board())
        engine.recalculate_all()
        with pytest.raises(CircularReferenceError):
            with engine.begin_batch() as batch:
                batch.set_formula("E1", "=F1+1")
                batch.set_formula("F1", "=E1+1")
        assert engine.sheet.get_value("E1") == CYCLE_ERROR
        assert engine.sheet.get_value("F1") == CYCLE_ERROR

    def test_works_with_nocomp_fallback(self):
        sheet = build_board()
        graph = NoCompGraph()
        from repro.core.taco_graph import dependencies_column_major

        graph.build(dependencies_column_major(sheet))
        engine = RecalcEngine(sheet, graph)
        engine.recalculate_all()
        with engine.begin_batch() as batch:
            batch.set_value("A2", 10.0)
        assert engine.sheet.get_value("B2") == 20.0

    def test_deferred_mode_guards(self):
        graph = build_from_sheet(build_board())
        assert isinstance(graph, TacoGraph)
        graph.begin_deferred_maintenance()
        with pytest.raises(RuntimeError, match="already active"):
            graph.begin_deferred_maintenance()
        assert graph.end_deferred_maintenance() is False
        with pytest.raises(RuntimeError, match="not active"):
            graph.end_deferred_maintenance()


class TestEntryPoints:
    def test_sheet_begin_batch(self):
        sheet = build_board()
        with sheet.begin_batch() as batch:
            batch.set_value("A1", 4.0)
        assert sheet.get_value("B1") == 8.0
        assert batch.result.ops == 1

    def test_workbook_begin_batch(self):
        workbook = Workbook("wb")
        workbook.add_sheet("main")
        sheet = workbook["main"]
        sheet.set_value("A1", 2.0)
        sheet.set_formula("B1", "=A1+1")
        with workbook.begin_batch() as batch:
            batch.set_value("A1", 9.0)
        assert sheet.get_value("B1") == 10.0

    def test_workbook_begin_batch_named_sheet(self):
        workbook = Workbook("wb")
        workbook.add_sheet("first")
        other = workbook.add_sheet("second")
        other.set_value("A1", 1.0)
        other.set_formula("B1", "=A1*10")
        with workbook.begin_batch(sheet="second") as batch:
            batch.set_value("A1", 3.0)
        assert other.get_value("B1") == 30.0

    def test_engine_reuse_across_batches(self):
        engine = RecalcEngine(build_board())
        engine.recalculate_all()
        for value in (10.0, 20.0):
            with engine.begin_batch() as batch:
                batch.set_value("A1", value)
            assert isinstance(batch, BatchEditSession)
        assert engine.sheet.get_value("B1") == 40.0
