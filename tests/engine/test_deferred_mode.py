"""Deferral as a mode of ``RecalcEngine``: the regressions the single
engine exists for, and the contracts it must keep.

* a bad formula leaves no torn state — immediate, deferred or batched;
* draining costs what the immediate path costs, from one kept plan;
* the drain engages the windowed / elementwise tiers;
* ticket counts, journal order and cycle handling per mode.
"""

import gc
import time

import pytest
from helpers import assert_same_values, build_ledger_sheet, clone_sheet, dependency_set

from repro.engine.edits import ClearCell, SetFormula, SetValue
from repro.engine.recalc import CircularReferenceError, RecalcEngine, UpdateTicket
from repro.formula.errors import CYCLE_ERROR, FormulaSyntaxError
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet


def build_chain_sheet(rows: int) -> Sheet:
    sheet = Sheet("chain")
    sheet.set_value("A1", 1.0)
    sheet.set_formula("B1", "=A1")
    for r in range(2, rows + 1):
        sheet.set_formula((2, r), f"=B{r - 1}+1")
    return sheet


def best_wall(edit, values=(5.0, 6.0, 7.0)) -> float:
    """The least wall time of ``edit(value)`` over ``values``, each timed
    with the cycle collector paused."""
    walls = []
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for value in values:
            start = time.perf_counter()
            edit(value)
            walls.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return min(walls)


def state(engine: RecalcEngine) -> tuple:
    cells = {
        pos: (cell.formula_text if cell.is_formula else None, cell.value)
        for pos, cell in engine.sheet.items()
    }
    return cells, dependency_set(engine.graph)


class TestBadFormulaLeavesNoTornState:
    """``set_formula("B1", "=A1+")`` used to raise only after B1's graph
    edges were cleared and the unparseable text stored — unless a
    journal happened to be attached."""

    @staticmethod
    def engine(deferred: bool) -> RecalcEngine:
        sheet = Sheet("torn")
        sheet.set_value("A1", 2.0)
        sheet.set_formula("B1", "=A1*3")
        sheet.set_formula("C1", "=B1+1")
        engine = RecalcEngine(sheet, deferred=deferred)
        engine.recalculate_all()
        return engine

    @pytest.mark.parametrize("deferred", [False, True], ids=["immediate", "deferred"])
    def test_point_edit(self, deferred):
        engine = self.engine(deferred)
        before = state(engine)
        with pytest.raises(FormulaSyntaxError):
            engine.set_formula("B1", "=A1+")
        assert state(engine) == before
        assert engine.pending == 0
        engine.recalculate_all()                # used to raise from here on
        assert state(engine) == before

    @pytest.mark.parametrize("deferred", [False, True], ids=["immediate", "deferred"])
    def test_batch_commit(self, deferred):
        engine = self.engine(deferred)
        before = state(engine)
        with pytest.raises(FormulaSyntaxError):
            with engine.begin_batch() as batch:
                batch.set_value("A1", 50.0)     # valid edits of the same
                batch.clear_cell("C1")          # batch must not land either
                batch.set_formula("B1", "=A1+")
        assert state(engine) == before
        assert engine.pending == 0


class TestDrainCost:
    def test_chain_drain_is_within_10x_of_the_immediate_update(self):
        """608x at the parent: every pick re-scanned the whole dirty set.

        Each side is the best of three edits timed with the cycle
        collector paused, as ``timeit`` does: a single ~10 ms sample
        inside a long suite can catch a full collection of everything
        earlier tests left on the heap, which says nothing of the drain.
        """
        rows = 4000
        immediate = RecalcEngine(build_chain_sheet(rows))
        immediate.recalculate_all()
        deferred = RecalcEngine(build_chain_sheet(rows), deferred=True)
        deferred.recalculate_all()

        def drain(value):
            deferred.set_value("A1", value)
            while deferred.pending:
                deferred.step(256)

        immediate_wall = best_wall(lambda value: immediate.set_value("A1", value))
        deferred_wall = best_wall(drain)

        assert_same_values(deferred.sheet, immediate.sheet)
        assert deferred_wall < 10 * immediate_wall

    @staticmethod
    def count_plans(engine: RecalcEngine) -> list:
        built = []
        build = engine._build_plan

        def spy(dirty, dispatching):
            built.append(len(dirty))
            return build(dirty, dispatching)

        engine._build_plan = spy
        return built

    def test_undisturbed_drain_orders_the_backlog_once(self):
        engine = RecalcEngine(build_chain_sheet(400), deferred=True)
        engine.recalculate_all()
        built = self.count_plans(engine)
        engine.set_value("A1", 5.0)
        steps = 0
        while engine.pending:
            engine.step(32)
            steps += 1
        assert steps > 10
        assert built == [400]

    def test_plan_survives_marks_it_already_covers(self):
        sheet = build_chain_sheet(100)
        sheet.set_value("A2", 0.0)
        sheet.set_formula("B50", "=B49+1+A2")
        engine = RecalcEngine(sheet, deferred=True)
        engine.recalculate_all()
        built = self.count_plans(engine)
        engine.set_value("A1", 5.0)
        engine.step(10)                         # B1..B10 done, B11.. planned
        ticket = engine.set_value("A2", 1000.0) # B50..B100: all still planned
        assert (ticket.dirty_count, ticket.pending) == (51, 90)
        engine.drain()
        assert built == [100]
        assert engine.read("B100") == (1104.0, False)

    def test_interleaved_edit_reorders_the_backlog(self):
        engine = RecalcEngine(build_chain_sheet(100), deferred=True)
        engine.recalculate_all()
        built = self.count_plans(engine)
        engine.set_value("A1", 5.0)
        engine.step(10)
        engine.set_value("A1", 6.0)             # re-marks the computed head
        engine.drain()
        assert built == [100, 100]
        assert engine.read("B100") == (105.0, False)

    def test_clearing_a_member_of_a_planned_run_reorders(self):
        """A kept plan would roll the windowed run straight over the
        cleared cell."""
        sheet = build_ledger_sheet(40)
        engine = RecalcEngine(sheet, deferred=True)
        engine.recalculate_all()
        oracle = RecalcEngine(clone_sheet(sheet), evaluation="interpreter")
        oracle.recalculate_all()
        engine.set_value("A1", 99.0)
        oracle.set_value("A1", 99.0)
        engine.step(1)
        assert engine.pending
        engine.clear_cell("D7")
        oracle.clear_cell("D7")
        engine.drain()
        assert engine.sheet.cell_at((4, 7)) is None
        assert_same_values(engine.sheet, oracle.sheet)

    def test_cell_cleared_off_the_sheet_mid_plan_is_dropped(self):
        engine = RecalcEngine(build_chain_sheet(10), deferred=True)
        engine.recalculate_all()
        engine.set_value("A1", 5.0)
        engine.step(2)
        engine.sheet.clear_cell((2, 6))         # behind the engine's back
        assert engine.drain() == 7              # B3..B10 minus the vanished B6
        assert engine.pending == 0


class TestDrainUsesTheFastTiers:
    def test_head_edit_drains_through_windowed_and_elementwise_runs(self):
        """Both counters read 0 at the parent: the deferred engine
        evaluated cell by cell."""
        sheet = build_ledger_sheet()
        engine = RecalcEngine(sheet, deferred=True)
        engine.recalculate_all()
        oracle = RecalcEngine(clone_sheet(sheet), evaluation="interpreter")
        oracle.recalculate_all()
        stats = engine.eval_stats
        windowed, elementwise = stats.windowed_cells, stats.elementwise_cells

        ticket = engine.set_value("A1", 1234.0)
        oracle.set_value("A1", 1234.0)
        assert ticket.dirty_count == 300 + 300 + 1 + 1   # C, D, E1, F1
        while engine.pending:
            engine.step(256)
        assert stats.windowed_cells > windowed
        assert_same_values(engine.sheet, oracle.sheet)

        with engine.begin_batch() as batch:     # a paste down both inputs
            for r in range(1, 301):
                batch.set_value((1, r), float(r))
                batch.set_value((2, r), 2.0)
        with oracle.begin_batch() as batch:
            for r in range(1, 301):
                batch.set_value((1, r), float(r))
                batch.set_value((2, r), 2.0)
        engine.drain()
        assert stats.elementwise_cells > elementwise
        assert_same_values(engine.sheet, oracle.sheet)

    def test_a_run_is_never_split_by_the_budget(self):
        engine = RecalcEngine(build_ledger_sheet(), deferred=True)
        engine.recalculate_all()
        engine.set_value("A1", 7.0)
        slices = []
        while engine.pending:
            slices.append(engine.step(1))
        # The running total rolls as one node; the chain is a scan,
        # which a budget of one cuts into cells.
        assert sorted(set(slices)) == [1, 300]
        assert sum(slices) == 602


class TestContractsPerMode:
    def test_ticket_counts_own_dirty_set_and_cumulative_backlog(self):
        engine = RecalcEngine(build_chain_sheet(40), deferred=True)
        engine.recalculate_all()
        first = engine.set_value("A1", 2.0)
        second = engine.set_value("A1", 3.0)    # the same 40 cells again
        assert isinstance(first, UpdateTicket)
        assert (first.dirty_count, first.pending) == (40, 40)
        assert (second.dirty_count, second.pending) == (40, 40)
        extra = engine.set_formula("C1", "=B40")
        assert (extra.dirty_count, extra.pending) == (1, 41)

    def test_immediate_engine_has_no_backlog(self):
        engine = RecalcEngine(build_chain_sheet(5))
        engine.recalculate_all()
        result = engine.set_value("A1", 9.0)
        assert result.recomputed == 5
        assert engine.pending == 0 and engine.step() == 0 and engine.drain() == 0
        assert engine.read("B5") == (13.0, False)

    @pytest.mark.parametrize("deferred", [False, True], ids=["immediate", "deferred"])
    def test_one_journal_record_after_mutation_before_recomputation(self, deferred):
        sheet = build_chain_sheet(3)
        seen = []

        class SpyJournal:
            def append_edits(self, name, edits, *, batch=False, cross_sheet=False):
                seen.extend((edit, sheet.get_value(edit.pos), sheet.get_value("B3"))
                            for edit in edits)

        engine = RecalcEngine(sheet, deferred=deferred)
        engine.recalculate_all()
        engine.journal = SpyJournal()
        engine.set_value("A1", 10.0)
        # A1 already holds the new value, B3 still the old one.
        assert seen == [(SetValue("A1", 10.0), 10.0, 3.0)]
        engine.drain()
        assert sheet.get_value("B3") == 12.0
        engine.set_formula("C1", "=B3*2")
        engine.clear_cell("C1")
        assert [edit for edit, *_ in seen[1:]] == [SetFormula("C1", "B3*2"), ClearCell("C1")]

    def test_cycles_raise_immediately_or_surface_deferred(self):
        def build():
            sheet = Sheet("cyc")
            sheet.set_value("A1", 1.0)
            sheet.set_formula("B1", "=A1+C1")
            sheet.set_formula("C1", "=A1*2")
            sheet.set_formula("D1", "=C1+1")     # downstream of the cycle-to-be
            sheet.set_formula("E1", "=A1+5")     # independent of it
            return sheet

        immediate = RecalcEngine(build())
        immediate.recalculate_all()
        with pytest.raises(CircularReferenceError) as excinfo:
            immediate.set_formula("C1", "=B1*2")
        assert excinfo.value.cycle in ([(2, 1), (3, 1), (2, 1)], [(3, 1), (2, 1), (3, 1)])
        with pytest.raises(CircularReferenceError):
            immediate.set_value("A1", 4.0)

        deferred = RecalcEngine(build(), deferred=True)
        deferred.recalculate_all()
        deferred.set_formula("C1", "=B1*2")     # closes the cycle, no raise
        deferred.set_value("A1", 4.0)
        assert deferred.drain() == 1            # E1; the rest is trapped
        assert deferred.pending == 0
        assert_same_values(deferred.sheet, immediate.sheet)
        for ref in ("B1", "C1", "D1"):
            assert deferred.read(ref) == (CYCLE_ERROR, False)
        assert deferred.read("E1").value == 9.0

        immediate_self = RecalcEngine(Sheet("self"))
        with pytest.raises(CircularReferenceError):
            immediate_self.set_formula("A1", "=A1+1")
        deferred_self = RecalcEngine(Sheet("self"), deferred=True)
        deferred_self.set_formula("A1", "=A1+1")
        assert deferred_self.drain() == 0
        assert deferred_self.read("A1") == (CYCLE_ERROR, False)

    def test_structural_edit_settles_the_backlog_first(self):
        sheet = build_chain_sheet(20)
        engine = RecalcEngine(sheet, deferred=True)
        engine.recalculate_all()
        oracle = RecalcEngine(clone_sheet(sheet), evaluation="interpreter")
        oracle.recalculate_all()
        engine.set_value("A1", 50.0)
        oracle.set_value("A1", 50.0)
        engine.step(3)
        assert engine.pending == 17
        engine.delete_rows(5, 2)                # pending (col, row)s predate this
        oracle.delete_rows(5, 2)
        assert engine.pending                   # the edit's own dirty set, marked
        engine.drain()
        assert_same_values(engine.sheet, oracle.sheet)
