"""Differential: a deferred engine ≡ the immediate interpreter oracle.

One hypothesis state machine drives ``RecalcEngine(deferred=True)`` and
an immediate ``evaluation="interpreter"`` engine over twin sheets
through random interleavings of every update path — single edits
(structural ones included) and batch commits, drawn from the shared
:func:`helpers.edits` strategy — and ``step(k)`` with random budgets.
After every rule the deferred engine may be *behind* the oracle, but
never silently: a differing cell is reported dirty, and the backlog only
ever counts formula cells.  After a drain the two are bit-identical —
values, ``#CYCLE!`` cells and decompressed dependency sets.

Formulas may point anywhere, so the mixes close and break cycles; the
initial sheet carries a windowed column, an elementwise column and a
recurrence so every plan-node kind is sliced by ``step``.
"""

from helpers import assert_same_values, dependency_set, edits, same_value
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.engine.recalc import CircularReferenceError, RecalcEngine
from repro.sheet.sheet import Sheet

ROWS = 12


def build_sheet() -> Sheet:
    sheet = Sheet("S")
    for r in range(1, ROWS + 1):
        sheet.set_value((1, r), float(r))
        sheet.set_value((2, r), float(r % 4))
        sheet.set_formula((3, r), f"=SUM($A$1:A{r})")          # windowed run
        sheet.set_formula((4, r), f"=A{r}*B{r}")               # elementwise run
        sheet.set_formula((5, r), f"=E{r - 1}+D{r}" if r > 1 else "=D1")
    return sheet


class DeferredVsImmediate(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.deferred = RecalcEngine(build_sheet(), deferred=True)
        self.deferred.recalculate_all()
        self.oracle = RecalcEngine(build_sheet(), evaluation="interpreter")
        self.oracle.recalculate_all()

    def both(self, apply) -> None:
        apply(self.deferred)                 # a deferred engine never raises for cycles
        try:
            apply(self.oracle)
        except CircularReferenceError:
            pass                             # trapped cells are #CYCLE! on the oracle now

    @rule(edit=edits(ROWS, acyclic=False, structural=True))
    def point_edit(self, edit):
        self.both(lambda engine: engine.apply(edit))

    @rule(batch=st.lists(edits(ROWS, acyclic=False, ranges=True), min_size=1, max_size=6))
    def batch(self, batch):
        def apply(engine):
            with engine.begin_batch() as session:
                for edit in batch:
                    session.apply(edit)
        self.both(apply)

    @rule(budget=st.integers(1, 20))
    def step(self, budget):
        before = self.deferred.pending
        done = self.deferred.step(budget)
        assert self.deferred.pending <= before - done

    @rule()
    def drain_and_compare(self):
        self.deferred.drain()
        assert self.deferred.pending == 0
        assert_same_values(self.deferred.sheet, self.oracle.sheet)
        assert dependency_set(self.deferred.graph) == dependency_set(self.oracle.graph)

    @invariant()
    def staleness_is_never_under_reported(self):
        got, want = self.deferred.sheet, self.oracle.sheet
        for pos in set(got.positions()) | set(want.positions()):
            if not same_value(got.get_value(pos), want.get_value(pos)):
                assert self.deferred.is_dirty(pos), pos

    @invariant()
    def backlog_counts_only_formula_cells(self):
        engine = self.deferred
        formula_backlog = sum(
            engine.is_dirty(pos) for pos, _ in engine.sheet.formula_cells()
        )
        assert engine.pending == formula_backlog

    @invariant()
    def text_and_graph_never_lag(self):
        # Only *values* are deferred: formula text and the graph are
        # maintained before control returns.
        got = {pos: cell.formula_text for pos, cell in self.deferred.sheet.formula_cells()}
        want = {pos: cell.formula_text for pos, cell in self.oracle.sheet.formula_cells()}
        assert got == want


_settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestColumnar = DeferredVsImmediate.TestCase
TestColumnar.settings = _settings
