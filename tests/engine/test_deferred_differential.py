"""Differential: a deferred engine ≡ the immediate interpreter oracle.

One hypothesis state machine drives ``RecalcEngine(deferred=True)`` and
an immediate ``evaluation="interpreter"`` engine over twin sheets
through random interleavings of every update path — point edits, batch
commits (with range clears), row inserts/deletes — and ``step(k)`` with
random budgets.  After every rule the deferred engine may be *behind*
the oracle, but never silently: a cell whose value differs is reported
dirty, and the backlog only ever counts formula cells.  After a drain
the two are bit-identical — values, ``#CYCLE!`` cells and decompressed
dependency sets.

Formulas may point anywhere, so the mixes close and break cycles; the
initial sheet carries a windowed column, an elementwise column and a
recurrence so every plan-node kind is sliced by ``step``.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from helpers import assert_same_values, dependency_set, same_value

from repro.engine.recalc import CircularReferenceError, RecalcEngine
from repro.grid.range import Range
from repro.sheet.sheet import Sheet

ROWS = 12
COLS = "ABCDE"
rows = st.integers(1, ROWS)
formula_cols = st.sampled_from((3, 4, 5))
any_cols = st.integers(1, 5)
numbers = st.integers(-20, 20).map(float)


@st.composite
def formulas(draw):
    col = COLS[draw(any_cols) - 1]
    r1 = draw(rows)
    r2 = min(ROWS, r1 + draw(st.integers(0, 4)))
    return draw(st.sampled_from((
        f"=SUM({col}{r1}:{col}{r2})",
        f"=SUM($A$1:A{r1})",
        f"={col}{r1}*2+B{r2}",
        f"=A{r1}*B{r1}",
        f"=IF({col}{r1}>0,{col}{r2},-1)",
    )))


cell_edits = st.one_of(
    st.tuples(st.just("set_value"), st.tuples(any_cols, rows), numbers),
    st.tuples(st.just("set_formula"), st.tuples(formula_cols, rows), formulas()),
    st.tuples(st.just("clear_cell"), st.tuples(any_cols, rows), st.none()),
)
range_clears = st.tuples(any_cols, rows, st.integers(0, 1), st.integers(0, 3)).map(
    lambda t: ("clear_range", Range(t[0], t[1], min(5, t[0] + t[2]), t[1] + t[3]), None)
)


def build_sheet(store: str) -> Sheet:
    sheet = Sheet("S", store=store)
    for r in range(1, ROWS + 1):
        sheet.set_value((1, r), float(r))
        sheet.set_value((2, r), float(r % 4))
        sheet.set_formula((3, r), f"=SUM($A$1:A{r})")          # windowed run
        sheet.set_formula((4, r), f"=A{r}*B{r}")               # elementwise run
        sheet.set_formula((5, r), f"=E{r - 1}+D{r}" if r > 1 else "=D1")
    return sheet


class DeferredVsImmediate(RuleBasedStateMachine):
    store = "columnar"

    def __init__(self):
        super().__init__()
        self.deferred = RecalcEngine(build_sheet(self.store), deferred=True)
        self.deferred.recalculate_all()
        self.oracle = RecalcEngine(build_sheet(self.store), evaluation="interpreter")
        self.oracle.recalculate_all()

    def both(self, apply) -> None:
        apply(self.deferred)                 # a deferred engine never raises for cycles
        try:
            apply(self.oracle)
        except CircularReferenceError:
            pass                             # trapped cells are #CYCLE! on the oracle now

    @rule(edit=cell_edits)
    def point_edit(self, edit):
        kind, pos, payload = edit
        args = (pos,) if payload is None else (pos, payload)
        self.both(lambda engine: getattr(engine, kind)(*args))

    @rule(edits=st.lists(st.one_of(cell_edits, range_clears), min_size=1, max_size=6))
    def batch(self, edits):
        def apply(engine):
            with engine.begin_batch() as session:
                for kind, target, payload in edits:
                    args = (target,) if payload is None else (target, payload)
                    getattr(session, kind)(*args)
        self.both(apply)

    @rule(op=st.sampled_from(("insert_rows", "delete_rows")), row=rows,
          count=st.integers(1, 2))
    def structural(self, op, row, count):
        self.both(lambda engine: getattr(engine, op)(row, count))

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


class DeferredVsImmediateObjectStore(DeferredVsImmediate):
    store = "object"


_settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestColumnar = DeferredVsImmediate.TestCase
TestColumnar.settings = _settings
TestObject = DeferredVsImmediateObjectStore.TestCase
TestObject.settings = _settings
