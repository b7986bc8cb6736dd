"""The columnar formula plane — run records — against its per-cell twin.

A columnar sheet keeps no object per formula cell: its formula plane is,
per column, a sorted list of run records that every mutation splits,
moves and merges in place.  The seed's per-cell store
(:class:`repro.baselines.object_store.ObjectSheet`) keeps a ``Cell`` per
formula and is the oracle.  The machine drives both with the same
mutations — values over blanks, values, run heads, interiors and tails;
typed formulas; template members; clears; fills down, up and right;
attached runs; structural edits — and after every step the two must show
the same cells, the same texts and templates, the same run index joined
and unjoined (record for record: the unjoined index of a columnar sheet
*is* its storage), and the records must be in canonical form.  Cells are
always looked up afresh: a view taken before a mutation is not a thing
to compare.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.baselines.object_store import ObjectSheet
from repro.formula.parser import parse_formula
from repro.formula.template import intern_template
from repro.grid.range import Range
from repro.sheet import structural
from repro.sheet.autofill import autofill, fill_formula_column
from repro.sheet.sheet import Sheet

COLS, ROWS = 5, 14
#: ``{r}`` is the host row, ``{p}`` the row above it.
TEXTS = (
    "=A{r}*2", "=SUM($A$1:A{r})", "=B{r}+A{r}", "= A{r} + 1", "=A{r}+S!A{r}",
    "=SUM(A$5:A{r})", "=A{p}+1", "=A{r}+Other!A{r}",
)

cols = st.integers(1, COLS)
rows = st.integers(1, ROWS)
positions = st.tuples(cols, rows)
texts = st.sampled_from(TEXTS)


def formula(text: str, row: int) -> str:
    return text.format(r=row, p=max(row - 1, 1))


class FormulaPlane(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sheets = [Sheet("S"), ObjectSheet("S")]
        for sheet in self.sheets:
            for r in range(1, ROWS + 1):
                sheet.set_value((1, r), float(r))
            fill_formula_column(sheet, 2, 1, ROWS, "=A1*2")
            fill_formula_column(sheet, 3, 2, ROWS - 1, "=SUM($A$1:A2)")
            sheet.set_value((4, 3), "text")

    def both(self, action) -> None:
        for sheet in self.sheets:
            action(sheet)

    # -- mutations -------------------------------------------------------------

    @rule(pos=positions, value=st.sampled_from([7.5, "s", True, None]))
    def set_value(self, pos, value):
        self.both(lambda sheet: sheet.set_value(pos, value))

    @rule(pos=positions)
    def write_cached_value(self, pos):
        def write(sheet):
            cell = sheet.formula_at(pos)
            if cell is not None:
                cell.value = 99.0
        self.both(write)

    @rule(pos=positions, text=texts)
    def set_formula(self, pos, text):
        self.both(lambda sheet: sheet.set_formula(pos, formula(text, pos[1])))

    @rule(pos=positions, source=positions)
    def set_formula_template(self, pos, source):
        def join(sheet):
            cell = sheet.formula_at(source)
            if cell is not None:
                sheet.set_formula_template(pos, cell.template)
        self.both(join)

    @rule(pos=positions)
    def clear_cell(self, pos):
        self.both(lambda sheet: sheet.clear_cell(pos))

    @rule(pos=positions, width=st.integers(0, 2), height=st.integers(0, 6))
    def clear_range(self, pos, width, height):
        rng = Range(pos[0], pos[1], pos[0] + width, pos[1] + height)
        self.both(lambda sheet: sheet.clear_range(rng))

    @rule(source=positions, reach=st.integers(1, 8),
          direction=st.sampled_from(["down", "up", "right", "block"]))
    def autofill(self, source, reach, direction):
        col, row = source
        target = {
            "down": Range(col, row, col, row + reach),
            "up": Range(col, max(row - reach, 1), col, row),
            "right": Range(col, row, col + min(reach, 3), row),
            "block": Range(max(col - 1, 1), max(row - 2, 1), col + 1, row + reach),
        }[direction]

        def fill(sheet):
            if sheet.cell_at(source) is not None:
                autofill(sheet, source, target)
        self.both(fill)

    @rule(col=cols, first=rows, length=st.integers(1, 6), text=texts, typed=st.booleans())
    def attach_run(self, col, first, length, text, typed):
        body = formula(text, first)[1:]
        last = first if typed else first + length - 1
        template = None if typed else intern_template(parse_formula(body), col, first)
        if template is not None and not (template.admits(col, first) and template.admits(col, last)):
            return
        self.both(lambda sheet: sheet.attach_formula_run(
            col, first, last, template, body if typed or length % 2 else None))

    @rule(op=st.sampled_from(["insert_rows", "delete_rows", "insert_columns", "delete_columns"]),
          index=st.integers(1, ROWS), count=st.integers(1, 2))
    def structural_edit(self, op, index, count):
        if "columns" in op:
            index = min(index, COLS)
        self.both(lambda sheet: getattr(structural, op)(sheet, index, count))

    @rule(pos=positions)
    def parse_one(self, pos):
        def parse(sheet):
            cell = sheet.formula_at(pos)
            if cell is not None:
                cell.template
        self.both(parse)

    # -- what must hold after every step ----------------------------------------

    @invariant()
    def same_sheet(self):
        columnar, twin = self.sheets
        # Record for record, before anything below parses a typed cell.
        assert columnar.run_index(join=False) == twin.run_index(join=False)
        seen = {pos: cell for pos, cell in columnar.items()}
        want = {pos: cell for pos, cell in twin.items()}
        assert seen.keys() == want.keys()
        assert set(columnar.positions()) == want.keys()
        for pos, cell in want.items():
            got = seen[pos]
            assert (got.value, got.is_formula, got.source_text, got.formula_text) == \
                (cell.value, cell.is_formula, cell.source_text, cell.formula_text), pos
            assert type(got.value) is type(cell.value), pos
            assert (columnar.formula_at(pos) is None) == (twin.formula_at(pos) is None)
            if cell.is_formula:
                assert columnar.formula_at(pos).template is cell.template, pos
        assert columnar.formula_count == twin.formula_count
        assert len(columnar) == len(twin)
        assert columnar.used_range() == twin.used_range()
        assert columnar.run_index() == twin.run_index()
        assert columnar.run_index(join=False) == twin.run_index(join=False)
        assert list(columnar.iter_values()) == list(twin.iter_values())
        block = [Range(2, 3, 4, 9), Range(1, 1, COLS + 2, 2)]
        assert columnar.formula_positions(block) == twin.formula_positions(block)

    @invariant()
    def records_are_canonical(self):
        store = self.sheets[0]._cells
        assert list(store._runs) == sorted(store._runs)
        assert store._runs.keys() <= store._columns.keys()
        for col, runs in store._runs.items():
            assert runs, "no column without a record"
            below = 1
            above = None
            for first, last, template, text in runs:
                assert below <= first <= last
                if template is None:
                    assert text is not None and first == last
                else:
                    assert template.admits(col, first) and template.admits(col, last)
                if text is None and above is not None and above[1] == first - 1:
                    assert above[2] is not template, "an untyped record carries on the one above"
                above = (first, last, template)
                below = last + 1


FormulaPlane.TestCase.settings = settings(max_examples=150, stateful_step_count=30, deadline=None)
TestFormulaPlane = FormulaPlane.TestCase
