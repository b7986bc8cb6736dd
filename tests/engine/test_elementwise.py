"""The elementwise sweep fast path, shape by shape.

Same discipline as ``test_vectorized.py``: build the sheet twice,
recalculate once with ``evaluation="auto"`` (asserting via ``eval_stats``
that the sweep actually dispatched) and once with the tree-walking
interpreter, then compare every cell bitwise.  The sweep mirrors the
compiled closure operation for operation in IEEE-754 float64, so no
tolerance is needed — equality is exact or the path is broken.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.engine import vectorized
from repro.engine.recalc import RecalcEngine, _Strip
from repro.formula.compile import ElementwiseIR, WindowSpec, compile_template, elementwise_ir
from repro.formula.parser import parse_formula
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

from helpers import assert_same_values

ROWS = 80


def data_sheet(rows=ROWS, noise=True):
    s = Sheet("S")
    for r in range(1, rows + 1):
        s.set_value((1, r), float((r * 37) % 101) / 3.0)
        s.set_value((2, r), float(r % 13) - 6.0)
    if noise:
        s.set_value((1, 7), "text")
        s.set_value((1, 13), True)
        s.set_value((1, 21), None)           # hole
        s.set_value((2, 30), "x")
    s.set_value((6, 1), 1.5)                 # $F$1 broadcast scalar
    return s


def compare(build, *, expect_swept=None):
    sa, sb = build(), build()
    ea = RecalcEngine(sa, evaluation="interpreter")
    eb = RecalcEngine(sb)
    ea.recalculate_all()
    eb.recalculate_all()
    assert_same_values(sb, sa)
    if expect_swept is not None:
        assert eb.eval_stats.elementwise_cells == expect_swept, eb.eval_stats
    return eb


TEMPLATES = {
    "double": "=A1*2",
    "affine-broadcast": "=A1*$F$1+B1",
    "ratio": "=A1/B1",
    "negate-percent": "=-A1*10%",
    "chained": "=(A1+B1)*(A1-B1)/2",
}


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_template_shapes_match_interpreter(name):
    formula = TEMPLATES[name]

    def build():
        s = data_sheet()
        fill_formula_column(s, 3, 1, ROWS, formula)
        return s

    engine = compare(build)
    stats = engine.eval_stats
    assert stats.elementwise_runs >= 1
    # The clean lanes swept; the noisy lanes (string inputs, div-by-zero)
    # fell back — together they cover the run.
    assert stats.elementwise_cells > 0
    assert stats.elementwise_cells + stats.compiled_cells \
        + stats.interpreted_cells == ROWS


def test_masked_lanes_carry_interpreter_errors():
    def build():
        s = data_sheet()
        fill_formula_column(s, 3, 1, ROWS, "=A1/B1")
        return s

    engine = compare(build)
    # B6, B19, ... hold 0.0 (r % 13 == 6): those lanes must be #DIV/0!.
    assert engine.sheet.get_value((3, 19)).code == "#DIV/0!"
    # A7 holds a string: VALUE error from numeric coercion.
    assert engine.sheet.get_value((3, 7)).code == "#VALUE!"
    assert engine.eval_stats.elementwise_cells < ROWS


def test_error_inputs_delegate_lanes():
    def build():
        s = data_sheet(noise=False)
        s.set_formula((1, 11), "=1/0")       # error value in the data
        fill_formula_column(s, 3, 1, ROWS, "=A1*2+B1")
        return s

    engine = compare(build)
    assert engine.sheet.get_value((3, 11)).code == "#DIV/0!"
    assert engine.eval_stats.elementwise_cells == ROWS - 1


def test_pow_stays_off_the_sweep():
    """``^`` is out of the IR subset (the closure turns its overflow and
    domain errors into ``#NUM!``): the run must decline the sweep and
    still match bitwise through the per-cell paths."""
    def build():
        s = data_sheet(noise=False)
        s.set_value((1, 5), -2.0)
        s.set_value((2, 5), 0.5)             # (-2)^0.5 -> #NUM!
        s.set_value((1, 9), 1e200)
        s.set_value((2, 9), 3.0)             # overflow -> #NUM!
        fill_formula_column(s, 3, 1, ROWS, "=A1^B1")
        return s

    engine = compare(build, expect_swept=0)
    assert engine.sheet.get_value((3, 5)).code == "#NUM!"
    assert engine.sheet.get_value((3, 9)).code == "#NUM!"


def test_empty_and_bool_lanes_sweep_without_fallback():
    """EMPTY coerces to 0.0 and BOOL to 0/1 directly in the value plane,
    so holes and booleans stay on the fast path."""
    def build():
        s = Sheet("S")
        for r in range(1, 41):
            s.set_value((1, r), float(r))
        s.set_value((1, 10), None)
        s.set_value((1, 20), True)
        s.set_value((1, 30), False)
        fill_formula_column(s, 2, 1, 40, "=A1*3+1")
        return s

    compare(build, expect_swept=40)


def test_string_broadcast_scalar_declines_whole_run():
    def build():
        s = data_sheet(noise=False)
        s.set_value((6, 1), "not a number")
        fill_formula_column(s, 3, 1, ROWS, "=A1*$F$1")
        return s

    engine = compare(build, expect_swept=0)
    # The run declined wholesale and landed on the compiled closure.
    assert engine.eval_stats.compiled_cells == ROWS


def test_in_run_recurrence_is_rejected():
    """``=C1+A2`` filled down C reads the cell above — a recurrence the
    sweep, which reads every lane before it writes any, cannot take, so
    the planner scans it instead: one sequential loop."""
    def build():
        s = data_sheet(noise=False)
        s.set_formula((3, 1), "=A1")
        fill_formula_column(s, 3, 2, ROWS, "=C1+A2")
        return s

    engine = compare(build, expect_swept=ROWS - 1)
    plan = engine._build_plan(None, False)[0]
    assert [node.kind for node in plan if not isinstance(node, tuple)] == ["c"]
    assert engine.eval_stats.elementwise_runs == 1


def test_dependent_sweeps_order_topologically():
    """A sweep column feeding another sweep column: the doubles must be
    written before the quadruples read them."""
    def build():
        s = data_sheet(noise=False)
        fill_formula_column(s, 3, 1, ROWS, "=A1*2")
        fill_formula_column(s, 4, 1, ROWS, "=C1*2")
        return s

    compare(build, expect_swept=2 * ROWS)


def test_incremental_broadcast_edit_resweeps():
    s = data_sheet(noise=False)
    fill_formula_column(s, 3, 1, ROWS, "=A1*$F$1+B1")
    engine = RecalcEngine(s)
    engine.recalculate_all()
    before = engine.eval_stats.elementwise_runs
    result = engine.set_value((6, 1), 7.25)
    assert result.recomputed == ROWS
    assert engine.eval_stats.elementwise_runs > before
    fresh = data_sheet(noise=False)
    fresh.set_value((6, 1), 7.25)
    fill_formula_column(fresh, 3, 1, ROWS, "=A1*$F$1+B1")
    RecalcEngine(fresh, evaluation="interpreter").recalculate_all()
    for r in range(1, ROWS + 1):
        assert s.get_value((3, r)) == fresh.get_value((3, r)), r


def test_comparisons_and_if_sweep():
    """A non-recurrent ``IF`` over comparisons is one sweep; a lane that
    divides by zero in the branch it does not take, or compares a NaN,
    still matches — the former through the closure."""
    def build():
        s = data_sheet(noise=False)
        s.set_value((1, 4), 0.0)                 # A4 > B4: B4/A4 is not taken
        s.set_value((1, 9), float("nan"))        # NaN compares above everything
        fill_formula_column(s, 3, 1, ROWS, "=IF(A1>B1,A1-B1,B1/A1*2)")
        fill_formula_column(s, 4, 1, ROWS, "=(A1<=B1)*3+(A1<>B1)")
        return s

    engine = compare(build)
    plan = engine._build_plan(None, False)[0]
    assert [node.kind for node in plan if not isinstance(node, tuple)] == ["e", "e"]
    assert engine.eval_stats.elementwise_runs == 2
    assert engine.eval_stats.elementwise_cells == 2 * ROWS - 1
    assert engine.eval_stats.compiled_cells == 1


def test_lanes_reading_above_row_1_are_the_fallbacks():
    """The kernel, called straight: a strip at rows 1..10 whose template
    reads two rows up leaves its first two lanes."""
    s = data_sheet(noise=False)
    template = compile_template(parse_formula("A1*2"), 3, 3)
    for r in range(1, 11):
        s.set_formula((3, r), "=1")
    left = []
    node = _Strip("e", 3, range(1, 11), template, False)
    done = vectorized.evaluate_elementwise_run(RecalcEngine(s), node, left.append)
    assert done == 8 and left == [[1, 2]]
    assert [s.get_value((3, r)) for r in range(3, 11)] == \
        [s.get_value((1, r)) * 2 for r in range(1, 9)]


def test_interpreter_mode_never_sweeps():
    s = data_sheet(noise=False)
    fill_formula_column(s, 3, 1, ROWS, "=A1*2")
    engine = RecalcEngine(s, evaluation="interpreter")
    engine.recalculate_all()
    assert engine.eval_stats.elementwise_cells == 0
    assert engine.eval_stats.interpreted_cells == ROWS


def lookup_over_a_swept_column(mode="auto"):
    """B = A*2 swept; F1 looks 20 up in B; then one batch reverses A."""
    s = Sheet("S")
    for r in range(1, 41):
        s.set_value((1, r), float(r))
        s.set_value((3, r), float(100 + r))
    fill_formula_column(s, 2, 1, 40, "=A1*2")
    s.set_value("E1", 20.0)
    s.set_formula("F1", "=VLOOKUP(E1,$B$1:$C$40,2,FALSE)")
    engine = RecalcEngine(s, evaluation=mode, workers=0, shards=0)
    engine.recalculate_all()
    assert s.get_value("F1") == 110.0
    versions = {col: s._cells.column_version(col) for col in range(1, 7)}
    with engine.begin_batch() as batch:
        for r in range(1, 41):
            batch.set_value((1, r), float(41 - r))
    return engine, versions


def test_a_sweep_invalidates_the_lookup_index_over_its_column():
    """Regression: the sweep rewrote B's planes without moving B's
    version, so the index over $B$1:$B$40 still mapped 20 to row 10."""
    engine, _ = lookup_over_a_swept_column()
    assert engine.eval_stats.elementwise_runs == 2
    assert engine.sheet.get_value("B31") == 20.0
    assert engine.sheet.get_value("F1") == 131.0
    oracle, _ = lookup_over_a_swept_column("interpreter")
    assert oracle.sheet.get_value("F1") == 131.0


def test_a_sweep_ships_its_column_in_the_plane_delta():
    """Same cause, second symptom: a resident that reads B got no new
    plane for it although every lane changed."""
    engine, versions = lookup_over_a_swept_column()
    assert engine.sheet.get_value("B1") == 80.0
    planes, _ = engine.sheet._cells.export_plane_delta(versions)
    assert sorted(planes) == [1, 2, 6]


#: Every strip kind, in a process of its own.
NO_NUMPY = """
import sys

from repro.engine.recalc import RecalcEngine, _Strip
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

s = Sheet("S")
for r in range(1, 41):
    s.set_value((1, r), float(r))
    s.set_value((2, r), float(r % 7))
fill_formula_column(s, 3, 1, 40, "=SUM($A$1:A1)")
fill_formula_column(s, 4, 1, 40, "=A1*B1")
s.set_formula((5, 1), "=A1")
fill_formula_column(s, 5, 2, 40, "=E1+A2")
fill_formula_column(s, 6, 1, 40, "=IF(A1>9,B1,A1)")
engine = RecalcEngine(s, workers=0, shards=0)
plan = engine._build_plan(None, False)[0]
kinds = sorted(node.kind for node in plan if type(node) is _Strip)
assert kinds == ["c", "e", "s", "w"], kinds
assert engine.recalculate_all() == 160
stats = engine.eval_stats
assert (stats.windowed_cells, stats.elementwise_cells) == (40, 79), stats
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_the_runtime_never_imports_numpy():
    """``import repro`` and a recalculation through every kernel, in a
    fresh interpreter, leave numpy unimported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", "import repro\n" + NO_NUMPY],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


class TestElementwiseIR:
    def ir(self, text, col=3, row=1):
        return elementwise_ir(parse_formula(text), col, row)

    def test_arithmetic_templates_lower(self):
        for text in ("A1*2", "A1*$F$1+B1", "-A1*10%", "(A1+B1)/(A1-B1)"):
            assert self.ir(text) is not None, text

    def test_bare_leaves_rejected(self):
        # A lone reference or constant is not worth a sweep — and a bare
        # ``=A1`` copies strings/bools verbatim, which the float plane
        # cannot represent.
        assert self.ir("A1") is None
        assert self.ir("42") is None

    def test_without_row_relative_ref_rejected(self):
        # All-fixed references make every cell identical; the compiled
        # closure handles that fine without array machinery.
        assert self.ir("$A$1*2") is None

    def test_unsupported_constructs_rejected(self):
        for text in ("SUM(A1:A3)", "IF(A1>0,A1,B1)", 'A1&"x"',
                     "Other!A1*2", "A1=B1", "A1^2-B1"):
            assert self.ir(text) is None, text

    def test_comparisons_and_if_lower(self):
        # The paper's Fig. 2 and a logical used as a number lower: the
        # sweep and the scan take both.
        for text in ("IF(A2=A1,C1+B2,B2)", "(A1>B1)*C1", "IF(B1,A1*2,-A1)"):
            assert self.ir(text) is not None, text
        # A value that is a logical — a comparison root or IF branch, a
        # TRUE compared — has no float equivalent.
        for text in ("A1>B1", "IF(A1>0,A1>B1,B1+1)", "IF(A1>0,TRUE,B1+1)",
                     "(A1>B1)=B1", "IF(A1>0,A1+1)"):
            assert self.ir(text) is None, text

    def test_reference_dedup(self):
        ir = self.ir("A1*A1+A1")
        assert ir is not None and len(ir.refs) == 1

    def test_compile_template_attaches_ir(self):
        template = compile_template(parse_formula("A1*2"), 3, 1)
        assert type(template.shape) is ElementwiseIR
        windowed = compile_template(parse_formula("SUM($A$1:A1)"), 3, 1)
        assert type(windowed.shape) is WindowSpec
