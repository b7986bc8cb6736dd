"""Differential suite: planning by strips ≡ ordering by cells.

The strip planner (``RecalcEngine._plan_strips``) orders and executes
*(template, column strip)* nodes instead of cells.  Whatever it does —
keep a strip whole, run it bottom-up, take a knot of strips apart, hand
a cycle over — the values must be bit-identical to the tree-walking
interpreter ordering every cell generically over an uncompressed graph,
and where a cycle is in play the ``#CYCLE!`` cells and the reported
chain must be the generic ordering's own.

Sheets are built from *fills*, because fills are what make strips:
recurrences up and down a column, windows over their own column and over
a neighbour's, columns that feed each other row by row, families cut by
a typed cell or an off-grid head — the ordinary input of a planner that
works by families.  The strips' kernels ride along: every window
function in every shape, windows into their own strip, lookups of every
mode over fixed tables and over computed key columns, sweeps and scans
of arithmetic, comparisons and ``IF``, all of them over
inputs salted with text, booleans, blanks, errors, signed zeros,
non-finite numbers and magnitudes that cancel.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.taco_graph import TacoGraph, dependencies_column_major
from repro.engine.recalc import CircularReferenceError, RecalcEngine, _Strip
from repro.formula.errors import CYCLE_ERROR, ExcelError
from repro.graphs.nocomp import NoCompGraph
from repro.grid.range import Range
from repro.grid.ref import col_to_letters
from repro.sheet.autofill import autofill, fill_formula_column
from repro.sheet.sheet import Sheet
from repro.spatial.registry import available_indexes

from helpers import assert_same_values, build_ledger_sheet, same_value

BACKENDS = available_indexes()
ROWS = 24
FIRST_COL = 3          # A and B hold values; formula columns start at C


# -- the menu of fills ----------------------------------------------------------
#
# Each builder stamps one block at column ``col`` over rows ``r0..r1``,
# reading neighbour column ``s`` (a letter: "A", or the last formula
# column of the block before), and returns how many columns it used.

def chain_down(sheet, col, r0, r1, s):
    c = col_to_letters(col)
    sheet.set_formula((col, r0), f"={s}{r0}")
    fill_formula_column(sheet, col, r0 + 1, r1, f"={c}{r0}+A{r0 + 1}")
    return 1


def chain_up(sheet, col, r0, r1, s):
    c = col_to_letters(col)
    sheet.set_formula((col, r1), f"={s}{r1}")
    fill_formula_column(sheet, col, r0, r1 - 1, f"={c}{r0 + 1}+A{r0}")
    return 1


def grow_own(sheet, col, r0, r1, s):
    c = col_to_letters(col)
    sheet.set_formula((col, r0), f"={s}{r0}")
    fill_formula_column(sheet, col, r0 + 1, r1, f"=SUM({c}${r0}:{c}{r0})")
    return 1


def shrink_own(sheet, col, r0, r1, s):
    c = col_to_letters(col)
    sheet.set_formula((col, r1), f"={s}{r1}")
    fill_formula_column(sheet, col, r0, r1 - 1, f"=SUM({c}{r0 + 1}:{c}${r1})")
    return 1


def slide_own_above(sheet, col, r0, r1, s):
    c = col_to_letters(col)
    for r in (r0, r0 + 1):
        sheet.set_formula((col, r), f"={s}{r}")
    fill_formula_column(sheet, col, r0 + 2, r1, f"=SUM({c}{r0}:{c}{r0 + 1})")
    return 1


def slide_own_below(sheet, col, r0, r1, s):
    # The window sits strictly below its host: the strip must run
    # bottom-up, which a sliding roll does not.
    c = col_to_letters(col)
    for r in (r1 - 1, r1):
        sheet.set_formula((col, r), f"={s}{r}")
    fill_formula_column(sheet, col, r0, r1 - 2, f"=MAX({c}{r0 + 1}:{c}{r0 + 2})")
    return 1


def window_of(template):
    def build(sheet, col, r0, r1, s):
        fill_formula_column(sheet, col, r0, r1, template.format(s=s, r0=r0, r1=r1, r3=r0 + 3))
        return 1
    return build


# Blocks that come in variants take a fifth argument, drawn per block.

WINDOW_FUNCS = ("SUM", "AVERAGE", "COUNT", "MIN", "MAX")
WINDOW_SHAPES = (
    "${s}${r0}:${t}${r9}",      # constant (r9: past the end of the data)
    "${s}${r0}:{t}{r0}",        # growing
    "{s}{r0}:${t}${r9}",        # shrinking
    "{s}{r0}:{t}{r3}",          # sliding
)


def window(sheet, col, r0, r1, s, variant):
    """Every function in every shape, over one column or two (``A:s``)."""
    func = WINDOW_FUNCS[variant % 5]
    shape = WINDOW_SHAPES[variant // 5 % 4]
    wide = variant // 20 % 2 and s != "A"
    rng = shape.format(s="A" if wide else s, t=s, r0=r0, r3=r0 + 3, r9=r1 + 9)
    fill_formula_column(sheet, col, r0, r1, f"={func}({rng})")
    return 1


def window_own_above(sheet, col, r0, r1, s, variant):
    """A window into the strip's own rows above the host: growing or
    sliding, one column or with the neighbour's beside it."""
    c = col_to_letters(col)
    func = WINDOW_FUNCS[variant % 5]
    a = s if variant // 10 % 2 and s != "A" else c
    for r in (r0, r0 + 1):
        sheet.set_formula((col, r), f"={s}{r}")
    head = f"{a}${r0}" if variant // 5 % 2 else f"{a}{r0}"
    fill_formula_column(sheet, col, r0 + 2, r1, f"={func}({head}:{c}{r0 + 1})")
    return 1


def window_own_below(sheet, col, r0, r1, s, variant):
    """Below the host: shrinking (rolls bottom-up) or sliding (a scalar
    strip run bottom-up — the roll does not go that way)."""
    c = col_to_letters(col)
    func = WINDOW_FUNCS[variant % 5]
    for r in (r1 - 1, r1):
        sheet.set_formula((col, r), f"={s}{r}")
    tail = f"{c}${r1}" if variant // 5 % 2 else f"{c}{r0 + 2}"
    fill_formula_column(sheet, col, r0, r1 - 2, f"={func}({c}{r0 + 1}:{tail})")
    return 1


#: ``{n}`` the needle's column, ``{k}`` the key column; A/B is the fixed
#: table (24 rows: under the 32 the index once needed), rows 30-31 of
#: A..L the same entries laid across for HLOOKUP.
LOOKUPS = (
    "=VLOOKUP({n}{r0},$A$1:$B$24,2,FALSE)",
    "=VLOOKUP({n}{r0},$A$1:$B$24,2)",
    "=VLOOKUP({n}{r0},$A$1:$B$24,1,TRUE)",
    "=HLOOKUP({n}{r0},$A$30:$L$31,2,FALSE)",
    "=HLOOKUP({n}{r0},$A$30:$L$31,2)",
    "=MATCH({n}{r0},$A$1:$A$24,0)",
    "=MATCH({n}{r0},$A$1:$A$24,1)",
    "=MATCH({n}{r0},$A$1:$A$24,-1)",
    "=MATCH({n}{r0},$A$30:$L$30,0)",
    "=MATCH({n}{r0},${k}$1:${k}$24,0)",
    "=VLOOKUP({n}{r0},${k}$1:${k}$24,1)",
    "=VLOOKUP({n}{r0},$A$1:${k}$24,2,FALSE)",
    "=VLOOKUP({n}{r0},$A$1:$B$24,3,FALSE)",      # the function refuses: no lookup shape
)


def lookup(sheet, col, r0, r1, s, variant):
    """Needles from A (text, booleans, blanks, errors among them), from
    B, or from the neighbour; tables of values or — ``{k}`` — the
    neighbour strip itself."""
    text = LOOKUPS[variant % len(LOOKUPS)]
    needle = ("A", "B", s)[variant // len(LOOKUPS) % 3]
    fill_formula_column(sheet, col, r0, r1, text.format(n=needle, k=s if s != "A" else "B", r0=r0))
    return 1


#: Recurrences down their own column — ``{c}{p}`` the row before (after,
#: for the ones that run bottom-up: ``{c}{n}``), ``{h}`` the host row.
#: ``+ - * /`` both ways round, the paper's Fig. 2 and other ``IF``s
#: (comparisons on inputs and on the recurrence, a bare condition,
#: logicals as operands), and magnitudes that overflow to ``inf`` and
#: then ``nan``.
RECURRENCES = (
    "={c}{p}+{s}{h}",
    "={c}{p}-{s}{h}",
    "={c}{p}*B{h}",
    "={c}{p}/B{h}",
    "={s}{h}/{c}{p}",
    "={c}{n}+{s}{h}",
    "={c}{n}*B{h}-{s}{h}",
    "=IF({s}{h}={s}{p},{c}{p}+B{h},B{h})",
    "=IF({s}{h}>B{h},{c}{p}+{s}{h},B{h})",
    "=IF({s}{h}<=B{h},{c}{n}-{s}{h},{s}{h})",
    "=IF({c}{p}>50,{c}{p}/2,{c}{p}+{s}{h})",
    "=IF(B{h},{c}{p}+{s}{h},{s}{h}*2)",
    "=IF({c}{p}<>{s}{h},-{c}{p}*10%,B{h}/{s}{h})",
    "=({s}{h}>=B{h})*{c}{p}+1",
    "=({c}{p}+{s}{h})*1E308-{s}{h}*1E308",
)


def recurrence(sheet, col, r0, r1, s, variant):
    """A recurrence seeded from the neighbour (a text, logical, blank or
    error there is a seed the scan refuses), and in every other variant a
    hand-typed input cutting it at the fifth row."""
    c = col_to_letters(col)
    text = RECURRENCES[variant % len(RECURRENCES)]
    if "{n}" in text:
        sheet.set_formula((col, r1), f"={s}{r1}")
        fill_formula_column(sheet, col, r0, r1 - 1, text.format(c=c, s=s, n=r0 + 1, h=r0))
    else:
        sheet.set_formula((col, r0), f"={s}{r0}")
        fill_formula_column(sheet, col, r0 + 1, r1, text.format(c=c, s=s, p=r0, h=r0 + 1))
    if variant // len(RECURRENCES) % 2:
        sheet.set_value((col, r0 + 4), SALT[variant % len(SALT)])
    return 1


#: Sweeps — nothing of their own column read: zero denominators (B holds
#: 0 often), broadcasts of a salted cell, magnitudes that overflow to
#: ``inf`` and then ``nan``, comparisons and ``IF`` (a branch that is a
#: bare reference, one that divides where it is not taken).
SWEEPS = (
    "={s}{h}/B{h}",
    "=A{h}/{s}{h}-B{h}",
    "={s}{h}*$B$3+A{h}",
    "=A{h}/$B$5",
    "=({s}{h}+A{h})*1E308*10-A{h}*1E308*10",
    "=IF(A{h}=B{h},{s}{h},B{h}*2)",
    "=IF({s}{h}<B{h},A{h}/B{h},-A{h})",
    "=({s}{h}>=B{h})*A{h}+(A{h}<>{s}{h})",
)


def sweep(sheet, col, r0, r1, s, variant):
    fill_formula_column(sheet, col, r0, r1, SWEEPS[variant % len(SWEEPS)].format(s=s, h=r0))
    return 1


def amortisation(sheet, col, r0, r1, s):
    # interest / principal / balance: three columns that feed each other
    # row by row — a cycle of strips, no cycle of cells.
    i, p, b = (col_to_letters(col + k) for k in range(3))
    sheet.set_value((col + 2, r0), 1000.0)
    fill_formula_column(sheet, col, r0 + 1, r1, f"={b}{r0}*0.01")
    fill_formula_column(sheet, col + 1, r0 + 1, r1, f"=B{r0 + 1}-{i}{r0 + 1}")
    fill_formula_column(sheet, col + 2, r0 + 1, r1, f"={b}{r0}-{p}{r0 + 1}")
    return 3


def fixed_into_own_rows(sheet, col, r0, r1, s):
    # The member on the fixed row reads itself: a true cycle.
    c = col_to_letters(col)
    fill_formula_column(sheet, col, r0, r1, f"={c}${r0 + 2}+A{r0}")
    return 1


def both_ways(sheet, col, r0, r1, s):
    # Two above, three below: pointing both ways is a cycle of cells only
    # when the strip is long enough to close one.
    c = col_to_letters(col)
    fill_formula_column(sheet, col, r0 + 2, r1 - 3, f"={c}{r0}+{c}{r0 + 5}")
    return 1


def off_grid_head(sheet, col, r0, r1, s):
    # Filled upwards from row 3: the members above are #REF! templates.
    sheet.set_formula((col, 3), "=A1+B3")
    autofill(sheet, (col, 3), Range(col, 1, col, r1))
    return 1


def cross_sheet(sheet, col, r0, r1, s):
    # A sibling sheet's cells order nothing here; this sheet's own name
    # as a qualifier orders like no qualifier at all.
    fill_formula_column(sheet, col, r0, r1, f"=Other!A{r0}+{sheet.name}!{s}{r0}")
    return 1


def self_reference(sheet, col, r0, r1, s):
    c = col_to_letters(col)
    sheet.set_formula((col, r0), f"={c}{r0}+1")
    return 1


def two_cell_cycle(sheet, col, r0, r1, s):
    c, d = col_to_letters(col), col_to_letters(col + 1)
    sheet.set_formula((col, r0), f"={d}{r0}+{s}{r0}")
    sheet.set_formula((col + 1, r0), f"={c}{r0}*2")
    fill_formula_column(sheet, col + 1, r0 + 1, r1, f"={d}{r0}+1")    # downstream of it
    return 2


BLOCKS = {
    "chain_down": chain_down,
    "chain_up": chain_up,
    "grow_own": grow_own,
    "shrink_own": shrink_own,
    "slide_own_above": slide_own_above,
    "slide_own_below": slide_own_below,
    "grow_neighbour": window_of("=SUM(${s}${r0}:{s}{r0})"),
    "shrink_neighbour": window_of("=SUM({s}{r0}:${s}${r1})"),
    "slide_neighbour": window_of("=AVERAGE({s}{r0}:{s}{r3})"),
    "elementwise": window_of("={s}{r0}*2+B{r0}"),
    "vlookup": window_of("=VLOOKUP(B{r0},$A$1:$B$24,2,FALSE)"),
    "if": window_of("=IF({s}{r0}>B{r0},{s}{r0}-B{r0},B{r0}/A{r0})"),
    "xor": window_of("=XOR({s}{r0}>5,B{r0}>5)"),
    "amortisation": amortisation,
    "fixed_into_own_rows": fixed_into_own_rows,
    "both_ways": both_ways,
    "off_grid_head": off_grid_head,
    "cross_sheet": cross_sheet,
    "self_reference": self_reference,
    "two_cell_cycle": two_cell_cycle,
    "window": window,
    "window_own_above": window_own_above,
    "window_own_below": window_own_below,
    "lookup": lookup,
    "recurrence": recurrence,
    "sweep": sweep,
}
VARIANTS = {"window": 40, "window_own_above": 20, "window_own_below": 10,
            "lookup": 3 * len(LOOKUPS), "recurrence": 2 * len(RECURRENCES),
            "sweep": len(SWEEPS)}
# The blocks that come in variants are drawn as often as all others together.
KINDS = sorted(BLOCKS) + 5 * sorted(VARIANTS)

#: What an input cell may hold besides a small number.
SALT = (
    "txt", "Ab", "aB", "3", True, False, None, ExcelError("#N/A"), ExcelError("#DIV/0!"),
    -0.0, 0.0, float("inf"), float("-inf"), float("nan"), 1e16, 1.0, -1e16, 2.0 ** 600, 5e-324,
)


@st.composite
def fill_programs(draw):
    """``(values, blocks, lone)``: the A/B inputs (small numbers, a few
    of them salted), 1..5 blocks laid out left to right, and optionally a
    typed lone cell dropped into the middle of one formula column
    (cutting whatever family is there)."""
    values = [
        (float(draw(st.integers(-20, 40))), float(draw(st.integers(0, 5))))
        for _ in range(ROWS)
    ]
    for _ in range(draw(st.integers(0, 4))):
        row, side = draw(st.integers(0, ROWS - 1)), draw(st.integers(0, 1))
        pair = list(values[row])
        pair[side] = draw(st.sampled_from(SALT))
        values[row] = tuple(pair)
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(KINDS))
        blocks.append((
            kind, draw(st.integers(1, 3)), draw(st.integers(ROWS - 3, ROWS)),
            draw(st.booleans()), draw(st.integers(0, VARIANTS.get(kind, 1) - 1)),
        ))
    lone = draw(st.none() | st.tuples(st.integers(0, 8), st.integers(5, ROWS - 5)))
    return values, blocks, lone


def realize(program) -> Sheet:
    values, blocks, lone = program
    sheet = Sheet("S")
    for r, (a, b) in enumerate(values, start=1):
        sheet.set_value((1, r), a)
        sheet.set_value((2, r), b)
        if r <= 12:                     # the table again, laid across
            sheet.set_value((r, 30), a)
            sheet.set_value((r, 31), b)
    col, neighbour = FIRST_COL, "A"
    for kind, r0, r1, read_neighbour, variant in blocks:
        extra = (variant,) if kind in VARIANTS else ()
        used = BLOCKS[kind](sheet, col, r0, r1, neighbour if read_neighbour else "A", *extra)
        col += used
        neighbour = col_to_letters(col - 1)
    if lone is not None:
        at = (FIRST_COL + lone[0] % (col - FIRST_COL), lone[1])
        sheet.set_formula(at, f"=B{lone[1]}*3")
    return sheet


def oracle_for(sheet: Sheet) -> RecalcEngine:
    """The generic ordering: interpreter, uncompressed graph."""
    graph = NoCompGraph()
    graph.build(sheet.iter_dependencies())
    return RecalcEngine(sheet, graph, evaluation="interpreter")


def settle(action):
    """Run ``action``; the cycle it reported, if any — or the type of
    whatever else it raised (``math.fsum`` over ``inf`` and ``-inf``)."""
    try:
        action()
    except CircularReferenceError as exc:
        return exc.cycle
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return None


def assert_same_outcome(got, want, engine, oracle) -> None:
    """The same cycle, the same raise, or the same values: a recalculation
    that raised stopped part-way, wherever its own order had got to."""
    assert got == want
    if not isinstance(want, type):
        assert_same_values(engine.sheet, oracle.sheet)


def engine_over(sheet: Sheet, index: str, **kwargs) -> RecalcEngine:
    """An engine over a TACO graph built on the ``index`` backend."""
    graph = TacoGraph.full(index=index)
    graph.build(dependencies_column_major(sheet))
    return RecalcEngine(sheet, graph, **kwargs)


def both_sides(program, index, **subject_kwargs):
    subject, reference = realize(program), realize(program)
    return engine_over(subject, index, **subject_kwargs), oracle_for(reference)


COMMON = dict(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("index", BACKENDS)
@settings(**COMMON)
@given(program=fill_programs())
def test_recalculate_all_identical(index, program):
    engine, oracle = both_sides(program, index)
    got = settle(engine.recalculate_all)
    want = settle(oracle.recalculate_all)
    assert_same_outcome(got, want, engine, oracle)


@pytest.mark.parametrize("index", BACKENDS)
@settings(**COMMON)
@given(program=fill_programs(), data=st.data())
def test_dirty_subset_identical(index, program, data):
    engine, oracle = both_sides(program, index)
    if isinstance(settle(engine.recalculate_all), type) | isinstance(
            settle(oracle.recalculate_all), type):
        return          # raised part-way: test_recalculate_all_identical's business
    width = engine.sheet.used_range().c2
    for _ in range(data.draw(st.integers(1, 3))):
        # New inputs written behind both engines' backs, then an
        # arbitrary dirty set: any stripes of the sheet, not a closure.
        for _ in range(data.draw(st.integers(1, 4))):
            pos = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, ROWS)))
            value = float(data.draw(st.integers(-30, 30)))
            engine.sheet.set_value(pos, value)
            oracle.sheet.set_value(pos, value)
        ranges = []
        for _ in range(data.draw(st.integers(1, 4))):
            c1 = data.draw(st.integers(FIRST_COL, width))
            r1 = data.draw(st.integers(1, ROWS))
            ranges.append(Range(c1, r1,
                                data.draw(st.integers(c1, width)),
                                data.draw(st.integers(r1, ROWS))))
        got = settle(lambda: engine.recompute(ranges))
        want = settle(lambda: oracle.recompute(ranges))
        assert_same_outcome(got, want, engine, oracle)
        if isinstance(want, type):
            return


@pytest.mark.parametrize("index", BACKENDS)
@settings(**COMMON)
@given(program=fill_programs(), data=st.data())
def test_deferred_steps_identical(index, program, data):
    engine, oracle = both_sides(program, index, deferred=True)
    got = settle(engine.recalculate_all)
    want = settle(oracle.recalculate_all)
    assert_same_outcome(got, want, engine, oracle)

    def drain():
        while engine.pending:
            engine.step(7)

    # Settled edit by edit, a cell downstream of a cycle is #CYCLE! only
    # until a later edit that misses the cycle recomputes it; the merged
    # backlog holds it #CYCLE! for the whole batch.  Once an edit follows
    # one that reported a cycle, the engine's #CYCLE! cells (and nothing
    # else) are exempt from the comparison.
    exempt = False
    for _ in range(data.draw(st.integers(1, 3))):
        raised = isinstance(want, type)
        cycled = False
        for _ in range(data.draw(st.integers(1, 3))):
            pos = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, ROWS)))
            value = float(data.draw(st.integers(-30, 30)))
            engine.set_value(pos, value)
            outcome = settle(lambda: oracle.set_value(pos, value))
            raised |= isinstance(outcome, type)
            exempt |= cycled
            cycled |= outcome is not None
        if raised | isinstance(settle(drain), type):
            return      # one settle per edit and one per slice stop at different cells
        if not exempt:
            assert_same_values(engine.sheet, oracle.sheet)
            continue
        for pos in set(engine.sheet.positions()) | set(oracle.sheet.positions()):
            got = engine.sheet.get_value(pos)
            if not (isinstance(got, ExcelError) and got.code == CYCLE_ERROR.code):
                assert same_value(got, oracle.sheet.get_value(pos)), pos


@settings(**{**COMMON, "max_examples": 15})
@given(program=fill_programs(), data=st.data())
def test_residents_identical(program, data):
    """Two residents (every strip kind travels as ``_Strip.spec()``
    freight) against the serial engine and the oracle: the same values,
    and the same tier counters as the serial engine."""
    serial, oracle = both_sides(program, "rtree")
    sharded = RecalcEngine(realize(program), shards=2, parallel_min_dirty=1)
    engines = (sharded, serial, oracle)
    width = serial.sheet.used_range().c2
    for stripe in (None, Range(FIRST_COL, data.draw(st.integers(1, ROWS)), width, ROWS)):
        if stripe is None:
            outcomes = [settle(engine.recalculate_all) for engine in engines]
        else:
            # A new input behind the engines' backs, then a dirty stripe.
            pos = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, ROWS)))
            for engine in engines:
                engine.sheet.set_value(pos, -7.0)
            outcomes = [settle(lambda: engine.recompute([stripe])) for engine in engines]
        if any(isinstance(outcome, type) for outcome in outcomes):
            return      # raised part-way: test_recalculate_all_identical's business
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert_same_values(sharded.sheet, oracle.sheet)
        assert_same_values(serial.sheet, oracle.sheet)
        assert sharded.eval_stats.counter_snapshot() == serial.eval_stats.counter_snapshot()


# -- pinned facts -----------------------------------------------------------------

def test_the_ledger_plans_as_a_handful_of_nodes():
    engine = RecalcEngine(build_ledger_sheet())
    plan, succs, cycle = engine._build_plan(None, False)
    assert cycle is None and len(plan) <= 6
    assert sorted(node.kind for node in plan if type(node) is _Strip) == ["c", "e", "w"]
    assert engine.recalculate_all() == 901
    stats = engine.eval_stats
    # The chain scans and the product sweeps.
    assert (stats.compiled_cells, stats.interpreted_cells) == (2, 0)
    assert (stats.windowed_cells, stats.windowed_runs) == (300, 1)
    assert (stats.elementwise_cells, stats.elementwise_runs) == (599, 2)
    # The dirty-set entrance lays the same cells out the same way.
    everything = {pos for pos, _ in engine.sheet.formula_cells()}
    again = engine._build_plan(everything, False)[0]
    assert [n if type(n) is tuple else n.spec() for n in again] == \
        [n if type(n) is tuple else n.spec() for n in plan]


def test_a_knot_of_strips_comes_apart_alone():
    """The amortisation table stalls the strip order; the running total
    beside it — downstream of the knot, not in it — still rolls."""
    def build():
        sheet = Sheet("S")
        for r in range(1, 41):
            sheet.set_value((1, r), float(r))
            sheet.set_value((2, r), 30.0)
        amortisation(sheet, 3, 1, 40, "A")
        fill_formula_column(sheet, 6, 1, 40, "=SUM($A$1:A1)")      # beside it
        fill_formula_column(sheet, 7, 2, 40, "=SUM($E$2:E2)")      # fed by it
        return sheet

    engine = RecalcEngine(build())
    plan = engine._build_plan(None, False)[0]
    strips = [node for node in plan if type(node) is _Strip]
    assert sorted((node.col, node.kind) for node in strips) == [(6, "w"), (7, "w")]
    assert len(plan) == 2 + 3 * 39
    engine.recalculate_all()
    assert engine.eval_stats.windowed_runs == 2
    reference = oracle_for(build())
    reference.recalculate_all()
    assert_same_values(engine.sheet, reference.sheet)

    alone = RecalcEngine(build())
    alone.sheet.clear_range(Range(7, 1, 7, 40))
    alone.recalculate_all()
    assert alone.eval_stats.windowed_runs == 1


def test_a_resident_booted_for_a_dirty_stripe_keeps_clean_values():
    """Stacked amortisation blocks and a dirty stripe through them, on
    two residents: ``recalculate_all`` takes the cycle bail-out and never
    dispatches, so the stripe's recompute boots the residents — which
    must find the cached values of the formulas outside the stripe."""
    program = (
        [(0.0, 0.0)] * ROWS,
        [("amortisation", 1, 21, False, 0)] * 4 + [("both_ways", 1, 21, False, 0)],
        None,
    )
    engine, oracle = both_sides(program, "rtree", shards=2)
    assert settle(engine.recalculate_all) == settle(oracle.recalculate_all)
    assert engine.eval_stats.shard_bootstraps == 0
    stripe = [Range(3, 1, 7, 14)]
    assert settle(lambda: engine.recompute(stripe)) is None
    assert settle(lambda: oracle.recompute(stripe)) is None
    assert engine.eval_stats.shard_bootstraps > 0
    assert engine.eval_stats.shard_fallbacks == 0
    assert_same_values(engine.sheet, oracle.sheet)


def test_a_chain_is_split_at_the_budget():
    sheet = Sheet("S")
    for r in range(1, 1001):
        sheet.set_value((1, r), 1.0)
    sheet.set_formula("B1", "=A1")
    fill_formula_column(sheet, 2, 2, 1000, "=B1+A2")
    engine = RecalcEngine(sheet, deferred=True)
    engine.recalculate_all()
    assert engine.set_value("A1", 5.0).dirty_count == 1000
    plan = engine._build_plan(engine._pending, False)[0]
    assert [node.kind for node in plan if type(node) is _Strip] == ["c"]
    stats = engine.eval_stats
    scanned, scans = stats.elementwise_cells, stats.elementwise_runs
    slices = []
    while engine.pending:
        slices.append(engine.step(256))
    assert slices == [256, 256, 256, 232]
    # Every slice of B2:B1000 scans, seeded from the row the one before wrote.
    assert (stats.elementwise_cells - scanned, stats.elementwise_runs - scans) == (999, 4)
    assert engine.read("B1000") == (1004.0, False)


#: ``(template filled down C3:C30 over A/B, what is typed where, lanes
#: scanned)``: the scan stops at the first lane that is not plain float
#: arithmetic, and the closure makes the rest.
SCAN_STOPS = [
    ("=C2+A3", {}, 28),
    ("=C2+A3", {"A10": "txt"}, 7),
    ("=C2+A3", {"A10": ExcelError("#N/A")}, 7),
    ("=C2+A3", {"A10": True, "A11": None}, 28),         # to_number makes them floats
    ("=C2+A3", {"C12": 5.0}, 27),                       # a hand-typed cut: two scans
    ("=C2+A3", {"C2": "txt"}, 0),                       # a seed that is no number
    ("=C2/B3", {"B10": 0.0}, 7),
    ("=A3/C2", {"A10": 0.0}, 8),                        # C10 is 0: /0 in C11
    ("=C2*1E308", {}, 28),                              # to inf ...
    ("=C2*1E308-C2*1E308", {"C2": 1E300}, 28),          # ... and to nan
    ("=IF(A3=A2,C2+B3,B3)", {}, 28),
    ("=IF(A3=A2,C2+B3,B3)", {"A10": True}, 7),          # a logical compared
    ("=IF(A3=A2,C2+B3,B3)", {"B10": None}, 7),          # a blank chosen
    ("=IF(A3>B3,C2+A3,B3)", {"B10": "3"}, 7),
    ("=IF(A3>B3,C2+A3,B3)", {"A10": float("nan")}, 28),    # NaN ranks above all
    ("=IF(A3>=B3,C2+A3,B3)", {"B10": float("nan")}, 28),
    ("=IF(B3,C2+A3,A3*2)", {"B10": True, "B11": None}, 28),
]


@pytest.mark.parametrize("index", BACKENDS)
@pytest.mark.parametrize("text,typed,scanned", SCAN_STOPS)
def test_a_scan_hands_the_rest_to_the_closure(text, typed, scanned, index):
    def build():
        sheet = Sheet("S")
        for r in range(1, 31):
            sheet.set_value((1, r), float(r // 3))
            sheet.set_value((2, r), float(r % 4) + 1.0)
        sheet.set_formula("C2", "=A2+1")
        fill_formula_column(sheet, 3, 3, 30, text)
        for target, value in typed.items():
            sheet.set_value(target, value)
        return sheet

    engine = engine_over(build(), index)
    engine.recalculate_all()
    reference = oracle_for(build())
    reference.recalculate_all()
    assert_same_values(engine.sheet, reference.sheet)
    stats = engine.eval_stats
    assert stats.elementwise_cells == scanned
    assert stats.compiled_cells == engine.sheet.formula_count - scanned


#: ``(template filled down C1:C30 over A/B and the broadcast F1, what is
#: typed where, lanes swept)``: a sweep masks the lanes that are not plain
#: float arithmetic — first, middle or last — and the closure makes them;
#: a strip with no lane left to land, or a fixed cell it refuses, is the
#: closure loop's.
SWEEP_MASKS = [
    ("=A1*B1", {}, 30),
    ("=A1*B1", {"A1": "txt", "A15": ExcelError("#N/A"), "B30": "3"}, 27),
    ("=A1*B1", {"A1": True, "A16": None, "B30": False}, 30),   # to_number makes them floats
    ("=A1/B1", {"B1": 0.0, "B15": -0.0, "B30": 0.0}, 27),
    ("=A1*$F$1", {"F1": None}, 30),
    ("=A1*$F$1", {"F1": True}, 30),
    ("=A1*$F$1", {"F1": "2"}, 0),
    ("=A1*$F$1", {"F1": ExcelError("#DIV/0!")}, 0),
    ("=A1/$F$1", {"F1": -0.0}, 0),
    ("=A1*1E308*10", {}, 30),                                   # to inf ...
    ("=A1*1E308*10-A1*1E308*10", {}, 30),                       # ... and to nan
    ("=IF(B1>A1,B1*2,A1/B1)", {"B15": 0.0}, 29),                # /0 where taken
    ("=IF(A1>0,B1/A1,-B1)", {}, 28),                            # /0 where not taken
    ("=IF(A1>B1,A1-B1,B1*2)", {"A10": float("nan"), "B20": float("nan")}, 30),
    ("=(A1=B1)+(A1<>B1)*2+(A1<B1)*4", {"A5": float("nan"), "B5": float("nan")}, 30),
    ("=(A1<B1)*3", {"A10": True, "A11": None}, 29),             # a logical compared
    ("=IF(A1>=0,A1,B1*2)", {"A12": 2.5, "A13": None, "A30": True}, 28),  # a bare branch
]


def sweep_sheet(text, typed):
    sheet = Sheet("S")
    for r in range(1, 31):
        sheet.set_value((1, r), float(r // 3))
        sheet.set_value((2, r), float(r % 4) + 1.0)
    sheet.set_value("F1", 4.0)
    fill_formula_column(sheet, 3, 1, 30, text)
    for target, value in typed.items():
        sheet.set_value(target, value)
    return sheet


@pytest.mark.parametrize("index", BACKENDS)
@pytest.mark.parametrize("text,typed,swept", SWEEP_MASKS)
def test_a_sweep_hands_its_masked_lanes_to_the_closure(text, typed, swept, index):
    engine = engine_over(sweep_sheet(text, typed), index, workers=0, shards=0)
    plan = engine._build_plan(None, False)[0]
    assert [node.kind for node in plan] == ["e"]
    engine.recalculate_all()
    reference = oracle_for(sweep_sheet(text, typed))
    reference.recalculate_all()
    assert_same_values(engine.sheet, reference.sheet)
    stats = engine.eval_stats
    assert (stats.elementwise_cells, stats.elementwise_runs) == (swept, int(swept > 0))
    assert stats.compiled_cells == 30 - swept
    # Two residents sweep the strip as the serial engine does.
    sharded = engine_over(sweep_sheet(text, typed), index, shards=2, parallel_min_dirty=1)
    sharded.recalculate_all()
    assert sharded.eval_stats.parallel_dispatches == 1
    assert_same_values(sharded.sheet, reference.sheet)
    assert sharded.eval_stats.counter_snapshot() == stats.counter_snapshot()


def test_a_kept_plan_never_runs_against_a_changed_plane():
    """Formula edits, clears and row inserts interleaved with ``step``,
    through the engine and behind its back: every slice is cut from a
    plan of the plane as it is."""
    def build():
        sheet = Sheet("S")
        for r in range(1, 61):
            sheet.set_value((1, r), float(r))
        chain_down(sheet, 2, 1, 60, "A")
        fill_formula_column(sheet, 3, 1, 60, "=B1*2")
        fill_formula_column(sheet, 4, 1, 60, "=SUM($C$1:C1)")
        return sheet

    engine = RecalcEngine(build(), deferred=True)
    oracle = oracle_for(build())
    engine.recalculate_all()
    oracle.recalculate_all()

    def both(action):
        action(engine)
        action(oracle)

    both(lambda e: e.set_value("A1", 100.0))
    engine.step(5)
    both(lambda e: e.set_formula("B30", "=A30*1000"))       # cuts the chain's family
    engine.step(5)
    both(lambda e: e.clear_cell("C12"))
    engine.step(5)
    both(lambda e: e.insert_rows(20, 2))
    engine.step(5)
    both(lambda e: e.set_value("A2", -3.0))
    engine.step(5)
    # Behind the engine's back: a member of a planned strip vanishes.
    engine.sheet.clear_cell("B50")
    oracle.clear_cell("B50")
    engine.recompute([Range.from_a1("B50:D62")])
    engine.drain()
    assert engine.pending == 0
    assert_same_values(engine.sheet, oracle.sheet)
    assert not any(
        engine.sheet.get_value(pos) == CYCLE_ERROR for pos in engine.sheet.positions()
    )
