"""Shared sheet builders and assertion helpers.

Besides the corpus builders, this module owns the differential-test
toolkit the ``tests/engine/test_*_differential.py`` suites share: a
hypothesis strategy for *sheet programs*, one for the edits applied to
them (:func:`edits`), factories that realize a program into a sheet and
wrap it in an engine parameterized by evaluation mode / index backend /
resident shards, and the
bitwise value comparator.  One definition here keeps every suite
differential against the same oracle semantics.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.core.taco_graph import TacoGraph, dependencies_column_major
from repro.engine.edits import ClearCell, ClearRange, SetFormula, SetValue, Structural
from repro.engine.recalc import RecalcEngine
from repro.formula.errors import ExcelError
from repro.graphs.base import expand_cells
from repro.graphs.nocomp import NoCompGraph
from repro.grid.range import Range
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.formula.parser import parse_formula
from repro.formula.template import intern_template
from repro.sheet.structural import (
    STRUCTURAL_OPS,
    _may_touch,
    _position_sensitive,
    _rewrite,
    _TransformWatcher,
    edit_transform,
    position_mover,
)


def build_fig2_sheet(rows: int = 50) -> Sheet:
    """The paper's Fig. 2 spreadsheet: an IF-chain over two data columns."""
    sheet = Sheet("fig2")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float(r % 7))    # A: group ids
        sheet.set_value((13, r), float(r))       # M: amounts
    sheet.set_formula((14, 2), "=M2")            # N2
    fill_formula_column(sheet, 14, 3, rows, "=IF(A3=A2,N2+M3,M3)")
    return sheet


def build_mixed_sheet(seed: int = 0, rows: int = 30) -> Sheet:
    """A sheet mixing every basic pattern plus some noise."""
    rng = random.Random(seed)
    sheet = Sheet("mixed")
    for r in range(1, rows + 6):
        sheet.set_value((1, r), float(rng.randrange(100)))   # A data
        sheet.set_value((2, r), float(rng.randrange(100)))   # B data
    fill_formula_column(sheet, 3, 1, rows, "=SUM(A1:B3)")            # RR window
    fill_formula_column(sheet, 4, 1, rows, "=SUM($A$1:A1)")          # FR cumulative
    fill_formula_column(sheet, 5, 1, rows, f"=SUM(A1:$B${rows})")    # RF shrinking
    fill_formula_column(sheet, 6, 1, rows, "=SUM($A$1:$B$4)*B1")     # FF + RR
    sheet.set_formula((7, 1), "=A1")
    fill_formula_column(sheet, 7, 2, rows, "=G1+B2")                 # chain + RR
    for i in range(5):                                               # noise
        r1 = rng.randrange(1, rows)
        sheet.set_formula((9 + 2 * i, 40), f"=SUM(A{r1}:B{r1 + 2})")
    return sheet


def build_ledger_sheet(rows: int = 300) -> Sheet:
    """The served benchmark's sheet: a recurrence, a running total, an
    elementwise product and a whole-column sentinel."""
    sheet = Sheet("Ledger")
    for r in range(1, rows + 1):
        sheet.set_value((1, r), float(r % 17) + 1.0)
        sheet.set_value((2, r), float((r * 7) % 23) + 1.0)
    sheet.set_formula("C1", "=A1+B1")
    fill_formula_column(sheet, 3, 2, rows, "=C1+A2")
    fill_formula_column(sheet, 4, 1, rows, "=SUM($A$1:A1)")
    fill_formula_column(sheet, 5, 1, rows, "=A1*B1")
    sheet.set_formula("F1", f"=SUM(C1:C{rows})")
    return sheet


def build_graph_pair(sheet: Sheet) -> tuple[TacoGraph, NoCompGraph]:
    deps = dependencies_column_major(sheet)
    taco = TacoGraph.full()
    taco.build(deps)
    nocomp = NoCompGraph()
    nocomp.build(deps)
    return taco, nocomp


def assert_same_dependents(taco, nocomp, probe: Range) -> None:
    got = expand_cells(taco.find_dependents(probe))
    want = expand_cells(nocomp.find_dependents(probe))
    assert got == want, (
        f"dependents of {probe.to_a1()} differ: "
        f"taco-only={sorted(got - want)[:5]} nocomp-only={sorted(want - got)[:5]}"
    )


def assert_same_precedents(taco, nocomp, probe: Range) -> None:
    got = expand_cells(taco.find_precedents(probe))
    want = expand_cells(nocomp.find_precedents(probe))
    assert got == want, (
        f"precedents of {probe.to_a1()} differ: "
        f"taco-only={sorted(got - want)[:5]} nocomp-only={sorted(want - got)[:5]}"
    )


# -- differential-test toolkit -------------------------------------------------

#: Autofill templates spanning every evaluation tier: windowed aggregates
#: (all four compression shapes), elementwise arithmetic (with /0 lanes),
#: compiled branches, the lazy builtins that only the per-cell closure
#: runs (XOR / ROWS / ROW), string concatenation, and error producers.
DIFFERENTIAL_TEMPLATES = (
    "=SUM($A$1:A1)",
    "=SUM(A1:A4)",
    "=SUM(A1:$A$24)",
    "=AVERAGE($A$1:B1)",
    "=MIN(A1:A6)",
    "=MAX($B$1:B1)",
    "=COUNT(A1:B3)",
    "=A1*2+B1",
    "=A1/B1",
    "=-A1*10%",
    "=IF(A1>B1,A1-B1,B1/A1)",
    "=IFERROR(A1/B1,-1)",
    "=XOR(A1>5,B1>5)",
    "=ROWS($A$1:A1)",
    '=A1&"|"&B1',
    "=ROW(A1)*10+B1",
)


#: Lookup-heavy templates for the index differential suites: every
#: (side, tie) probe shape VLOOKUP/HLOOKUP/MATCH/XLOOKUP can issue, over
#: the deliberately unsorted, mixed-type A/B columns of
#: :func:`sheet_programs` (table bounds fixed to the default 20 rows).
#: Kept separate from DIFFERENTIAL_TEMPLATES so adding probes never
#: perturbs the established suites' example corpora.
LOOKUP_TEMPLATES = (
    "=VLOOKUP(B1,$A$1:$B$20,2,FALSE)",
    "=VLOOKUP(B1,$A$1:$B$20,2)",
    "=VLOOKUP(A1,$B$1:$B$20,1)",
    "=MATCH(B1,$A$1:$A$20,0)",
    "=MATCH(B1,$A$1:$A$20,1)",
    "=MATCH(B1,$A$1:$A$20,-1)",
    "=MATCH(A1,$B$1:$B$20,1)",
    '=XLOOKUP(B1,$A$1:$A$20,$B$1:$B$20,"miss")',
    "=XLOOKUP(B1,$A$1:$A$20,$B$1:$B$20,-99,-1)",
    "=XLOOKUP(B1,$A$1:$A$20,$B$1:$B$20,-99,1,-1)",
    "=IFERROR(INDEX($B$1:$B$20,MATCH(B1,$A$1:$A$20,1)),-1)",
)


@st.composite
def sheet_programs(draw, rows: int = 20,
                   templates: tuple = DIFFERENTIAL_TEMPLATES,
                   max_fills: int = 3):
    """One sheet program: ``(values, fills)``.

    Column A mixes floats, text, booleans and holes; column B is always
    numeric; ``fills`` stamps 1..max_fills formula columns (3, 4, ...)
    with autofilled templates.  Realize with :func:`realize_program`.
    """
    values = []
    for r in range(1, rows + 1):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            values.append(((1, r), "txt"))
        elif kind == 1:
            values.append(((1, r), True))
        elif kind != 2:                      # kind == 2 leaves a hole
            values.append(((1, r), float(draw(st.integers(-40, 40)))))
        values.append(((2, r), float(draw(st.integers(-4, 4)))))
    fills = []
    for i in range(draw(st.integers(1, max_fills))):
        fills.append((3 + i, draw(st.integers(1, 3)),
                      draw(st.integers(rows - 3, rows)),
                      draw(st.sampled_from(templates))))
    return values, fills


#: The formulas :func:`edits` writes, over a column ``x`` and rows
#: ``r1 <= r2``: a window, a running total, arithmetic, a branch.
EDIT_FORMULAS = ("=SUM({x}{r1}:{x}{r2})", "=SUM($A$1:A{r1})", "={x}{r1}*2+B{r2}",
                 "=A{r1}*B{r1}", "=IF({x}{r1}>0,{x}{r2},-1)")


@st.composite
def edits(draw, rows: int, *, acyclic: bool = True, structural: bool = False,
          ranges: bool = False):
    """One :mod:`repro.engine.edits` edit over columns A-E, rows
    ``1..rows``: a value or a clear anywhere, a formula in C-E (reading
    only columns left of its own when ``acyclic``, so no sequence closes
    a cycle), with ``ranges`` a range clear (a batch-only edit), and with
    ``structural`` a row/column insert or delete."""
    kinds = ("value", "value", "formula", "formula", "clear")
    kind = draw(st.sampled_from(kinds + ("range",) * ranges + ("structural",) * structural))
    col, row = draw(st.integers(1, 5)), draw(st.integers(1, rows))
    if kind == "value":
        return SetValue((col, row), float(draw(st.integers(-20, 20))))
    if kind == "clear":
        return ClearCell((col, row))
    if kind == "range":
        wide, tall = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        return ClearRange(Range(col, row, min(5, col + wide), row + tall))
    if kind == "structural":
        return Structural(draw(st.sampled_from(sorted(STRUCTURAL_OPS))), row,
                          draw(st.integers(1, 2)))
    col = draw(st.integers(3, 5))
    x = "ABCDE"[draw(st.integers(0, col - 2 if acyclic else 4))]
    r1 = draw(st.integers(1, rows))
    r2 = min(rows, r1 + draw(st.integers(0, 3)))
    return SetFormula((col, row), draw(st.sampled_from(EDIT_FORMULAS)).format(x=x, r1=r1, r2=r2))


def realize_program(program, name: str = "S") -> Sheet:
    """Build a fresh sheet from a :func:`sheet_programs` draw."""
    values, fills = program
    sheet = Sheet(name)
    for pos, value in values:
        sheet.set_value(pos, value)
    for col, first, last, template in fills:
        fill_formula_column(sheet, col, first, last, template)
    return sheet


def clone_sheet(sheet: Sheet) -> Sheet:
    """An independent copy."""
    copy = Sheet(sheet.name)
    for pos, cell in sheet.items():
        if cell.is_formula:
            copy.set_formula(pos, cell.formula_text)
        else:
            copy.set_value(pos, cell.value)
    return copy


def engine_for(sheet: Sheet, mode: str = "auto", index: str = "rtree",
               *, parallel_min_dirty: int | None = None,
               lookup_indexes: bool | None = None,
               shards: "int | None" = None) -> RecalcEngine:
    """An engine over a fresh compressed graph for ``sheet``.

    ``shards`` sizes the resident runtime (None: ``REPRO_RECALC_SHARDS``)
    and ``parallel_min_dirty=1`` forces it even for tiny differential
    corpora; ``lookup_indexes=False`` pins the engine to the reference
    linear scans regardless of the environment toggle.
    """
    graph = TacoGraph.full(index=index)
    graph.build(dependencies_column_major(sheet))
    return RecalcEngine(
        sheet, graph, evaluation=mode, parallel_min_dirty=parallel_min_dirty,
        lookup_indexes=lookup_indexes, shards=shards,
    )


def same_value(got, want) -> bool:
    """Bitwise value identity (``-0.0`` is not ``0.0``, NaN is NaN), with
    error-code identity for ExcelErrors."""
    if isinstance(want, ExcelError):
        return isinstance(got, ExcelError) and got.code == want.code
    if isinstance(want, float):
        return type(got) is float and got.hex() == want.hex()
    return type(got) is type(want) and got == want


def assert_same_values(got_sheet: Sheet, want_sheet: Sheet) -> None:
    """:func:`same_value` for every cell of either sheet."""
    positions = set(got_sheet.positions()) | set(want_sheet.positions())
    for pos in positions:
        assert same_value(got_sheet.get_value(pos), want_sheet.get_value(pos)), pos


def dependency_set(graph) -> set:
    """A graph's decompressed dependencies as comparable tuples."""
    return {(d.prec.as_tuple(), d.dep.as_tuple()) for d in graph.decompress()}




# ---------------------------------------------------------------------------
# structural edits, member by member


def structural_reference(sheet: Sheet, op: str, index: int, count: int,
                         target: str | None = None):
    """What one structural edit must make of ``sheet``, decided member by
    member: each pre-edit formula's own AST at its host, rewritten and
    rendered at the host the edit moves it to.  Read it *before* the
    edit.  ``target`` names the edited sheet for the cross-sheet pass (no
    cell moves, only references qualified with ``target`` shift); by
    default the edit is on ``sheet`` itself.

    Returns ``(values, formulas, cells)``: post-edit position -> cached
    value for every occupied position, post-edit position -> formula text
    by meaning, and the report's five cell sets plus ``removed``.  A
    member is ``rewritten`` when its template changed, except a typed
    cell nothing has parsed whose text the edit's screen passes over.
    """
    axis, mode = STRUCTURAL_OPS[op]
    transform = edit_transform(op, index, count)
    if target is None:
        move = position_mover(axis, mode, index, count)

        def applies(node):
            return node.sheet in (None, sheet.name)

        def screened(text):
            return not _may_touch(text, axis, index)
    else:
        def move(pos):
            return pos

        def applies(node):
            return node.sheet == target

        def screened(text):
            return target not in text and target.replace("'", "''") not in text
    values, removed = {}, 0
    for pos, cell in sheet.items():
        to = move(pos)
        if to is None:
            removed += 1
        else:
            values[to] = cell.value
    formulas, sets = {}, tuple(set() for _ in range(5))
    for col, records in sheet.run_index(join=False).items():
        for first, last, template, text in records:
            for row in range(first, last + 1):
                pos, to = (col, row), move((col, row))
                if to is None:
                    continue
                ast = parse_formula(text) if template is None else template.ast_at(*pos)
                watcher = _TransformWatcher(transform)
                new_ast = _rewrite(ast, watcher, applies)
                formulas[to] = canonical(new_ast.to_formula())
                if to == pos and new_ast is ast:
                    continue
                before = template or intern_template(ast, *pos)
                rewritten = intern_template(new_ast, *to) is not before and not (
                    template is None and screened(text))
                flags = (to != pos, rewritten, watcher.resized,
                         _position_sensitive(new_ast), watcher.strikes)
                for hit, out in zip(flags, sets):
                    if hit:
                        out.add(to)
    return values, formulas, (*sets, removed)


def canonical(text: str) -> str:
    """A formula text by meaning: parsed and rendered back."""
    return parse_formula(text).to_formula()


def report_cells(report) -> tuple:
    """A :class:`~repro.sheet.structural.SheetEditReport` as cell sets."""
    return (*(expand_cells(ranges) for ranges in report[:5]), report.removed)


def assert_matches_reference(sheet: Sheet, report, reference) -> None:
    """``sheet`` after the edit (and the edit's report) against
    :func:`structural_reference` taken before it: values, formula texts by
    meaning, report cells, and run records equal to a fresh grouping of
    the reference's formulas."""
    values, formulas, cells = reference
    assert {pos: cell.value for pos, cell in sheet.items()} == values
    assert {pos: canonical(cell.formula_text)
            for pos, cell in sheet.formula_cells()} == formulas
    assert report_cells(report) == cells
    fresh = Sheet(sheet.name)
    for pos, text in formulas.items():
        fresh.set_formula(pos, text)

    def runs(of: Sheet) -> dict:
        return {col: [(a, b, t.key) for a, b, t in records]
                for col, records in of.run_index().items()}

    assert runs(sheet) == runs(fresh)
