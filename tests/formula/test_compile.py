"""The template compiler: closures ≡ interpreter, compile-once registry.

Observational identity of the compiled closures with the tree-walking
evaluator is pinned here on a hand-picked battery and on every name in
the function registry (the hypothesis-driven engine-level differential
lives in ``tests/engine/test_eval_differential.py``), alongside the
registry contract (one compilation per template key, bounded size) and
window-spec detection.
"""

import math
import struct

import pytest

from repro.formula.compile import (
    CompilingEvaluator,
    TemplateRegistry,
    compile_template,
    window_spec,
)
from repro.formula.errors import ExcelError
from repro.formula.evaluator import Evaluator
from repro.formula.functions import REGISTRY
from repro.formula.parser import parse_formula
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet, SheetResolver


@pytest.fixture
def sheet():
    s = Sheet("S")
    for r in range(1, 13):
        s.set_value((1, r), float(r))              # A: numbers
    s.set_value((1, 13), "text")
    s.set_value((1, 14), True)
    s.set_value((2, 1), 2.5)                       # B1
    s.set_value((2, 2), "7")                       # B2: numeric text
    s.set_formula((3, 1), "=1/0")                  # C1: stored error
    return s


BATTERY = [
    "=1+2*3",
    "=A1*2+A2",
    "=A1&\"x\"&A2",
    "=A1>A2",
    "=A1<=3",
    "=A1<>B2",
    "=-A3%",
    "=+A4",
    "=2^A2",
    "=(-2)^0.5",                    # complex -> #NUM!
    "=A1/0",                        # #DIV/0!
    "=#REF!+1",                     # error literal
    "=SUM(A1:A12)",
    "=SUM($A$1:A5)",
    "=SUM(A1:A14)",                 # text+bool cells skipped
    "=AVERAGE(A1:A12)",
    "=MIN(A1:A12)",
    "=MAX(A1:A12)",
    "=COUNT(A1:A14)",
    "=SUM(B1,B2,3)",                # scalar coercions
    "=SUM(C1:C1)",                  # error in range propagates
    "=IF(A1>0,A2,A3)",
    "=IF(A1<0,A2)",
    "=IFERROR(1/0,42)",
    "=IFERROR(A1,99)",
    "=ISERROR(C1)",
    "=ISERROR(A1)",
    "=AND(A1>0,A2>1)",
    "=OR(A1>5,A2>5)",
    "=VLOOKUP(3,A1:A12,1,FALSE)",
    "=ROUND(A5/A2,1)",
    "=CONCATENATE(A1,\"-\",A2)",
    "=B2+1",                        # text-number coercion
    "=A13+1",                       # #VALUE!
    "=A1:A1",                       # implicit intersection at top level
    "=A1:A3",                       # non-1x1 bare range -> #VALUE!
    "=UPPER(A13)",
]


def both(sheet, text, col=5, row=5):
    resolver = SheetResolver(sheet)
    ast = parse_formula(text)
    want = Evaluator(resolver).evaluate(ast, "S", col, row)
    template = compile_template(ast, col, row)
    assert template is not None, f"{text} unexpectedly unsupported"
    got = template.run(resolver, "S", col, row)
    return got, want


@pytest.mark.parametrize("text", BATTERY)
def test_compiled_matches_interpreter(sheet, text):
    got, want = both(sheet, text)
    assert type(got) is type(want)
    if isinstance(want, ExcelError):
        assert got.code == want.code
    else:
        assert got == want


@pytest.mark.parametrize("text", [
    "=A13+(1/0)",          # left coerces to #VALUE!, right evaluates #DIV/0!
    "=A13-(1/0)",
    "=A13*(1/0)",
    "=A13/(1/0)",
    "=A13^(1/0)",
    "=C1&(1/0)",           # left is a stored error
])
def test_binary_ops_evaluate_both_operands_before_coercing(sheet, text):
    """The interpreter evaluates both operands, then coerces; the error
    raised by the *right operand's evaluation* must win over the error
    the left operand's coercion would raise (regression: the compiled
    closures used to coerce left before evaluating right)."""
    got, want = both(sheet, text)
    assert isinstance(want, ExcelError)
    assert isinstance(got, ExcelError) and got.code == want.code


def test_relative_refs_shift_with_host(sheet):
    template = compile_template(parse_formula("=A1*10"), 2, 1)
    resolver = SheetResolver(sheet)
    # The same closure serves every host position of the family.
    for row in range(1, 8):
        assert template.run(resolver, "S", 2, row) == float(row) * 10


def test_every_template_compiles(sheet):
    for text in ("=NOSUCHFN(1)", "=XOR(TRUE,FALSE)", "=ROWS(A1:A5)"):
        assert compile_template(parse_formula(text), 1, 1) is not None
    got, want = both(sheet, "=NOSUCHFN(1)")
    assert got is want is ExcelError("#NAME?")


def test_arity_error_compiles_to_value_error(sheet):
    got, want = both(sheet, "=ABS(1,2)")
    assert isinstance(got, ExcelError) and got.code == want.code == "#VALUE!"


class TestWindowSpec:
    def test_prefix_window(self):
        spec = window_spec(parse_formula("=SUM($A$1:A9)"), 2, 9)
        assert spec.func == "SUM"
        assert spec.head_row.fixed and spec.head_row.value == 1
        assert not spec.tail_row.fixed and spec.tail_row.value == 0

    def test_sliding_window(self):
        spec = window_spec(parse_formula("=AVERAGE(A1:A5)"), 2, 5)
        assert spec.func == "AVERAGE"
        assert not spec.head_row.fixed and spec.head_row.value == -4
        assert not spec.tail_row.fixed and spec.tail_row.value == 0

    def test_avg_alias_normalises(self):
        assert window_spec(parse_formula("=AVG(A1:A5)"), 2, 5).func == "AVERAGE"

    def test_non_window_shapes_are_rejected(self):
        for text in ("=SUM(A1:A5)*2", "=SUM(A1:A5,B1)", "=SUM(A1)",
                     "=MEDIAN(A1:A5)", "=SUM(Data!A1:A5)"):
            assert window_spec(parse_formula(text), 2, 5) is None


class TestRegistry:
    def test_family_compiles_once(self):
        sheet = Sheet("S")
        for r in range(1, 101):
            sheet.set_value((1, r), float(r))
        fill_formula_column(sheet, 2, 1, 100, "=A1*2")
        registry = TemplateRegistry()
        evaluator = CompilingEvaluator(SheetResolver(sheet), registry=registry)
        for (col, row), cell in sheet.formula_cells():
            evaluator.evaluate_cell(cell, "S", col, row)
        assert registry.compilations == 1
        assert evaluator.stats.compiled_cells == 100

    def test_lazy_family_compiles_once(self):
        sheet = Sheet("S")
        fill_formula_column(sheet, 1, 1, 20, "=XOR(TRUE,FALSE)")
        registry = TemplateRegistry()
        evaluator = CompilingEvaluator(SheetResolver(sheet), registry=registry)
        for (col, row), cell in sheet.formula_cells():
            assert evaluator.evaluate_cell(cell, "S", col, row) is True
        assert registry.compilations == 1
        assert evaluator.stats.compiled_cells == 20
        assert evaluator.stats.interpreted_cells == 0

    def test_bounded_eviction(self):
        registry = TemplateRegistry(max_templates=8)
        for i in range(40):
            ast = parse_formula(f"=A1+{i}")
            registry.template_for(f"key{i}", ast, 2, 1)
        assert len(registry) <= 8


# -- registry-wide differential ------------------------------------------------

#: One argument of each kind: numbers and text (literal and stored),
#: blank, logicals, an error cell, a 1x1 and a 2x3 range, and relative
#: references, which move when the host is displaced.
ARGUMENT_MENU = (
    "2.5", "-3", "$A$2", '"7"', '"abc"', "$A$3", "$A$4",
    "$A$5",                 # blank
    "TRUE", "FALSE", "$A$6",
    "$A$7",                 # an error cell
    "$A$1:$A$1",            # 1x1
    "$B$1:$D$2",            # 2x3
    "B2", "B2:D3",          # relative
)
#: Where templates are compiled, and a member displaced from it.
HOST, DISPLACED = (6, 6), (8, 11)


@pytest.fixture
def menu_sheet():
    s = Sheet("S")
    for row, value in enumerate((2.5, -3.0, "7", "abc", None, True, ExcelError("#N/A")), 1):
        if value is not None:
            s.set_value((1, row), value)
    for col in range(2, 10):
        for row in range(1, 16):
            s.set_value((col, row), float((col * 7 + row * 3) % 11) - 2.0)
    return s


def argument_lists(name):
    """Argument lists for ``name``: too few, the fewest, one more, the
    most and too many, each position taking every menu item in turn."""
    spec = REGISTRY.get(name)
    low, high = (spec.min_args, spec.max_args) if spec is not None else (1, 1)
    counts = {low - 1, low, low + 1} | (set() if high is None else {high, high + 1})
    for count in sorted(c for c in counts if c >= 0):
        if count == 0:
            yield []
        for at in range(count):
            for item in ARGUMENT_MENU:
                args = ["2"] * count
                args[at] = item
                yield args


def same_value(got, want) -> bool:
    if type(got) is float and type(want) is float:
        return (struct.pack("d", got) == struct.pack("d", want)
                or math.isnan(got) and math.isnan(want))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("name", sorted(REGISTRY) + ["NOSUCHFN"])
def test_every_builtin_compiles_to_the_interpreters_value(menu_sheet, name):
    resolver = SheetResolver(menu_sheet)
    interpreter = Evaluator(resolver)
    for args in argument_lists(name):
        text = f"={name}({','.join(args)})"
        ast = parse_formula(text)
        template = compile_template(ast, *HOST)
        assert template is not None, text
        for col, row in (HOST, DISPLACED):
            got = template.run(resolver, "S", col, row)
            want = interpreter.evaluate(ast, "S", col, row, written_at=HOST)
            assert same_value(got, want), (text, (col, row), got, want)
