"""Unit tests for the formula parser."""

import sys

import pytest

from repro.formula.ast_nodes import (
    BinaryOp,
    Boolean,
    CellNode,
    ErrorLiteral,
    FunctionCall,
    Number,
    RangeNode,
    String,
    UnaryOp,
)
from repro.formula.errors import FormulaSyntaxError
from repro.formula.parser import MAX_NESTING, parse_formula


class TestLiterals:
    def test_number(self):
        node = parse_formula("=42")
        assert isinstance(node, Number) and node.value == 42.0

    def test_leading_equals_optional(self):
        assert parse_formula("42") == parse_formula("=42")

    def test_string(self):
        node = parse_formula('="hi"')
        assert isinstance(node, String) and node.value == "hi"

    def test_booleans(self):
        assert isinstance(parse_formula("=TRUE"), Boolean)
        assert parse_formula("=false").value is False

    def test_error_literal(self):
        node = parse_formula("=#REF!")
        assert isinstance(node, ErrorLiteral) and node.code == "#REF!"

    def test_unknown_name_becomes_name_error(self):
        node = parse_formula("=MyNamedRange")
        assert isinstance(node, ErrorLiteral) and node.code == "#NAME?"


class TestReferences:
    def test_cell(self):
        node = parse_formula("=B3")
        assert isinstance(node, CellNode)
        assert node.to_range().to_a1() == "B3"

    def test_range(self):
        node = parse_formula("=A1:B3")
        assert isinstance(node, RangeNode)
        assert node.to_range().to_a1() == "A1:B3"

    def test_range_normalises_reversed_corners(self):
        assert parse_formula("=B3:A1").to_range().to_a1() == "A1:B3"

    def test_fixed_markers_preserved(self):
        node = parse_formula("=$A$1:B2")
        assert node.head.col_fixed and node.head.row_fixed
        assert not node.tail.col_fixed

    def test_sheet_qualified(self):
        node = parse_formula("=Sheet2!A1")
        assert isinstance(node, CellNode) and node.sheet == "Sheet2"

    def test_quoted_sheet_range(self):
        node = parse_formula("='My Data'!A1:B2")
        assert isinstance(node, RangeNode) and node.sheet == "My Data"


class TestOperators:
    def test_precedence_mul_over_add(self):
        node = parse_formula("=1+2*3")
        assert isinstance(node, BinaryOp) and node.op == "+"
        assert isinstance(node.right, BinaryOp) and node.right.op == "*"

    def test_precedence_comparison_loosest(self):
        node = parse_formula("=1+2>2*1")
        assert node.op == ">"

    def test_concat_between_compare_and_add(self):
        node = parse_formula('="a"&"b"="ab"')
        assert node.op == "="
        assert node.left.op == "&"

    def test_left_associativity(self):
        node = parse_formula("=10-5-2")
        assert node.op == "-" and node.left.op == "-"

    def test_power_left_associative_like_excel(self):
        node = parse_formula("=2^3^2")
        assert node.op == "^" and isinstance(node.left, BinaryOp)

    def test_unary_minus(self):
        node = parse_formula("=-A1")
        assert isinstance(node, UnaryOp) and node.op == "-"

    def test_unary_plus_is_noop(self):
        assert parse_formula("=+5") == Number(5.0)

    def test_percent_postfix(self):
        node = parse_formula("=50%")
        assert isinstance(node, UnaryOp) and node.op == "%"

    def test_parentheses(self):
        node = parse_formula("=(1+2)*3")
        assert node.op == "*" and node.left.op == "+"


class TestFunctions:
    def test_no_args(self):
        node = parse_formula("=PI()")
        assert isinstance(node, FunctionCall) and node.args == []

    def test_args(self):
        node = parse_formula("=SUM(A1:A3,B1,5)")
        assert node.name == "SUM" and len(node.args) == 3

    def test_name_case_normalised(self):
        assert parse_formula("=sum(1)").name == "SUM"

    def test_nested(self):
        node = parse_formula("=IF(A1>0,SUM(B1:B9),MAX(C1,C2))")
        assert node.name == "IF"
        assert node.args[1].name == "SUM"

    def test_missing_close_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=SUM(A1:A3")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=1+2)")

    def test_empty_formula(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=")


class TestToFormula:
    @pytest.mark.parametrize(
        "text",
        [
            "SUM(A1:B3)",
            "IF(A3=A2,N2+M3,M3)",
            "VLOOKUP(D4,$A$1:$B$16,2,FALSE)",
            "-A1%",
            '"x"&"y"',
            "Sheet2!A1+1",
            "SUM($B$1:B4)*A1",
        ],
    )
    def test_round_trip_stable(self, text):
        first = parse_formula(text)
        second = parse_formula(first.to_formula())
        assert first == second


class TestShifted:
    def test_relative_shift(self):
        node = parse_formula("=SUM(A1:B3)+C1").shifted(1, 2)
        assert node.to_formula() == "(SUM(B3:C5)+D3)"

    def test_fixed_axes_stay(self):
        node = parse_formula("=SUM($A$1:B3)").shifted(1, 2)
        assert node.to_formula() == "SUM($A$1:C5)"

    def test_off_sheet_becomes_ref_error(self):
        node = parse_formula("=A1").shifted(0, -1)
        assert isinstance(node, ErrorLiteral) and node.code == "#REF!"

    def test_off_sheet_range_inside_function(self):
        node = parse_formula("=SUM(A1:B2)+1").shifted(-1, 0)
        assert "#REF!" in node.to_formula()


class TestNesting:
    """Calls and parenthesised groups nest at most ``MAX_NESTING`` (64,
    Excel's limit) deep; deeper input is a syntax error, not a
    ``RecursionError``, and the recursion limit is left alone."""

    @staticmethod
    def calls(depth):
        return "=" + "ABS(" * depth + "-2" + ")" * depth

    @staticmethod
    def groups(depth):
        return "=" + "(" * depth + "A1+1" + ")" * depth

    def test_the_limit_is_excels(self):
        assert MAX_NESTING == 64

    @pytest.mark.parametrize("evaluation", ["auto", "interpreter"])
    def test_64_levels_compute(self, evaluation):
        from repro.engine.recalc import RecalcEngine
        from repro.sheet.sheet import Sheet

        sheet = Sheet("S")
        sheet.set_value((1, 1), 4.0)
        sheet.set_formula((2, 1), self.calls(64))
        sheet.set_formula((2, 2), self.groups(64))
        half = "ABS((" * 32 + "-A1" + "))" * 32
        sheet.set_formula((2, 3), "=" + half)
        RecalcEngine(sheet, evaluation=evaluation).recalculate_all()
        assert [sheet.get_value((2, r)) for r in (1, 2, 3)] == [2.0, 5.0, 4.0]

    @pytest.mark.parametrize("text", [
        calls.__func__(65),
        groups.__func__(65),
        "=" + "ABS((" * 32 + "ABS(1" + "))" * 32 + ")",
        groups.__func__(400),
        calls.__func__(300),
    ])
    def test_deeper_is_a_syntax_error(self, text):
        limit = sys.getrecursionlimit()
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)
        assert sys.getrecursionlimit() == limit

    def test_siblings_do_not_add_up(self):
        inner = "ABS(" * 63 + "1" + ")" * 63
        assert parse_formula(f"=SUM({inner},{inner},{inner})") is not None
