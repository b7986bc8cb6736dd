"""Unit tests for Cell laziness and what a formula cell shares."""

from repro.formula.parser import parse_formula
from repro.sheet.cell import Cell


class TestPureValue:
    def test_value_cell(self):
        cell = Cell(value=5.0)
        assert not cell.is_formula
        assert cell.formula_ast is None
        assert cell.formula_text is None
        assert cell.display_formula is None
        assert cell.references == []


class TestFormulaCell:
    def test_from_text_parses_lazily(self):
        parse_formula.cache_clear()
        cell = Cell(formula_text="SUM(A1:A3)")
        assert cell.is_formula and cell.formula_text == "SUM(A1:A3)"
        assert parse_formula.cache_info().misses == 0   # not parsed yet
        assert cell.formula_ast == parse_formula("SUM(A1:A3)")
        assert parse_formula.cache_info().misses == 1   # parsed once, on demand
        assert cell.formula_text == "SUM(A1:A3)"        # as entered, not re-rendered

    def test_from_ast_renders_text_on_demand(self):
        ast = parse_formula("=A1+B2")
        cell = Cell(formula_ast=ast)
        assert cell.source_text is None
        assert cell.formula_text == "(A1+B2)"
        assert cell.display_formula == "=(A1+B2)"

    def test_references_deduplicated_in_formula_order(self):
        cell = Cell(formula_text="A1+A1+B2")
        assert [r.range.to_a1() for r in cell.references] == ["A1", "B2"]

    def test_members_share_one_template(self):
        anchor = Cell(formula_text="A1*$C$1", host=(2, 1))
        member = Cell(template=anchor.template, host=(2, 7))
        assert member.template is anchor.template
        assert member.formula_text == "(A7*$C$1)"
        assert member.template_key(2, 7) == anchor.template_key(2, 1) == "(RC[-1]*R1C3)"
        assert [r.range.to_a1() for r in member.references] == ["A7", "C1"]
        # The same formula typed in by hand lands on the same template.
        assert Cell(formula_text="A7*$C$1", host=(2, 7)).template is anchor.template

    def test_value_cache_independent_of_formula(self):
        cell = Cell(formula_text="1+1")
        assert cell.value is None
        cell.value = 2.0
        assert cell.is_formula and cell.value == 2.0

    def test_repr_smoke(self):
        assert "Cell" in repr(Cell(value=1.0))
        assert "=" in repr(Cell(formula_text="A1"))
