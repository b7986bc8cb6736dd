"""Unit tests for the sheet model and dependency enumeration."""

import copy
import pickle

import pytest

from repro.grid.range import Range
from repro.sheet.sheet import Dependency, Sheet


class TestCellAccess:
    def test_set_get_value(self):
        sheet = Sheet()
        sheet.set_value("B2", 42.0)
        assert sheet.get_value("B2") == 42.0
        assert sheet.get_value((2, 2)) == 42.0
        assert sheet.get_value("C3") is None

    def test_set_value_none_clears(self):
        sheet = Sheet()
        sheet.set_value("A1", 1.0)
        sheet.set_value("A1", None)
        assert sheet.cell_at("A1") is None
        assert len(sheet) == 0

    def test_set_formula(self):
        sheet = Sheet()
        sheet.set_formula("B1", "=SUM(A1:A3)")
        cell = sheet.cell_at("B1")
        assert cell.is_formula
        assert cell.formula_text == "SUM(A1:A3)"
        assert cell.display_formula == "=SUM(A1:A3)"

    def test_formula_without_equals(self):
        sheet = Sheet()
        sheet.set_formula("B1", "A1+1")
        assert sheet.cell_at("B1").formula_text == "A1+1"

    def test_range_target_must_be_cell(self):
        sheet = Sheet()
        with pytest.raises(ValueError):
            sheet.set_value(Range.from_a1("A1:B2"), 1.0)

    def test_clear_range_small_and_large(self):
        sheet = Sheet()
        for r in range(1, 21):
            sheet.set_value((1, r), float(r))
        sheet.clear_range(Range.from_a1("A5:A10"))
        assert len(sheet) == 14
        # Large-range path (range bigger than cell count).
        sheet.clear_range(Range(1, 1, 100, 1000))
        assert len(sheet) == 0

    def test_used_range(self):
        sheet = Sheet()
        assert sheet.used_range() is None
        sheet.set_value("B2", 1.0)
        sheet.set_value("D7", 2.0)
        assert sheet.used_range() == Range.from_a1("B2:D7")


class TestDependencies:
    def test_iter_dependencies(self):
        sheet = Sheet()
        sheet.set_value("A1", 1.0)
        sheet.set_formula("B1", "=SUM(A1:A3)")
        sheet.set_formula("C1", "=B1+B3")
        deps = list(sheet.iter_dependencies())
        pairs = {(d.prec.to_a1(), d.dep.to_a1()) for d in deps}
        assert pairs == {("A1:A3", "B1"), ("B1", "C1"), ("B3", "C1")}

    def test_dependency_cue_carried(self):
        sheet = Sheet()
        sheet.set_formula("B1", "=SUM($A$1:A1)")
        (dep,) = sheet.iter_dependencies()
        assert dep.cue == "FR"

    def test_cross_sheet_refs_skipped(self):
        sheet = Sheet("S1")
        sheet.set_formula("B1", "=Sheet2!A1+A1")
        deps = list(sheet.iter_dependencies())
        assert len(deps) == 1
        assert deps[0].prec == Range.from_a1("A1")

    def test_self_sheet_qualified_refs_kept(self):
        sheet = Sheet("S1")
        sheet.set_formula("B1", "=S1!A1")
        assert len(list(sheet.iter_dependencies())) == 1

    def test_dependency_equality_and_hash(self):
        a = Dependency(Range.from_a1("A1"), Range.from_a1("B1"))
        b = Dependency(Range.from_a1("A1"), Range.from_a1("B1"), cue="FF")
        assert a == b  # cue does not affect identity
        assert len({a, b}) == 1

    def test_dependency_value_contract(self):
        p, d = Range.from_a1("A1:A3"), Range.from_a1("B1")
        rr, ff, other = Dependency(p, d, "RR"), Dependency(p, d, "FF"), Dependency(d, p)
        assert rr == ff and not (rr != ff)  # tuple's own __ne__ would see the cue
        assert rr != other and not (rr == other)
        assert hash(rr) == hash(ff) and rr.as_tuple() == (p, d)
        assert Dependency(p, d).cue == "RR" and tuple(rr) == (p, d, "RR")
        for protocol in (2, 3, 4, 5):
            back = pickle.loads(pickle.dumps(ff, protocol))
            assert back == ff and type(back) is Dependency and back.cue == "FF"
            assert type(back.prec) is Range and back.prec == p
        dup = copy.deepcopy(ff)
        assert dup == ff and type(dup) is Dependency and dup.cue == "FF"

    def test_formula_count(self):
        sheet = Sheet()
        sheet.set_value("A1", 1.0)
        sheet.set_formula("B1", "=A1")
        sheet.set_formula("B2", "=A1")
        assert sheet.formula_count == 2
        assert sheet.dependency_count() == 2


class TestResolver:
    def test_resolver_protocol(self):
        sheet = Sheet("S")
        sheet.set_value("A1", 5.0)
        assert sheet.resolver_get_value(None, 1, 1) == 5.0
        assert sheet.resolver_get_value("S", 1, 1) == 5.0
        assert sheet.resolver_get_value("Other", 1, 1) is None

    def test_iter_cells_sparse_and_dense_paths(self):
        sheet = Sheet("S")
        sheet.set_value("A1", 1.0)
        sheet.set_value("A3", 3.0)
        # Dense path: small range.
        got = list(sheet.resolver_iter_cells(None, Range.from_a1("A1:A4")))
        assert {(c, r) for c, r, _ in got} == {(1, 1), (1, 3)}
        # Sparse path: huge range iterates the dict instead.
        got = list(sheet.resolver_iter_cells(None, Range(1, 1, 1000, 100000)))
        assert len(got) == 2
