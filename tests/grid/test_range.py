"""Unit tests for Range geometry and algebra."""

import copy
import pickle

import pytest

from repro.grid.range import Range, cell_range, column_span, row_span


class TestConstruction:
    def test_basic(self):
        rng = Range(1, 2, 3, 4)
        assert rng.head == (1, 2)
        assert rng.tail == (3, 4)
        assert rng.width == 3
        assert rng.height == 3
        assert rng.size == 9

    def test_cell(self):
        rng = Range.cell(5, 7)
        assert rng.is_cell
        assert rng.size == 1

    def test_invalid_corners(self):
        with pytest.raises(ValueError):
            Range(3, 1, 2, 1)
        with pytest.raises(ValueError):
            Range(1, 3, 1, 2)

    def test_out_of_sheet(self):
        with pytest.raises(ValueError):
            Range(0, 1, 2, 2)
        with pytest.raises(ValueError):
            Range(1, 0, 2, 2)

    def test_immutable(self):
        rng = Range(1, 1, 2, 2)
        with pytest.raises(AttributeError):
            rng.c1 = 5

    def test_helpers(self):
        assert cell_range(2, 3) == Range(2, 3, 2, 3)
        assert column_span(2, 1, 5) == Range(2, 1, 2, 5)
        assert row_span(3, 1, 5) == Range(1, 3, 5, 3)


class TestA1:
    def test_parse_cell(self):
        assert Range.from_a1("B3") == Range(2, 3, 2, 3)

    def test_parse_range(self):
        assert Range.from_a1("A1:B2") == Range(1, 1, 2, 2)

    def test_parse_reversed_corners(self):
        assert Range.from_a1("B2:A1") == Range(1, 1, 2, 2)

    def test_parse_with_dollars(self):
        assert Range.from_a1("$A$1:B2") == Range(1, 1, 2, 2)

    def test_to_a1(self):
        assert Range(1, 1, 2, 2).to_a1() == "A1:B2"
        assert Range.cell(2, 3).to_a1() == "B3"

    def test_round_trip(self):
        for text in ("A1", "A1:C9", "AA10:AB20"):
            assert Range.from_a1(text).to_a1() == text


class TestGeometry:
    def test_contains_cell(self):
        rng = Range(2, 2, 4, 4)
        assert rng.contains_cell(2, 2)
        assert rng.contains_cell(4, 4)
        assert not rng.contains_cell(1, 2)
        assert not rng.contains_cell(5, 4)

    def test_contains_range(self):
        outer = Range(1, 1, 5, 5)
        assert outer.contains(Range(2, 2, 3, 3))
        assert outer.contains(outer)
        assert not outer.contains(Range(2, 2, 6, 3))

    def test_overlaps(self):
        a = Range(1, 1, 3, 3)
        assert a.overlaps(Range(3, 3, 5, 5))
        assert not a.overlaps(Range(4, 1, 5, 3))
        assert not a.overlaps(Range(1, 4, 3, 5))

    def test_intersect(self):
        a = Range(1, 1, 4, 4)
        b = Range(3, 2, 6, 6)
        assert a.intersect(b) == Range(3, 2, 4, 4)
        assert a.intersect(Range(5, 5, 6, 6)) is None

    def test_bounding(self):
        # The paper's example: A1:A3 (+) A2:A5 = A1:A5.
        assert Range.from_a1("A1:A3").bounding(Range.from_a1("A2:A5")) == Range.from_a1("A1:A5")

    def test_shift(self):
        assert Range(1, 1, 2, 2).shift(2, 3) == Range(3, 4, 4, 5)

    def test_expand_clamps_at_origin(self):
        assert Range(1, 1, 2, 2).expand(1) == Range(1, 1, 3, 3)
        assert Range(3, 3, 4, 4).expand(2) == Range(1, 1, 6, 6)

    def test_adjacency(self):
        a = Range(1, 1, 1, 3)
        assert a.is_adjacent_to(Range.cell(1, 4))
        assert a.is_adjacent_to(Range.cell(2, 2))
        assert a.is_adjacent_to(Range.cell(2, 4))  # diagonal counts as touch
        assert not a.is_adjacent_to(Range.cell(1, 5))
        assert not a.is_adjacent_to(Range.cell(1, 2))  # overlap, not adjacency


class TestSubtract:
    def test_disjoint(self):
        a = Range(1, 1, 2, 2)
        assert a.subtract(Range(5, 5, 6, 6)) == [a]

    def test_full_cover(self):
        assert Range(2, 2, 3, 3).subtract(Range(1, 1, 5, 5)) == []

    def test_middle_of_column(self):
        pieces = Range(1, 1, 1, 10).subtract(Range(1, 4, 1, 6))
        assert sorted(p.to_a1() for p in pieces) == ["A1:A3", "A7:A10"]

    def test_corner(self):
        pieces = Range(1, 1, 4, 4).subtract(Range(3, 3, 6, 6))
        total = sum(p.size for p in pieces)
        assert total == 16 - 4
        # Pieces must be disjoint.
        for i, p in enumerate(pieces):
            for q in pieces[i + 1:]:
                assert not p.overlaps(q)

    def test_hole_in_middle(self):
        pieces = Range(1, 1, 5, 5).subtract(Range(3, 3, 3, 3))
        assert sum(p.size for p in pieces) == 24
        assert all(not p.contains_cell(3, 3) for p in pieces)

    def test_row_slice(self):
        pieces = Range(1, 1, 10, 1).subtract(Range.cell(1, 1))
        assert pieces == [Range(2, 1, 10, 1)]


class TestIterationAndDunder:
    def test_cells_row_major(self):
        assert list(Range(1, 1, 2, 2).cells()) == [(1, 1), (2, 1), (1, 2), (2, 2)]

    def test_cell_ranges(self):
        assert [r.to_a1() for r in Range(1, 1, 1, 2).cell_ranges()] == ["A1", "A2"]

    def test_contains_dunder(self):
        rng = Range(1, 1, 3, 3)
        assert (2, 2) in rng
        assert Range.cell(2, 2) in rng
        assert "not a range" not in rng

    def test_ordering_and_hash(self):
        a, b = Range(1, 1, 2, 2), Range(1, 1, 2, 3)
        assert a < b
        assert len({a, b, Range(1, 1, 2, 2)}) == 2

    def test_slices(self):
        assert Range(1, 1, 1, 5).is_column_slice
        assert Range(1, 1, 5, 1).is_row_slice
        assert Range.cell(1, 1).is_column_slice and Range.cell(1, 1).is_row_slice
        assert not Range(1, 1, 2, 5).is_column_slice


class TestValueContract:
    """A Range is the tuple of its corners — compared, ordered and hashed
    by tuple's own C code — that iterates its cells."""

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickles_as_its_corners(self, protocol):
        rng = Range(2, 3, 4, 9)
        # rebuilt through __new__ from the four corners, not from its cells
        assert rng.__reduce_ex__(protocol)[1] == (Range, 2, 3, 4, 9)
        back = pickle.loads(pickle.dumps(rng, protocol))
        assert back == rng and type(back) is Range
        assert back.c1 == 2 and back.r2 == 9

    def test_copies(self):
        rng = Range(2, 3, 4, 9)
        for dup in (copy.copy(rng), copy.deepcopy(rng), copy.deepcopy([rng])[0]):
            assert dup == rng and type(dup) is Range

    def test_equal_to_and_hashed_as_its_corners(self):
        rng = Range(1, 2, 3, 4)
        assert rng == (1, 2, 3, 4) and hash(rng) == hash((1, 2, 3, 4))
        assert rng.as_tuple() == (1, 2, 3, 4) and type(rng.as_tuple()) is tuple
        assert {rng: "x"}[(1, 2, 3, 4)] == "x"

    def test_no_hand_written_value_dunders(self):
        for name in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(Range, name) is getattr(tuple, name), name
        assert "__init__" not in vars(Range) and "__setattr__" not in vars(Range)

    def test_orders_as_its_corners(self):
        ranges = [Range(2, 1, 2, 1), Range(1, 1, 1, 3), Range(1, 1, 1, 2)]
        assert sorted(ranges) == sorted(ranges, key=Range.as_tuple)

    def test_iterates_its_cells(self):
        rng = Range(1, 1, 2, 2)
        assert list(rng) == [(1, 1), (2, 1), (1, 2), (2, 2)] == list(rng.cells())
        first, *_, last = rng
        assert (first, last) == ((1, 1), (2, 2))
        assert (2, 2) in rng and (3, 3) not in rng

    def test_corners_still_checked(self):
        with pytest.raises(ValueError):
            Range(3, 1, 2, 1)
        with pytest.raises(ValueError):
            Range(1, 0, 1, 1)
        with pytest.raises(ValueError):
            Range.cell(0, 4)
