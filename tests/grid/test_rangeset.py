"""Unit tests for RangeSet coverage queries."""

from hypothesis import given
from hypothesis import strategies as st

from repro.grid.range import Range
from repro.grid.rangeset import RangeSet


class TestBasics:
    def test_empty(self):
        rs = RangeSet()
        assert len(rs) == 0
        assert not rs.overlaps(Range.cell(1, 1))
        assert rs.subtract_covered(Range(1, 1, 2, 2)) == [Range(1, 1, 2, 2)]

    def test_add_and_overlap(self):
        rs = RangeSet([Range.from_a1("B2:C4")])
        assert rs.overlaps(Range.from_a1("C4:D5"))
        assert not rs.overlaps(Range.from_a1("D5"))
        assert rs.covers_cell(2, 2)

    def test_covers(self):
        rs = RangeSet([Range.from_a1("A1:B2"), Range.from_a1("C1:D2")])
        assert rs.covers(Range.from_a1("A1:D2"))
        assert not rs.covers(Range.from_a1("A1:E2"))

    def test_subtract_covered_splits(self):
        rs = RangeSet([Range.from_a1("A3:A5")])
        pieces = rs.subtract_covered(Range.from_a1("A1:A8"))
        assert sorted(p.to_a1() for p in pieces) == ["A1:A2", "A6:A8"]

    def test_add_new_returns_fresh_only(self):
        rs = RangeSet()
        first = rs.add_new(Range.from_a1("A1:A5"))
        assert first == [Range.from_a1("A1:A5")]
        second = rs.add_new(Range.from_a1("A4:A8"))
        assert second == [Range.from_a1("A6:A8")]
        assert rs.covers(Range.from_a1("A1:A8"))

    def test_add_new_fully_covered(self):
        rs = RangeSet([Range.from_a1("A1:B9")])
        assert rs.add_new(Range.from_a1("A2:B3")) == []

    def test_cell_count_of_disjoint_members(self):
        rs = RangeSet()
        rs.add_new(Range.from_a1("A1:A5"))
        rs.add_new(Range.from_a1("A3:B8"))
        assert rs.cell_count == len(rs.expand_cells())


@st.composite
def small_ranges(draw):
    c1 = draw(st.integers(1, 12))
    r1 = draw(st.integers(1, 12))
    return Range(c1, r1, draw(st.integers(c1, c1 + 4)), draw(st.integers(r1, r1 + 4)))


@given(st.lists(small_ranges(), max_size=8), small_ranges())
def test_subtract_covered_matches_brute_force(members, probe):
    rs = RangeSet()
    for member in members:
        rs.add(member)
    pieces = rs.subtract_covered(probe)
    covered = set()
    for member in members:
        covered |= set(member.cells())
    expected = set(probe.cells()) - covered
    got = set()
    for piece in pieces:
        got |= set(piece.cells())
    assert got == expected


@given(st.lists(small_ranges(), min_size=1, max_size=10))
def test_add_new_members_are_disjoint(ranges_list):
    """The visited-set invariant: members disjoint, the same cells as the
    inputs, no more members than fresh pieces handed out — and each
    call hands out exactly the cells it newly covered."""
    rs = RangeSet()
    covered: set = set()
    handed_out = 0
    for rng in ranges_list:
        fresh = rs.add_new(rng)
        handed_out += len(fresh)
        fresh_cells = [cell for piece in fresh for cell in piece.cells()]
        assert len(fresh_cells) == len(set(fresh_cells))
        assert set(fresh_cells) == set(rng.cells()) - covered
        covered |= set(fresh_cells)
    members = rs.ranges
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            assert not a.overlaps(b)
    assert rs.expand_cells() == covered
    assert rs.cell_count == len(covered)
    assert len(rs) <= handed_out


class TestCompactMembers:
    def test_scattered_column_stays_one_member(self):
        rs = RangeSet()
        for a1 in ("A3", "A7", "A5"):
            rs.add_new(Range.from_a1(a1))
        assert sorted(rs.add_new(Range.from_a1("A1:A9"))) == [
            Range.from_a1(a1) for a1 in ("A1:A2", "A4", "A6", "A8:A9")
        ]
        assert rs.ranges == [Range.from_a1("A1:A9")]
        assert not rs.subtract_covered(Range.from_a1("A1:A9"))

    def test_rows_join_across_columns(self):
        rs = RangeSet([Range.from_a1("B2:B4")])
        rs.add_new(Range.from_a1("A2:C4"))
        assert rs.ranges == [Range.from_a1("A2:C4")]

    def test_partial_edges_do_not_join(self):
        rs = RangeSet([Range.from_a1("B2:B3")])
        rs.add_new(Range.from_a1("B3:C4"))
        assert sorted(rs.ranges) == sorted(Range.from_a1(a1) for a1 in ("B2:B3", "B4:C4", "C3"))

    def test_disjoint_arrival_is_stored_as_is(self):
        rs = RangeSet([Range.from_a1("A1:A5")])
        assert rs.add_new(Range.from_a1("A6:A9")) == [Range.from_a1("A6:A9")]
        assert len(rs) == 2  # adjacency alone is not searched for
