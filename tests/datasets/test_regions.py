"""Unit tests: each region builder produces its intended pattern."""

import random

import pytest

from repro.core.patterns.registry import extended_patterns
from repro.core.taco_graph import TacoGraph, dependencies_column_major
from repro.datasets import RegionSpec, SheetSpec, generate_sheet, regions
from repro.datasets.regions import REGION_BUILDERS, build_region
from repro.sheet.sheet import Sheet


def compress(sheet: Sheet, patterns=None) -> TacoGraph:
    graph = TacoGraph.full() if patterns is None else TacoGraph(patterns=patterns)
    graph.build(dependencies_column_major(sheet))
    return graph


def region_graph(kind: str, size: int = 20, patterns=None) -> TacoGraph:
    sheet = Sheet("r")
    build_region(sheet, kind, 1, 2, size, random.Random(0))
    return compress(sheet, patterns)


class TestRegionPatterns:
    def test_sliding_window_is_rr(self):
        graph = region_graph("sliding_window")
        assert set(graph.pattern_breakdown()) == {"RR"}
        assert len(graph) == 1

    def test_derived_column_is_rr_pair(self):
        graph = region_graph("derived_column")
        breakdown = graph.pattern_breakdown()
        assert set(breakdown) == {"RR"}
        assert breakdown["RR"]["edges"] == 2  # one per referenced column

    def test_running_total_is_fr(self):
        graph = region_graph("running_total")
        assert set(graph.pattern_breakdown()) == {"FR"}

    def test_shrinking_window_is_rf(self):
        graph = region_graph("shrinking_window")
        assert set(graph.pattern_breakdown()) == {"RF"}

    def test_fixed_lookup_has_ff_and_rr(self):
        graph = region_graph("fixed_lookup")
        assert set(graph.pattern_breakdown()) == {"FF", "RR"}

    def test_chain_region_has_chain(self):
        graph = region_graph("chain")
        assert "RR-Chain" in graph.pattern_breakdown()

    def test_fig2_region_mix(self):
        graph = region_graph("fig2", size=30)
        breakdown = graph.pattern_breakdown()
        assert "RR-Chain" in breakdown and "RR" in breakdown
        # Four reference columns compress to a handful of edges.
        assert len(graph) <= 6

    def test_row_wise_region(self):
        graph = region_graph("row_wise", size=15)
        (name,) = set(graph.pattern_breakdown())
        assert name == "RR"
        (edge,) = graph.edges()
        assert edge.dep.is_row_slice

    def test_noise_stays_single(self):
        graph = region_graph("noise", size=25)
        assert set(graph.pattern_breakdown()) == {"Single"}

    def test_gapone_single_by_default(self):
        graph = region_graph("gapone", size=12)
        assert set(graph.pattern_breakdown()) == {"Single"}

    def test_gapone_compresses_with_extension(self):
        graph = region_graph("gapone", size=12, patterns=extended_patterns())
        assert "RR-GapOne" in graph.pattern_breakdown()

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            build_region(Sheet(), "bogus", 1, 1, 5, random.Random(0))

    @pytest.mark.parametrize("kind", sorted(REGION_BUILDERS))
    def test_all_regions_produce_formulas(self, kind):
        sheet = Sheet("r")
        count = build_region(sheet, kind, 1, 2, 10, random.Random(1))
        assert count > 0
        assert sheet.formula_count > 0


def _fill_cell_by_cell(sheet, col, r1, r2, rng):
    for row in range(r1, r2 + 1):
        sheet.set_value((col, row), round(rng.uniform(1.0, 500.0), 2))


@pytest.mark.usefixtures("store")
@pytest.mark.parametrize("size", [1, 2, 9, 40])
def test_data_columns_in_one_call_match_cell_by_cell_writes(size, monkeypatch):
    """A data column lands in one ``Sheet.import_column`` call: the same
    draws in the same order as writing it cell by cell, so the same
    sheet — and the same RNG state for what the region draws next."""
    spec = SheetSpec("S", tuple(RegionSpec(kind, size) for kind in sorted(REGION_BUILDERS)), 3)
    fast = generate_sheet(spec)
    monkeypatch.setattr(regions, "_fill_data_column", _fill_cell_by_cell)
    slow = generate_sheet(spec)

    def state(sheet):
        return [(pos, repr(cell.value), cell.formula_text) for pos, cell in sorted(sheet.items())]

    assert state(fast) == state(slow)
    assert len(fast) == len(slow) and fast.used_range() == slow.used_range()
