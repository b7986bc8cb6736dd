"""Unit tests for querying the compressed graph (Algorithm 3)."""

from helpers import (
    assert_same_dependents,
    assert_same_precedents,
    build_fig2_sheet,
    build_graph_pair,
    build_mixed_sheet,
)

from repro.core.query import find_dependents_multi
from repro.core.taco_graph import TacoGraph, build_from_sheet
from repro.graphs.base import expand_cells, total_cells
from repro.grid.range import Range
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Dependency, Sheet


def dep(prec: str, dep_cell: str) -> Dependency:
    return Dependency(Range.from_a1(prec), Range.from_a1(dep_cell))


class TestSmallGraphs:
    def test_paper_fig3_dependents(self):
        # Fig. 3: B1=SUM(A1:A3), B2=SUM(A1:A3), C1=B1+B3, C2=AVG(B2:B3).
        graph = TacoGraph.full()
        graph.add_dependency(dep("A1:A3", "B1"))
        graph.add_dependency(dep("A1:A3", "B2"))
        graph.add_dependency(dep("B1", "C1"))
        graph.add_dependency(dep("B3", "C1"))
        graph.add_dependency(dep("B2:B3", "C2"))
        result = expand_cells(graph.find_dependents(Range.from_a1("A1")))
        assert result == {(2, 1), (2, 2), (3, 1), (3, 2)}  # B1, B2, C1, C2

    def test_no_dependents(self):
        graph = TacoGraph.full()
        graph.add_dependency(dep("A1", "B1"))
        assert graph.find_dependents(Range.from_a1("Z9")) == []

    def test_query_range_spanning_edges(self):
        graph = TacoGraph.full()
        graph.add_dependency(dep("A1", "B1"))
        graph.add_dependency(dep("A9", "C9"))
        result = expand_cells(graph.find_dependents(Range.from_a1("A1:A9")))
        assert result == {(2, 1), (3, 9)}

    def test_precedents_transitive(self):
        graph = TacoGraph.full()
        graph.add_dependency(dep("A1:A3", "B1"))
        graph.add_dependency(dep("B1", "C1"))
        result = expand_cells(graph.find_precedents(Range.from_a1("C1")))
        assert result == {(1, 1), (1, 2), (1, 3), (2, 1)}

    def test_partial_overlap_with_compressed_edge(self):
        graph = TacoGraph.full()
        for i in range(1, 11):
            graph.add_dependency(dep(f"A{i}:B{i + 1}", f"C{i}"))
        # A5 only hits windows of C4 and C5.
        result = expand_cells(graph.find_dependents(Range.from_a1("A5")))
        assert result == {(3, 4), (3, 5)}

    def test_dependents_count_chain(self):
        graph = TacoGraph.full()
        for i in range(1, 100):
            graph.add_dependency(dep(f"A{i}", f"A{i + 1}"))
        assert total_cells(graph.find_dependents(Range.from_a1("A1"))) == 99
        assert total_cells(graph.find_dependents(Range.from_a1("A50"))) == 50

    def test_scattered_seeds_keep_the_visited_set_compact(self, monkeypatch):
        """Seeds scattered up a column, each dirtying a growing tail of
        an FR run (B) and of the RR run over it (C): every fresh piece
        of B joins the member it was cut from, so B stays one member and
        later arrivals are cut against it alone.  Without the joins the
        same query makes 2 200 subtractions into 86 members."""
        sheet = Sheet()
        for row in range(1, 301):
            sheet.set_value((1, row), float(row))
        fill_formula_column(sheet, 2, 1, 300, "=SUM(A$1:A1)")
        fill_formula_column(sheet, 3, 1, 300, "=B1*2")
        graph = build_from_sheet(sheet)
        subtract, calls = Range.subtract, []

        def counting(rng, other):
            calls.append(rng)
            return subtract(rng, other)

        monkeypatch.setattr(Range, "subtract", counting)
        got = find_dependents_multi(graph, [Range.cell(1, row) for row in range(300, 0, -7)])
        assert expand_cells(got) == expand_cells([Range(2, 6, 3, 300)])
        assert total_cells(got) == 590  # disjoint
        assert Range(2, 6, 2, 300) in got and len(got) == 44
        assert len(calls) == 42

    def test_chain_edge_accessed_constant_times(self):
        graph = TacoGraph.full()
        for i in range(1, 200):
            graph.add_dependency(dep(f"A{i}", f"A{i + 1}"))
        graph.query_stats.edge_accesses = 0
        graph.find_dependents(Range.from_a1("A1"))
        # One chain edge, accessed O(1) times (vs O(n) under plain RR).
        assert graph.query_stats.edge_accesses <= 4


class TestEquivalenceWithNoComp:
    def test_fig2_sheet_all_probes(self):
        sheet = build_fig2_sheet(rows=40)
        taco, nocomp = build_graph_pair(sheet)
        for probe in ("A1", "A10", "M5", "N2", "N39", "M1:M40", "A5:A8"):
            assert_same_dependents(taco, nocomp, Range.from_a1(probe))

    def test_fig2_sheet_precedents(self):
        sheet = build_fig2_sheet(rows=40)
        taco, nocomp = build_graph_pair(sheet)
        for probe in ("N10", "N2", "N40", "N5:N8"):
            assert_same_precedents(taco, nocomp, Range.from_a1(probe))

    def test_mixed_sheet_dependents(self):
        sheet = build_mixed_sheet(seed=3)
        taco, nocomp = build_graph_pair(sheet)
        for probe in ("A1", "A15", "B30", "B1:B5", "G1", "A1:B35"):
            assert_same_dependents(taco, nocomp, Range.from_a1(probe))

    def test_mixed_sheet_precedents(self):
        sheet = build_mixed_sheet(seed=3)
        taco, nocomp = build_graph_pair(sheet)
        for probe in ("C10", "D20", "E5", "F12", "G25"):
            assert_same_precedents(taco, nocomp, Range.from_a1(probe))

    def test_multi_seed_matches_per_seed_nocomp(self):
        sheet = build_mixed_sheet(seed=4)
        taco, nocomp = build_graph_pair(sheet)
        seeds = [Range.from_a1(a1) for a1 in ("A30", "A3", "B17", "A12", "B2", "G4")]
        want = set()
        for seed in seeds:
            want |= expand_cells(nocomp.find_dependents(seed))
        got = find_dependents_multi(taco, seeds)
        assert expand_cells(got) == want
        assert total_cells(got) == len(want)  # members are disjoint

    def test_decompression_is_lossless(self):
        sheet = build_mixed_sheet(seed=5)
        taco, nocomp = build_graph_pair(sheet)
        raw = {(p.to_a1(), f"{c[0]}_{c[1]}") for p, c in nocomp.edges()}
        reconstructed = {
            (d.prec.to_a1(), f"{d.dep.c1}_{d.dep.r1}") for d in taco.decompress()
        }
        assert reconstructed == raw
