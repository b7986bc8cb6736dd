"""Unit tests for the NoComp and NoComp-Calc baselines."""

import pytest

from repro.graphs.base import Budget, DNFError, expand_cells
from repro.graphs.calc import NoCompCalcGraph
from repro.graphs.nocomp import NoCompGraph
from repro.grid.range import Range
from repro.sheet.sheet import Dependency


def dep(prec: str, dep_cell: str) -> Dependency:
    return Dependency(Range.from_a1(prec), Range.from_a1(dep_cell))


@pytest.fixture(params=[NoCompGraph, NoCompCalcGraph], ids=["rtree", "calc"])
def graph(request):
    return request.param()


class TestBuildAndQuery:
    def test_fig3_graph(self, graph):
        graph.add_dependency(dep("A1:A3", "B1"))
        graph.add_dependency(dep("A1:A3", "B2"))
        graph.add_dependency(dep("B1", "C1"))
        graph.add_dependency(dep("B3", "C1"))
        graph.add_dependency(dep("B2:B3", "C2"))
        assert graph.num_edges == 5
        result = expand_cells(graph.find_dependents(Range.from_a1("A1")))
        assert result == {(2, 1), (2, 2), (3, 1), (3, 2)}

    def test_dependents_exclude_unreachable(self, graph):
        graph.add_dependency(dep("A1", "B1"))
        graph.add_dependency(dep("X9", "Y9"))
        result = expand_cells(graph.find_dependents(Range.from_a1("A1")))
        assert result == {(2, 1)}

    def test_precedents(self, graph):
        graph.add_dependency(dep("A1:A3", "B1"))
        graph.add_dependency(dep("B1", "C1"))
        result = expand_cells(graph.find_precedents(Range.from_a1("C1")))
        assert result == {(1, 1), (1, 2), (1, 3), (2, 1)}

    def test_direct_queries(self, graph):
        graph.add_dependency(dep("A1:A3", "B1"))
        graph.add_dependency(dep("B1", "C1"))
        assert [r.to_a1() for r in graph.direct_dependents(Range.from_a1("A2"))] == ["B1"]
        assert [r.to_a1() for r in graph.direct_precedents(Range.from_a1("C1"))] == ["B1"]

    def test_vertex_count(self, graph):
        graph.add_dependency(dep("A1:A3", "B1"))
        graph.add_dependency(dep("A1:A3", "B2"))
        stats = graph.stats()
        assert stats.vertices == 3  # A1:A3, B1, B2
        assert stats.edges == 2


class TestMaintenance:
    def test_clear_removes_edges(self, graph):
        graph.add_dependency(dep("A1", "B1"))
        graph.add_dependency(dep("A2", "B2"))
        graph.clear_cells(Range.from_a1("B1"))
        assert graph.num_edges == 1
        assert graph.find_dependents(Range.from_a1("A1")) == []

    def test_clear_prunes_empty_prec_vertices(self, graph):
        graph.add_dependency(dep("A1:A3", "B1"))
        graph.clear_cells(Range.from_a1("B1"))
        assert graph.stats().vertices == 0
        # Rebuild after full clear must work.
        graph.add_dependency(dep("A1:A3", "B1"))
        assert graph.num_edges == 1

    def test_clear_column_run(self, graph):
        for i in range(1, 20):
            graph.add_dependency(dep(f"A{i}", f"B{i}"))
        graph.clear_cells(Range.from_a1("B5:B15"))
        assert graph.num_edges == 8

    def test_clear_shared_prec_leaves_no_stale_index_entry(self, graph):
        # Two cells referencing *equal but distinct* Range objects: the
        # adjacency key is the first dependency's object, the reverse
        # lists hold each dependency's own.  Clearing in an order where
        # the last-removed dependent carries the non-key object used to
        # miss the identity-matched index delete, leaving a stale prec
        # entry that later made find_dependents raise KeyError.
        graph.add_dependency(dep("A1", "D1"))
        graph.add_dependency(dep("A1", "E1"))
        graph.clear_cells(Range.from_a1("D1:E1"))
        assert graph.num_edges == 0
        assert graph.find_dependents(Range.from_a1("A1")) == []

    def test_clear_shared_prec_after_bulk_build(self, graph):
        graph.build([dep("A1", "D1"), dep("A1", "E1"), dep("B2", "F3")])
        graph.clear_cells(Range.from_a1("D1:E1"))
        assert graph.find_dependents(Range.from_a1("A1")) == []
        assert graph.find_dependents(Range.from_a1("B2")) == [Range.from_a1("F3")]


    def test_bulk_build_is_the_dependency_by_dependency_graph(self, graph):
        """One loop and two bulk loads must leave what ``add_dependency``
        per dependency leaves: same adjacency (order included), same
        vertices under the same keys, same answers — on top of whatever
        the graph already held."""
        first = [dep("A1:A3", "B1"), dep("A1:A3", "B2"), dep("B1", "C1")]
        rest = [dep("B3", "C1"), dep("B2:B3", "C2"), dep("A1:A3", "B1"), dep("C1", "B3")]
        one_by_one = type(graph)()
        for dependency in first + rest:
            one_by_one.add_dependency(dependency)
        graph.build(first)
        graph.build(rest)
        assert graph._adjacency == one_by_one._adjacency
        assert graph._reverse == one_by_one._reverse
        assert graph.num_edges == one_by_one.num_edges == 7
        everything = Range.from_a1("A1:Z9")
        for index in ("_prec_index", "_dep_index"):
            assert sorted(getattr(graph, index).search_items(everything), key=repr) == \
                sorted(getattr(one_by_one, index).search_items(everything), key=repr)
        for probe in ("A1", "B2:B3", "C1"):
            assert expand_cells(graph.find_dependents(Range.from_a1(probe))) == \
                expand_cells(one_by_one.find_dependents(Range.from_a1(probe)))


class TestBudget:
    def test_dnf_on_tiny_budget(self):
        graph = NoCompGraph()
        for i in range(1, 2000):
            graph.add_dependency(dep(f"A{i}", f"A{i + 1}"))
        budget = Budget(0.0, "query", check_every=1)
        with pytest.raises(DNFError):
            graph.find_dependents(Range.from_a1("A1"), budget)

    def test_generous_budget_passes(self):
        graph = NoCompGraph()
        for i in range(1, 100):
            graph.add_dependency(dep(f"A{i}", f"A{i + 1}"))
        budget = Budget(30.0, "query")
        assert len(graph.find_dependents(Range.from_a1("A1"), budget)) == 99
