"""The index contract the graphs and the BFS visited set rely on.

* Every search variant (``search``, ``search_items``, ``search_payloads``,
  ``search_keys``) and ``covering`` agree with brute force and with each
  other, on every backend, across random insert / delete / bulk_load
  sequences.
* The R-Tree stores no per-entry object: leaves hold a key column and a
  payload column, and an :class:`IndexEntry` exists only when a caller
  asks ``search`` or iteration for one.
* No structure holds a reference cycle, so a dropped graph or visited
  set is freed by reference counting and leaves the cyclic collector
  nothing to find.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.taco_graph import build_from_sheet, dependencies_column_major
from repro.graphs.nocomp import NoCompGraph
from repro.grid.range import Range
from repro.grid.rangeset import RangeSet
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet
from repro.spatial import IndexEntry
from repro.spatial.rtree import RTree, _Node

from test_index_differential import BACKENDS, FACTORIES, boxes

# One step of a workload: insert a box, delete a live item, or repack
# everything live through bulk_load.
STEPS = st.one_of(
    st.tuples(st.just("insert"), boxes()),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("bulk"), st.just(None)),
)


def _by_payload(pairs):
    return sorted(pairs, key=lambda pair: pair[1])


@pytest.mark.parametrize("backend", BACKENDS)
@given(steps=st.lists(STEPS, max_size=60), queries=st.lists(boxes(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_search_variants_agree_with_brute_force_and_each_other(backend, steps, queries):
    index = FACTORIES[backend]()
    live: list[tuple[Range, int]] = []
    for n, (op, arg) in enumerate(steps):
        if op == "insert":
            index.insert(arg, n)
            live.append((arg, n))
        elif op == "delete" and live:
            key, payload = live.pop(arg % len(live))
            assert index.delete(key, payload)
        elif op == "bulk":
            index.bulk_load(iter(live))
    if backend == "rtree":
        index.check_invariants()
    assert len(index) == len(live)
    assert _by_payload(index.items()) == _by_payload(live)
    for query in queries:
        entries = index.search(query)
        assert all(type(entry) is IndexEntry for entry in entries)
        pairs = [(entry.key, entry.payload) for entry in entries]
        assert _by_payload(pairs) == _by_payload(
            [(key, payload) for key, payload in live if key.overlaps(query)]
        )
        # the variants are parts of search's answer, in its order
        assert index.search_items(query) == pairs
        assert index.search_payloads(query) == [payload for _, payload in pairs]
        assert index.search_keys(query) == [key for key, _ in pairs]
        assert _by_payload(index.covering(query)) == _by_payload(
            [(key, payload) for key, payload in live if key.contains(query)]
        )


def _reachable_entries(tree: RTree) -> list:
    """Every IndexEntry reachable from ``tree`` through its nodes and
    their containers (classes and modules are not followed)."""
    found, seen, stack = [], set(), [tree]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, IndexEntry):
            found.append(obj)
        elif isinstance(obj, (RTree, _Node, list, tuple, dict)):
            stack.extend(gc.get_referents(obj))
    return found


def test_no_index_entry_is_stored():
    items = [(Range(c, r, c, r + 2), f"p{c}.{r}") for c in range(1, 9) for r in range(1, 90, 3)]
    tree = RTree()
    tree.bulk_load(iter(items))
    assert _reachable_entries(tree) == []
    for c in range(20, 26):
        for r in range(1, 40):
            tree.insert(Range.cell(c, r), (c, r))
    for key, payload in items[::3]:
        assert tree.delete(key, payload)
    tree.check_invariants()
    assert tree.depth() >= 3
    assert _reachable_entries(tree) == []
    # entries are built for the callers that ask for them, and only then
    assert tree.search(Range(1, 1, 30, 100))
    assert _reachable_entries(tree) == []


def _cyclic_garbage_after_dropping(build) -> int:
    """Objects the cycle collector finds once ``build()``'s result is dropped."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        made = build()
        assert made is not None
        del made
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def _sheet() -> Sheet:
    sheet = Sheet("S")
    for row in range(1, 401):
        sheet.set_value((1, row), float(row))
        sheet.set_value((2, row), float(row % 7))
    fill_formula_column(sheet, 3, 1, 400, "=A1+B1")
    fill_formula_column(sheet, 4, 1, 400, "=SUM($A$1:A1)")
    fill_formula_column(sheet, 5, 2, 400, "=E1+C2")
    for row in range(1, 400, 9):  # scattered, uncompressible cells
        sheet.set_formula((6, row), f"=C{row}*D{row + 1}")
    return sheet


@pytest.mark.parametrize("index", BACKENDS)
def test_dropped_graphs_leave_no_cyclic_garbage(index):
    sheet = _sheet()
    deps = dependencies_column_major(sheet)

    def nocomp():
        graph = NoCompGraph(index=index)
        graph.build(deps)
        graph.find_precedents(Range.cell(5, 400))
        return graph

    assert _cyclic_garbage_after_dropping(lambda: build_from_sheet(sheet, index=index)) == 0
    assert _cyclic_garbage_after_dropping(nocomp) == 0


@pytest.mark.parametrize("index", BACKENDS)
def test_a_dropped_visited_set_leaves_no_cyclic_garbage(index):
    def visited():
        members = RangeSet(index=index)
        for i in range(39):  # no two share a whole edge: 39 members
            members.add_new(Range(1 + i % 3 * 2, 1 + i * 3, 1 + i % 3 * 2, 2 + i * 3))
        assert len(members) == 39
        return members

    assert _cyclic_garbage_after_dropping(visited) == 0
