"""Unit tests for the Guttman R-Tree."""

import random

import pytest

from repro.grid.range import Range
from repro.spatial.rtree import RTree


def brute_force_overlaps(items, query):
    return {payload for key, payload in items if key.overlaps(query)}


class TestBasics:
    def test_empty_search(self):
        tree = RTree()
        assert tree.search(Range(1, 1, 5, 5)) == []
        assert len(tree) == 0

    def test_single_insert_and_hit(self):
        tree = RTree()
        tree.insert(Range.from_a1("B2:C4"), "x")
        hits = tree.search(Range.from_a1("C4"))
        assert [entry.payload for entry in hits] == ["x"]
        assert tree.search(Range.from_a1("D5")) == []

    def test_min_max_entries_guard(self):
        with pytest.raises(ValueError):
            RTree(max_entries=3)

    def test_duplicate_keys_allowed(self):
        tree = RTree()
        key = Range.from_a1("A1:A5")
        tree.insert(key, "first")
        tree.insert(key, "second")
        assert sorted(tree.search_payloads(Range.from_a1("A3"))) == ["first", "second"]

    def test_covering(self):
        tree = RTree()
        tree.insert(Range.from_a1("A1:D8"), "big")
        tree.insert(Range.from_a1("B2"), "cell")
        covering = [entry.payload for entry in tree.covering(Range.from_a1("B2:C3"))]
        assert covering == ["big"]

    def test_iteration(self):
        tree = RTree()
        for i in range(1, 30):
            tree.insert(Range.cell(i, i), i)
        assert sorted(entry.payload for entry in tree) == list(range(1, 30))


class TestSplitsAndStructure:
    def test_many_inserts_keep_invariants(self):
        tree = RTree()
        rng = random.Random(42)
        items = []
        for i in range(300):
            c1 = rng.randrange(1, 200)
            r1 = rng.randrange(1, 200)
            key = Range(c1, r1, c1 + rng.randrange(5), r1 + rng.randrange(5))
            tree.insert(key, i)
            items.append((key, i))
        tree.check_invariants()
        assert len(tree) == 300
        assert tree.depth() >= 2
        for _ in range(30):
            qc = rng.randrange(1, 200)
            qr = rng.randrange(1, 200)
            query = Range(qc, qr, qc + 8, qr + 8)
            assert set(tree.search_payloads(query)) == brute_force_overlaps(items, query)

    def test_column_run_workload(self):
        # Vertex keys in formula graphs are mostly column runs.
        tree = RTree()
        items = []
        for col in range(1, 8):
            for start in range(1, 100, 7):
                key = Range(col, start, col, start + 6)
                tree.insert(key, (col, start))
                items.append((key, (col, start)))
        tree.check_invariants()
        query = Range(3, 10, 4, 40)
        assert set(tree.search_payloads(query)) == brute_force_overlaps(items, query)


class TestDelete:
    def test_delete_specific_payload(self):
        tree = RTree()
        key = Range.from_a1("A1:A3")
        tree.insert(key, "a")
        tree.insert(key, "b")
        assert tree.delete(key, "a")
        assert tree.search_payloads(Range.from_a1("A2")) == ["b"]
        assert len(tree) == 1

    def test_delete_missing_returns_false(self):
        tree = RTree()
        tree.insert(Range.from_a1("A1"), "a")
        assert not tree.delete(Range.from_a1("B2"), "a")
        assert not tree.delete(Range.from_a1("A1"), "other")

    def test_delete_then_search_consistent(self):
        tree = RTree()
        rng = random.Random(7)
        items = []
        for i in range(200):
            c1 = rng.randrange(1, 100)
            r1 = rng.randrange(1, 100)
            key = Range(c1, r1, c1 + rng.randrange(4), r1 + rng.randrange(4))
            tree.insert(key, i)
            items.append((key, i))
        rng.shuffle(items)
        removed, remaining = items[:120], items[120:]
        for key, payload in removed:
            assert tree.delete(key, payload)
        tree.check_invariants()
        assert len(tree) == len(remaining)
        for _ in range(25):
            qc, qr = rng.randrange(1, 100), rng.randrange(1, 100)
            query = Range(qc, qr, qc + 10, qr + 10)
            assert set(tree.search_payloads(query)) == brute_force_overlaps(remaining, query)

    def test_delete_everything(self):
        tree = RTree()
        keys = [Range.cell(i, 1) for i in range(1, 60)]
        for i, key in enumerate(keys):
            tree.insert(key, i)
        for i, key in enumerate(keys):
            assert tree.delete(key, i)
        assert len(tree) == 0
        assert tree.search(Range(1, 1, 100, 100)) == []
        # The tree must remain usable after being emptied.
        tree.insert(Range.cell(5, 5), "again")
        assert tree.search_payloads(Range.cell(5, 5)) == ["again"]

    def test_condense_reinserts_do_not_skew_instrumentation(self):
        """Internal restructuring must not count as caller operations."""
        tree = RTree()
        items = [(Range.cell(col, row), (col, row))
                 for col in range(1, 15) for row in range(1, 15)]
        for key, payload in items:
            tree.insert(key, payload)
        assert tree.insert_ops == len(items)
        # Deleting most entries forces underfull leaves and condense
        # re-inserts of the orphaned survivors.
        victims = items[: len(items) - 10]
        for key, payload in victims:
            assert tree.delete(key, payload)
        tree.check_invariants()
        assert tree.insert_ops == len(items), "condense leaked into insert_ops"
        assert tree.delete_ops == len(victims)
        assert len(tree) == 10


class TestBulkLoad:
    def test_empty_and_tiny_loads(self):
        tree = RTree()
        tree.bulk_load([])
        assert len(tree) == 0
        assert tree.search(Range(1, 1, 50, 50)) == []
        tree.bulk_load([(Range.cell(2, 2), "a")])
        assert tree.search_payloads(Range.cell(2, 2)) == ["a"]
        tree.check_invariants()

    def test_str_pack_matches_brute_force(self):
        rng = random.Random(11)
        items = []
        for i in range(500):
            c1 = rng.randrange(1, 150)
            r1 = rng.randrange(1, 500)
            items.append((Range(c1, r1, c1 + rng.randrange(4), r1 + rng.randrange(20)), i))
        tree = RTree()
        tree.bulk_load(items)
        tree.check_invariants()
        assert len(tree) == len(items)
        for _ in range(40):
            qc, qr = rng.randrange(1, 150), rng.randrange(1, 500)
            query = Range(qc, qr, qc + 10, qr + 30)
            assert set(tree.search_payloads(query)) == brute_force_overlaps(items, query)

    def test_str_pack_is_tighter_than_incremental(self):
        # A packed tree over a column-major vertex stream should not be
        # deeper than the incrementally grown one.
        items = [(Range(col, row, col, row + 4), (col, row))
                 for col in range(1, 12) for row in range(1, 400, 5)]
        incremental = RTree()
        for key, payload in items:
            incremental.insert(key, payload)
        packed = RTree()
        packed.bulk_load(items)
        packed.check_invariants()
        assert packed.depth() <= incremental.depth()
        assert packed.stats()["nodes"] <= incremental.stats()["nodes"]

    def test_the_packed_tree_is_pinned(self):
        """Leaf grouping, every box, depth and stats on a fixed input —
        ties among equal centres included — as the STR pack laid them out
        before its sort was decorated: same tree, cheaper to build."""
        import hashlib

        rng = random.Random(5)
        items = []
        for i in range(700):
            c, r = rng.randrange(1, 40), rng.randrange(1, 400)
            items.append((Range(c, r, c + rng.randrange(0, 3), r + rng.randrange(0, 12)), i))
        items += [(Range(7, 7, 7, 7), 1000 + i) for i in range(20)]

        def shape(node):
            below = (tuple(node.payloads) if node.leaf
                     else tuple(shape(child) for child in node.children))
            return (node.c1, node.r1, node.c2, node.r2, below)

        tree = RTree()
        tree.bulk_load(items)
        tree.check_invariants()
        assert tree.depth() == 4
        assert tree.stats() == {
            "backend": "rtree", "size": 720, "search_ops": 0, "insert_ops": 0,
            "delete_ops": 0, "bulk_loads": 1, "depth": 4, "nodes": 105, "leaves": 90,
        }
        assert hashlib.md5(repr(shape(tree._root)).encode()).hexdigest() == \
            "52986b1da2f25ba298e21c6a6b7d7a9c"

    def test_bulk_load_replaces_existing_contents(self):
        tree = RTree()
        tree.insert(Range.cell(1, 1), "old")
        tree.bulk_load([(Range.cell(9, 9), "new")])
        assert tree.search_payloads(Range(1, 1, 20, 20)) == ["new"]
        assert len(tree) == 1
        assert tree.bulk_loads == 1
        assert tree.insert_ops == 1  # only the caller's original insert
