"""A Guttman R-Tree over spreadsheet ranges.

The paper indexes the vertices of both the compressed and uncompressed
formula graphs with an R-Tree so that, given an input range, the vertices
overlapping it can be found quickly (Sec. II-A, IV).  This is a classic
dynamic R-Tree (Guttman, SIGMOD 1984) with quadratic split, specialised to
integer cell rectangles: entry keys are :class:`~repro.grid.Range` values
and every entry carries an arbitrary payload (in the graphs, an edge).

Supported operations match the paper's complexity assumptions: search is
linear in the worst case but logarithmic in practice, insert and delete are
logarithmic.  Duplicate keys are allowed (two edges may share a vertex).
Bulk construction uses sort-tile-recursive (STR) packing, which produces a
tighter tree than one-at-a-time insertion of a known vertex set.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, Iterator

from ..grid.range import Range
from .base import IndexEntry, SpatialIndex

__all__ = ["RTree", "RTreeEntry"]

DEFAULT_MAX_ENTRIES = 8

# Historical name; the entries an R-Tree search builds are plain index entries.
RTreeEntry = IndexEntry

# (key, payload) -> entry, in C: how search and iteration build entries.
_entry = partial(tuple.__new__, IndexEntry)


class _Node:
    """An R-Tree node and its bounding box.

    A leaf holds its items as two parallel columns — ``keys[i]`` is the
    range ``payloads[i]`` was inserted under — and no per-item object; an
    inner node holds only ``children`` (the slots of the other kind stay
    unset).  One class for both kinds keeps every attribute read in the
    search loop monomorphic.  No node points at its parent: the
    operations that walk upwards carry their root-to-leaf path, so a tree
    holds no reference cycle and a dropped one is freed by reference
    counting alone.
    """

    __slots__ = ("leaf", "children", "keys", "payloads", "c1", "r1", "c2", "r2")

    def __init__(self, contents: list, payloads: "list | None" = None):
        """A leaf over ``contents`` keys and their ``payloads``, or, with
        no payloads, an inner node over ``contents`` children."""
        self.leaf = payloads is not None
        if self.leaf:
            self.keys: list[Range] = contents
            self.payloads: list = payloads
        else:
            self.children: list[_Node] = contents
        self.recompute_mbr()

    # -- bounding-box helpers ---------------------------------------------

    def mbr_is_empty(self) -> bool:
        return self.c2 < self.c1

    def include(self, c1: int, r1: int, c2: int, r2: int) -> None:
        if self.mbr_is_empty():
            self.c1, self.r1, self.c2, self.r2 = c1, r1, c2, r2
            return
        if c1 < self.c1:
            self.c1 = c1
        if r1 < self.r1:
            self.r1 = r1
        if c2 > self.c2:
            self.c2 = c2
        if r2 > self.r2:
            self.r2 = r2

    def recompute_mbr(self) -> None:
        # Boxes as (c1, r1, c2, r2) tuples read by index: a leaf's keys
        # already are (a Range is the tuple of its corners).  An empty
        # node gets the degenerate box (1, 1, 0, 0).
        if self.leaf:
            boxes = self.keys
        else:
            boxes = [(child.c1, child.r1, child.c2, child.r2) for child in self.children]
        c1 = r1 = 1
        c2 = r2 = 0
        if boxes:
            c1, r1, c2, r2 = boxes[0][:]
            for box in boxes:
                if box[0] < c1:
                    c1 = box[0]
                if box[1] < r1:
                    r1 = box[1]
                if box[2] > c2:
                    c2 = box[2]
                if box[3] > r2:
                    r2 = box[3]
        self.c1, self.r1, self.c2, self.r2 = c1, r1, c2, r2

    def overlaps(self, c1: int, r1: int, c2: int, r2: int) -> bool:
        return (
            not self.mbr_is_empty()
            and self.c1 <= c2
            and c1 <= self.c2
            and self.r1 <= r2
            and r1 <= self.r2
        )

    def area(self) -> int:
        if self.mbr_is_empty():
            return 0
        return (self.c2 - self.c1 + 1) * (self.r2 - self.r1 + 1)

    def count(self) -> int:
        return len(self.keys) if self.leaf else len(self.children)


def _empty_leaf() -> _Node:
    return _Node([], [])


def _even_chunks(seq: list, capacity: int) -> list[list]:
    """Split ``seq`` into ceil(len/capacity) contiguous chunks of even size.

    Balanced sizes (they differ by at most one) keep every chunk at or
    above half capacity whenever more than one chunk is produced, which
    is what the packed tree's minimum-fill invariant needs.
    """
    count = -(-len(seq) // capacity)
    base, rem = divmod(len(seq), count)
    out: list[list] = []
    start = 0
    for i in range(count):
        size = base + (1 if i < rem else 0)
        out.append(seq[start : start + size])
        start += size
    return out


def _enlargement(node: _Node, c1: int, r1: int, c2: int, r2: int) -> int:
    """Area growth of ``node``'s MBR if it absorbed the given box."""
    if node.mbr_is_empty():
        return (c2 - c1 + 1) * (r2 - r1 + 1)
    nc1 = c1 if c1 < node.c1 else node.c1
    nr1 = r1 if r1 < node.r1 else node.r1
    nc2 = c2 if c2 > node.c2 else node.c2
    nr2 = r2 if r2 > node.r2 else node.r2
    return (nc2 - nc1 + 1) * (nr2 - nr1 + 1) - node.area()


class RTree(SpatialIndex):
    """Dynamic R-Tree mapping :class:`Range` keys to payloads."""

    backend_name = "rtree"

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        super().__init__()
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self._max = max_entries
        self._min = max(2, max_entries // 2)
        self._root = _empty_leaf()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- search ------------------------------------------------------------

    # The search variants share one descent with the node and key
    # overlap tests inlined (an empty node's box, (1, 1, 0, 0), overlaps
    # no range; keys are (c1, r1, c2, r2), read by index); each builds
    # only what its caller asked for.  A leaf's keys are walked alone and
    # a payload fetched by position on a hit: cheaper than zipping the
    # two columns, since most keys a search visits miss.

    def search(self, query: Range) -> list[RTreeEntry]:
        """All entries whose key overlaps ``query``, built on request."""
        return list(map(_entry, self.search_items(query)))

    def search_items(self, query: Range) -> list[tuple[Range, Any]]:
        self.search_ops += 1
        qc1, qr1, qc2, qr2 = query[:]
        out: list[tuple[Range, Any]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not (node.c1 <= qc2 and qc1 <= node.c2 and node.r1 <= qr2 and qr1 <= node.r2):
                continue
            if node.leaf:
                payloads, i = node.payloads, 0
                for key in node.keys:
                    if key[0] <= qc2 and qc1 <= key[2] and key[1] <= qr2 and qr1 <= key[3]:
                        out.append((key, payloads[i]))
                    i += 1
            else:
                stack.extend(node.children)
        return out

    def search_payloads(self, query: Range) -> list[Any]:
        self.search_ops += 1
        qc1, qr1, qc2, qr2 = query[:]
        out: list[Any] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not (node.c1 <= qc2 and qc1 <= node.c2 and node.r1 <= qr2 and qr1 <= node.r2):
                continue
            if node.leaf:
                payloads, i = node.payloads, 0
                for key in node.keys:
                    if key[0] <= qc2 and qc1 <= key[2] and key[1] <= qr2 and qr1 <= key[3]:
                        out.append(payloads[i])
                    i += 1
            else:
                stack.extend(node.children)
        return out

    def search_keys(self, query: Range) -> list[Range]:
        self.search_ops += 1
        qc1, qr1, qc2, qr2 = query[:]
        out: list[Range] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not (node.c1 <= qc2 and qc1 <= node.c2 and node.r1 <= qr2 and qr1 <= node.r2):
                continue
            if node.leaf:
                for key in node.keys:
                    if key[0] <= qc2 and qc1 <= key[2] and key[1] <= qr2 and qr1 <= key[3]:
                        out.append(key)
            else:
                stack.extend(node.children)
        return out

    def __iter__(self) -> Iterator[RTreeEntry]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                yield from map(_entry, zip(node.keys, node.payloads))
            else:
                stack.extend(node.children)

    # -- insert ------------------------------------------------------------

    def insert(self, key: Range, payload: Any = None) -> None:
        self.insert_ops += 1
        self._size += 1
        self._insert_item(key, payload)

    def _insert_item(self, key: Range, payload: Any) -> None:
        """Place an item without touching counters; also the re-insert
        path used by :meth:`_condense`, so ``insert_ops`` and ``_size``
        reflect caller operations only."""
        path = self._choose_path(key)
        c1, r1, c2, r2 = key[:]
        for node in path:
            node.include(c1, r1, c2, r2)
        leaf = path[-1]
        leaf.keys.append(key)
        leaf.payloads.append(payload)
        if len(leaf.keys) > self._max:
            self._split(path)

    def _choose_path(self, key: Range) -> list[_Node]:
        """Root-to-leaf path of the least-enlargement descent for ``key``."""
        c1, r1, c2, r2 = key[:]
        node = self._root
        path = [node]
        while not node.leaf:
            best = None
            best_growth = None
            best_area = None
            for child in node.children:
                growth = _enlargement(child, c1, r1, c2, r2)
                area = child.area()
                if (
                    best is None
                    or growth < best_growth
                    or (growth == best_growth and area < best_area)
                ):
                    best, best_growth, best_area = child, growth, area
            node = best
            path.append(node)
        return path

    def _split(self, path: list[_Node]) -> None:
        """Quadratic split of the overfull node ending ``path``,
        propagating upwards.  A split regroups a node's contents without
        changing their union, so no ancestor's box moves."""
        node = path[-1]
        if node.leaf:
            boxes = node.keys
        else:
            boxes = [(c.c1, c.r1, c.c2, c.r2) for c in node.children]

        seed_a, seed_b = self._pick_seeds(boxes)
        group_a, group_b = [seed_a], [seed_b]
        box_a, box_b = list(boxes[seed_a][:]), list(boxes[seed_b][:])
        remaining = [i for i in range(len(boxes)) if i not in (seed_a, seed_b)]

        def grow(box: list[int], other: tuple[int, int, int, int]) -> int:
            nc1 = min(box[0], other[0])
            nr1 = min(box[1], other[1])
            nc2 = max(box[2], other[2])
            nr2 = max(box[3], other[3])
            return (nc2 - nc1 + 1) * (nr2 - nr1 + 1) - (box[2] - box[0] + 1) * (
                box[3] - box[1] + 1
            )

        def absorb(box: list[int], other: tuple[int, int, int, int]) -> None:
            box[0] = min(box[0], other[0])
            box[1] = min(box[1], other[1])
            box[2] = max(box[2], other[2])
            box[3] = max(box[3], other[3])

        while remaining:
            # Force-assign when one group must take all the rest to reach
            # the minimum fill factor.
            if len(group_a) + len(remaining) == self._min:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) == self._min:
                group_b.extend(remaining)
                break
            # Pick the item with the largest preference for one group.
            best_i = None
            best_diff = -1
            for i in remaining:
                d1, d2 = grow(box_a, boxes[i]), grow(box_b, boxes[i])
                diff = abs(d1 - d2)
                if diff > best_diff:
                    best_i, best_diff, best_pair = i, diff, (d1, d2)
            remaining.remove(best_i)
            if best_pair[0] <= best_pair[1]:
                group_a.append(best_i)
                absorb(box_a, boxes[best_i])
            else:
                group_b.append(best_i)
                absorb(box_b, boxes[best_i])

        if node.leaf:
            keys, payloads = node.keys, node.payloads
            sibling = _Node([keys[i] for i in group_b], [payloads[i] for i in group_b])
            node.keys = [keys[i] for i in group_a]
            node.payloads = [payloads[i] for i in group_a]
        else:
            children = node.children
            sibling = _Node([children[i] for i in group_b])
            node.children = [children[i] for i in group_a]
        node.recompute_mbr()

        if len(path) == 1:
            self._root = _Node([node, sibling])
            return
        parent = path[-2]
        parent.children.append(sibling)
        if len(parent.children) > self._max:
            self._split(path[:-1])

    @staticmethod
    def _pick_seeds(boxes: list[tuple[int, int, int, int]]) -> tuple[int, int]:
        """The pair of boxes wasting the most area when grouped together."""
        worst = (-1, 0, 1)
        n = len(boxes)
        for i in range(n):
            bi = boxes[i]
            area_i = (bi[2] - bi[0] + 1) * (bi[3] - bi[1] + 1)
            for j in range(i + 1, n):
                bj = boxes[j]
                c1 = min(bi[0], bj[0])
                r1 = min(bi[1], bj[1])
                c2 = max(bi[2], bj[2])
                r2 = max(bi[3], bj[3])
                waste = (
                    (c2 - c1 + 1) * (r2 - r1 + 1)
                    - area_i
                    - (bj[2] - bj[0] + 1) * (bj[3] - bj[1] + 1)
                )
                if waste > worst[0]:
                    worst = (waste, i, j)
        return worst[1], worst[2]

    # -- delete ------------------------------------------------------------

    def delete(self, key: Range, payload: Any = None) -> bool:
        """Remove one entry with the given key (and payload, if provided).

        Returns True when an entry was removed.  Underfull leaves are
        condensed by reinserting their survivors, per Guttman.
        """
        self.delete_ops += 1
        path, index = self._find_item(key, payload)
        if path is None:
            return False
        leaf = path[-1]
        del leaf.keys[index]
        del leaf.payloads[index]
        self._size -= 1
        self._condense(path)
        return True

    def _find_item(self, key: Range, payload: Any) -> tuple[list[_Node] | None, int]:
        """Root-to-leaf path to the first matching item and its index in
        that leaf (depth-first, last child first)."""
        c1, r1, c2, r2 = key[:]
        path: list[_Node] = []
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            del path[depth:]
            path.append(node)
            if not node.overlaps(c1, r1, c2, r2):
                continue
            if node.leaf:
                payloads = node.payloads
                for i, stored in enumerate(node.keys):
                    if stored == key and (payload is None or payloads[i] is payload):
                        return path, i
            else:
                stack.extend((child, depth + 1) for child in node.children)
        return None, -1

    def _condense(self, path: list[_Node]) -> None:
        """Guttman's CondenseTree along ``path``: prune underfull nodes
        bottom-up, tighten the boxes of the rest, re-place the orphans."""
        orphan_keys: list[Range] = []
        orphan_payloads: list = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            if node.count() < self._min:
                path[depth - 1].children.remove(node)
                # Collect all leaf items under the pruned subtree.
                stack = [node]
                while stack:
                    sub = stack.pop()
                    if sub.leaf:
                        orphan_keys.extend(sub.keys)
                        orphan_payloads.extend(sub.payloads)
                    else:
                        stack.extend(sub.children)
            else:
                node.recompute_mbr()
        self._root.recompute_mbr()
        if not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        # Orphans never left the tree from the caller's point of view:
        # re-place them through the internal path so neither ``_size`` nor
        # ``insert_ops`` records the restructuring.
        for key, payload in zip(orphan_keys, orphan_payloads):
            self._insert_item(key, payload)

    # -- bulk loading --------------------------------------------------------

    def bulk_load(self, items: Iterable[tuple[Range, Any]]) -> None:
        """Replace the whole contents using sort-tile-recursive packing.

        STR (Leutenegger et al., ICDE 1997): sort by centre column, cut
        into vertical slabs, sort each slab by centre row, and cut into
        full nodes; repeat level by level.  The result is a near-fully
        packed tree, much tighter than the one incremental insertion
        leaves behind — ideal after a column-major build where every
        vertex arrived one at a time.  The items are read into a key and
        a payload column in one loop; leaves take their slices of both.
        """
        self.bulk_loads += 1
        keys: list[Range] = []
        payloads: list = []
        add_key, add_payload = keys.append, payloads.append
        for key, payload in items:
            add_key(key)
            add_payload(payload)
        self._size = len(keys)
        level: list[_Node] = [
            _Node([keys[i] for i in chunk], [payloads[i] for i in chunk])
            for chunk in self._str_tiles(
                len(keys), [k[0] + k[2] for k in keys], [k[1] + k[3] for k in keys]
            )
        ]
        while len(level) > 1:
            level = [
                _Node([level[i] for i in chunk])
                for chunk in self._str_tiles(
                    len(level), [n.c1 + n.c2 for n in level], [n.r1 + n.r2 for n in level]
                )
            ]
        self._root = level[0] if level else _empty_leaf()

    def _str_tiles(self, count: int, centre_col: list, centre_row: list) -> list[list[int]]:
        """Partition the indices ``0..count-1`` into node-sized groups by
        the STR recipe.

        ``centre_col[i]`` / ``centre_row[i]`` are twice the centre of item
        ``i``'s box, as plain integers, and the indices are sorted on them
        (ties stay in input order) — no key tuple, nothing for the
        collector to track.  Groups are evenly sized, which keeps every
        group within ``[self._min, self._max]`` whenever more than one is
        needed.
        """
        if not count:
            return []
        slabs = [list(range(count))]
        if count > self._max:
            node_count = -(-count // self._max)
            slab_count = max(1, round(node_count**0.5))
            slabs[0].sort(key=centre_col.__getitem__)
            slabs = _even_chunks(slabs[0], -(-count // slab_count))
            for slab in slabs:
                slab.sort(key=centre_row.__getitem__)
        return [chunk for slab in slabs for chunk in _even_chunks(slab, self._max)]

    # -- diagnostics ---------------------------------------------------------

    def depth(self) -> int:
        depth = 1
        node = self._root
        while not node.leaf:
            depth += 1
            node = node.children[0]
        return depth

    def stats(self) -> "dict[str, int | str]":
        out = super().stats()
        nodes = leaves = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes += 1
            if node.leaf:
                leaves += 1
            else:
                stack.extend(node.children)
        out.update(depth=self.depth(), nodes=nodes, leaves=leaves)
        return out

    def check_invariants(self) -> None:
        """Validate structure; used by the property tests."""
        count = self._check_node(self._root, is_root=True)
        assert count == self._size, f"size mismatch: counted {count}, recorded {self._size}"

    def _check_node(self, node: _Node, is_root: bool = False) -> int:
        if not is_root:
            assert self._min <= node.count() <= self._max, (
                f"node fill {node.count()} outside [{self._min}, {self._max}]"
            )
        if node.leaf:
            assert len(node.keys) == len(node.payloads), "leaf key/payload columns differ"
            for key in node.keys:
                assert node.c1 <= key.c1 and key.c2 <= node.c2
                assert node.r1 <= key.r1 and key.r2 <= node.r2
            return len(node.keys)
        total = 0
        for child in node.children:
            assert node.c1 <= child.c1 and child.c2 <= node.c2
            assert node.r1 <= child.r1 and child.r2 <= node.r2
            total += self._check_node(child)
        return total
