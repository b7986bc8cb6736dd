"""The pluggable spatial-index protocol.

The paper treats the vertex index as an implementation detail — "an R-Tree
over the vertices" (Sec. VI-A) — but every hot path in this reproduction
(greedy compression probes in Algorithm 2, BFS frontier lookups in
Algorithm 3, maintenance overlap scans) funnels through it.  This module
defines the small surface all of those consumers actually need, so that
backends with different performance profiles (R-Tree, grid buckets,
Calc-style containers, future sorted interval lists) are interchangeable:

* ``insert(key, payload)`` / ``delete(key, payload)`` — dynamic updates;
* ``search(query)`` — all entries whose key overlaps the query range,
  and its leaner variants ``search_keys`` / ``search_payloads`` /
  ``search_items``, which return just that part of each hit;
* ``covering(query)`` — entries whose key fully contains the query;
* ``bulk_load(items)`` — rebuild from a known item set, letting backends
  use packing algorithms (e.g. sort-tile-recursive for the R-Tree);
* ``stats()`` and the ``*_ops`` counters — benchmark instrumentation.

Backends are selected by name through :mod:`repro.spatial.registry`;
consumers hold a :class:`SpatialIndex` and never a concrete class.
"""

from __future__ import annotations

import abc
from collections import namedtuple
from typing import Any, Iterable, Iterator

from ..grid.range import Range

__all__ = ["IndexEntry", "SpatialIndex"]


class IndexEntry(namedtuple("IndexEntry", "key payload", defaults=(None,))):
    """A stored item: an exact range key and its payload — the pair
    ``(key, payload)``, so call sites may unpack it.

    Entries compare by value, which is what a bucket's ``list.remove``
    matches on.  Graph payloads (edges) compare by identity, so only an
    entry's twin could match instead of it — and equal keys sit in the
    same buckets, so removing either leaves the same contents.
    """

    __slots__ = ()


class SpatialIndex(abc.ABC):
    """Abstract spatial index mapping :class:`Range` keys to payloads.

    Duplicate keys are allowed (two edges may share a vertex).  ``delete``
    matches by key equality and, when a payload is given, payload identity.
    The ``search_ops`` / ``insert_ops`` / ``delete_ops`` counters record
    *caller* operations only; internal restructuring work (node splits,
    condense re-inserts, bulk packing) must not inflate them.

    Complexity expectations, ``n`` entries: ``insert``/``delete`` should
    be sub-linear (R-Tree: ``O(log n)`` amortised; grid buckets:
    ``O(key area)``); ``search`` should cost the backend's probe plus
    the number of hits; ``bulk_load`` may take ``O(n log n)`` to buy a
    packed layout — graph builds and large batch commits call it instead
    of incremental inserts/deletes exactly for that trade.  Consumers
    rely on two invariants: an entry inserted and not deleted is
    returned by every overlapping ``search``, and iteration visits each
    stored entry exactly once (the graphs' index-consistency checks are
    built on it).
    """

    backend_name = "abstract"

    def __init__(self):
        self.search_ops = 0
        self.insert_ops = 0
        self.delete_ops = 0
        self.bulk_loads = 0

    # -- required operations -------------------------------------------------

    @abc.abstractmethod
    def insert(self, key: Range, payload: Any = None) -> None:
        """Add one entry."""

    @abc.abstractmethod
    def delete(self, key: Range, payload: Any = None) -> bool:
        """Remove one matching entry; True when something was removed."""

    @abc.abstractmethod
    def search(self, query: Range) -> list[IndexEntry]:
        """All entries whose key overlaps ``query``."""

    def bulk_load(self, items: Iterable[tuple[Range, Any]]) -> None:
        """Replace the whole contents with ``items`` in one packing pass.

        The default drives the bucketed-backend hooks ``_reset`` and
        ``_place``; backends with a real packing algorithm (the R-Tree's
        STR) override the whole method instead.
        """
        self.bulk_loads += 1
        self._reset()
        for key, payload in items:
            self._place(IndexEntry(key, payload))

    def _reset(self) -> None:
        """Hook for the default ``bulk_load``: drop all contents."""
        raise NotImplementedError

    def _place(self, entry: IndexEntry) -> None:
        """Hook for the default ``bulk_load``: register one entry."""
        raise NotImplementedError

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[IndexEntry]:
        """Iterate every stored entry exactly once."""

    # -- shared machinery for slot-registered backends -----------------------

    @staticmethod
    def _match(entries: Iterable[IndexEntry], key: Range, payload: Any) -> "IndexEntry | None":
        """First entry matching ``key`` (and ``payload`` identity, if given)."""
        for entry in entries:
            if entry.key == key and (payload is None or entry.payload is payload):
                return entry
        return None

    @staticmethod
    def _remove_registered(
        table: dict, slots: list, key: Range, payload: Any
    ) -> "IndexEntry | None":
        """Unregister one matching entry from every slot it was placed in.

        An entry is registered in every slot its key overlaps, so the
        first slot identifies the object; empty slots are dropped.
        """
        entry = SpatialIndex._match(table.get(slots[0], ()), key, payload)
        if entry is None:
            return None
        for slot in slots:
            bucket = table[slot]
            bucket.remove(entry)
            if not bucket:
                del table[slot]
        return entry

    # -- derived helpers -----------------------------------------------------

    # The search variants return one part of each hit, in ``search``'s
    # order.  These defaults go through ``search``; a backend that stores
    # no entry objects (the R-Tree) answers them without building any.

    def search_keys(self, query: Range) -> list[Range]:
        return [entry.key for entry in self.search(query)]

    def search_payloads(self, query: Range) -> list[Any]:
        return [entry.payload for entry in self.search(query)]

    def search_items(self, query: Range) -> list[tuple[Range, Any]]:
        return [(entry.key, entry.payload) for entry in self.search(query)]

    def covering(self, query: Range) -> list[IndexEntry]:
        """All entries whose key fully contains ``query``."""
        return [entry for entry in self.search(query) if entry.key.contains(query)]

    def items(self) -> list[tuple[Range, Any]]:
        return [(entry.key, entry.payload) for entry in self]

    # -- instrumentation -----------------------------------------------------

    def op_counts(self) -> dict[str, int]:
        return {
            "search_ops": self.search_ops,
            "insert_ops": self.insert_ops,
            "delete_ops": self.delete_ops,
            "bulk_loads": self.bulk_loads,
        }

    def reset_ops(self) -> None:
        self.search_ops = self.insert_ops = self.delete_ops = 0
        self.bulk_loads = 0

    def stats(self) -> dict[str, int | str]:
        """Backend-specific shape counters plus the op counters."""
        out: dict[str, int | str] = {"backend": self.backend_name, "size": len(self)}
        out.update(self.op_counts())
        return out
