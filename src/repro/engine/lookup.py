"""Lookaside lookup indexes over the columnar value planes.

``VLOOKUP``/``HLOOKUP``/``MATCH``/``XLOOKUP`` are linear scans in the
function library — O(table) per call, so a column of N lookups against
an M-row table costs O(N*M).  This module gives the engine a per-sheet
cache of **vector indexes**: for a 1-D lookup vector (a table's first
column, a MATCH range) it builds, lazily on first probe,

- a hash map ``(class, normalized value) -> (first offset, last offset)``
  answering exact matches in O(1), and
- per-type-class sorted ``(value, offset)`` lists answering the
  approximate sides (largest entry <= needle / smallest entry >= needle,
  first or last occurrence on ties) by binary search in O(log M).

The index implements *exactly* the class-filtered reference-scan
contract in :mod:`repro.formula.functions` — matching is confined to the
needle's type class, blanks/errors/NaN never match — so on arbitrary
unsorted, mixed-type data the probe is bit-identical to the linear scan
it replaces.

Invalidation is pull-based and piggybacks on the columnar store's write
counters: every index records the store ``epoch`` (bumped by structural
edits / plane installs) and the ``version`` of each backing
column (bumped per content write) at build time, and a probe rebuilds
when either moved.  K buffered writes inside a
:class:`~repro.engine.batch.BatchEditSession` or deferred-maintenance
window bump versions K times but probe nothing until the post-commit
recalculation — so a batch pays **one** rebuild per touched vector, not
one per edit, with no subscription bookkeeping on the write path beyond
an integer increment.

The engine attaches a :class:`LookupProbe` to its resolver
(``SheetResolver.lookup_probe``) unless built with
``lookup_indexes=False``; interpreter-mode engines and bare evaluators
keep the attribute ``None`` and stay on the reference scan, which keeps
them valid differential oracles.

A strip of one lookup template is one strip kernel,
:func:`evaluate_lookup_run`, under :mod:`repro.engine.vectorized`'s
contract.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right

from ..formula.errors import NA_ERROR
from ..formula.functions import _CLS_BOOL, _CLS_NUM, _CLS_TEXT, lookup_entry_key
from ..sheet.columnar import TAG_BOOL, TAG_EMPTY, TAG_NUMBER, TAG_STRING

__all__ = [
    "LookupCache",
    "LookupProbe",
    "VectorIndex",
    "attach_probe",
    "evaluate_lookup_run",
]


#: Per-sheet cap on cached vector indexes (FIFO eviction) — a runaway
#: workload probing thousands of distinct ranges must not hoard memory.
MAX_CACHED_INDEXES = 256


#: What a blank needle is looked up as (``lookup_needle_key``).
_BLANK_NEEDLE = (_CLS_NUM, 0.0)


class VectorIndex:
    """Hash + sorted-list index over one 1-D vector of a columnar store.

    Offsets are 0-based positions along the vector, matching the
    reference scan's enumeration order.  ``find`` mirrors
    ``repro.formula.functions._scan_vector``: ``side`` in ``"eq"``/
    ``"le"``/``"ge"``, ``tie`` in ``"first"``/``"last"``.
    """

    __slots__ = ("_exact", "_sorted", "_hi", "_epoch", "_versions")

    def __init__(self, exact, by_class, length, epoch, versions):
        self._exact = exact
        self._sorted = by_class
        self._hi = length  # offset sentinel: strictly above any real offset
        self._epoch = epoch
        self._versions = versions

    @classmethod
    def build(cls, store, bounds: tuple[int, int, int, int]) -> "VectorIndex":
        c1, r1, c2, r2 = bounds
        exact: dict = {}
        by_class: dict = {}
        if c1 == c2:
            length = r2 - r1 + 1
            versions = ((c1, store.column_version(c1)),)
            entries = cls._column_entries(store, c1, r1, length)
        else:
            length = c2 - c1 + 1
            versions = tuple(
                (col, store.column_version(col)) for col in range(c1, c2 + 1)
            )
            read = store.read_value
            entries = (
                (k, lookup_entry_key(read(c1 + k, r1))) for k in range(length)
            )
        for offset, key in entries:
            if key is None:
                continue
            hit = exact.get(key)
            exact[key] = (offset, offset) if hit is None else (hit[0], offset)
            by_class.setdefault(key[0], []).append((key[1], offset))
        for bucket in by_class.values():
            bucket.sort()
        return cls(exact, by_class, length, store.epoch, versions)

    @staticmethod
    def _column_entries(store, col, r1, length):
        """(offset, entry key) pairs of a column vector, reading the raw
        planes directly and clamping to the column's physical length —
        rows past it are EMPTY, which never match."""
        buffers = store.column_buffers(col)
        if buffers is None:
            return
        values, tags = buffers
        side = store.ensure_column(col, 1).side
        limit = min(length, len(tags) - (r1 - 1))
        for k in range(limit):
            i = r1 - 1 + k
            tag = tags[i]
            if tag == TAG_EMPTY:
                continue
            if tag == TAG_NUMBER:
                value = values[i]
            elif tag == TAG_BOOL:
                value = values[i] != 0.0
            else:
                value = side[i]
            yield k, lookup_entry_key(value)

    def fresh(self, store) -> bool:
        if store.epoch != self._epoch:
            return False
        column_version = store.column_version
        for col, version in self._versions:
            if column_version(col) != version:
                return False
        return True

    def find(self, key, side: str, tie: str) -> "int | None":
        if side == "eq":
            hit = self._exact.get(key)
            if hit is None:
                return None
            return hit[0] if tie == "first" else hit[1]
        cls, norm = key
        entries = self._sorted.get(cls)
        if not entries:
            return None
        if side == "le":
            i = bisect_right(entries, (norm, self._hi))
            if i == 0:
                return None
            if tie == "last":
                return entries[i - 1][1]
            # first offset within the winning value's run
            return entries[bisect_left(entries, (entries[i - 1][0], -1))][1]
        # side == "ge"
        i = bisect_left(entries, (norm, -1))
        if i == len(entries):
            return None
        if tie == "first":
            return entries[i][1]
        return entries[bisect_right(entries, (entries[i][0], self._hi)) - 1][1]


class LookupCache:
    """Per-sheet store of vector indexes, keyed by range bounds.

    Build-once under a lock.  Nothing in this package probes one sheet
    from two threads (residents are processes with private caches), so
    the lock is insurance for a host that shares a sheet across its own
    threads: the first prober builds and the rest reuse.  Staleness is
    impossible even under racy version bumps — versions are monotonic, so
    any write concurrent with a build leaves the recorded stamp behind
    the column's, and the next probe rebuilds.
    """

    __slots__ = ("_indexes", "_lock")

    def __init__(self) -> None:
        self._indexes: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._indexes)

    def get_or_build(self, store, bounds) -> tuple[VectorIndex, bool]:
        index = self._indexes.get(bounds)
        if index is not None and index.fresh(store):
            return index, False
        with self._lock:
            index = self._indexes.get(bounds)
            if index is not None and index.fresh(store):
                return index, False
            while len(self._indexes) >= MAX_CACHED_INDEXES:
                self._indexes.pop(next(iter(self._indexes)))
            index = VectorIndex.build(store, bounds)
            self._indexes[bounds] = index
        return index, True

    def drop_all(self) -> None:
        with self._lock:
            self._indexes.clear()


class LookupProbe:
    """The resolver-side hook the lookup builtins duck-type for.

    ``probe(sheet_name, c1, r1, c2, r2)`` returns a fresh
    :class:`VectorIndex` for that vector, or None when the vector does
    not qualify (foreign sheet, two-dimensional) — in which case the
    caller falls back to the reference linear scan.  Each served probe
    counts one ``lookup_index_hits``; hits are deterministic (eligibility
    depends only on geometry), so the counter-snapshot identity between
    serial and resident execution extends to them.  Builds are
    environment-dependent (process workers rebuild privately) and
    tracked outside the identity set, like ``serial_fallbacks``.
    """

    __slots__ = ("_sheet_name", "_store", "_cache", "_stats")

    def __init__(self, sheet, stats):
        self._sheet_name = sheet.name
        self._store = sheet._cells
        self._cache = _sheet_cache(sheet)
        self._stats = stats

    def __call__(self, sheet_name, c1, r1, c2, r2):
        if sheet_name is not None and sheet_name != self._sheet_name:
            return None
        if c1 != c2 and r1 != r2:
            return None
        index, built = self._cache.get_or_build(self._store, (c1, r1, c2, r2))
        stats = self._stats
        stats.lookup_index_hits += 1
        if built:
            stats.lookup_index_builds += 1
        return index


def evaluate_lookup_run(engine, node, leave) -> int:
    """The lookup kernel: the ``l`` strip ``node`` against one index,
    resolved once, its needle column read by slice, one ``find`` and one
    result read per lane — what the closure would make of it.  A needle
    that is an error, above row 1, or nothing the index keys (NaN, an
    object) is left, and so is every lane without a probe.  The needles
    lie outside the strip (the planner sees to it), so lanes run
    top-down.  Counts one hit per lane served, as the closure's probe
    would have."""
    probe = engine.cell_evaluator.resolver.lookup_probe
    spec, col, rows = node.template.shape, node.col, node.rows
    if probe is None:
        leave(node.lanes())
        return 0
    offset = spec.needle_row.value
    off_top = min(max(1 - (rows[0] + offset), 0), len(rows))
    if off_top:
        leave(rows[:off_top])               # a needle above row 1: #REF!
        rows = rows[off_top:]
        if not rows:
            return 0
    store = probe._store
    c1, r1 = spec.vector[:2]
    side, tie, across, vertical = spec.side, spec.tie, spec.across, spec.vertical
    index, built = probe._cache.get_or_build(store, spec.vector)
    find = index.find
    read = store.read_value
    write = store._write_raw
    column = store.ensure_column(col, rows[-1])
    # The needle column by slice; rows it ends short of are blank.
    needles = spec.needle_col.at(col)
    values, tags = store.read_band(needles, rows[0] + offset, rows[-1] + offset)
    tags.extend(bytes(len(rows) - len(tags)))
    texts = store.ensure_column(needles, 1).side if tags.count(TAG_STRING) else None
    served = 0
    for k, row in enumerate(rows):
        tag = tags[k]
        if tag == TAG_NUMBER:
            x = values[k]
            if x != x:
                leave((row,))
                continue
            key = (_CLS_NUM, x)
        elif tag == TAG_EMPTY:
            key = _BLANK_NEEDLE
        elif tag == TAG_BOOL:
            key = (_CLS_BOOL, values[k] != 0.0)
        elif tag == TAG_STRING:
            key = (_CLS_TEXT, texts[row + offset - 1].lower())
        else:
            leave((row,))
            continue
        hit = find(key, side, tie)
        if hit is None:
            value = NA_ERROR
        elif across is None:
            value = float(hit + 1)
        elif vertical:
            value = read(c1 + across, r1 + hit)
        else:
            value = read(c1 + hit, r1 + across)
        write(column, row - 1, value)
        served += 1
    stats = probe._stats
    stats.lookup_index_hits += served
    if built:
        stats.lookup_index_builds += 1
    return served


def _sheet_cache(sheet) -> LookupCache:
    cache = getattr(sheet, "_lookup_cache", None)
    if cache is None:
        cache = sheet._lookup_cache = LookupCache()
    return cache


def attach_probe(cell_evaluator, sheet) -> None:
    """Arm ``cell_evaluator``'s resolver with a lookaside probe, built
    from and stamped with ``sheet``'s value planes.  The evaluator's
    interpreter shares the same resolver object, so both evaluation
    tiers of one engine see the probe.
    """
    cell_evaluator.resolver.lookup_probe = LookupProbe(sheet, cell_evaluator.stats)
