"""Unit tests for the lookaside lookup indexes and their invalidation."""

import random

import pytest

from repro.engine import lookup
from repro.engine.recalc import RecalcEngine
from repro.formula.functions import (
    _scan_vector,
    lookup_entry_key,
    lookup_needle_key,
)
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

from helpers import assert_same_values, clone_sheet, engine_for

TABLE_ROWS = 40


def build_lookup_sheet(rows: int = TABLE_ROWS) -> Sheet:
    rng = random.Random(11)
    sheet = Sheet("L")
    keys = [float(k) for k in rng.sample(range(1000), rows)]
    for r, key in enumerate(keys, start=1):
        sheet.set_value((1, r), key)                    # A: shuffled keys
        sheet.set_value((2, r), key * 10)               # B: payloads
        sheet.set_value((4, r), keys[(r * 7) % rows])   # D: needles (all hit)
    fill_formula_column(sheet, 5, 1, rows,
                        f"=VLOOKUP(D1,$A$1:$B${rows},2,FALSE)")
    fill_formula_column(sheet, 6, 1, rows, f"=MATCH(D1,$A$1:$A${rows},1)")
    return sheet


class TestProbeAttachment:
    def test_auto_columnar_attaches(self):
        engine = RecalcEngine(build_lookup_sheet())
        assert engine.cell_evaluator.resolver.lookup_probe is not None

    def test_interpreter_engine_stays_scan_only(self):
        engine = RecalcEngine(build_lookup_sheet(), evaluation="interpreter")
        assert engine.cell_evaluator.resolver.lookup_probe is None

    def test_explicit_flag_wins(self):
        engine = RecalcEngine(build_lookup_sheet(), lookup_indexes=False)
        assert engine.cell_evaluator.resolver.lookup_probe is None

    def test_env_toggle_disables(self):
        """No environment variable switches indexes: ``lookup_indexes=``
        does, for a plan executor as for an engine."""
        engine = RecalcEngine.plan_executor(build_lookup_sheet(), lookup_indexes=False)
        assert engine.cell_evaluator.resolver.lookup_probe is None

    @pytest.mark.parametrize("dispatch", [{"workers": 2}, {"shards": 2}])
    def test_dispatched_plans_keep_the_engines_setting(self, dispatch):
        """Thread shadows and residents are told the engine's setting: a
        ``lookup_indexes=False`` engine indexes nowhere it dispatches."""
        from repro.engine import shutdown_pools

        try:
            engine = RecalcEngine(build_lookup_sheet(), lookup_indexes=False,
                                  parallel_min_dirty=1, **dispatch)
            engine.recalculate_all()
            stats = engine.eval_stats
            assert stats.parallel_dispatches + stats.shard_bootstraps > 0
            assert stats.lookup_index_hits == 0
        finally:
            shutdown_pools()

    def test_a_short_vector_is_indexed_too(self):
        engine = RecalcEngine(build_lookup_sheet(rows=8))
        engine.recalculate_all()
        assert engine.eval_stats.lookup_index_hits == 2 * 8


def serial_engine(sheet: Sheet) -> RecalcEngine:
    """Build-accounting tests must evaluate in-process: worker processes
    count their own index builds, and only the geometry-deterministic
    cell counters fold back (pinning shards=0 keeps these assertions
    meaningful under the CI matrix's REPRO_RECALC_SHARDS=4)."""
    return RecalcEngine(sheet, shards=0)


class TestInvalidation:
    def test_full_recalc_builds_each_vector_once(self):
        engine = serial_engine(build_lookup_sheet())
        engine.recalculate_all()
        stats = engine.eval_stats
        # Two distinct vectors — the VLOOKUP first column and the MATCH
        # range are the same bounds, so one build serves both families...
        assert stats.lookup_index_builds == 1
        assert stats.lookup_index_hits == 2 * TABLE_ROWS

    def test_point_edit_rebuilds_once(self):
        engine = serial_engine(build_lookup_sheet())
        engine.recalculate_all()
        before = engine.eval_stats.lookup_index_builds
        engine.set_value((1, 5), 77.5)     # table key column: stale
        assert engine.eval_stats.lookup_index_builds == before + 1

    def test_unrelated_edit_keeps_index(self):
        engine = serial_engine(build_lookup_sheet())
        engine.recalculate_all()
        before = engine.eval_stats.lookup_index_builds
        engine.set_value((4, 5), 77.5)     # needle column: index untouched
        assert engine.eval_stats.lookup_index_builds == before

    def test_batch_pays_one_rebuild(self):
        engine = serial_engine(build_lookup_sheet())
        engine.recalculate_all()
        before = engine.eval_stats.lookup_index_builds
        with engine.begin_batch() as batch:
            for r in range(1, 11):         # ten writes into the indexed vector
                batch.set_value((1, r), float(2000 + r))
        assert engine.eval_stats.lookup_index_builds == before + 1

    def test_structural_edit_drops_cache_and_stays_correct(self):
        engine = serial_engine(build_lookup_sheet())
        engine.recalculate_all()
        stale = set(engine.sheet._lookup_cache._indexes)
        assert stale
        engine.insert_rows(3, 2)
        # The pre-edit vectors were dropped whole (the post-edit recalc
        # builds fresh indexes over the rewritten, longer bounds).
        assert not stale & set(engine.sheet._lookup_cache._indexes)
        reference = clone_sheet(engine.sheet)
        engine_for(reference, "interpreter").recalculate_all()
        assert_same_values(engine.sheet, reference)

    def test_cache_eviction_is_bounded(self, monkeypatch):
        monkeypatch.setattr(lookup, "MAX_CACHED_INDEXES", 2)
        sheet = Sheet("L")
        for r in range(1, 9):
            for c in range(1, 5):
                sheet.set_value((c, r), float(c * 10 + r))
        for i, c in enumerate("ABCD"):
            sheet.set_formula((6 + i, 1), f"=MATCH(3,{c}1:{c}8,1)")
        engine = serial_engine(sheet)
        engine.recalculate_all()
        assert len(sheet._lookup_cache) <= 2
        assert engine.eval_stats.lookup_index_hits == 4


class TestVectorIndexContract:
    """Randomized direct comparison: VectorIndex.find ≡ _scan_vector for
    every (side, tie) the builtins can issue, on mixed unsorted data."""

    def test_find_matches_reference_scan(self):
        rng = random.Random(5)
        pool = [None, True, False, "ab", "AB", "zz", 0.0, -3.5, 7.0,
                7.0, 12.25, float("nan")]
        sheet = Sheet("V")
        entries = [rng.choice(pool) for _ in range(64)]
        for r, value in enumerate(entries, start=1):
            sheet.set_value((1, r), value)
        index = lookup.VectorIndex.build(sheet._cells, (1, 1, 1, 64))
        needles = pool + [5.0, "a", "zzz", -100.0, 100.0]
        for needle in needles:
            key = lookup_needle_key(needle)
            if key is None:
                continue
            for side in ("eq", "le", "ge"):
                for tie in ("first", "last"):
                    want = _scan_vector(entries, key, side=side, tie=tie)
                    got = index.find(key, side, tie)
                    assert got == want, (needle, side, tie)

    def test_row_vector_indexing(self):
        sheet = Sheet("V")
        for c in range(1, 41):
            sheet.set_value((c, 2), float((c * 13) % 40))
        sheet.set_formula((1, 5), "=MATCH(26,A2:AN2,0)")
        engine = RecalcEngine(sheet)
        engine.recalculate_all()
        assert engine.eval_stats.lookup_index_hits == 1
        assert sheet.get_value((1, 5)) == 2.0    # 2*13=26 at offset 1

    def test_entry_key_classes(self):
        assert lookup_entry_key(True) == (2, True)
        assert lookup_entry_key(3) == (0, 3.0)
        assert lookup_entry_key("Ab") == (1, "ab")
        assert lookup_entry_key(None) is None
        assert lookup_entry_key(float("nan")) is None
        assert lookup_needle_key(None) == (0, 0.0)
