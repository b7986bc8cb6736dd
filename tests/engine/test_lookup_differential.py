"""Differential suite: indexed lookups ≡ reference scans ≡ interpreter.

The lookaside indexes (:mod:`repro.engine.lookup`) promise bit-identical
results to the linear reference scans they replace, on arbitrary
unsorted mixed-type data, through every mutation path that can
invalidate them.  Three engines evaluate every program:

* auto / indexes on  — hash + binary-search probes;
* auto / indexes off — same tiers, reference scans;
* interpreter / indexes off — the tree-walking oracle.

Every 1-D vector is indexed, these 20-row ones included, and each suite
asserts the probes actually fired — a silently scan-only "differential"
test would prove nothing.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.spatial.registry import available_indexes

from helpers import (
    LOOKUP_TEMPLATES,
    assert_same_values,
    engine_for,
    realize_program,
    sheet_programs,
)

BACKENDS = available_indexes()

ROWS = 20  # LOOKUP_TEMPLATES hard-code their table bounds to 20 rows


def engines_for(program, index: str):
    """One engine per lane: indexed, scan, oracle."""
    return [
        engine_for(realize_program(program), mode, index, lookup_indexes=indexes)
        for mode, indexes in (("auto", True), ("auto", False), ("interpreter", False))
    ]


def assert_lanes_identical(lanes):
    reference = lanes[-1].sheet
    for engine in lanes[:-1]:
        assert_same_values(engine.sheet, reference)
    assert lanes[0].eval_stats.lookup_index_hits > 0, "probes never fired"
    assert lanes[1].eval_stats.lookup_index_hits == 0, "scan lane was indexed"


@pytest.mark.parametrize("index", BACKENDS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_full_recalc_identical(index, data):
    program = data.draw(sheet_programs(rows=ROWS, templates=LOOKUP_TEMPLATES))
    lanes = engines_for(program, index)
    for engine in lanes:
        engine.recalculate_all()
    assert_lanes_identical(lanes)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_point_edits_identical(data):
    program = data.draw(sheet_programs(rows=ROWS, templates=LOOKUP_TEMPLATES))
    lanes = engines_for(program, "rtree")
    for engine in lanes:
        engine.recalculate_all()
    for _ in range(data.draw(st.integers(1, 4))):
        row = data.draw(st.integers(1, ROWS))
        col = data.draw(st.integers(1, 2))
        value = data.draw(st.one_of(
            st.integers(-40, 40).map(float),
            st.sampled_from(["txt", "zzz", True, None]),
        ))
        for engine in lanes:
            engine.set_value((col, row), value)
        assert_lanes_identical(lanes)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batched_edits_identical(data):
    program = data.draw(sheet_programs(rows=ROWS, templates=LOOKUP_TEMPLATES))
    lanes = engines_for(program, "rtree")
    for engine in lanes:
        engine.recalculate_all()
    edits = [
        (data.draw(st.integers(1, 2)), data.draw(st.integers(1, ROWS)),
         float(data.draw(st.integers(-40, 40))))
        for _ in range(data.draw(st.integers(2, 6)))
    ]
    for engine in lanes:
        with engine.begin_batch() as batch:
            for col, row, value in edits:
                batch.set_value((col, row), value)
    assert_lanes_identical(lanes)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_structural_edits_identical(data):
    program = data.draw(sheet_programs(rows=ROWS, templates=LOOKUP_TEMPLATES))
    lanes = engines_for(program, "rtree")
    for engine in lanes:
        engine.recalculate_all()
    op = data.draw(st.sampled_from(["insert_rows", "delete_rows"]))
    row = data.draw(st.integers(2, ROWS - 1))
    for engine in lanes:
        getattr(engine, op)(row)
    reference = lanes[-1].sheet
    for engine in lanes[:-1]:
        assert_same_values(engine.sheet, reference)
    # Rewritten tables may shrink below usefulness, but a follow-up edit
    # must still be identical through the rebuilt (or dropped) indexes.
    for engine in lanes:
        engine.set_value((2, 1), -7.0)
    for engine in lanes[:-1]:
        assert_same_values(engine.sheet, reference)


#: Key columns that are themselves strips — elementwise sweeps and window
#: kernels, which write their column as one band — and lookups over them.
COMPUTED_KEYS = ("=B1*2", "=B1*B1-3", "=SUM($B$1:B1)", "=MAX(B1:B3)", "=COUNT($A$1:A1)")
OVER_COMPUTED_KEYS = (
    "=MATCH(B1,$C$1:$C$20,0)",
    "=MATCH(B1,$C$1:$C$20,1)",
    "=MATCH(A1,$C$1:$C$20,-1)",
    "=VLOOKUP(B1,$C$1:$C$20,1)",
    "=VLOOKUP(A1,$B$1:$C$20,2,FALSE)",
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_computed_key_column_then_batch_identical(data):
    """A value batch recomputes the key column in bulk; the index over it
    has to notice (a band write moves the column's version)."""
    values, _ = data.draw(sheet_programs(rows=ROWS, templates=LOOKUP_TEMPLATES, max_fills=1))
    fills = [(3, 1, ROWS, data.draw(st.sampled_from(COMPUTED_KEYS)))]
    for i in range(data.draw(st.integers(1, 3))):
        fills.append((4 + i, data.draw(st.integers(1, 3)), data.draw(st.integers(ROWS - 3, ROWS)),
                      data.draw(st.sampled_from(OVER_COMPUTED_KEYS))))
    lanes = engines_for((values, fills), "rtree")
    for engine in lanes:
        engine.recalculate_all()
    assert_lanes_identical(lanes)
    for _ in range(data.draw(st.integers(1, 2))):
        # B pasted over whole (every key lane is dirty: strips, not
        # cells), a few of A's entries with it.
        edits = [(2, row, float(data.draw(st.integers(-4, 40)))) for row in range(1, ROWS + 1)]
        edits += [
            (1, data.draw(st.integers(1, ROWS)), float(data.draw(st.integers(-4, 40))))
            for _ in range(data.draw(st.integers(0, 4)))
        ]
        for engine in lanes:
            with engine.begin_batch() as batch:
                for col, row, value in edits:
                    batch.set_value((col, row), value)
        assert_lanes_identical(lanes)
