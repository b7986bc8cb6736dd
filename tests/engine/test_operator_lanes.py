"""The operator table's lane forms against its scalar forms.

Every ``OPERATORS`` entry that has a lane form is what the sweep and the
scan run in place of the compiled closure, so on plain floats the two
must agree bit for bit; where the scalar form raises ``#DIV/0!`` the
lane form is never asked: both kernels' zero handling takes that lane
out and leaves it to the closure.
"""

import math
import struct
from array import array
from itertools import product

import pytest

from repro.engine import vectorized
from repro.engine.recalc import RecalcEngine
from repro.formula.errors import DIV0
from repro.formula.functions import OPERATORS
from repro.formula.values import ErrorSignal
from repro.sheet.autofill import fill_formula_column
from repro.sheet.sheet import Sheet

from helpers import assert_same_values

OPERANDS = (0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, 2.5, 3.0)
LANED = [op for op in OPERATORS.values() if op.lane is not None]


def bits(value) -> bytes:
    return struct.pack("d", value)


def test_only_power_and_concatenation_have_no_lane():
    assert {op.symbol for op in OPERATORS.values() if op.lane is None} == {"^", "&"}
    assert len(OPERATORS) == 15


@pytest.mark.parametrize("op", LANED, ids=lambda op: f"{op.symbol}/{op.arity}")
def test_lane_is_bit_identical_to_scalar(op):
    for operands in product(OPERANDS, repeat=op.arity):
        try:
            want = op.scalar(*operands)
        except ErrorSignal as signal:
            assert signal.error is DIV0 and op.divides and operands[1] == 0, operands
            continue
        assert bits(op.lane(*operands)) == bits(want), operands


@pytest.mark.parametrize("zero", (0.0, -0.0))
def test_both_kernels_take_a_zero_denominator_lane_out(zero):
    divides = [op for op in LANED if op.divides]
    assert [op.symbol for op in divides] == ["/"]
    for op in divides:
        with pytest.raises(ErrorSignal):
            op.scalar(1.0, zero)
    # The sweep masks the lane and gives it a harmless denominator.
    masked = bytearray(3)
    assert vectorized._nonzero([2.5, zero, 3.0], masked) == [2.5, 1.0, 3.0]
    assert masked == b"\x00\x01\x00"
    masked = bytearray(3)
    assert vectorized._nonzero(zero, masked) == 1.0
    assert masked == b"\x01\x01\x01"
    # The scan stops before it.
    limit = [3]
    assert list(vectorized._up_to_zero(array("d", [2.5, zero, 3.0]), limit)) == [2.5]
    assert limit == [1]
    limit = [3]
    assert vectorized._up_to_zero(zero, limit) == [] and limit == [0]


def test_signed_zero_denominators_match_the_interpreter():
    """A sweep (``=A1/B1``) and a scan (``=C1/B2``) over ±0.0
    denominators: the zero lanes are the closure's ``#DIV/0!``."""
    def build():
        s = Sheet("S")
        for r in range(1, 41):
            s.set_value((1, r), float(r) * 1.5)
            s.set_value((2, r), (0.0, -0.0, 2.0, 5e-324)[r % 4])
        s.set_value((3, 1), 7.0)
        fill_formula_column(s, 4, 1, 40, "=A1/B1")
        fill_formula_column(s, 3, 2, 40, "=C1/B2")
        return s

    subject, reference = build(), build()
    engine = RecalcEngine(subject)
    engine.recalculate_all()
    RecalcEngine(reference, evaluation="interpreter").recalculate_all()
    assert_same_values(subject, reference)
    assert engine.eval_stats.elementwise_cells > 0
    assert subject.get_value((4, 4)) is DIV0
