"""Strip kernels: a same-template run evaluated over the column planes.

The compressed graph already knows that a running-total column is *one*
RR/FR edge whose dependent range is the whole run; this module makes
recalculation cost follow that structure.  Given a run of formula cells
in one column that share a windowed-aggregate template
(:class:`~repro.formula.compile.WindowSpec` — the whole formula is
``AGG(range)`` with the range sliding or growing along the run),
:func:`evaluate_run` slices the window's columns once
(``Sheet.read_band``: flat value and tag buffers), computes every lane in
one loop in which rows enter the window's state and, sliding, leave it,
and lands the results as one band write (``Sheet.write_band``):

====================  ==========================  =====================
window rows           shape                       total cost
====================  ==========================  =====================
fixed .. fixed        constant window              O(window + run)
fixed .. relative     growing prefix               O(window + run)
relative .. fixed     shrinking suffix             O(window + run)
relative .. relative  sliding window               O(window + run)
====================  ==========================  =====================

versus ``O(run x window)`` for per-cell evaluation — the difference
between quadratic and linear on the paper's running-total workloads.

Exactness: SUM/AVERAGE hold the window's sum as an integer — every
number times one power of two, which is exact — so a lane's value is one
correctly rounded ``int / int``: bit-identical to ``math.fsum`` over that
cell's window, the value the interpreter computes.  MIN/MAX use running
extrema (growing) or a monotonic deque (sliding), ties going to the
first candidate in row-major order as ``min()`` / ``max()`` do; COUNT is
integer arithmetic.  Cells whose window contains an error value (or a
number the scaling does not cover: NaN, infinities, absurd magnitudes)
are delegated back to the per-cell ``fallback`` callable, which
preserves the interpreter's iteration-order-dependent choice of *which*
error propagates.

:func:`evaluate_elementwise_run` is the other kernel: a run of pure
float arithmetic over cell references as one numpy sweep, read and
written through the same band primitives.

The caller (the strip planner, :meth:`repro.engine.recalc.RecalcEngine._make_strip`)
is responsible for run *safety* — window rows may only touch cells that
are clean or already-evaluated run members; this module only checks
geometry (:func:`rolling_cols`, which the planner asks first).
"""

from __future__ import annotations

from array import array
from collections import deque
from operator import gt, lt
from typing import Callable

try:  # numpy is optional: without it elementwise sweeps just decline.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

from ..formula.compile import CompiledTemplate, WindowSpec
from ..sheet.columnar import TAG_BOOL, TAG_EMPTY, TAG_ERROR, TAG_NUMBER, TAG_OBJECT, square_off
from ..sheet.sheet import Sheet

__all__ = [
    "MIN_RUN",
    "evaluate_elementwise_run",
    "evaluate_run",
    "rolling_cols",
    "window_rows_at",
    "window_cols",
]

#: Shortest run worth dispatching to a strip kernel; shorter runs go
#: through the compiled per-cell closure, whose constant factor wins.
MIN_RUN = 8

#: The window kernel sums numbers as integers scaled by a power of two.
#: A number at or beyond ``_HUGE`` (nan and inf included), or one that
#: needs more than ``_FINEST`` binary places, is left to ``math.fsum``
#: in the per-cell closure — which is also what raises for them, if
#: anything does: ``x * 2.0**shift`` stays a finite float inside these.
_HUGE = 2.0 ** 500
_FINEST = 500


def window_cols(spec: WindowSpec, col: int) -> tuple[int, int] | None:
    """The window's column span for a host in column ``col`` (normalised)."""
    c1 = spec.head_col.at(col)
    c2 = spec.tail_col.at(col)
    if c1 > c2:
        c1, c2 = c2, c1
    if c1 < 1:
        return None
    return c1, c2


def window_rows_at(spec: WindowSpec, row: int) -> tuple[int, int]:
    """The window's raw row span for a host in row ``row`` (unnormalised)."""
    return spec.head_row.at(row), spec.tail_row.at(row)


def rolling_cols(spec: WindowSpec, col: int, first: int, last: int) -> tuple[int, int] | None:
    """The window's column span if rows ``first..last`` of ``col`` can
    roll under ``spec``, else None: windows that would need corner
    normalisation anywhere along the run, or that fall off the sheet's
    top or left edge, are evaluated per cell."""
    cols = window_cols(spec, col)
    lo_first, hi_first = window_rows_at(spec, first)
    lo_last, hi_last = window_rows_at(spec, last)
    if lo_first > hi_first or lo_last > hi_last or min(lo_first, lo_last) < 1:
        return None
    return cols


def evaluate_run(
    sheet: Sheet,
    spec: WindowSpec,
    col: int,
    rows: range,
    fallback: Callable[[tuple[int, int]], None],
) -> int | None:
    """Evaluate ``rows`` of ``col`` (ascending and consecutive) under
    ``spec`` as one column kernel.

    Lanes run in the strip's direction, bottom-up for a shrinking window,
    and a lane's value lands in the kernel's copy of its own column as
    soon as it is known, so a window reaching into the strip
    (``SUM(B$1:B1)`` filled down B) reads the lanes just computed.
    Returns the number of cells the kernel itself computed — cells
    delegated to ``fallback`` are *not* counted, the fallback accounts
    for those — or ``None`` when the geometry does not roll (the caller
    then evaluates every cell through the fallback).
    """
    first, last = rows[0], rows[-1]
    cols = rolling_cols(spec, col, first, last)
    if cols is None:
        return None
    func = spec.func
    head, tail = spec.head_row, spec.tail_row
    sliding = not head.fixed and not tail.fixed
    descending = tail.fixed and not head.fixed
    average = func == "AVERAGE"
    summing = average or func == "SUM"
    better = lt if func == "MIN" else gt if func == "MAX" else None

    # One slice per window column over every row any lane reads, squared
    # off to one height: rows past it are blank in all of them.
    base = min(head.at(first), head.at(last))
    top = max(tail.at(first), tail.at(last))
    bands = [sheet.read_band(c, base, top) for c in range(cols[0], cols[1] + 1)]
    own = bands[col - cols[0]] if cols[0] <= col <= cols[1] else None
    ahead = first - base        # lane + ahead: the lane's own row in ``own``
    height = square_off(bands, 0 if own is None else min(last, top) - base + 1)
    if sliding:
        row_count = array("i", bytes(4 * height))
        row_bad = bytearray(height)

    # SUM / AVERAGE hold the window's exact sum as an integer: every
    # number in it times 2**shift (a float times a power of two is
    # exact; ``shift`` grows when a finer number shows up).
    total, shift, scale, unit = 0, 0, 1.0, 1
    row_totals: deque[int] = deque()              # sliding: what each row added
    count = bad = 0
    best = None                                   # grow-only MIN / MAX
    ranked: deque[tuple[int, float]] = deque()    # sliding MIN / MAX candidates

    out = array("d", bytes(8 * len(rows)))
    done = 0
    held = None             # first lane computed but not yet written, if any

    def write_held(held: int, lane: int) -> None:
        """Land the lanes computed from ``held`` up to ``lane``, exclusive."""
        a, b = (lane + 1, held) if descending else (held, lane - 1)
        sheet.write_band(col, first + a, out[a:b + 1])

    number, error, opaque, huge = TAG_NUMBER, TAG_ERROR, TAG_OBJECT, _HUGE
    # Lane by lane in the strip's direction: the rows that come into the
    # window enter the state, (sliding) the rows that drop out leave it.
    step = -1 if descending else 1
    row = last if descending else first
    lo, hi = head.at(row) - base, tail.at(row) - base
    lo_step, hi_step = (0 if head.fixed else step), (0 if tail.fixed else step)
    enter = min(hi, height - 1) if descending else 0
    leave = 0
    for lane in range(row - first, -1 if descending else len(rows), step):
        # (rows past ``height`` are blank: nothing of them enters)
        stop = min(lo - 1, enter) if descending else max(min(hi, height - 1) + 1, enter)
        for i in range(enter, stop, step):
            numbers = errors = row_total = 0
            row_best = None
            for values, tags in bands:
                tag = tags[i]
                if tag == number:
                    x = values[i]
                    if not -huge < x < huge:
                        errors += 1               # nan, inf, or too big to scale
                    elif summing:
                        scaled = x * scale
                        whole = int(scaled)
                        if whole != scaled:
                            fine = x.as_integer_ratio()[1].bit_length() - 1
                            if fine > _FINEST:
                                errors += 1       # too fine to scale
                                continue
                            grow = fine - shift
                            total <<= grow
                            row_total <<= grow
                            row_totals = deque([t << grow for t in row_totals])
                            shift, scale, unit = fine, 2.0 ** fine, 1 << fine
                            whole = int(x * scale)
                        numbers += 1
                        row_total += whole
                    else:
                        numbers += 1
                        if better is not None and (row_best is None or better(x, row_best)):
                            row_best = x
                elif tag == error or tag == opaque:
                    errors += 1
            count += numbers
            bad += errors
            if summing:
                total += row_total
                if sliding:
                    row_totals.append(row_total)
            elif row_best is not None:
                # Ties go to the first in row-major order, as min() / max().
                if sliding:
                    while ranked and better(row_best, ranked[-1][1]):
                        ranked.pop()
                    ranked.append((i, row_best))
                elif best is None or (
                    not better(best, row_best) if descending else better(row_best, best)
                ):
                    best = row_best
            if sliding:
                row_count[i] = numbers
                row_bad[i] = errors
        enter = stop
        if sliding:
            while leave < lo and leave < enter:
                count -= row_count[leave]
                bad -= row_bad[leave]
                if summing:
                    total -= row_totals.popleft()
                leave += 1
            while ranked and ranked[0][0] < lo:
                ranked.popleft()

        if bad or (average and not count):
            # A window holding an error goes back to the closure, which
            # knows which error wins (as does an AVERAGE of nothing, for
            # its #DIV/0!).  What the strip has computed so far is
            # written first, and what the cell became is what later
            # windows find in its place.
            if held is not None:
                write_held(held, lane)
                held = None
            fallback((col, first + lane))
            if own is not None and 0 <= lane + ahead < height:
                at = lane + ahead
                (own[0][at],), (own[1][at],) = sheet.read_band(col, first + lane, first + lane)
        else:
            if summing:
                value = total / unit              # int / int: correctly rounded
                if average:
                    value /= count
            elif better is None:
                value = float(count)
            elif not count:
                value = 0.0
            else:
                value = ranked[0][1] if sliding else best
            out[lane] = value
            done += 1
            if held is None:
                held = lane
            if own is not None and 0 <= lane + ahead < height:
                own[0][lane + ahead], own[1][lane + ahead] = value, number
        lo += lo_step
        hi += hi_step
    if held is not None:
        write_held(held, -1 if descending else len(rows))
    return done


# ---------------------------------------------------------------------------
# elementwise array sweeps


def _sweep(node, operands, mask):
    """Evaluate one :class:`~repro.formula.compile.ElementwiseIR` node
    over numpy lanes, mirroring the compiled closure operation for
    operation (same IEEE-754 ops, same order) so unmasked lanes are
    bit-identical to per-cell evaluation — the IR subset is restricted to
    the four correctly-rounded basic operations for exactly this reason.
    ``mask`` accumulates lanes that must be delegated: ``/0`` lanes (the
    closure returns #DIV/0! where the array division would emit inf).
    """
    op = node[0]
    if op == "const":
        return node[1]
    if op == "ref":
        return operands[node[1]]
    if op == "neg":
        return -_sweep(node[1], operands, mask)
    if op == "pct":
        return _sweep(node[1], operands, mask) / 100.0
    left = _sweep(node[1], operands, mask)
    right = _sweep(node[2], operands, mask)
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    mask |= (right == 0.0)          # div: the only remaining operator
    return left / right


def evaluate_elementwise_run(
    sheet: Sheet,
    template: CompiledTemplate,
    col: int,
    rows: list[int],
    fallback: Callable[[tuple[int, int]], None],
) -> int | None:
    """Evaluate a consecutive same-template run as one numpy array sweep.

    ``rows`` must be ascending and consecutive, and ``template.elementwise``
    non-None.  Each operand column is read as one band
    (``Sheet.read_band``, wrapped with ``frombuffer``) and results land
    through ``Sheet.write_band``, one write when no lane is masked.
    Lanes whose inputs are not empty/number/bool (string coercion, error
    propagation), whose denominators are zero, or whose relative
    reference falls off the sheet top are delegated to ``fallback`` —
    exactly the cases where per-cell semantics are not plain float
    arithmetic.  The caller is responsible for run *safety*
    (no reference may resolve into the run itself; the strip planner,
    ``RecalcEngine._make_strip``, sweeps only strips nothing lands in).

    Returns the number of cells the sweep wrote, or ``None`` when the
    sweep cannot run at all (no numpy, a scalar input that is a
    string/error, a reference off the sheet's left edge) — the caller
    then evaluates every cell through the fallback.
    """
    if _np is None:
        return None
    first, last = rows[0], rows[-1]
    n = last - first + 1
    mask = _np.zeros(n, dtype=bool)
    operands: list[object] = []
    for col_axis, row_axis in template.elementwise.refs:
        c = col_axis.at(col)
        if c < 1:
            return None                  # #REF! on every lane
        if row_axis.fixed:
            if row_axis.value < 1:
                return None              # #REF! on every lane
            value = sheet.raw_value(c, row_axis.value)
            if value is None:
                operands.append(0.0)
            elif value is True or value is False:
                operands.append(1.0 if value else 0.0)
            elif isinstance(value, (int, float)):
                operands.append(float(value))
            else:
                return None              # string/error broadcast: slow path
            continue
        lo = first + row_axis.value      # source row of the first lane
        values = _np.zeros(n, dtype=_np.float64)
        tags = _np.zeros(n, dtype=_np.uint8)
        above = min(max(1 - lo, 0), n)   # lanes whose source is above row 1: #REF!
        mask[:above] = True
        band_values, band_tags = sheet.read_band(c, lo + above, lo + n - 1)
        end = above + len(band_tags)     # the band is cut where the column ends
        values[above:end] = _np.frombuffer(band_values, dtype=_np.float64)
        tags[above:end] = _np.frombuffer(band_tags, dtype=_np.uint8)
        # EMPTY lanes are already 0.0 (= to_number(None)) and BOOL lanes
        # already 1.0/0.0 (= to_number(bool)) in the value plane; any
        # other non-number tag needs per-cell semantics.
        mask |= (tags != TAG_EMPTY) & (tags != TAG_NUMBER) & (tags != TAG_BOOL)
        operands.append(values)
    with _np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        result = _sweep(template.elementwise.root, operands, mask)
    if not isinstance(result, _np.ndarray):  # pragma: no cover - all-scalar tree
        result = _np.full(n, float(result))
    # Each stretch of swept lanes lands as one band write; the lanes in
    # between are the fallback's.
    delegated = _np.flatnonzero(mask)
    start = 0
    for lane in delegated:
        sheet.write_band(col, first + start, result[start:lane])
        start = int(lane) + 1
    sheet.write_band(col, first + start, result[start:])
    for lane in delegated:
        fallback((col, first + int(lane)))
    return n - len(delegated)
