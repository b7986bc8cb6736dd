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
integer arithmetic.  A lane whose window contains an error value (or a
number the scaling does not cover: NaN, infinities, absurd magnitudes)
is left to the per-cell closure, which preserves the interpreter's
iteration-order-dependent choice of *which* error propagates.

:func:`evaluate_elementwise_run` is the second kernel: a run of float
arithmetic, comparisons and ``IF`` over cell references that reads
nothing of its own strip, swept over every lane at once.
:func:`evaluate_scan_run` is the third: a recurrence down the strip's
own column (``=C1+A2`` filled down C, the paper's Fig. 2 ``IF``) as one
sequential float loop.  Both read their operands through one lane reader
(:func:`_operand_lanes`) and share their lane operations; all three are
pure Python.

Every strip kernel — these three and
:func:`repro.engine.lookup.evaluate_lookup_run` — keeps one contract:
``kernel(engine, node, leave) -> lanes computed``.  ``node`` is the
plan's strip (rows, column, direction, compiled template, whose
``shape`` the kernel reads); ``leave(rows)`` runs the compiled closure
over the rows the kernel will not take, in the strip's direction, and
counts them as the closure does.  The return value counts only the lanes
the kernel computed itself; a kernel that can take nothing leaves every
lane and returns 0.

The caller (the strip planner, :meth:`repro.engine.recalc.RecalcEngine._make_strip`)
is responsible for run *safety* — window rows may only touch cells that
are clean or already-evaluated run members; this module only checks
geometry (:func:`rolling_cols` and :func:`scans`, which the planner asks
first).
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate, islice, repeat
from operator import gt, lt
from typing import Callable, Sequence

from ..formula.compile import AxisRef, ElementwiseIR, WindowSpec
from ..formula.functions import Operator
from ..sheet.columnar import TAG_BOOL, TAG_EMPTY, TAG_ERROR, TAG_NUMBER, TAG_OBJECT, square_off
from ..sheet.sheet import Sheet

__all__ = [
    "MIN_RUN",
    "evaluate_elementwise_run",
    "evaluate_run",
    "evaluate_scan_run",
    "rolling_cols",
    "scans",
]

#: What a kernel hands the rows it will not take to (module docstring).
Leave = Callable[[Sequence[int]], None]

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


def rolling_cols(spec: WindowSpec, col: int, first: int, last: int) -> tuple[int, int] | None:
    """The window's column span if rows ``first..last`` of ``col`` can
    roll under ``spec``, else None: windows that would need corner
    normalisation anywhere along the run, or that fall off the sheet's
    top or left edge, are evaluated per cell."""
    c1, c2 = sorted((spec.head_col.at(col), spec.tail_col.at(col)))
    lo_first, hi_first = spec.head_row.at(first), spec.tail_row.at(first)
    lo_last, hi_last = spec.head_row.at(last), spec.tail_row.at(last)
    if c1 < 1 or lo_first > hi_first or lo_last > hi_last or min(lo_first, lo_last) < 1:
        return None
    return c1, c2


def evaluate_run(engine, node, leave: Leave) -> int:
    """The window kernel: the ``w`` strip ``node`` as one column roll.

    Lanes run in the strip's direction, bottom-up for a shrinking window,
    and a lane's value lands in the kernel's copy of its own column as
    soon as it is known, so a window reaching into the strip
    (``SUM(B$1:B1)`` filled down B) reads the lanes just computed.  A
    lane whose window holds an error or a number the scaling does not
    cover is left (``leave``) where the roll meets it, and what the
    closure made of it is read back into the kernel's band.  Geometry
    that does not roll leaves every lane.  Returns the lanes computed.
    """
    sheet, spec, col, rows = engine.sheet, node.template.shape, node.col, node.rows
    first, last = rows[0], rows[-1]
    cols = rolling_cols(spec, col, first, last)
    if cols is None:
        leave(node.lanes())
        return 0
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
    drop = 0
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
            while drop < lo and drop < enter:
                count -= row_count[drop]
                bad -= row_bad[drop]
                if summing:
                    total -= row_totals.popleft()
                drop += 1
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
            leave((first + lane,))
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
# scans: a recurrence down the strip's own column


def _recurrence(ir: ElementwiseIR, col: int, descending: bool) -> int | None:
    """Index into ``ir.refs`` of the reference, from ``col``, to its own
    column one row back in the strip's direction (ahead when
    ``descending``), or None."""
    back = 1 if descending else -1
    for i, (col_axis, row_axis) in enumerate(ir.refs):
        if col_axis.at(col) == col and not row_axis.fixed and row_axis.value == back:
            return i
    return None


def scans(ir: ElementwiseIR, col: int, first: int, last: int, descending: bool) -> bool:
    """Whether rows ``first..last`` of ``col`` can run under ``ir`` as a
    scan: the one reference landing inside them is their own column one
    row back in the strip's direction.  (A fixed row inside the strip is
    a self-reference, which the planner has turned away already.)"""
    back = _recurrence(ir, col, descending)
    return back is not None and all(
        i == back or col_axis.at(col) != col or row_axis.fixed
        or abs(row_axis.value) > last - first
        for i, (col_axis, row_axis) in enumerate(ir.refs)
    )


#: How strictly an operand lane must be a plain float, by where the IR
#: reads it: ``_COERCED`` under arithmetic or as an ``IF`` condition
#: (``to_number`` / ``to_bool`` make a blank 0.0 and a logical 1.0 /
#: 0.0, as the plane holds them); ``_COMPARED`` as a side of a comparison
#: (a logical ranks above every number); ``_CHOSEN`` as an ``IF`` branch,
#: which yields the value itself — the plane's float only for a number.
_COERCED, _COMPARED, _CHOSEN = range(3)
#: Per level, 1 for every tag a lane read at that level may not hold.
_REFUSED = tuple(
    bytes(0 if tag in allowed else 1 for tag in range(256))
    for allowed in ((TAG_EMPTY, TAG_NUMBER, TAG_BOOL), (TAG_EMPTY, TAG_NUMBER), (TAG_NUMBER,))
)


def _choose(cond, then, otherwise):
    """The lane form of ``IF`` (an operator's is in its ``OPERATORS`` entry)."""
    return then if cond else otherwise


def _read_levels(node, level: int, levels: dict[int, int]) -> None:
    """Record in ``levels``, per reference index, the strictest level
    ``node`` (read at ``level``) reads it at."""
    op = node[0]
    if op == "ref":
        levels[node[1]] = max(levels.get(node[1], level), level)
    elif op == "if":
        _read_levels(node[1], _COERCED, levels)
        _read_levels(node[2], _CHOSEN, levels)
        _read_levels(node[3], _CHOSEN, levels)
    elif op != "const":
        inner = _COMPARED if op.compares else _COERCED
        for child in node[1:]:
            _read_levels(child, inner, levels)


def _lane_levels(ir: ElementwiseIR) -> dict[int, int]:
    """Per reference index, the level its lanes are read at."""
    levels: dict[int, int] = {}
    _read_levels(ir.root, _CHOSEN, levels)
    return levels


def _cell_lane(sheet: Sheet, col: int, row: int) -> tuple[float, int]:
    """One cell as a lane: its plane float and its tag."""
    band = sheet.read_band(col, row, row)
    square_off([band], 1)
    return band[0][0], band[1][0]


def _operand_lanes(sheet: Sheet, ir: ElementwiseIR, col: int, rows: range,
                   descending: bool, seed: tuple[int, int] | None = None):
    """The one lane reader of the sweep and the scan: every reference
    of ``ir`` over the strip ``rows`` of ``col``, as ``(lanes, masked)``
    in the strip's direction, or None when no lane can be taken (a
    reference off the sheet's left edge, a fixed cell off its top or
    refused).  ``lanes`` maps a reference index to a float (a fixed
    cell, broadcast) or one float per lane; ``masked`` has a 1 per lane
    whose input is not a plain float where the template reads it
    (``_REFUSED``) or whose source row is above row 1.  A scan's
    recurrence, ``seed = (reference index, row)``, reads one cell: the
    seed."""
    first, last, n = rows[0], rows[-1], len(rows)
    levels = _lane_levels(ir)
    masked = bytearray(n)
    lanes: dict[int, object] = {}
    for i, (col_axis, row_axis) in enumerate(ir.refs):
        c = col_axis.at(col)
        if c < 1:
            return None                         # #REF! on every lane
        refused = _REFUSED[levels[i]]
        if seed is not None and i == seed[0]:
            row_axis = AxisRef(True, seed[1])
        if row_axis.fixed:
            if row_axis.value < 1:
                return None
            lanes[i], tag = _cell_lane(sheet, c, row_axis.value)
            if refused[tag]:
                return None
            continue
        lo = first + row_axis.value             # source row of the first lane
        above = min(max(1 - lo, 0), n)          # lanes reading above row 1
        band = sheet.read_band(c, lo + above, last + row_axis.value)
        square_off([band], n - above)
        values, tags = band
        bad = tags.translate(refused)
        if above:
            values[:0] = array("d", bytes(8 * above))
            bad[:0] = b"\x01" * above
        if descending:
            values.reverse()
            bad.reverse()
        at = bad.find(1)
        while at >= 0:
            masked[at] = 1
            at = bad.find(1, at + 1)
        lanes[i] = values
    return lanes, masked


def _reads(node, prev: int) -> bool:
    """Whether ``node`` reads reference ``prev``."""
    if node[0] == "ref":
        return node[1] == prev
    return node[0] != "const" and any(_reads(child, prev) for child in node[1:])


def _previous(p, k):
    """The recurrence's step term: the lane before's value."""
    return p


def _stepwise(term):
    """A :func:`_scan_term` as a step function ``(p, k) -> float``."""
    if callable(term):
        return term
    if type(term) is float:
        return lambda p, k: term
    return lambda p, k: term[k]


def _swept(fn, *args):
    """``fn`` lane by lane over floats (broadcast) and per-lane buffers."""
    if all(type(arg) is float for arg in args):
        return fn(*args)
    return list(map(fn, *(repeat(arg) if type(arg) is float else arg for arg in args)))


def _up_to_zero(denominator, limit: list[int]):
    """A swept denominator cut before its first zero lane, ``limit[0]``
    moved down to that lane (the closure's ``#DIV/0!``)."""
    if type(denominator) is float:
        if denominator == 0:
            limit[0] = 0
            return []
        return denominator
    try:
        zero = denominator.index(0.0)
    except ValueError:
        return denominator
    limit[0] = min(limit[0], zero)
    return denominator[:zero]


def _scan_term(node, lanes: dict, prev: int, limit: list[int]):
    """``node`` over the lanes: swept — a float, or one float per lane —
    where it does not read the recurrence ``prev``, else a step function
    ``(previous lane's value, lane) -> float``.  An ``IF`` swept takes
    both branches (harmless: they are floats), a stepped one only the
    chosen branch, as the closure does."""
    op = node[0]
    if op == "const":
        return node[1]
    if op == "ref":
        return _previous if node[1] == prev else lanes[node[1]]
    args = [_scan_term(child, lanes, prev, limit) for child in node[1:]]
    if op == "if":
        fn = _choose
    else:
        fn = op.lane
        if op.divides and not callable(args[1]):
            args[1] = _up_to_zero(args[1], limit)
    if not any(callable(arg) for arg in args):
        return _swept(fn, *args)
    if op == "if":
        cond, then, otherwise = args
        then, otherwise = _stepwise(then), _stepwise(otherwise)
        if callable(cond) or type(cond) is float:
            cond = _stepwise(cond)
            return lambda p, k: then(p, k) if cond(p, k) else otherwise(p, k)
        return lambda p, k: then(p, k) if cond[k] else otherwise(p, k)
    if len(args) == 1:
        (f,) = args
        return lambda p, k: fn(f(p, k))
    left, right = args
    if left is _previous and not callable(right) and type(right) is not float:
        return lambda p, k: fn(p, right[k])
    if right is _previous and not callable(left) and type(left) is not float:
        return lambda p, k: fn(left[k], p)
    f, g = _stepwise(left), _stepwise(right)
    return lambda p, k: fn(f(p, k), g(p, k))


def evaluate_scan_run(engine, node, leave: Leave) -> int:
    """The scan: the ``c`` strip ``node`` as one sequential loop in the
    strip's direction.

    The recurrence is seeded from the cell just outside the strip, and
    every lane does the closure's IEEE-754 operations in the closure's
    order, so per-step rounding is bit-identical; the lanes computed land
    as one band write.  The loop stops at the first masked lane, or one
    that divides by zero: that lane and — a recurrence — every lane
    after it are left.  An unreadable seed or operand leaves every lane.
    """
    sheet, ir, col, rows = engine.sheet, node.template.shape, node.col, node.rows
    descending = node.descending
    first, last, n = rows[0], rows[-1], len(rows)
    prev = _recurrence(ir, col, descending)
    read = _operand_lanes(sheet, ir, col, rows, descending,
                          (prev, last + 1 if descending else first - 1))
    if read is None:
        leave(node.lanes())
        return 0
    lanes, masked = read
    p = lanes[prev]
    stop = masked.find(1)
    limit = [n if stop < 0 else stop]
    root = ir.root
    op = root[0]
    if (type(op) is Operator and op.arity == 2 and root[1] == ("ref", prev)
            and not _reads(root[2], prev)):
        # prev ∘ g(lane): one C-level accumulate over the swept g.
        operand = _scan_term(root[2], lanes, prev, limit)
        if op.divides:
            operand = _up_to_zero(operand, limit)
        if type(operand) is float:
            operand = repeat(operand)
        out = array("d", islice(accumulate(operand, op.lane, initial=p),
                                1, limit[0] + 1))
    else:
        step = _scan_term(root, lanes, prev, limit)
        out = array("d")
        append = out.append
        try:
            for k in range(limit[0]):
                p = step(p, k)
                append(p)
        except ZeroDivisionError:
            pass                                # the closure's #DIV/0!, from here on
    done = len(out)
    if done:
        if descending:
            out.reverse()
        sheet.write_band(col, last - done + 1 if descending else first, out)
    if done < n:
        leave(rows[:n - done][::-1] if descending else rows[done:])
    return done


# ---------------------------------------------------------------------------
# elementwise sweeps: nothing of the strip's own lanes is read


def _nonzero(denominator, masked: bytearray):
    """``denominator`` with every ±0.0 lane made 1.0 and marked in
    ``masked``: those lanes are the closure's (``#DIV/0!``)."""
    if type(denominator) is float:
        if denominator:
            return denominator
        masked[:] = b"\x01" * len(masked)
        return 1.0
    if 0.0 not in denominator:
        return denominator
    out = list(denominator)
    for k, d in enumerate(out):
        if not d:
            masked[k] = 1
            out[k] = 1.0
    return out


def _sweep(node, lanes: dict, masked: bytearray):
    """``node`` over every lane at once — a float, or one float per lane —
    doing the closure's IEEE-754 operations in the closure's order.  An
    ``IF`` takes both branches: a lane masked by the branch it does not
    take costs a closure call, never a wrong value."""
    op = node[0]
    if op == "const":
        return node[1]
    if op == "ref":
        return lanes[node[1]]
    args = [_sweep(child, lanes, masked) for child in node[1:]]
    if op == "if":
        return _swept(_choose, *args)
    if op.divides:
        args[1] = _nonzero(args[1], masked)
    return _swept(op.lane, *args)


def evaluate_elementwise_run(engine, node, leave: Leave) -> int:
    """The sweep: the ``e`` strip ``node`` over every lane at once.

    Every lane does the closure's IEEE-754 operations in the closure's
    order, so it is bit-identical to per-cell evaluation.  With no
    recurrence, a lane the sweep cannot take stops nothing: a masked
    lane, or one that divides by ±0.0, is left once every stretch of the
    others has landed as one ``Sheet.write_band``.  An unreadable
    operand, or no lane to land, leaves every lane.  Nothing may land
    inside the strip (the planner sweeps only strips nothing lands in).
    """
    sheet, ir, col, rows = engine.sheet, node.template.shape, node.col, node.rows
    first = rows[0]
    read = _operand_lanes(sheet, ir, col, rows, False)
    if read is not None:
        lanes, masked = read
        out = array("d", _sweep(ir.root, lanes, masked))
    if read is None or 0 not in masked:
        leave(rows)
        return 0
    left = []
    start = 0
    while (lane := masked.find(1, start)) >= 0:
        sheet.write_band(col, first + start, out[start:lane])
        left.append(first + lane)
        start = lane + 1
    sheet.write_band(col, first + start, out[start:])
    if left:
        leave(left)
    return len(rows) - len(left)
