"""Windowed-aggregate evaluation of same-template runs.

The compressed graph already knows that a running-total column is *one*
RR/FR edge whose dependent range is the whole run; this module makes
recalculation cost follow that structure.  Given a run of formula cells
in one column that share a windowed-aggregate template
(:class:`~repro.formula.compile.WindowSpec` — the whole formula is
``AGG(range)`` with the range sliding or growing along the run), the run
is evaluated with rolling aggregates:

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

Exactness: SUM/AVERAGE accumulate through
:class:`~repro.formula.numeric.ExactSum`, so every emitted value is
bit-identical to ``math.fsum`` over that cell's window — the same value
the interpreter computes.  MIN/MAX use running extrema (growing) or a
monotonic deque (sliding); COUNT is integer arithmetic.  Cells whose
window contains an error value are delegated back to the per-cell
``fallback`` callable, which preserves the interpreter's
iteration-order-dependent choice of *which* error propagates.

The caller (the strip planner, :meth:`repro.engine.recalc.RecalcEngine._make_strip`)
is responsible for run *safety* — window rows may only touch cells that
are clean or already-evaluated run members; this module only checks
geometry (:func:`rolling_cols`, which the planner asks first).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

try:  # numpy is optional: without it elementwise sweeps just decline.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

from ..formula.compile import CompiledTemplate, WindowSpec
from ..formula.errors import DIV0, ExcelError
from ..formula.numeric import ExactSum
from ..sheet.columnar import (
    TAG_BOOL,
    TAG_EMPTY,
    TAG_NUMBER,
    ColumnarStore,
)
from ..sheet.sheet import Sheet

__all__ = [
    "MIN_RUN",
    "evaluate_elementwise_run",
    "evaluate_run",
    "rolling_cols",
    "window_rows_at",
    "window_cols",
]

#: Shortest run worth dispatching to the rolling evaluator; shorter runs
#: go through the compiled per-cell closure, whose constant factor wins.
MIN_RUN = 8


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


class _WindowState:
    """Rolling aggregate state over the rows currently in the window."""

    __slots__ = ("func", "cols", "sheet", "acc", "count", "errors", "best",
                 "row_log", "monotonic", "keep_log")

    def __init__(self, func: str, cols: tuple[int, int], sheet: Sheet, keep_log: bool):
        self.func = func
        self.cols = cols
        self.sheet = sheet
        self.acc = ExactSum()
        self.count = 0
        self.errors = 0
        self.best: float | None = None       # running extremum (grow-only)
        # Sliding windows must be able to *remove* a row exactly as it
        # was added, so each entered row is logged: (row, numbers, errors).
        self.keep_log = keep_log
        self.row_log: deque[tuple[int, tuple[float, ...], int]] = deque()
        # (row, row_extremum) candidates for sliding MIN/MAX.
        self.monotonic: deque[tuple[int, float]] = deque()

    def add_row(self, row: int) -> None:
        c1, c2 = self.cols
        raw_value = self.sheet.raw_value
        numbers: list[float] = []
        errors = 0
        for col in range(c1, c2 + 1):
            value = raw_value(col, row)
            if value is None or value is True or value is False:
                continue
            if isinstance(value, (int, float)):
                numbers.append(float(value))
            elif isinstance(value, ExcelError):
                errors += 1
        self.errors += errors
        self.count += len(numbers)
        func = self.func
        if func in ("SUM", "AVERAGE"):
            for x in numbers:
                self.acc.add(x)
        elif func == "MIN":
            if numbers:
                low = min(numbers)
                self.best = low if self.best is None or low < self.best else self.best
                monotonic = self.monotonic
                while monotonic and monotonic[-1][1] >= low:
                    monotonic.pop()
                monotonic.append((row, low))
        elif func == "MAX":
            if numbers:
                high = max(numbers)
                self.best = high if self.best is None or high > self.best else self.best
                monotonic = self.monotonic
                while monotonic and monotonic[-1][1] <= high:
                    monotonic.pop()
                monotonic.append((row, high))
        if self.keep_log:
            self.row_log.append((row, tuple(numbers), errors))

    def drop_rows_below(self, low: int) -> None:
        """Expire logged rows with ``row < low`` (sliding windows only)."""
        row_log = self.row_log
        while row_log and row_log[0][0] < low:
            _, numbers, errors = row_log.popleft()
            self.errors -= errors
            self.count -= len(numbers)
            if self.func in ("SUM", "AVERAGE"):
                for x in numbers:
                    self.acc.subtract(x)
        monotonic = self.monotonic
        while monotonic and monotonic[0][0] < low:
            monotonic.popleft()

    def value(self):
        """The aggregate of the current window, interpreter-identical."""
        func = self.func
        if func == "SUM":
            return self.acc.value()
        if func == "COUNT":
            return float(self.count)
        if func == "AVERAGE":
            if self.count == 0:
                return DIV0
            return self.acc.value() / self.count
        if self.count == 0:  # MIN/MAX over an empty window
            return 0.0
        if self.keep_log:
            return self.monotonic[0][1]
        return self.best


def evaluate_run(
    sheet: Sheet,
    spec: WindowSpec,
    col: int,
    rows: list[int],
    fallback: Callable[[tuple[int, int]], None],
) -> int | None:
    """Evaluate ``rows`` of ``col`` (ascending, consecutive — a list or
    a ``range``) under ``spec``.

    Writes each cell's value as soon as it is computed, so
    self-referential prefix runs (``SUM(B$1:B1)`` filled down B) read
    fresh values for run members already emitted.  Returns the number of
    cells the rolling path itself computed — cells delegated to
    ``fallback`` (error-bearing windows) are *not* counted, the fallback
    accounts for those — or ``None`` when the geometry is not rollable
    (the caller then evaluates every cell through the fallback).
    """
    cols = rolling_cols(spec, col, rows[0], rows[-1])
    if cols is None:
        return None

    head_fixed = spec.head_row.fixed
    tail_fixed = spec.tail_row.fixed
    if head_fixed and tail_fixed:
        return _run_constant(sheet, spec, col, rows, fallback, cols)
    if not head_fixed and not tail_fixed:
        return _run_sliding(sheet, spec, col, rows, fallback, cols)
    if head_fixed:
        ordered = rows                      # growing prefix: top down
    else:
        ordered = rows[::-1]                # shrinking suffix: bottom up
    return _run_growing(sheet, spec, col, ordered, fallback, cols)


def _emit(sheet: Sheet, col: int, row: int, state: _WindowState, fallback) -> int:
    """Write the cell; returns 1 when the rolling value was used, 0 when
    the cell was delegated (the fallback does its own accounting)."""
    if state.errors:
        # The interpreter's error choice depends on range iteration
        # order; delegate the cell rather than guessing.
        fallback((col, row))
        return 0
    sheet.cell_at((col, row)).value = state.value()
    return 1


def _run_constant(sheet, spec, col, rows, fallback, cols) -> int:
    lo, hi = window_rows_at(spec, rows[0])
    state = _WindowState(spec.func, cols, sheet, keep_log=False)
    for rr in range(lo, hi + 1):
        state.add_row(rr)
    if state.errors:
        for row in rows:
            fallback((col, row))
        return 0
    value = state.value()
    for row in rows:
        sheet.cell_at((col, row)).value = value
    return len(rows)


def _run_growing(sheet, spec, col, ordered, fallback, cols) -> int:
    """Grow-only windows: one end fixed, rows only ever enter.

    ``ordered`` is arranged so the window of each successive cell is a
    superset of the previous one (ascending for a fixed head, descending
    for a fixed tail).  An error that has entered never leaves, so once
    seen, the remaining cells delegate to the fallback.
    """
    state = _WindowState(spec.func, cols, sheet, keep_log=False)
    added_lo: int | None = None
    added_hi: int | None = None
    rolled = 0
    for row in ordered:
        lo, hi = window_rows_at(spec, row)
        if added_lo is None:
            span = range(lo, hi + 1)
        elif lo < added_lo:                 # fixed tail: grow upward
            span = range(added_lo - 1, lo - 1, -1)
        else:                               # fixed head: grow downward
            span = range(added_hi + 1, hi + 1)
        for rr in span:
            state.add_row(rr)
        added_lo = lo if added_lo is None else min(added_lo, lo)
        added_hi = hi if added_hi is None else max(added_hi, hi)
        rolled += _emit(sheet, col, row, state, fallback)
    return rolled


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
    non-None.  Reads go straight to the columnar store's buffers
    (zero-copy ``frombuffer`` views); results land in the run column's
    arrays as one masked write.  Lanes whose inputs are not
    empty/number/bool (string coercion, error propagation), whose
    denominators are zero, or whose
    relative reference falls off the sheet top are delegated to
    ``fallback`` — exactly the cases where per-cell semantics are not
    plain float arithmetic.  The caller is responsible for run *safety*
    (no reference may resolve into the run itself; the strip planner,
    ``RecalcEngine._make_strip``, sweeps only strips nothing lands in).

    Returns the number of cells the sweep wrote, or ``None`` when the
    sweep cannot run at all (no numpy, non-columnar store, a scalar
    input that is a string/error, a reference off the sheet's left edge)
    — the caller then evaluates every cell through the fallback.
    """
    if _np is None:
        return None
    store = sheet._cells
    if type(store) is not ColumnarStore:
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
            value = store.read_value(c, row_axis.value)
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
        if lo < 1:
            mask[: min(1 - lo, n)] = True    # sub-row-1 lanes #REF!
        buffers = store.column_buffers(c)
        if buffers is not None:
            src_values = _np.frombuffer(buffers[0], dtype=_np.float64)
            src_tags = _np.frombuffer(buffers[1], dtype=_np.uint8)
            i0 = lo - 1
            s0 = max(i0, 0)
            s1 = min(i0 + n, len(src_tags))
            if s1 > s0:
                d0 = s0 - i0
                values[d0:d0 + (s1 - s0)] = src_values[s0:s1]
                tags[d0:d0 + (s1 - s0)] = src_tags[s0:s1]
        # EMPTY lanes are already 0.0 (= to_number(None)) and BOOL lanes
        # already 1.0/0.0 (= to_number(bool)) in the value plane; any
        # other non-number tag needs per-cell semantics.
        mask |= (tags != TAG_EMPTY) & (tags != TAG_NUMBER) & (tags != TAG_BOOL)
        operands.append(values)
    with _np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        result = _sweep(template.elementwise.root, operands, mask)
    if not isinstance(result, _np.ndarray):  # pragma: no cover - all-scalar tree
        result = _np.full(n, float(result))
    ok = ~mask
    column = store.ensure_column(col, last)
    band = slice(first - 1, last)
    if column.side:
        # Direct tag writes bypass the store's side-table upkeep: evict
        # stale string/error payloads the sweep is about to overwrite.
        for i in [i for i in column.side if first - 1 <= i < last]:
            if ok[i - (first - 1)]:
                del column.side[i]
    out_values = _np.frombuffer(column.values, dtype=_np.float64)[band]
    out_tags = _np.frombuffer(column.tags, dtype=_np.uint8)[band]
    _np.copyto(out_values, result, where=ok)
    _np.copyto(out_tags, _np.uint8(TAG_NUMBER), where=ok)
    swept = int(ok.sum())
    if swept != n:
        for lane in _np.nonzero(mask)[0]:
            fallback((col, first + int(lane)))
    return swept


def _run_sliding(sheet, spec, col, rows, fallback, cols) -> int:
    state = _WindowState(spec.func, cols, sheet, keep_log=True)
    added_hi: int | None = None
    rolled = 0
    for row in rows:
        lo, hi = window_rows_at(spec, row)
        start = lo if added_hi is None else added_hi + 1
        for rr in range(start, hi + 1):
            state.add_row(rr)
        added_hi = hi
        state.drop_rows_below(lo)
        rolled += _emit(sheet, col, row, state, fallback)
    return rolled
