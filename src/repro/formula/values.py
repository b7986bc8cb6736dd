"""Runtime value model shared by the function library and evaluator.

Scalar values are plain Python: ``float`` for numbers, ``str`` for text,
``bool`` for logicals, ``None`` for blank cells, and
:class:`~repro.formula.errors.ExcelError` for error values.  A range
reference evaluates to a :class:`RangeValue`, a lazy window over the sheet
that aggregate and lookup functions consume.

Error propagation uses an internal control-flow exception
(:class:`ErrorSignal`): coercions raise it and the evaluator's public entry
point converts it back into the error value.
"""

from __future__ import annotations

from typing import Iterator, Protocol

from ..grid.range import Range
from .errors import DIV0, VALUE_ERROR, ExcelError

__all__ = [
    "CellResolver",
    "ErrorSignal",
    "RangeValue",
    "Scalar",
    "is_blank",
    "to_bool",
    "to_number",
    "to_text",
    "compare_values",
]

Scalar = "float | str | bool | None | ExcelError"


class CellResolver(Protocol):
    """What the evaluator needs from a spreadsheet backend."""

    def get_value(self, sheet: str | None, col: int, row: int):
        """Current value of a cell (None when blank)."""

    def iter_cells(self, sheet: str | None, rng: Range) -> Iterator[tuple[int, int, object]]:
        """Iterate the *non-blank* cells of a range as (col, row, value)."""


class ErrorSignal(Exception):
    """Internal short-circuit carrying a spreadsheet error value."""

    def __init__(self, error: ExcelError):
        super().__init__(error.code)
        self.error = error


class RangeValue:
    """A lazily-resolved window of cell values."""

    __slots__ = ("range", "sheet", "_resolver")

    def __init__(self, rng: Range, sheet: str | None, resolver: CellResolver):
        self.range = rng
        self.sheet = sheet
        self._resolver = resolver

    @property
    def width(self) -> int:
        return self.range.width

    @property
    def height(self) -> int:
        return self.range.height

    def get(self, row_offset: int, col_offset: int):
        """Value at a 0-based offset inside the range."""
        if not (0 <= row_offset < self.height and 0 <= col_offset < self.width):
            raise ErrorSignal(ExcelError("#REF!"))
        return self._resolver.get_value(
            self.sheet, self.range.c1 + col_offset, self.range.r1 + row_offset
        )

    def iter_nonblank(self) -> Iterator[object]:
        """Values of the occupied cells, errors included."""
        for _, _, value in self._resolver.iter_cells(self.sheet, self.range):
            yield value

    def iter_numbers(self) -> Iterator[float]:
        """Numeric cell values, skipping text/logicals/blanks (SUM semantics).

        Errors stored in referenced cells propagate — the first one in
        row-major order.  A resolver that offers ``range_numbers`` (see
        ``SheetResolver``) hands the numbers over in bulk, in the same
        order, when the range holds no error.
        """
        bulk = getattr(self._resolver, "range_numbers", None)
        if bulk is not None:
            numbers = bulk(self.sheet, self.range)
            if numbers is not None:
                yield from numbers
                return
        for value in self.iter_nonblank():
            if isinstance(value, ExcelError):
                raise ErrorSignal(value)
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                yield float(value)

    def iter_all_positions(self) -> Iterator[tuple[int, int, object]]:
        """Every cell of the range (including blanks) with 0-based offsets."""
        for r in range(self.height):
            for c in range(self.width):
                yield r, c, self.get(r, c)

    def column_values(self, col_offset: int) -> Iterator[object]:
        for r in range(self.height):
            yield self.get(r, col_offset)

    def row_values(self, row_offset: int) -> Iterator[object]:
        for c in range(self.width):
            yield self.get(row_offset, c)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangeValue({self.range.to_a1()})"


def is_blank(value) -> bool:
    return value is None


def to_number(value) -> float:
    """Coerce a scalar to a number, Excel-style."""
    if isinstance(value, ExcelError):
        raise ErrorSignal(value)
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if value is None:
        return 0.0
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise ErrorSignal(VALUE_ERROR) from None
    if isinstance(value, RangeValue):
        return to_number(_single_cell(value))
    raise ErrorSignal(VALUE_ERROR)


def to_text(value) -> str:
    if isinstance(value, ExcelError):
        raise ErrorSignal(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, RangeValue):
        return to_text(_single_cell(value))
    return str(value)


def to_bool(value) -> bool:
    if isinstance(value, ExcelError):
        raise ErrorSignal(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if value is None:
        return False
    if isinstance(value, str):
        upper = value.strip().upper()
        if upper == "TRUE":
            return True
        if upper == "FALSE":
            return False
        raise ErrorSignal(VALUE_ERROR)
    if isinstance(value, RangeValue):
        return to_bool(_single_cell(value))
    raise ErrorSignal(VALUE_ERROR)


def _single_cell(rng: RangeValue):
    """Implicit intersection: a 1x1 range used where a scalar is expected."""
    if rng.width == 1 and rng.height == 1:
        return rng.get(0, 0)
    raise ErrorSignal(VALUE_ERROR)


def _type_rank(value) -> int:
    # Excel comparison ordering: numbers < text < logicals.
    if isinstance(value, bool):
        return 2
    if isinstance(value, (int, float)) or value is None:
        return 0
    return 1


def compare_values(left, right) -> int:
    """Three-way comparison with Excel's cross-type ordering rules.

    Returns negative / zero / positive.  Text comparison is
    case-insensitive; blank coerces to the other operand's zero value.
    """
    if isinstance(left, ExcelError):
        raise ErrorSignal(left)
    if isinstance(right, ExcelError):
        raise ErrorSignal(right)
    if isinstance(left, RangeValue):
        left = _single_cell(left)
    if isinstance(right, RangeValue):
        right = _single_cell(right)
    if left is None and right is None:
        return 0
    if left is None:
        left = "" if isinstance(right, str) else (False if isinstance(right, bool) else 0.0)
    if right is None:
        right = "" if isinstance(left, str) else (False if isinstance(left, bool) else 0.0)
    rank_l, rank_r = _type_rank(left), _type_rank(right)
    if rank_l != rank_r:
        return -1 if rank_l < rank_r else 1
    if rank_l == 1:  # text
        ll, rr = left.lower(), right.lower()
        return -1 if ll < rr else (0 if ll == rr else 1)
    lf, rf = float(left), float(right)
    return -1 if lf < rf else (0 if lf == rf else 1)


def safe_divide(numerator: float, denominator: float) -> float:
    if denominator == 0:
        raise ErrorSignal(DIV0)
    return numerator / denominator
