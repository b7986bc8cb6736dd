"""Builtin spreadsheet function library.

Covers the functions that appear in the paper's motivating workloads
(SUM/IF/VLOOKUP-style sheets) plus the everyday math, text, logical,
statistical and lookup builtins needed to evaluate realistic spreadsheets.

Functions are registered in :data:`REGISTRY`.  Eager functions receive
pre-evaluated values (scalars or :class:`RangeValue`); *lazy* functions
(IF, AND, IFERROR, ...) receive the evaluation context and unevaluated AST
nodes so they can short-circuit and tolerate errors.  Operators are
declared once in :data:`OPERATORS`.  The interpreter, the template
compiler and the strip kernels all read these two tables; none of them
spells out a function or an operator again.
"""

from __future__ import annotations

import fnmatch
import math
from operator import add, mul, neg, pos, sub, truediv
from typing import Callable, NamedTuple

from ..grid.range import Range
from .errors import NA_ERROR, NUM_ERROR, REF_ERROR, VALUE_ERROR, ExcelError
from .numeric import fsum_count
from .values import (
    ErrorSignal,
    RangeValue,
    compare_values,
    safe_divide,
    to_bool,
    to_number,
    to_text,
)

__all__ = ["OPERATORS", "REGISTRY", "FunctionSpec", "Operator", "parse_criteria"]


class FunctionSpec(NamedTuple):
    name: str
    impl: Callable
    lazy: bool = False
    min_args: int = 0
    max_args: int | None = None


REGISTRY: dict[str, FunctionSpec] = {}


def _register(name: str, *, lazy: bool = False, min_args: int = 0, max_args: int | None = None):
    def decorator(fn: Callable) -> Callable:
        REGISTRY[name] = FunctionSpec(name, fn, lazy, min_args, max_args)
        return fn

    return decorator


def _alias(name: str, target: str) -> None:
    spec = REGISTRY[target]
    REGISTRY[name] = spec._replace(name=name)


class Operator(NamedTuple):
    """One formula operator.

    ``scalar`` takes the evaluated operands and does the operator's
    coercion and error mapping.  ``lane`` is the same operation on plain
    floats, for the strip kernels (:mod:`repro.engine.vectorized`), or
    None where a float lane cannot follow the scalar form.  A comparison
    (``compares``) yields a logical, which a lane reads as 1.0 / 0.0, as
    ``to_number`` does; NaN ranks above everything, itself included, as
    in ``compare_values``.  A zero right operand of an operator that
    ``divides`` is the scalar form's ``#DIV/0!``: the kernels leave that
    lane to the closure.
    """

    symbol: str
    arity: int
    scalar: Callable
    lane: Callable | None = None
    compares: bool = False
    divides: bool = False


#: Every operator, keyed by ``(symbol, arity)``.
OPERATORS: dict[tuple[str, int], Operator] = {}


def _operator(symbol: str, arity: int, scalar: Callable, lane: Callable | None = None,
              *, compares: bool = False, divides: bool = False) -> None:
    OPERATORS[symbol, arity] = Operator(symbol, arity, scalar, lane, compares, divides)


def _power(left, right) -> float:
    base, exponent = to_number(left), to_number(right)
    try:
        result = base ** exponent
    except (OverflowError, ZeroDivisionError, ValueError):
        raise ErrorSignal(NUM_ERROR) from None
    if isinstance(result, complex):
        raise ErrorSignal(NUM_ERROR)
    return float(result)


_operator("+", 2, lambda left, right: to_number(left) + to_number(right), add)
_operator("-", 2, lambda left, right: to_number(left) - to_number(right), sub)
_operator("*", 2, lambda left, right: to_number(left) * to_number(right), mul)
_operator("/", 2, lambda left, right: safe_divide(to_number(left), to_number(right)),
          truediv, divides=True)
# ``^`` maps overflow, domain and complex results to #NUM!, an error no
# float operation produces; ``&`` makes text.  Neither has a lane.
_operator("^", 2, _power)
_operator("&", 2, lambda left, right: to_text(left) + to_text(right))
_operator("=", 2, lambda left, right: compare_values(left, right) == 0,
          lambda a, b: 1.0 if a == b else 0.0, compares=True)
_operator("<>", 2, lambda left, right: compare_values(left, right) != 0,
          lambda a, b: 0.0 if a == b else 1.0, compares=True)
_operator("<", 2, lambda left, right: compare_values(left, right) < 0,
          lambda a, b: 1.0 if a < b else 0.0, compares=True)
_operator("<=", 2, lambda left, right: compare_values(left, right) <= 0,
          lambda a, b: 1.0 if a <= b else 0.0, compares=True)
_operator(">", 2, lambda left, right: compare_values(left, right) > 0,
          lambda a, b: 0.0 if a <= b else 1.0, compares=True)
_operator(">=", 2, lambda left, right: compare_values(left, right) >= 0,
          lambda a, b: 0.0 if a < b else 1.0, compares=True)
_operator("-", 1, lambda value: -to_number(value), neg)
_operator("%", 1, lambda value: to_number(value) / 100.0, lambda a: a / 100.0)
_operator("+", 1, to_number, pos)


# ---------------------------------------------------------------------------
# helpers


def _iter_numbers(values):
    """Numbers from a mixed argument list, lazily.

    Direct scalar arguments are coerced (so ``SUM("3")`` works); range
    arguments contribute only their numeric cells, per Excel.  This is
    the non-materialising path: single-pass aggregates (SUM/AVERAGE/
    MIN/MAX/PRODUCT) consume it without ever building the full list —
    on a 100k-cell range that is the difference between O(1) and O(n)
    transient allocation (see ``benchmarks/bench_micro_aggregates.py``).
    """
    for value in values:
        if isinstance(value, RangeValue):
            yield from value.iter_numbers()
        elif value is None:
            continue
        else:
            yield to_number(value)


def _flatten_numbers(values) -> list[float]:
    """Materialised form of :func:`_iter_numbers`, for the aggregates
    that genuinely need every element at once (MEDIAN, STDEV, ...)."""
    return list(_iter_numbers(values))


def _flatten_all(values) -> list[object]:
    out: list[object] = []
    for value in values:
        if isinstance(value, RangeValue):
            out.extend(value.iter_nonblank())
        else:
            out.append(value)
    return out


def parse_criteria(criterion) -> Callable[[object], bool]:
    """Compile a SUMIF/COUNTIF criterion into a predicate.

    Supports the comparison-prefixed forms (``">=5"``, ``"<>x"``), numeric
    equality, and text equality with ``*``/``?`` wildcards.
    """
    if isinstance(criterion, RangeValue):
        criterion = criterion.get(0, 0) if criterion.width == criterion.height == 1 else None
    if isinstance(criterion, str):
        text = criterion
        for op in ("<>", "<=", ">=", "=", "<", ">"):
            if text.startswith(op):
                body = text[len(op):]
                try:
                    target: object = float(body)
                    numeric = True
                except ValueError:
                    target = body
                    numeric = False

                def predicate(value, op=op, target=target, numeric=numeric):
                    if value is None:
                        return False
                    if numeric and not isinstance(value, (int, float)):
                        return op == "<>"
                    if not numeric and not isinstance(value, str):
                        return op == "<>"
                    try:
                        cmp = compare_values(value, target)
                    except ErrorSignal:
                        return False
                    return {
                        "=": cmp == 0, "<>": cmp != 0,
                        "<": cmp < 0, "<=": cmp <= 0,
                        ">": cmp > 0, ">=": cmp >= 0,
                    }[op]

                return predicate
        if "*" in text or "?" in text:
            pattern = text.lower()
            return lambda value: isinstance(value, str) and fnmatch.fnmatchcase(
                value.lower(), pattern
            )
        try:
            target_num = float(text)
            return lambda value: isinstance(value, (int, float)) and not isinstance(
                value, bool
            ) and float(value) == target_num
        except ValueError:
            return lambda value: isinstance(value, str) and value.lower() == text.lower()
    if isinstance(criterion, bool):
        return lambda value: isinstance(value, bool) and value == criterion
    if isinstance(criterion, (int, float)):
        target_num = float(criterion)
        return lambda value: isinstance(value, (int, float)) and not isinstance(
            value, bool
        ) and float(value) == target_num
    if criterion is None:
        return lambda value: value is None
    raise ErrorSignal(VALUE_ERROR)


# ---------------------------------------------------------------------------
# math and aggregates


@_register("SUM")
def _sum(ctx, *values):
    return math.fsum(_iter_numbers(values))


@_register("PRODUCT")
def _product(ctx, *values):
    out = 1.0
    for number in _iter_numbers(values):
        out *= number
    return out


@_register("AVERAGE", min_args=1)
def _average(ctx, *values):
    # One non-materialising pass; fsum_count is bit-identical to
    # fsum-over-a-list, so this matches the historical behaviour exactly.
    total, count = fsum_count(_iter_numbers(values))
    return safe_divide(total, count)


_alias("AVG", "AVERAGE")


@_register("MIN")
def _min(ctx, *values):
    return min(_iter_numbers(values), default=0.0)


@_register("MAX")
def _max(ctx, *values):
    return max(_iter_numbers(values), default=0.0)


@_register("COUNT")
def _count(ctx, *values):
    total = 0
    for value in values:
        if isinstance(value, RangeValue):
            total += sum(1 for _ in value.iter_numbers())
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            total += 1
    return float(total)


@_register("COUNTA")
def _counta(ctx, *values):
    return float(sum(1 for v in _flatten_all(values) if v is not None))


@_register("COUNTBLANK", min_args=1, max_args=1)
def _countblank(ctx, rng):
    if not isinstance(rng, RangeValue):
        return 0.0 if rng is not None else 1.0
    occupied = sum(1 for v in rng.iter_nonblank() if v is not None)
    return float(rng.range.size - occupied)


@_register("MEDIAN", min_args=1)
def _median(ctx, *values):
    numbers = sorted(_flatten_numbers(values))
    if not numbers:
        raise ErrorSignal(NUM_ERROR)
    mid = len(numbers) // 2
    if len(numbers) % 2:
        return numbers[mid]
    return (numbers[mid - 1] + numbers[mid]) / 2.0


@_register("STDEV", min_args=1)
def _stdev(ctx, *values):
    numbers = _flatten_numbers(values)
    if len(numbers) < 2:
        raise ErrorSignal(ExcelError("#DIV/0!"))
    mean = math.fsum(numbers) / len(numbers)
    return math.sqrt(math.fsum((x - mean) ** 2 for x in numbers) / (len(numbers) - 1))


@_register("VAR", min_args=1)
def _var(ctx, *values):
    numbers = _flatten_numbers(values)
    if len(numbers) < 2:
        raise ErrorSignal(ExcelError("#DIV/0!"))
    mean = math.fsum(numbers) / len(numbers)
    return math.fsum((x - mean) ** 2 for x in numbers) / (len(numbers) - 1)


@_register("SMALL", min_args=2, max_args=2)
def _small(ctx, values, k):
    numbers = sorted(_flatten_numbers([values]))
    index = int(to_number(k))
    if index < 1 or index > len(numbers):
        raise ErrorSignal(NUM_ERROR)
    return numbers[index - 1]


@_register("LARGE", min_args=2, max_args=2)
def _large(ctx, values, k):
    numbers = sorted(_flatten_numbers([values]), reverse=True)
    index = int(to_number(k))
    if index < 1 or index > len(numbers):
        raise ErrorSignal(NUM_ERROR)
    return numbers[index - 1]


@_register("ABS", min_args=1, max_args=1)
def _abs(ctx, value):
    return abs(to_number(value))


@_register("SIGN", min_args=1, max_args=1)
def _sign(ctx, value):
    number = to_number(value)
    return float((number > 0) - (number < 0))


@_register("INT", min_args=1, max_args=1)
def _int(ctx, value):
    return float(math.floor(to_number(value)))


@_register("ROUND", min_args=1, max_args=2)
def _round(ctx, value, digits=0.0):
    number, nd = to_number(value), int(to_number(digits))
    scale = 10.0 ** nd
    # Excel rounds half away from zero, not banker's rounding.
    return math.floor(abs(number) * scale + 0.5) / scale * (1 if number >= 0 else -1)


@_register("ROUNDUP", min_args=1, max_args=2)
def _roundup(ctx, value, digits=0.0):
    number, nd = to_number(value), int(to_number(digits))
    scale = 10.0 ** nd
    return math.ceil(abs(number) * scale - 1e-12) / scale * (1 if number >= 0 else -1)


@_register("ROUNDDOWN", min_args=1, max_args=2)
def _rounddown(ctx, value, digits=0.0):
    number, nd = to_number(value), int(to_number(digits))
    scale = 10.0 ** nd
    return math.floor(abs(number) * scale + 1e-12) / scale * (1 if number >= 0 else -1)


@_register("SQRT", min_args=1, max_args=1)
def _sqrt(ctx, value):
    number = to_number(value)
    if number < 0:
        raise ErrorSignal(NUM_ERROR)
    return math.sqrt(number)


@_register("POWER", min_args=2, max_args=2)
def _power(ctx, base, exponent):
    try:
        result = to_number(base) ** to_number(exponent)
    except (OverflowError, ZeroDivisionError, ValueError):
        raise ErrorSignal(NUM_ERROR) from None
    if isinstance(result, complex):
        raise ErrorSignal(NUM_ERROR)
    return float(result)


@_register("MOD", min_args=2, max_args=2)
def _mod(ctx, value, divisor):
    d = to_number(divisor)
    if d == 0:
        raise ErrorSignal(ExcelError("#DIV/0!"))
    return math.fmod(math.fmod(to_number(value), d) + d, d)


@_register("EXP", min_args=1, max_args=1)
def _exp(ctx, value):
    try:
        return math.exp(to_number(value))
    except OverflowError:
        raise ErrorSignal(NUM_ERROR) from None


@_register("LN", min_args=1, max_args=1)
def _ln(ctx, value):
    number = to_number(value)
    if number <= 0:
        raise ErrorSignal(NUM_ERROR)
    return math.log(number)


@_register("LOG", min_args=1, max_args=2)
def _log(ctx, value, base=10.0):
    number, b = to_number(value), to_number(base)
    if number <= 0 or b <= 0 or b == 1:
        raise ErrorSignal(NUM_ERROR)
    return math.log(number, b)


@_register("LOG10", min_args=1, max_args=1)
def _log10(ctx, value):
    number = to_number(value)
    if number <= 0:
        raise ErrorSignal(NUM_ERROR)
    return math.log10(number)


@_register("PI", max_args=0)
def _pi(ctx):
    return math.pi


@_register("FLOOR", min_args=1, max_args=2)
def _floor(ctx, value, significance=1.0):
    number, step = to_number(value), to_number(significance)
    if step == 0:
        raise ErrorSignal(ExcelError("#DIV/0!"))
    return math.floor(number / step) * step


@_register("CEILING", min_args=1, max_args=2)
def _ceiling(ctx, value, significance=1.0):
    number, step = to_number(value), to_number(significance)
    if step == 0:
        return 0.0
    return math.ceil(number / step) * step


@_register("SUMPRODUCT", min_args=1)
def _sumproduct(ctx, *ranges):
    columns = []
    for rng in ranges:
        if isinstance(rng, RangeValue):
            values = [v for _, _, v in rng.iter_all_positions()]
        else:
            values = [rng]
        columns.append(values)
    length = len(columns[0])
    if any(len(col) != length for col in columns):
        raise ErrorSignal(VALUE_ERROR)
    total = 0.0
    for i in range(length):
        product = 1.0
        for col in columns:
            value = col[i]
            if isinstance(value, ExcelError):
                raise ErrorSignal(value)
            product *= (
                float(value)
                if isinstance(value, (int, float)) and not isinstance(value, bool)
                else 0.0
            )
        total += product
    return total


# ---------------------------------------------------------------------------
# conditional aggregates


@_register("SUMIF", min_args=2, max_args=3)
def _sumif(ctx, criteria_range, criterion, sum_range=None):
    if not isinstance(criteria_range, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    predicate = parse_criteria(criterion)
    target = sum_range if isinstance(sum_range, RangeValue) else criteria_range
    total = 0.0
    for r, c, value in criteria_range.iter_all_positions():
        if predicate(value):
            candidate = target.get(r, c) if (r < target.height and c < target.width) else None
            if isinstance(candidate, ExcelError):
                raise ErrorSignal(candidate)
            if isinstance(candidate, (int, float)) and not isinstance(candidate, bool):
                total += float(candidate)
    return total


@_register("COUNTIF", min_args=2, max_args=2)
def _countif(ctx, criteria_range, criterion):
    if not isinstance(criteria_range, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    predicate = parse_criteria(criterion)
    return float(sum(1 for _, _, v in criteria_range.iter_all_positions() if predicate(v)))


@_register("AVERAGEIF", min_args=2, max_args=3)
def _averageif(ctx, criteria_range, criterion, avg_range=None):
    if not isinstance(criteria_range, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    predicate = parse_criteria(criterion)
    target = avg_range if isinstance(avg_range, RangeValue) else criteria_range
    numbers = []
    for r, c, value in criteria_range.iter_all_positions():
        if predicate(value):
            candidate = target.get(r, c) if (r < target.height and c < target.width) else None
            if isinstance(candidate, (int, float)) and not isinstance(candidate, bool):
                numbers.append(float(candidate))
    return safe_divide(math.fsum(numbers), len(numbers))


def _ifs_matches(pairs: list, target: "RangeValue | None" = None) -> list[tuple[int, int]]:
    """Offsets matching every (range, criterion) pair of an *IFS call.

    When a ``target`` (sum/average/min/max range) is given, its shape
    must match the criteria ranges, per Excel.
    """
    if not pairs:
        raise ErrorSignal(VALUE_ERROR)
    first = pairs[0][0]
    if not isinstance(first, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    if target is not None and (
        target.width != first.width or target.height != first.height
    ):
        raise ErrorSignal(VALUE_ERROR)
    predicates = []
    for rng, criterion in pairs:
        if not isinstance(rng, RangeValue):
            raise ErrorSignal(VALUE_ERROR)
        if rng.width != first.width or rng.height != first.height:
            raise ErrorSignal(VALUE_ERROR)
        predicates.append((rng, parse_criteria(criterion)))
    out: list[tuple[int, int]] = []
    for r in range(first.height):
        for c in range(first.width):
            if all(predicate(rng.get(r, c)) for rng, predicate in predicates):
                out.append((r, c))
    return out


def _pairs_of(args: tuple) -> list:
    if len(args) % 2:
        raise ErrorSignal(VALUE_ERROR)
    return [(args[i], args[i + 1]) for i in range(0, len(args), 2)]


@_register("SUMIFS", min_args=3)
def _sumifs(ctx, sum_range, *criteria):
    if not isinstance(sum_range, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    total = 0.0
    for r, c in _ifs_matches(_pairs_of(criteria), sum_range):
        value = sum_range.get(r, c)
        if isinstance(value, ExcelError):
            raise ErrorSignal(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            total += float(value)
    return total


@_register("COUNTIFS", min_args=2)
def _countifs(ctx, *criteria):
    return float(len(_ifs_matches(_pairs_of(criteria))))


@_register("AVERAGEIFS", min_args=3)
def _averageifs(ctx, avg_range, *criteria):
    if not isinstance(avg_range, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    numbers = []
    for r, c in _ifs_matches(_pairs_of(criteria), avg_range):
        value = avg_range.get(r, c)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers.append(float(value))
    return safe_divide(math.fsum(numbers), len(numbers))


@_register("MAXIFS", min_args=3)
def _maxifs(ctx, max_range, *criteria):
    values = _ifs_numbers(max_range, criteria)
    return max(values) if values else 0.0


@_register("MINIFS", min_args=3)
def _minifs(ctx, min_range, *criteria):
    values = _ifs_numbers(min_range, criteria)
    return min(values) if values else 0.0


def _ifs_numbers(target, criteria) -> list[float]:
    if not isinstance(target, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    out = []
    for r, c in _ifs_matches(_pairs_of(criteria), target):
        value = target.get(r, c)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append(float(value))
    return out


@_register("RANK", min_args=2, max_args=3)
def _rank(ctx, value, rng, descending_is_zero=0.0):
    if not isinstance(rng, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    target = to_number(value)
    numbers = sorted(rng.iter_numbers(), reverse=not to_number(descending_is_zero))
    for i, number in enumerate(numbers, start=1):
        if number == target:
            return float(i)
    raise ErrorSignal(NA_ERROR)


@_register("PERCENTILE", min_args=2, max_args=2)
def _percentile(ctx, rng, q):
    if not isinstance(rng, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    fraction = to_number(q)
    if not 0.0 <= fraction <= 1.0:
        raise ErrorSignal(NUM_ERROR)
    numbers = sorted(rng.iter_numbers())
    if not numbers:
        raise ErrorSignal(NUM_ERROR)
    if len(numbers) == 1:
        return numbers[0]
    rank = fraction * (len(numbers) - 1)
    low = int(rank)
    high = min(low + 1, len(numbers) - 1)
    return numbers[low] + (numbers[high] - numbers[low]) * (rank - low)


@_register("TRUNC", min_args=1, max_args=2)
def _trunc(ctx, value, digits=0.0):
    number, nd = to_number(value), int(to_number(digits))
    scale = 10.0 ** nd
    return math.trunc(number * scale) / scale


@_register("EVEN", min_args=1, max_args=1)
def _even(ctx, value):
    number = to_number(value)
    rounded = math.ceil(abs(number) / 2.0) * 2.0
    return rounded if number >= 0 else -rounded


@_register("ODD", min_args=1, max_args=1)
def _odd(ctx, value):
    number = to_number(value)
    magnitude = abs(number)
    rounded = math.ceil((magnitude + 1.0) / 2.0) * 2.0 - 1.0
    return rounded if number >= 0 else -rounded


# ---------------------------------------------------------------------------
# logical (lazy, to short-circuit and tolerate errors)


@_register("IF", lazy=True, min_args=2, max_args=3)
def _if(ctx, nodes):
    condition = to_bool(ctx.eval(nodes[0]))
    if condition:
        return ctx.eval(nodes[1])
    if len(nodes) >= 3:
        return ctx.eval(nodes[2])
    return False


@_register("AND", lazy=True, min_args=1)
def _and(ctx, nodes):
    for node in nodes:
        if not _truthy_for_logical(ctx.eval(node)):
            return False
    return True


@_register("OR", lazy=True, min_args=1)
def _or(ctx, nodes):
    for node in nodes:
        if _truthy_for_logical(ctx.eval(node)):
            return True
    return False


def _truthy_for_logical(value) -> bool:
    if isinstance(value, RangeValue):
        return any(to_bool(v) for v in value.iter_nonblank())
    return to_bool(value)


@_register("XOR", lazy=True, min_args=1)
def _xor(ctx, nodes):
    count = sum(1 for node in nodes if _truthy_for_logical(ctx.eval(node)))
    return count % 2 == 1


@_register("NOT", min_args=1, max_args=1)
def _not(ctx, value):
    return not to_bool(value)


@_register("IFERROR", lazy=True, min_args=2, max_args=2)
def _iferror(ctx, nodes):
    try:
        value = ctx.eval(nodes[0])
    except ErrorSignal:
        return ctx.eval(nodes[1])
    if isinstance(value, ExcelError):
        return ctx.eval(nodes[1])
    return value


@_register("ISERROR", lazy=True, min_args=1, max_args=1)
def _iserror(ctx, nodes):
    try:
        value = ctx.eval(nodes[0])
    except ErrorSignal:
        return True
    return isinstance(value, ExcelError)


@_register("ISBLANK", min_args=1, max_args=1)
def _isblank(ctx, value):
    if isinstance(value, RangeValue):
        value = value.get(0, 0) if value.width == value.height == 1 else None
    return value is None


@_register("ISNUMBER", min_args=1, max_args=1)
def _isnumber(ctx, value):
    if isinstance(value, RangeValue):
        value = value.get(0, 0) if value.width == value.height == 1 else None
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@_register("ISTEXT", min_args=1, max_args=1)
def _istext(ctx, value):
    if isinstance(value, RangeValue):
        value = value.get(0, 0) if value.width == value.height == 1 else None
    return isinstance(value, str)


# ---------------------------------------------------------------------------
# text


@_register("CONCATENATE", min_args=1)
def _concatenate(ctx, *values):
    return "".join(to_text(v) for v in values)


_alias("CONCAT", "CONCATENATE")


@_register("LEN", min_args=1, max_args=1)
def _len(ctx, value):
    return float(len(to_text(value)))


@_register("LEFT", min_args=1, max_args=2)
def _left(ctx, value, count=1.0):
    n = int(to_number(count))
    if n < 0:
        raise ErrorSignal(VALUE_ERROR)
    return to_text(value)[:n]


@_register("RIGHT", min_args=1, max_args=2)
def _right(ctx, value, count=1.0):
    n = int(to_number(count))
    if n < 0:
        raise ErrorSignal(VALUE_ERROR)
    return to_text(value)[-n:] if n else ""


@_register("MID", min_args=3, max_args=3)
def _mid(ctx, value, start, count):
    start_i, count_i = int(to_number(start)), int(to_number(count))
    if start_i < 1 or count_i < 0:
        raise ErrorSignal(VALUE_ERROR)
    return to_text(value)[start_i - 1 : start_i - 1 + count_i]


@_register("UPPER", min_args=1, max_args=1)
def _upper(ctx, value):
    return to_text(value).upper()


@_register("LOWER", min_args=1, max_args=1)
def _lower(ctx, value):
    return to_text(value).lower()


@_register("TRIM", min_args=1, max_args=1)
def _trim(ctx, value):
    return " ".join(to_text(value).split())


@_register("REPT", min_args=2, max_args=2)
def _rept(ctx, value, count):
    n = int(to_number(count))
    if n < 0:
        raise ErrorSignal(VALUE_ERROR)
    return to_text(value) * n


@_register("FIND", min_args=2, max_args=3)
def _find(ctx, needle, haystack, start=1.0):
    start_i = int(to_number(start))
    if start_i < 1:
        raise ErrorSignal(VALUE_ERROR)
    index = to_text(haystack).find(to_text(needle), start_i - 1)
    if index < 0:
        raise ErrorSignal(VALUE_ERROR)
    return float(index + 1)


@_register("SUBSTITUTE", min_args=3, max_args=4)
def _substitute(ctx, value, old, new, instance=None):
    text, old_text, new_text = to_text(value), to_text(old), to_text(new)
    if instance is None:
        return text.replace(old_text, new_text)
    nth = int(to_number(instance))
    if nth < 1:
        raise ErrorSignal(VALUE_ERROR)
    index = -1
    for _ in range(nth):
        index = text.find(old_text, index + 1)
        if index < 0:
            return text
    return text[:index] + new_text + text[index + len(old_text):]


@_register("VALUE", min_args=1, max_args=1)
def _value(ctx, value):
    return to_number(value)


@_register("TEXT", min_args=1, max_args=2)
def _text(ctx, value, fmt=None):
    # Minimal TEXT: we support the "0"/"0.00"-style fixed-decimal formats.
    number = to_number(value)
    if fmt is None:
        return to_text(number)
    fmt_text = to_text(fmt)
    if "." in fmt_text:
        decimals = len(fmt_text.split(".", 1)[1].replace('"', ""))
        return f"{number:.{decimals}f}"
    return str(int(round(number)))


# ---------------------------------------------------------------------------
# lookup and reference
#
# The linear scans below are the semantics-defining reference for every
# lookup builtin.  The engine may attach a lookaside-index probe to the
# resolver (``repro.engine.lookup``); when a vector qualifies, the probe
# answers the same (side, tie) query from a hash map or sorted index and
# MUST be bit-identical to the scan on arbitrary — unsorted, mixed-type,
# holey — data.  That is only possible because matching is class-filtered:
# an entry can match only a needle of its own type class, so approximate
# mode is "best entry of the needle's class under <=/>=", never a global
# ordering over mixed types (which Excel does not use either).

#: Lookup type classes: entries match needles of the same class only.
_CLS_NUM, _CLS_TEXT, _CLS_BOOL = 0, 1, 2


def lookup_entry_key(value):
    """``value -> (cls, norm)`` for an indexable vector entry.

    None means the entry can never match: blanks, errors, NaN and exotic
    objects are transparent to every lookup mode.  Text normalises to
    casefolded-by-``lower`` form (Excel compares case-insensitively).
    """
    if value is None or isinstance(value, ExcelError):
        return None
    if value is True or value is False:
        return (_CLS_BOOL, value)
    if isinstance(value, (int, float)):
        value = float(value)
        return None if value != value else (_CLS_NUM, value)
    if isinstance(value, str):
        return (_CLS_TEXT, value.lower())
    return None


def lookup_needle_key(needle):
    """Like :func:`lookup_entry_key` for the sought value.

    A blank needle coerces to numeric zero (Excel's behaviour for an
    empty lookup_value); a 1x1 range collapses by implicit intersection;
    a multi-cell range or error needle can never match (the callers'
    legacy #N/A behaviour).
    """
    if isinstance(needle, RangeValue):
        if needle.width == 1 and needle.height == 1:
            needle = needle.get(0, 0)
        else:
            return None
    if needle is None:
        return (_CLS_NUM, 0.0)
    return lookup_entry_key(needle)


def _scan_vector(values, key, *, side: str, tie: str) -> int | None:
    """Reference linear scan: offset of the winning entry, or None.

    ``side`` selects the candidate set among same-class entries —
    ``"eq"`` equal to the needle, ``"le"`` the largest entry <= needle,
    ``"ge"`` the smallest entry >= needle.  ``tie`` picks which offset
    wins among equal candidate *values* ("first"/"last").  Index probes
    implement exactly this contract (see ``repro.engine.lookup``).
    """
    cls, norm = key
    best = None
    best_norm = None
    for i, value in enumerate(values):
        entry = lookup_entry_key(value)
        if entry is None or entry[0] != cls:
            continue
        e = entry[1]
        if side == "eq":
            if e == norm:
                if tie == "first":
                    return i
                best = i
        elif side == "le":
            if e <= norm and (
                best is None or e > best_norm or (e == best_norm and tie == "last")
            ):
                best, best_norm = i, e
        else:  # "ge"
            if e >= norm and (
                best is None or e < best_norm or (e == best_norm and tie == "last")
            ):
                best, best_norm = i, e
    return best


def _lookup_scan(values, needle, approximate: bool) -> int | None:
    """Legacy entry point kept as the compact reference: VLOOKUP-style
    exact (first equal entry) or approximate (largest entry <= needle,
    last occurrence on ties) matching."""
    key = lookup_needle_key(needle)
    if key is None:
        return None
    if approximate:
        return _scan_vector(values, key, side="le", tie="last")
    return _scan_vector(values, key, side="eq", tie="first")


def _lookup_offset(rv, bounds, values_factory, needle, *, side, tie):
    """Resolve one (side, tie) lookup over a 1-D vector of ``rv``.

    Consults the engine's lookaside probe when the resolver carries one
    (``bounds`` is the vector's (c1, r1, c2, r2)); otherwise runs the
    reference scan over ``values_factory()``.
    """
    key = lookup_needle_key(needle)
    if key is None:
        return None
    probe = getattr(rv._resolver, "lookup_probe", None)
    if probe is not None:
        index = probe(rv.sheet, *bounds)
        if index is not None:
            return index.find(key, side, tie)
    return _scan_vector(values_factory(), key, side=side, tie=tie)


def _first_column(rv):
    r = rv.range
    return (r.c1, r.r1, r.c1, r.r2), lambda: rv.column_values(0)


def _first_row(rv):
    r = rv.range
    return (r.c1, r.r1, r.c2, r.r1), lambda: rv.row_values(0)


@_register("VLOOKUP", min_args=3, max_args=4)
def _vlookup(ctx, needle, table, col_index, approximate=True):
    if not isinstance(table, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    col = int(to_number(col_index))
    if col < 1 or col > table.width:
        raise ErrorSignal(VALUE_ERROR)
    approx = to_bool(approximate) if not isinstance(approximate, bool) else approximate
    bounds, factory = _first_column(table)
    match_row = _lookup_offset(
        table, bounds, factory, needle,
        side="le" if approx else "eq", tie="last" if approx else "first",
    )
    if match_row is None:
        raise ErrorSignal(NA_ERROR)
    return table.get(match_row, col - 1)


@_register("HLOOKUP", min_args=3, max_args=4)
def _hlookup(ctx, needle, table, row_index, approximate=True):
    if not isinstance(table, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    row = int(to_number(row_index))
    if row < 1 or row > table.height:
        raise ErrorSignal(VALUE_ERROR)
    approx = to_bool(approximate) if not isinstance(approximate, bool) else approximate
    bounds, factory = _first_row(table)
    match_col = _lookup_offset(
        table, bounds, factory, needle,
        side="le" if approx else "eq", tie="last" if approx else "first",
    )
    if match_col is None:
        raise ErrorSignal(NA_ERROR)
    return table.get(row - 1, match_col)


@_register("MATCH", min_args=2, max_args=3)
def _match(ctx, needle, rng, match_type=1.0):
    if not isinstance(rng, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    if rng.width != 1 and rng.height != 1:
        raise ErrorSignal(NA_ERROR)
    mode = int(to_number(match_type))
    if mode == 0:
        side, tie = "eq", "first"
    elif mode > 0:
        side, tie = "le", "last"
    else:  # descending order: smallest entry >= needle, last occurrence
        side, tie = "ge", "last"
    bounds, factory = _first_column(rng) if rng.width == 1 else _first_row(rng)
    index = _lookup_offset(rng, bounds, factory, needle, side=side, tie=tie)
    if index is None:
        raise ErrorSignal(NA_ERROR)
    return float(index + 1)


def _excel_pattern(text: str) -> str:
    """Translate an Excel wildcard pattern to :mod:`fnmatch` syntax:
    ``~*``/``~?``/``~~`` are literals, ``[`` has no special meaning."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "~" and i + 1 < len(text) and text[i + 1] in "*?~":
            out.append("[" + text[i + 1] + "]")
            i += 2
            continue
        out.append("[[]" if ch == "[" else ch)
        i += 1
    return "".join(out)


def _wildcard_scan(values, needle, tie: str) -> int | None:
    """XLOOKUP match_mode 2: wildcard match over text entries only."""
    if not isinstance(needle, str):
        key = lookup_needle_key(needle)
        if key is None:
            return None
        return _scan_vector(values, key, side="eq", tie=tie)
    pattern = _excel_pattern(needle.lower())
    best = None
    for i, value in enumerate(values):
        if isinstance(value, str) and fnmatch.fnmatchcase(value.lower(), pattern):
            if tie == "first":
                return i
            best = i
    return best


@_register("XLOOKUP", min_args=3, max_args=6)
def _xlookup(ctx, needle, lookup_rng, return_rng, if_not_found=None,
             match_mode=0.0, search_mode=1.0):
    if not isinstance(lookup_rng, RangeValue) or not isinstance(return_rng, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    if lookup_rng.width != 1 and lookup_rng.height != 1:
        raise ErrorSignal(VALUE_ERROR)
    vertical = lookup_rng.width == 1
    length = lookup_rng.height if vertical else lookup_rng.width
    if vertical:
        if return_rng.height != length or return_rng.width != 1:
            raise ErrorSignal(VALUE_ERROR)
    elif return_rng.width != length or return_rng.height != 1:
        raise ErrorSignal(VALUE_ERROR)
    mode = int(to_number(match_mode))
    order = int(to_number(search_mode))
    if mode not in (-1, 0, 1, 2) or order not in (-2, -1, 1, 2):
        raise ErrorSignal(VALUE_ERROR)
    # Binary search modes (2/-2) assume pre-sorted data; the index makes
    # them free, so they share the linear modes' exact semantics here.
    tie = "last" if order < 0 else "first"
    bounds, factory = _first_column(lookup_rng) if vertical else _first_row(lookup_rng)
    if mode == 2:
        offset = _wildcard_scan(factory(), needle, tie)
    else:
        side = "eq" if mode == 0 else ("le" if mode < 0 else "ge")
        offset = _lookup_offset(lookup_rng, bounds, factory, needle, side=side, tie=tie)
    if offset is None:
        if if_not_found is not None:
            return if_not_found
        raise ErrorSignal(NA_ERROR)
    return return_rng.get(offset, 0) if vertical else return_rng.get(0, offset)


@_register("INDEX", min_args=2, max_args=3)
def _index(ctx, rng, row, col=None):
    if not isinstance(rng, RangeValue):
        raise ErrorSignal(VALUE_ERROR)
    row_i = int(to_number(row))
    if row_i < 0:
        raise ErrorSignal(VALUE_ERROR)
    if col is None:
        if rng.width != 1 and rng.height != 1:
            raise ErrorSignal(VALUE_ERROR)
        if row_i == 0:
            return rng
        if rng.width == 1:
            return rng.get(row_i - 1, 0)
        return rng.get(0, row_i - 1)
    col_i = int(to_number(col))
    if col_i < 0:
        raise ErrorSignal(VALUE_ERROR)
    if row_i == 0 or col_i == 0:
        if row_i > rng.height or col_i > rng.width:
            raise ErrorSignal(REF_ERROR)
        r = rng.range
        if row_i == 0 and col_i == 0:
            return rng
        if row_i == 0:
            c = r.c1 + col_i - 1
            sub = Range(c, r.r1, c, r.r2)
        else:
            rr = r.r1 + row_i - 1
            sub = Range(r.c1, rr, r.c2, rr)
        return RangeValue(sub, rng.sheet, rng._resolver)
    return rng.get(row_i - 1, col_i - 1)


@_register("ROW", lazy=True, max_args=1)
def _row(ctx, nodes):
    if nodes:
        rng = ctx.eval_reference(nodes[0])
        return float(rng.r1)
    return float(ctx.row)


@_register("COLUMN", lazy=True, max_args=1)
def _column(ctx, nodes):
    if nodes:
        rng = ctx.eval_reference(nodes[0])
        return float(rng.c1)
    return float(ctx.col)


@_register("ROWS", lazy=True, min_args=1, max_args=1)
def _rows(ctx, nodes):
    return float(ctx.eval_reference(nodes[0]).height)


@_register("COLUMNS", lazy=True, min_args=1, max_args=1)
def _columns(ctx, nodes):
    return float(ctx.eval_reference(nodes[0]).width)
