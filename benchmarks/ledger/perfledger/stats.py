"""Percentiles, quartiles and spread, as the ledger reports them."""

from __future__ import annotations

import statistics

#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond percentile ``q``."""
    return count * (100.0 - q) / 100.0 >= SAMPLES_BEYOND


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")
