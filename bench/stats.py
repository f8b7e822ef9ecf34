"""Median and quartiles, computed the way the benchmark's driver does."""

from __future__ import annotations

import statistics
from collections.abc import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``.

    Quartiles follow ``statistics.quantiles(values, n=4)`` (exclusive
    method), which is what the driver uses for its spread check; a
    single value is its own three quartiles.
    """
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)
