"""Small statistics helpers shared across the library.

Percentiles, least-squares fitting, and summary statistics used by the
metrics, the pool model, and the experiment harness.  Dependency-free,
like the rest of the package: the library is pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def percentile(samples: Sequence[float], q: float, interpolate: bool = False) -> float:
    """The q-quantile of ``samples`` (0 <= q <= 1).

    By default uses the paper-style empirical percentile (the value at
    index floor(q·n), matching "the δ-percentile of all samples");
    ``interpolate`` selects linear interpolation instead.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 <= q <= 1:
        raise ValueError("quantile must be in [0, 1]")
    ordered = sorted(samples)
    if interpolate:
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction
    index = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[index]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line y = slope·x + intercept with its R²."""

    slope: float
    intercept: float
    r_squared: float


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares on (xs, ys)."""
    if len(xs) != len(ys):
        raise ValueError("x and y lengths differ")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    ss_xy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    ss_xx = sum((x - mean_x) ** 2 for x in xs)
    if ss_xx == 0:
        raise ValueError("x values are all identical")
    slope = ss_xy / ss_xx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LinearFit(slope, intercept, r_squared)


@dataclass(frozen=True)
class Summary:
    """Mean, spread, and extremes of a sample set."""

    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float


def summarize(samples: Iterable[float]) -> Summary:
    values = list(samples)
    if not values:
        raise ValueError("no samples")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return Summary(
        n=n,
        mean=mean,
        stdev=math.sqrt(variance),
        minimum=min(values),
        maximum=max(values),
    )
