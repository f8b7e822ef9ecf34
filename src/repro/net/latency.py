"""Pairwise latency model.

The paper measured latencies "to all visible Bitcoin nodes from a single
vantage point on April 7th, 2015, and created a latency histogram", then
drew each pair's latency from it.  We cannot replay that proprietary
measurement, so :func:`default_histogram` synthesizes a histogram with
the same character: a log-normal body (median ≈ 110 ms) with a heavy
tail out to ~400 ms, consistent with published Bitcoin network
measurements (Decker & Wattenhofer 2013).  Experiments sample per-pair
latencies from the histogram exactly as the paper did; any histogram
with similar quantiles exercises the same propagation code path.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from collections.abc import Sequence


class LatencyHistogram:
    """An empirical latency distribution sampled per node pair."""

    def __init__(self, bin_edges: Sequence[float], counts: Sequence[int]) -> None:
        if len(bin_edges) != len(counts) + 1:
            raise ValueError("need one more bin edge than count")
        if any(count < 0 for count in counts):
            raise ValueError("negative histogram count")
        if sum(counts) == 0:
            raise ValueError("histogram is empty")
        if any(b2 <= b1 for b1, b2 in zip(bin_edges, bin_edges[1:])):
            raise ValueError("bin edges must be strictly increasing")
        self.bin_edges = list(bin_edges)
        self.counts = list(counts)
        self._cumulative: list[int] = []
        total = 0
        for count in counts:
            total += count
            self._cumulative.append(total)
        self._total = total

    @classmethod
    def from_samples(cls, samples: list[float], n_bins: int = 50) -> "LatencyHistogram":
        """Build a histogram from raw latency measurements."""
        if not samples:
            raise ValueError("no samples")
        low, high = min(samples), max(samples)
        if high == low:
            high = low + 1e-6
        width = (high - low) / n_bins
        edges = [low + i * width for i in range(n_bins + 1)]
        counts = [0] * n_bins
        for value in samples:
            index = min(int((value - low) / width), n_bins - 1)
            counts[index] += 1
        return cls(edges, counts)

    def sample(self, rng: random.Random) -> float:
        """Draw one latency: pick a bin by mass, uniform within it."""
        pick = rng.randrange(self._total)
        index = bisect.bisect_right(self._cumulative, pick)
        low = self.bin_edges[index]
        high = self.bin_edges[index + 1]
        return rng.uniform(low, high)

    def sample_batch(self, rng: random.Random, count: int) -> list[float]:
        """Draw ``count`` latencies with the exact RNG stream of
        ``count`` successive :meth:`sample` calls.

        The k-th element consumes the same two RNG draws (``randrange``
        then ``uniform``) the k-th ``sample`` call would, so batched and
        per-call sampling are bit-identical — the network layer relies
        on this to fill its per-edge latency arrays without perturbing
        the pinned k-th-sorted-edge ↔ k-th-draw contract.  The win is
        hoisting the attribute lookups out of the per-edge loop.
        """
        randrange = rng.randrange
        uniform = rng.uniform
        bisect_right = bisect.bisect_right
        cumulative = self._cumulative
        edges = self.bin_edges
        total = self._total
        draws = []
        append = draws.append
        for _ in range(count):
            index = bisect_right(cumulative, randrange(total))
            append(uniform(edges[index], edges[index + 1]))
        return draws

    def quantile(self, q: float) -> float:
        """Approximate the q-quantile from bin mass."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        threshold = q * self._total
        index = bisect.bisect_left(self._cumulative, threshold)
        index = min(index, len(self.counts) - 1)
        return self.bin_edges[index + 1]

    def mean(self) -> float:
        """Mass-weighted mean using bin midpoints."""
        acc = 0.0
        for i, count in enumerate(self.counts):
            mid = (self.bin_edges[i] + self.bin_edges[i + 1]) / 2
            acc += mid * count
        return acc / self._total


@functools.lru_cache(maxsize=16)
def _default_bins(
    seed: int,
    n_samples: int,
    median_ms: float,
    sigma: float,
    floor_ms: float,
    ceiling_ms: float,
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """``(bin_edges, counts)`` of :func:`default_histogram`, immutable.

    A pure function of its six scalars that every run, sweep cell and
    world used to redo (``n_samples`` ``gauss`` draws); the tuples are
    the process's one cross-run memo, and nothing mutable is shared.
    """
    rng = random.Random(seed)
    mu = math.log(median_ms)
    samples = []
    for _ in range(n_samples):
        value = math.exp(rng.gauss(mu, sigma))
        value = min(max(value, floor_ms), ceiling_ms)
        samples.append(value / 1000.0)
    histogram = LatencyHistogram.from_samples(samples)
    return tuple(histogram.bin_edges), tuple(histogram.counts)


def default_histogram(
    seed: int = 2015,
    n_samples: int = 5000,
    median_ms: float = 110.0,
    sigma: float = 0.55,
    floor_ms: float = 5.0,
    ceiling_ms: float = 400.0,
) -> LatencyHistogram:
    """Synthesize the substitute for the paper's measured histogram.

    Log-normal with the given median and shape, clipped to a realistic
    [floor, ceiling] range.  Returned latencies are in **seconds**.
    Each call returns its own histogram object.
    """
    return LatencyHistogram(
        *_default_bins(seed, n_samples, median_ms, sigma, floor_ms, ceiling_ms)
    )


def constant_histogram(latency_s: float) -> LatencyHistogram:
    """Degenerate single-bin histogram, useful for analytical tests."""
    if latency_s <= 0:
        raise ValueError("latency must be positive")
    epsilon = latency_s * 1e-9
    return LatencyHistogram([latency_s - epsilon, latency_s + epsilon], [1])
