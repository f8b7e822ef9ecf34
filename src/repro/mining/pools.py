"""Synthetic weekly mining-pool data (the Figure 6 substitute).

The paper gathered a year of per-block pool attributions from the
BlockTrail API, computed weekly power shares, ranked them, and plotted
quartiles per rank.  That API data is unavailable offline, so this
module generates a statistically equivalent dataset: for each week it
perturbs the fitted exponential shares (pools drift, ranks shuffle,
~9% of blocks are attributed to one-off unknown miners) and re-ranks.
The rank medians of the generated data recover the paper's exponential
fit (exponent ≈ −0.27, R² ≥ 0.99), which is the only property the
downstream experiments consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..stats import percentile
from .power import PAPER_EXPONENT, exponential_shares, fit_exponential

# Blocks mined per week at one block / 10 min.
BLOCKS_PER_WEEK = 7 * 24 * 6

# The paper: "about 9% of the blocks are unidentified. We considered
# each such block as generated by a different individual miner."
UNIDENTIFIED_FRACTION = 0.09


@dataclass(frozen=True)
class WeeklyShares:
    """One week of ranked pool power shares (rank 1 = largest)."""

    week: int
    shares: tuple[float, ...]

    def share_at_rank(self, rank: int) -> float:
        """Share at 1-indexed rank; zero beyond the observed pools."""
        if rank < 1:
            raise ValueError("ranks are 1-indexed")
        if rank > len(self.shares):
            return 0.0
        return self.shares[rank - 1]


def generate_year(
    n_pools: int = 20,
    n_weeks: int = 52,
    exponent: float = PAPER_EXPONENT,
    noise: float = 0.18,
    seed: int = 2015,
) -> list[WeeklyShares]:
    """Generate a year of weekly ranked pool shares.

    Each week multiplies the base exponential shares by log-normal noise
    (pools gain/lose hash power week to week), sprinkles in unidentified
    single-block miners, normalizes, and re-ranks.  ``noise`` controls
    week-to-week spread — it produces the quartile bars of Figure 6.
    """
    rng = random.Random(seed)
    base = exponential_shares(n_pools, exponent)
    weeks = []
    for week in range(n_weeks):
        perturbed = [
            share * rng.lognormvariate(0.0, noise) for share in base
        ]
        identified_total = sum(perturbed)
        # Unidentified blocks dilute every pool's share of the week.
        scale = (1.0 - UNIDENTIFIED_FRACTION) / identified_total
        shares = sorted((share * scale for share in perturbed), reverse=True)
        weeks.append(WeeklyShares(week, tuple(shares)))
    return weeks


def rank_statistics(
    weeks: list[WeeklyShares], max_rank: int = 20
) -> list[dict[str, float]]:
    """Per-rank percentile summary: the data behind Figure 6.

    Returns, for each rank 1..max_rank, a dict with keys ``rank``,
    ``p25``, ``p50``, ``p75`` of that rank's weekly share.
    """
    if not weeks:
        raise ValueError("no weekly data")
    stats = []
    for rank in range(1, max_rank + 1):
        samples = [week.share_at_rank(rank) for week in weeks]
        stats.append(
            {
                "rank": float(rank),
                "p25": percentile(samples, 0.25, interpolate=True),
                "p50": percentile(samples, 0.50, interpolate=True),
                "p75": percentile(samples, 0.75, interpolate=True),
            }
        )
    return stats


def fit_rank_medians(
    weeks: list[WeeklyShares], max_rank: int = 20
) -> tuple[float, float]:
    """Fit the exponential to rank medians, as the paper did.

    Returns (exponent, r_squared); expected ≈ (−0.27, ≥0.99).
    """
    stats = rank_statistics(weeks, max_rank)
    medians = [entry["p50"] for entry in stats]
    return fit_exponential(medians)
