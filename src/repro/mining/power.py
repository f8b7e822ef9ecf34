"""Mining power distributions.

Section 7: "To model the size distribution of mining entities, we
approximate it with an exponential distribution with an exponent of
−0.27. It yields a 0.99 coefficient of determination compared with the
medians of each rank."  This module generates that distribution and
provides the fitting machinery used to verify synthetic pool data
against it.
"""

from __future__ import annotations

import math
import statistics

# The paper's fitted exponent for pool size by rank.
PAPER_EXPONENT = -0.27


def exponential_shares(n_miners: int, exponent: float = PAPER_EXPONENT) -> list[float]:
    """Power share per rank: share(r) ∝ exp(exponent · r), normalized.

    Rank 1 is the largest miner.  With the paper's exponent and 20
    ranks, the largest miner holds just under a quarter of the power —
    consistent with the paper's threat model boundary.
    """
    if n_miners < 1:
        raise ValueError("need at least one miner")
    raw = [math.exp(exponent * rank) for rank in range(1, n_miners + 1)]
    total = sum(raw)
    return [value / total for value in raw]


def fit_exponential(shares_by_rank: list[float]) -> tuple[float, float]:
    """Least-squares fit of log(share) against rank.

    Returns (exponent, r_squared).  Used to validate that synthetic pool
    data reproduces the paper's (−0.27, 0.99) fit.
    """
    if len(shares_by_rank) < 2:
        raise ValueError("need at least two ranks to fit")
    if any(share <= 0 for share in shares_by_rank):
        raise ValueError("shares must be positive to fit in log space")
    ranks = range(1, len(shares_by_rank) + 1)
    logs = [math.log(share) for share in shares_by_rank]
    slope = statistics.linear_regression(ranks, logs).slope
    if len(set(logs)) == 1:
        return slope, 1.0  # equal shares: the flat line fits exactly
    # For a least-squares line, R² is the squared Pearson correlation.
    return slope, statistics.correlation(ranks, logs) ** 2
