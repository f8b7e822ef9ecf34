"""Mining substrate: power distributions, pool data, scheduler, difficulty."""

from .difficulty import (
    expected_block_interval,
    recovery_blocks,
)
from .pools import (
    BLOCKS_PER_WEEK,
    UNIDENTIFIED_FRACTION,
    WeeklyShares,
    fit_rank_medians,
    generate_year,
    rank_statistics,
)
from .power import (
    PAPER_EXPONENT,
    exponential_shares,
    fit_exponential,
)
from .scheduler import MiningScheduler

__all__ = [
    "BLOCKS_PER_WEEK",
    "PAPER_EXPONENT",
    "UNIDENTIFIED_FRACTION",
    "MiningScheduler",
    "WeeklyShares",
    "expected_block_interval",
    "exponential_shares",
    "fit_exponential",
    "fit_rank_medians",
    "generate_year",
    "rank_statistics",
    "recovery_blocks",
]
