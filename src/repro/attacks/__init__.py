"""Security studies: selfish mining, double spends, censorship, fees."""

from .censorship import (
    PowerDropOutcome,
    expected_censorship_wait_blocks,
    expected_censorship_wait_time,
    power_drop_comparison,
)
from .doublespend import DoubleSpendReport, run_doublespend_scenario
from .fee_strategies import (
    ForkCompetitionOutcome,
    StrategyOutcome,
    fork_fee_competition,
    profitable_window,
    simulate_extension_strategy,
    simulate_inclusion_strategy,
)
from .selfish import (
    SelfishOutcome,
    leadership_retention_probability,
    revenue_curve,
    selfish_threshold,
    simulate_selfish_mining,
    simulate_weighted_micro_takeover,
)

__all__ = [
    "DoubleSpendReport",
    "ForkCompetitionOutcome",
    "PowerDropOutcome",
    "SelfishOutcome",
    "StrategyOutcome",
    "expected_censorship_wait_blocks",
    "expected_censorship_wait_time",
    "fork_fee_competition",
    "leadership_retention_probability",
    "power_drop_comparison",
    "profitable_window",
    "revenue_curve",
    "run_doublespend_scenario",
    "selfish_threshold",
    "simulate_extension_strategy",
    "simulate_inclusion_strategy",
    "simulate_selfish_mining",
    "simulate_weighted_micro_takeover",
]
