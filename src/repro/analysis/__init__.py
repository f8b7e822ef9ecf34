"""Analytical models: fork rates and the utilization they leave."""

from .forks import (
    bitcoin_fork_probability,
    expected_mining_power_utilization,
    ng_microblock_prune_probability,
)

__all__ = [
    "bitcoin_fork_probability",
    "expected_mining_power_utilization",
    "ng_microblock_prune_probability",
]
