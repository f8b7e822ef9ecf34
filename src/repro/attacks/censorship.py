"""Censorship resistance (Section 5.2).

"Assuming an honest majority and no backlog, a user will have her
transaction placed in the first block generated by an honest miner.  At
least 3/4 of the blocks are generated by honest miners, therefore the
user will have to wait for 4/3 blocks on average, or 13.33 minutes."

This module provides the closed form, plus the mining-power-drop
variant: after a power drop, key blocks slow down (stretching
censorship exposure) but Bitcoin-NG microblocks keep serializing
transactions at the same rate.
"""

from __future__ import annotations

from dataclasses import dataclass


def expected_censorship_wait_blocks(byzantine_fraction: float) -> float:
    """Expected blocks until an honest leader: 1 / (1 − f)."""
    if not 0 <= byzantine_fraction < 1:
        raise ValueError("byzantine fraction must be in [0, 1)")
    return 1.0 / (1.0 - byzantine_fraction)


def expected_censorship_wait_time(
    byzantine_fraction: float, block_interval: float
) -> float:
    """Expected wait in seconds; the paper's 13.33 min at f=1/4, 10 min."""
    if block_interval <= 0:
        raise ValueError("block interval must be positive")
    return expected_censorship_wait_blocks(byzantine_fraction) * block_interval


@dataclass(frozen=True)
class PowerDropOutcome:
    """Throughput comparison after a sudden mining power drop."""

    power_fraction_remaining: float
    stretched_key_interval: float
    bitcoin_tx_rate_factor: float  # serialization slows with blocks
    ng_tx_rate_factor: float  # microblocks keep the old rate


def power_drop_comparison(
    power_fraction_remaining: float,
) -> PowerDropOutcome:
    """Section 5.2's resilience argument as numbers.

    After a drop to fraction p (before difficulty retargets), Bitcoin's
    transaction serialization slows by 1/p along with its blocks, while
    "transaction processing continues at the same rate, in microblocks"
    for Bitcoin-NG — only its censorship exposure stretches.
    """
    if not 0 < power_fraction_remaining <= 1:
        raise ValueError("remaining power must be in (0, 1]")
    stretch = 1.0 / power_fraction_remaining
    return PowerDropOutcome(
        power_fraction_remaining=power_fraction_remaining,
        stretched_key_interval=stretch,
        bitcoin_tx_rate_factor=power_fraction_remaining,
        ng_tx_rate_factor=1.0,
    )

