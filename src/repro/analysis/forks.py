"""Closed-form fork models for Nakamoto-consensus chains.

The paper's evaluation measures fork effects empirically; this module
provides the matching first-order analytics so simulation results can
be sanity-checked (and so parameter choices can be reasoned about
without running experiments):

* Bitcoin forks when a second block is mined during the propagation
  window of the first — exponential inter-block times give
  ``P(fork) = 1 − exp(−T_prop / T_block)``.
* Bitcoin-NG microblocks are pruned when a key block is mined during
  *their* propagation window (Figure 2); key blocks are Poisson with
  interval ``T_key``, so each microblock is pruned with probability
  ``1 − exp(−T_prop / T_key)`` — independent of the microblock rate,
  which is why NG scales.
"""

from __future__ import annotations

import math


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def bitcoin_fork_probability(
    block_interval: float, propagation_delay: float
) -> float:
    """P(a competing block is mined within one propagation window)."""
    _check_positive(
        block_interval=block_interval, propagation_delay=propagation_delay
    )
    return 1.0 - math.exp(-propagation_delay / block_interval)


def expected_mining_power_utilization(
    block_interval: float, propagation_delay: float
) -> float:
    """First-order utilization estimate: the non-forking fraction.

    Each fork wastes (at least) one block's work; at fork probability p
    the main chain keeps roughly a 1−p fraction of generated work.  The
    estimate is optimistic under heavy contention (fork cascades), which
    is exactly what the Figure 8 experiments show.
    """
    return 1.0 - bitcoin_fork_probability(block_interval, propagation_delay)


def ng_microblock_prune_probability(
    key_block_interval: float, propagation_delay: float
) -> float:
    """P(a given microblock is pruned by a leader switch) — Figure 2.

    A microblock is orphaned when a key block is mined on one of its
    ancestors before it reaches that miner; with Poisson key blocks the
    exposure window is one propagation delay.  Note the microblock
    *rate* does not appear: higher microblock frequency does not raise
    the per-microblock risk, the core of NG's scalability argument.
    """
    _check_positive(
        key_block_interval=key_block_interval,
        propagation_delay=propagation_delay,
    )
    return 1.0 - math.exp(-propagation_delay / key_block_interval)

