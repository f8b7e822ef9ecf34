"""Throughput metrics: transaction frequency and block rate.

The paper plots "Transaction Frequency" — transactions serialized into
the main chain per second — against the operational Bitcoin rate of
3.5 tx/s (1 MB blocks every 10 minutes at ~476-byte transactions).
"""

from __future__ import annotations

from .collector import ObservationLog

# The operational Bitcoin reference line drawn in Figure 8.
OPERATIONAL_BITCOIN_TX_RATE = 3.5


def transaction_frequency(log: ObservationLog) -> float:
    """Main-chain transactions per second over the observation window."""
    if log.duration <= 0:
        raise ValueError("empty observation window")
    total_tx = sum(log.index.info(h).n_tx for h in log.main_chain())
    return total_tx / log.duration


def block_rate(log: ObservationLog, kind: str | None = None) -> float:
    """Generated blocks per second, optionally filtered by kind."""
    if log.duration <= 0:
        raise ValueError("empty observation window")
    count = sum(
        1
        for info in log.index.all_blocks()
        if kind is None or info.kind == kind
    )
    return count / log.duration
