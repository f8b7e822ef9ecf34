"""The paper's evaluation metrics (Section 6) over observation logs."""

from .collector import BlockIndex, BlockInfo, ObservationLog, TipHistory
from .consensus_delay import consensus_delay, point_consensus_delay
from .fairness import fairness
from .prune import (
    prune_samples,
    time_to_prune,
    time_to_win,
    win_samples,
)
from .throughput import (
    OPERATIONAL_BITCOIN_TX_RATE,
    block_rate,
    transaction_frequency,
)
from .utilization import mining_power_utilization

__all__ = [
    "OPERATIONAL_BITCOIN_TX_RATE",
    "BlockIndex",
    "BlockInfo",
    "ObservationLog",
    "TipHistory",
    "block_rate",
    "consensus_delay",
    "fairness",
    "mining_power_utilization",
    "point_consensus_delay",
    "prune_samples",
    "time_to_prune",
    "time_to_win",
    "transaction_frequency",
    "win_samples",
]
