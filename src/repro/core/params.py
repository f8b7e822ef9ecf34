"""Bitcoin-NG protocol parameters.

Defaults follow the paper: key blocks every 100 seconds in the
evaluation (Section 8.1), microblocks at up to one per 10 seconds,
a 40%/60% fee split between the current and next leader (Section 4.4),
a 5% poison bounty (Section 4.5), and 100-block coinbase maturity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ledger.transactions import COIN


@dataclass(frozen=True)
class NGParams:
    """All tunable constants of a Bitcoin-NG deployment."""

    # Leader election: average seconds between key blocks (the paper's
    # evaluation keeps "key block generation at one every 100 seconds").
    key_block_interval: float = 100.0

    # Maximum microblock rate: "the node is allowed to generate
    # microblocks at a set rate smaller than a predefined maximum".
    min_microblock_interval: float = 10.0

    # "The size of microblocks is bounded by a predefined maximum."
    max_microblock_bytes: int = 100_000

    # Fee split: "the current leader earns 40% of the fee, and the
    # subsequent leader earns 60%".  Section 5 derives 37% < r < 43%.
    leader_fee_fraction: float = 0.40

    # Poison transactions grant "a fraction of that compensation,
    # e.g., 5%" to the reporting leader.
    poison_bounty_fraction: float = 0.05

    # "Each key block entitles its generator a set amount."
    key_block_reward: int = 25 * COIN

    # "This transaction can only be spent after a maturity period of
    # 100 blocks."  Counted in key blocks.
    coinbase_maturity: int = 100

    # Allowed clock skew when judging "timestamp in the future".
    max_future_drift: float = 60.0

    def __post_init__(self) -> None:
        if self.key_block_interval <= 0:
            raise ValueError("key block interval must be positive")
        if self.min_microblock_interval < 0:
            raise ValueError("microblock interval cannot be negative")
        if not 0 <= self.leader_fee_fraction <= 1:
            raise ValueError("leader fee fraction must be in [0, 1]")
        if not 0 <= self.poison_bounty_fraction <= 1:
            raise ValueError("poison bounty fraction must be in [0, 1]")
        if self.max_microblock_bytes <= 0:
            raise ValueError("microblock size cap must be positive")
        if self.coinbase_maturity < 0:
            raise ValueError("maturity cannot be negative")

    @property
    def key_block_rate(self) -> float:
        """Key blocks per second."""
        return 1.0 / self.key_block_interval


# The configuration the paper's frequency experiments start from.
PAPER_EVALUATION_PARAMS = NGParams(
    key_block_interval=100.0,
    min_microblock_interval=10.0,
)
