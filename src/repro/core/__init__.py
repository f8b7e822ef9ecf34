"""Bitcoin-NG core: key blocks, microblocks, epochs, incentives, poison.

This package is the paper's primary contribution.  The protocol
decouples leader election (proof-of-work key blocks) from transaction
serialization (leader-signed microblocks), keeping Bitcoin's trust model
while removing the throughput/latency coupling of its block parameters.
"""

from .blocks import (
    KEY_HEADER_SIZE,
    MICRO_HEADER_SIZE,
    InvalidNGBlock,
    KeyBlock,
    KeyBlockHeader,
    Microblock,
    MicroblockHeader,
    build_key_block,
    build_microblock,
    check_key_block,
    check_microblock_structure,
    mine_key_block,
)
from .chain import FraudProof, NGChain
from .genesis import GENESIS_LEADER_KEY, make_ng_genesis, seed_genesis_coins
from .ghost_ng import GhostNGChain
from .incentives import (
    BYZANTINE_BOUND,
    OPTIMAL_NETWORK_BOUND,
    IncentiveWindow,
    critical_alpha,
    extension_deviation_revenue,
    extension_honest_revenue,
    incentive_window,
    inclusion_deviation_revenue,
    inclusion_honest_revenue,
    is_incentive_compatible,
    max_leader_fraction,
    min_leader_fraction,
)
from .node import KIND_KEY, KIND_MICRO, MicroblockPolicy, NGNode
from .params import PAPER_EVALUATION_PARAMS, NGParams
from .poison import InvalidPoison, PoisonEntry, PoisonRegistry, validate_poison
from .remuneration import (
    EpochReward,
    RewardLedger,
    build_ng_coinbase,
    split_fee,
)

__all__ = [
    "BYZANTINE_BOUND",
    "GENESIS_LEADER_KEY",
    "KEY_HEADER_SIZE",
    "KIND_KEY",
    "KIND_MICRO",
    "MICRO_HEADER_SIZE",
    "OPTIMAL_NETWORK_BOUND",
    "PAPER_EVALUATION_PARAMS",
    "EpochReward",
    "FraudProof",
    "GhostNGChain",
    "IncentiveWindow",
    "InvalidNGBlock",
    "InvalidPoison",
    "KeyBlock",
    "KeyBlockHeader",
    "Microblock",
    "MicroblockHeader",
    "MicroblockPolicy",
    "NGChain",
    "NGNode",
    "NGParams",
    "PoisonEntry",
    "PoisonRegistry",
    "RewardLedger",
    "build_key_block",
    "build_microblock",
    "build_ng_coinbase",
    "check_key_block",
    "check_microblock_structure",
    "critical_alpha",
    "extension_deviation_revenue",
    "extension_honest_revenue",
    "incentive_window",
    "inclusion_deviation_revenue",
    "inclusion_honest_revenue",
    "is_incentive_compatible",
    "make_ng_genesis",
    "max_leader_fraction",
    "mine_key_block",
    "min_leader_fraction",
    "seed_genesis_coins",
    "split_fee",
    "validate_poison",
]
