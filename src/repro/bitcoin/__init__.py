"""The Bitcoin baseline protocol: blocks, heaviest-chain tree, full node."""

from .blocks import (
    ARTIFICIAL_TX_SIZE,
    HEADER_SIZE,
    Block,
    BlockHeader,
    InvalidBlock,
    SyntheticPayload,
    TxPayload,
    build_block,
    check_block,
    make_genesis,
    mine,
)
from .chain import BlockRecord, BlockTree, Reorg
from .node import DEFAULT_BLOCK_REWARD, BitcoinNode, BlockPolicy

__all__ = [
    "ARTIFICIAL_TX_SIZE",
    "DEFAULT_BLOCK_REWARD",
    "HEADER_SIZE",
    "BitcoinNode",
    "Block",
    "BlockHeader",
    "BlockPolicy",
    "BlockRecord",
    "BlockTree",
    "InvalidBlock",
    "Reorg",
    "SyntheticPayload",
    "TxPayload",
    "build_block",
    "check_block",
    "make_genesis",
    "mine",
]
