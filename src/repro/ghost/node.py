"""A GHOST node: a Bitcoin node over the heaviest-subtree tree.

Per the paper's evaluation of GHOST (Section 9), nodes propagate *all*
blocks — pruned-branch blocks still influence fork choice, so peers must
learn them.  The gossip base class relays everything accepted, which is
exactly that behaviour.
"""

from __future__ import annotations

import random

from ..bitcoin.blocks import Block
from ..bitcoin.node import BitcoinNode
from .chain import GhostTree


class GhostNode(BitcoinNode):
    """A miner/relay node running the GHOST selection rule."""

    def _build_tree(self, genesis: Block, rng: random.Random) -> GhostTree:
        return GhostTree(genesis, rng)
