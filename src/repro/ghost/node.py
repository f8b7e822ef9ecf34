"""A GHOST node: Bitcoin block format, heaviest-subtree fork choice.

Per the paper's evaluation of GHOST (Section 9), nodes propagate *all*
blocks — pruned-branch blocks still influence fork choice, so peers must
learn them.  The gossip base class relays everything accepted, which is
exactly that behaviour.
"""

from __future__ import annotations

import struct

from ..bitcoin.blocks import Block, SyntheticPayload, build_block, check_block
from ..bitcoin.chain import TieBreak
from ..bitcoin.node import DEFAULT_BLOCK_REWARD, BlockPolicy, ChainNode
from ..metrics.collector import ObservationLog
from ..net.gossip import RelayMode, StoredObject
from ..net.network import Network
from ..net.simulator import Simulator
from .chain import GhostTree


class GhostNode(ChainNode):
    """A miner/relay node running the GHOST selection rule."""

    KIND = "block"

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        genesis: Block,
        log: ObservationLog | None = None,
        policy: BlockPolicy | None = None,
        tie_break: TieBreak = TieBreak.FIRST_SEEN,
        relay_mode: RelayMode = RelayMode.INV,
        require_pow: bool = False,
        verification_seconds_per_byte: float = 0.0,
    ) -> None:
        super().__init__(
            node_id,
            sim,
            network,
            GhostTree(genesis, tie_break=tie_break, rng=sim.rng),
            log,
            relay_mode,
            verification_seconds_per_byte,
        )
        self.policy = policy or BlockPolicy()
        self.require_pow = require_pow
        self._block_counter = 0
        self.blocks_mined = 0

    def generate_block(self) -> Block:
        """Mine a block on the GHOST-selected tip and gossip it."""
        tip = self.tree.tip
        payload = SyntheticPayload(
            n_tx=self.policy.synthetic_tx_count(),
            tx_size=self.policy.synthetic_tx_size,
            salt=struct.pack("<iI", self.node_id, self._block_counter) + tip,
        )
        self._block_counter += 1
        block = build_block(
            prev_hash=tip,
            payload=payload,
            timestamp=self.sim.now,
            bits=self.policy.bits,
            miner_id=self.node_id,
            reward=DEFAULT_BLOCK_REWARD,
        )
        self.blocks_mined += 1
        self._publish(block, self.KIND, block.header.work, block.n_tx)
        return block

    def deliver(self, obj: StoredObject, sender: int | None):
        if obj.kind != self.KIND:
            return False  # unknown object kinds are not relayed
        return self._receive(obj.data, self.KIND, sender)

    def _check_block(self, block: Block) -> None:
        check_block(block, require_pow=self.require_pow)
