"""The Bitcoin-NG chain: fork choice by key-block weight only.

"In case of a fork, the chain is defined to be the one which represents
the most work done, aggregated over all key blocks, with random tie
breaking" (Section 4.1).  "Microblocks do not affect the weight of the
chain, as they do not contain proof of work" (Section 4.2) — this is
what produces the short microblock forks of Figure 2 (a new key block
prunes microblocks its miner had not yet heard) and the rare-but-long
key block forks of Figure 3.

The chain also validates microblocks in context: the signature must
match "the public key in the latest key block in the chain", and the
timestamp rate limit "prohibits a leader (malicious, greedy, or broken)
from swamping the system with microblocks".  Leader equivocation — two
microblocks extending the same predecessor — is detected here and
yields the fraud proof a poison transaction needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..bitcoin.chain import BlockTree
from .blocks import InvalidNGBlock, KeyBlock, Microblock
from .params import NGParams

NGBlock = KeyBlock | Microblock


@dataclass(frozen=True)
class FraudProof:
    """Evidence of leader equivocation: a pruned sibling microblock.

    "The entry ... contains the header of the first block in the pruned
    branch as a proof of fraud" (Section 4.5).  We keep the whole
    microblock header plus signature — exactly what a verifier needs.
    """

    offender_pubkey: bytes
    pruned_micro: Microblock
    retained_micro_hash: bytes

    def verify(self) -> bool:
        """The proof stands if the pruned header really was leader-signed."""
        return self.pruned_micro.verify_signature(self.offender_pubkey)


class NGChain(BlockTree):
    """One node's view of the Bitcoin-NG block tree."""

    invalid = InvalidNGBlock
    _blocks: dict[bytes, NGBlock]

    def __init__(
        self,
        genesis: KeyBlock,
        params: NGParams,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(genesis, rng)
        if genesis.key_height == -1:  # the root's epoch facts
            genesis.__dict__.update(
                key_height=0, leader_pubkey=genesis.header.leader_pubkey
            )
        self.params = params
        self._equivocations: list[FraudProof] = []

    # -- queries --------------------------------------------------------

    def latest_key_block(self, start: bytes | None = None) -> KeyBlock:
        """The most recent key block at or above ``start`` (default tip)."""
        blocks = self._blocks
        cursor = blocks[start if start is not None else self._tip]
        while not isinstance(cursor, KeyBlock):
            cursor = blocks[cursor.header.prev_hash]
        return cursor

    def equivocations(self) -> list[FraudProof]:
        """Fraud proofs discovered so far (one per offense observed)."""
        return list(self._equivocations)

    # -- validation -----------------------------------------------------

    def validate_microblock(
        self,
        micro: Microblock,
        local_time: float,
        check_signature: bool = True,
    ) -> None:
        """Contextual microblock checks against its (known) parent.

        Raises :class:`InvalidNGBlock`; the parent must already be in
        the tree (orphans are validated when adopted).
        """
        parent = self._blocks.get(micro.header.prev_hash)
        if parent is None:
            raise InvalidNGBlock("microblock parent unknown")
        # "if the timestamp of a microblock is in the future ... invalid"
        if micro.header.timestamp > local_time + self.params.max_future_drift:
            raise InvalidNGBlock("microblock timestamp in the future")
        # "or if its difference with its predecessor's timestamp is
        # smaller than the minimum"
        gap = micro.header.timestamp - parent.header.timestamp
        if gap < self.params.min_microblock_interval - 1e-9:
            raise InvalidNGBlock(
                f"microblock interval {gap:.3f}s below the minimum "
                f"{self.params.min_microblock_interval}s"
            )
        if check_signature and not micro.verify_signature(parent.leader_pubkey):
            raise InvalidNGBlock("microblock not signed by the epoch leader")

    # -- what Bitcoin-NG decides ----------------------------------------

    def _admit(
        self,
        block: NGBlock,
        parent: NGBlock,
        local_time: float,
        check_signature: bool,
    ) -> None:
        if isinstance(block, KeyBlock):
            if block.height == -1:
                block.__dict__.update(
                    height=parent.height + 1,
                    cumulative_work=parent.cumulative_work + block.header.work,
                    key_height=parent.key_height + 1,
                    leader_pubkey=block.header.leader_pubkey,
                )
            return
        assert isinstance(block, Microblock)
        self.validate_microblock(block, local_time, check_signature)
        if self._children[parent.hash]:
            self._detect_equivocation(parent, block)
        if block.height == -1:
            block.__dict__.update(
                height=parent.height + 1,
                cumulative_work=parent.cumulative_work,
                key_height=parent.key_height,
                leader_pubkey=parent.leader_pubkey,
            )

    def _detect_equivocation(self, parent: NGBlock, new_micro: Microblock) -> None:
        """Two leader-signed microblocks on one parent is fraud (only
        called when ``parent`` already has a child)."""
        for child in self._children[parent.hash]:
            if not self._blocks[child].is_key:
                self._equivocations.append(
                    FraudProof(
                        offender_pubkey=parent.leader_pubkey,
                        pruned_micro=new_micro,
                        retained_micro_hash=child,
                    )
                )

    def _choose_tip(self, candidate: NGBlock, current: NGBlock) -> NGBlock:
        if candidate.cumulative_work > current.cumulative_work:
            return candidate
        if candidate.cumulative_work < current.cumulative_work:
            return current
        # Equal weight: adopt a microblock that extends the current tip;
        # anything else is a genuine fork.  (The tip is always a leaf —
        # a valid child of it connects as heavier or as this extension —
        # so extending it means being its child.)
        if candidate.header.prev_hash == self._tip:
            return candidate
        # Competing key blocks (Figure 3): one draw, and a high one takes
        # the tip.  A competing microblock (leader equivocation) loses to
        # the first seen, with no draw.
        if candidate.is_key and self.rng.random() >= 0.5:
            return candidate
        return current

    # -- invariants -------------------------------------------------------

    def assert_consistent(self) -> None:
        """Structural invariants for property-based tests."""
        for block_hash, block in self._blocks.items():
            if block_hash == self.genesis_hash:
                continue
            parent = self._blocks.get(block.header.prev_hash)
            if parent is None:
                raise InvalidNGBlock("dangling parent pointer")
            if block.height != parent.height + 1:
                raise InvalidNGBlock("height mismatch")
            expected_key_height = parent.key_height + (1 if block.is_key else 0)
            if block.key_height != expected_key_height:
                raise InvalidNGBlock("key height mismatch")
            if isinstance(block, KeyBlock):
                expected_work = parent.cumulative_work + block.header.work
                expected_leader = block.header.leader_pubkey
            else:
                expected_work = parent.cumulative_work
                expected_leader = parent.leader_pubkey
            if block.cumulative_work != expected_work:
                raise InvalidNGBlock("cumulative work mismatch")
            if block.leader_pubkey != expected_leader:
                raise InvalidNGBlock("leader key mismatch")
        best = max(b.cumulative_work for b in self._blocks.values())
        if self._blocks[self._tip].cumulative_work != best:
            raise InvalidNGBlock("tip does not carry maximal key work")
