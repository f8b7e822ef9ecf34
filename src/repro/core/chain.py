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

from ..bitcoin.chain import BlockRecord, BlockTree, Reorg, TieBreak
from .blocks import InvalidNGBlock, KeyBlock, Microblock
from .params import NGParams

NGBlock = KeyBlock | Microblock


@dataclass(slots=True)
class NGRecord(BlockRecord):
    """One block's position in the NG block tree.

    ``height`` counts blocks of any kind since genesis;
    ``cumulative_work`` is aggregated over key blocks only.  Built
    positionally: ``(block, height, cumulative_work, children, is_key,
    key_height, leader_pubkey)``.
    """

    block: NGBlock
    is_key: bool
    key_height: int  # key blocks on the path (epoch number)
    leader_pubkey: bytes  # epoch key in force after this block

    @property
    def timestamp(self) -> float:
        return self.block.header.timestamp


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
    _records: dict[bytes, NGRecord]

    def __init__(
        self,
        genesis: KeyBlock,
        params: NGParams,
        tie_break: TieBreak = TieBreak.RANDOM,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(genesis, tie_break, rng)
        self.params = params
        self._equivocations: list[FraudProof] = []

    # -- queries --------------------------------------------------------

    def latest_key_block(self, start: bytes | None = None) -> NGRecord:
        """The most recent key block at or above ``start`` (default tip)."""
        cursor = self._records[start if start is not None else self._tip]
        while not cursor.is_key:
            cursor = self._records[cursor.parent_hash]
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
        parent = self._records.get(micro.header.prev_hash)
        if parent is None:
            raise InvalidNGBlock("microblock parent unknown")
        # "if the timestamp of a microblock is in the future ... invalid"
        if micro.header.timestamp > local_time + self.params.max_future_drift:
            raise InvalidNGBlock("microblock timestamp in the future")
        # "or if its difference with its predecessor's timestamp is
        # smaller than the minimum"
        gap = micro.header.timestamp - parent.timestamp
        if gap < self.params.min_microblock_interval - 1e-9:
            raise InvalidNGBlock(
                f"microblock interval {gap:.3f}s below the minimum "
                f"{self.params.min_microblock_interval}s"
            )
        if check_signature and not micro.verify_signature(parent.leader_pubkey):
            raise InvalidNGBlock("microblock not signed by the epoch leader")

    # -- mutation -------------------------------------------------------

    def add_block(
        self,
        block: NGBlock,
        local_time: float,
        check_signature: bool = True,
    ) -> list[Reorg]:
        """Insert a key block or microblock; returns resulting tip moves.

        Invalid microblocks raise; unknown-parent blocks are buffered.
        """
        return self._insert(block, (local_time, check_signature))

    # -- what Bitcoin-NG decides ----------------------------------------

    def _genesis_record(self, genesis: KeyBlock) -> NGRecord:
        return NGRecord(genesis, 0, 0, [], True, 0, genesis.header.leader_pubkey)

    def _record_for(
        self,
        block: NGBlock,
        parent: NGRecord,
        context: tuple[float, bool],
    ) -> NGRecord:
        if isinstance(block, KeyBlock):
            return NGRecord(
                block,
                parent.height + 1,
                parent.cumulative_work + block.header.work,
                [],
                True,
                parent.key_height + 1,
                block.header.leader_pubkey,
            )
        assert isinstance(block, Microblock)
        self.validate_microblock(block, *context)
        if parent.children:
            self._detect_equivocation(parent, block)
        return NGRecord(
            block,
            parent.height + 1,
            parent.cumulative_work,
            [],
            False,
            parent.key_height,
            parent.leader_pubkey,
        )

    def _detect_equivocation(self, parent: NGRecord, new_micro: Microblock) -> None:
        """Two leader-signed microblocks on one parent is fraud (only
        called when ``parent`` already has a child)."""
        siblings = [
            self._records[child]
            for child in parent.children
            if not self._records[child].is_key
        ]
        for sibling in siblings:
            assert isinstance(sibling.block, Microblock)
            self._equivocations.append(
                FraudProof(
                    offender_pubkey=parent.leader_pubkey,
                    pruned_micro=new_micro,
                    retained_micro_hash=sibling.hash,
                )
            )

    def _choose_tip(self, candidate: NGRecord) -> bytes:
        current = self._records[self._tip]
        if candidate.cumulative_work > current.cumulative_work:
            return candidate.hash
        if candidate.cumulative_work < current.cumulative_work:
            return self._tip
        # Equal weight: adopt a microblock that extends the current tip;
        # anything else is a genuine fork.  (The tip is always a leaf —
        # a valid child of it connects as heavier or as this extension —
        # so extending it means being its child.)
        if candidate.parent_hash == self._tip:
            return candidate.hash
        # Competing key blocks (Figure 3): tie-break policy applies.  A
        # competing microblock (leader equivocation) loses to the first seen.
        if (
            candidate.is_key
            and self.tie_break is not TieBreak.FIRST_SEEN
            and self.rng.random() >= 0.5
        ):
            return candidate.hash
        return self._tip

    # -- invariants -------------------------------------------------------

    def assert_consistent(self) -> None:
        """Structural invariants for property-based tests."""
        for block_hash, record in self._records.items():
            if block_hash == self.genesis_hash:
                continue
            parent = self._records.get(record.parent_hash)
            if parent is None:
                raise InvalidNGBlock("dangling parent pointer")
            if record.height != parent.height + 1:
                raise InvalidNGBlock("height mismatch")
            expected_key_height = parent.key_height + (1 if record.is_key else 0)
            if record.key_height != expected_key_height:
                raise InvalidNGBlock("key height mismatch")
            if record.is_key:
                expected_work = parent.cumulative_work + record.block.header.work
                expected_leader = record.block.header.leader_pubkey  # type: ignore[union-attr]
            else:
                expected_work = parent.cumulative_work
                expected_leader = parent.leader_pubkey
            if record.cumulative_work != expected_work:
                raise InvalidNGBlock("cumulative work mismatch")
            if record.leader_pubkey != expected_leader:
                raise InvalidNGBlock("leader key mismatch")
        best = max(r.cumulative_work for r in self._records.values())
        if self._records[self._tip].cumulative_work != best:
            raise InvalidNGBlock("tip does not carry maximal key work")
