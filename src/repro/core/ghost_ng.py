"""GHOST-augmented Bitcoin-NG: the paper's Section 9 future work.

"Such a practical implementation of GHOST can be used to complement
Bitcoin-NG and allow for a higher frequency of key blocks."

Plain Bitcoin-NG resolves competing key blocks by the heaviest *chain*
of key work; at high key-block frequency that reproduces Bitcoin's
fork-rate pathology on the leader-election plane.  This variant applies
the GHOST rule to key blocks: at a fork, follow the branch whose
subtree contains the most aggregate key-block work.  Microblocks remain
weightless (Section 5.1's requirement stands) and within a branch the
latest microblock extension is followed as usual.
"""

from __future__ import annotations

from ..bitcoin.chain import TieBreak
from .chain import NGBlock, NGChain, NGRecord


class GhostNGChain(NGChain):
    """An NG chain whose key-block fork choice is heaviest-subtree."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Aggregate key work in each block's subtree (incl. itself).
        self._subtree_key_work: dict[bytes, int] = {self.genesis_hash: 0}

    # -- bookkeeping ------------------------------------------------------

    def _record_for(
        self, block: NGBlock, parent: NGRecord, arrival_time: float, context
    ) -> NGRecord:
        record = super()._record_for(block, parent, arrival_time, context)
        work = block.header.work if record.is_key else 0
        self._subtree_key_work[block.hash] = work
        if work:
            cursor = parent
            while True:
                self._subtree_key_work[cursor.hash] += work
                if cursor.hash == self.genesis_hash:
                    break
                cursor = self._records[cursor.parent_hash]
        return record

    def subtree_key_work(self, block_hash: bytes) -> int:
        return self._subtree_key_work[block_hash]

    # -- fork choice --------------------------------------------------------

    def _ghost_tip(self) -> bytes:
        """Descend by heaviest key subtree; follow microblocks at ties."""
        cursor = self._records[self.genesis_hash]
        while cursor.children:
            best = None
            best_weight = -1
            for child_hash in cursor.children:
                weight = self._subtree_key_work[child_hash]
                if weight > best_weight:
                    best_weight = weight
                    best = child_hash
                elif weight == best_weight and best is not None:
                    # Equal subtrees: keep the earlier-arrived branch
                    # unless the random policy says otherwise.
                    if (
                        self.tie_break is TieBreak.RANDOM
                        and self.rng.random() < 0.5
                    ):
                        best = child_hash
            assert best is not None
            cursor = self._records[best]
        return cursor.hash

    def _choose_tip(self, candidate: NGRecord) -> bytes:
        return self._ghost_tip()

    def assert_consistent(self) -> None:
        """Extend the base invariants with subtree-weight bookkeeping."""
        # The base class checks the heaviest-*chain* tip; under GHOST the
        # tip follows subtree weight instead, so re-check everything but
        # that final condition, then verify the subtree sums.
        for block_hash, record in self._records.items():
            if block_hash == self.genesis_hash:
                continue
            parent = self._records[record.parent_hash]
            if record.height != parent.height + 1:
                raise AssertionError("height mismatch")

        def subtree_sum(block_hash: bytes) -> int:
            record = self._records[block_hash]
            own = record.block.header.work if record.is_key else 0
            if block_hash == self.genesis_hash:
                own = 0
            return own + sum(
                subtree_sum(child) for child in record.children
            )

        for block_hash in self._records:
            if self._subtree_key_work[block_hash] != subtree_sum(block_hash):
                raise AssertionError("subtree key work out of sync")
        if self._tip != self._ghost_tip():
            raise AssertionError("tip diverges from GHOST descent")
