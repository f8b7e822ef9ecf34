"""GHOST: the Greedy Heaviest-Observed Sub-Tree fork choice.

"While in Bitcoin the chain with the most work ... is the main chain,
with GHOST, at a fork, a node chooses the side whose sub-tree contains
more work (accumulated over all sub-tree blocks)" (Section 9,
Sompolinsky & Zohar [45]).

The rule is written once, as a mix-in over any :class:`BlockTree`: it
keeps per-block *subtree work* incrementally — adding a block bumps
every ancestor's subtree weight — and reads the main chain by greedily
descending into the heaviest subtree from the genesis.
"""

from __future__ import annotations

from ..bitcoin.chain import BlockRecord, BlockTree, TieBreak


class HeaviestSubtree:
    """The GHOST chain selection rule, for a :class:`BlockTree` subclass.

    A block weighs what the tree underneath says it adds to its chain,
    so the same lines are GHOST over Bitcoin's tree and GHOST over key
    blocks on Bitcoin-NG's.  The records' ``cumulative_work`` (chain
    work from genesis) stays what that tree made it, so protocol-agnostic
    tooling reads one weight field across every tree.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Aggregate work in each block's subtree (incl. itself).
        self._subtree: dict[bytes, int] = {self.genesis_hash: 0}

    def subtree_work(self, block_hash: bytes) -> int:
        return self._subtree[block_hash]

    def _credit(self, record: BlockRecord, work: int) -> None:
        """Add ``work`` to the subtree of ``record`` and of each ancestor."""
        while True:
            self._subtree[record.hash] += work
            if record.hash == self.genesis_hash:
                return
            record = self._records[record.parent_hash]

    def _record_for(self, block, parent: BlockRecord, context):
        record = super()._record_for(block, parent, context)
        # What the block adds to its chain: every block's work under
        # Bitcoin, a key block's under NG, nothing for a microblock.
        work = record.cumulative_work - parent.cumulative_work
        self._subtree[block.hash] = work
        if work:
            self._credit(parent, work)
        return record

    def _choose_tip(self, candidate: BlockRecord) -> bytes:
        """Greedy heaviest-subtree descent from the genesis."""
        subtree = self._subtree
        cursor = self._records[self.genesis_hash]
        while cursor.children:
            best_children: list[bytes] = []
            best_weight = -1
            for child in cursor.children:
                weight = subtree[child]
                if weight > best_weight:
                    best_weight = weight
                    best_children = [child]
                elif weight == best_weight:
                    best_children.append(child)
            if len(best_children) > 1 and self.tie_break is TieBreak.RANDOM:
                cursor = self._records[self.rng.choice(best_children)]
            else:
                # FIRST_SEEN: children are in arrival order; keep the first.
                cursor = self._records[best_children[0]]
        return cursor.hash

    def forget(self, block_hash: bytes, tip: bytes) -> set[bytes]:
        """Take the dropped subtree's work back as well.

        It also counted for the held tip's ancestors against *their*
        siblings, so the next insertion's descent may move the tip.
        """
        parent = self._records[self._records[block_hash].parent_hash]
        self._credit(parent, -self._subtree[block_hash])
        forgotten = super().forget(block_hash, tip)
        for gone in forgotten:
            del self._subtree[gone]
        return forgotten

    def assert_consistent(self) -> None:
        """Subtree weights must equal the sum over descendants."""
        total: dict[bytes, int] = {}
        for record in sorted(self._records.values(), key=lambda r: -r.height):
            total[record.hash] = sum(total[child] for child in record.children)
            if record.hash != self.genesis_hash:
                parent = self._records[record.parent_hash]
                total[record.hash] += record.cumulative_work - parent.cumulative_work
            if total[record.hash] != self._subtree[record.hash]:
                raise self.invalid("subtree work out of sync")
        if self._tip != self._choose_tip(self.tip_record):
            raise self.invalid("tip diverges from GHOST descent")


class GhostTree(HeaviestSubtree, BlockTree):
    """One node's view under the GHOST chain selection rule."""
