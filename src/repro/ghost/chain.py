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

from ..bitcoin.chain import BlockTree, TieBreak


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

    def _credit(self, block_hash: bytes, work: int) -> None:
        """Add ``work`` to the subtree of ``block_hash`` and of each ancestor."""
        subtree = self._subtree
        while True:
            subtree[block_hash] += work
            if block_hash == self.genesis_hash:
                return
            block_hash = self._blocks[block_hash].header.prev_hash

    def _admit(self, block, parent, local_time, check_signature) -> None:
        super()._admit(block, parent, local_time, check_signature)
        # What the block adds to its chain: every block's work under
        # Bitcoin, a key block's under NG, nothing for a microblock.
        work = block.cumulative_work - parent.cumulative_work
        self._subtree[block.hash] = work
        if work:
            self._credit(parent.hash, work)

    def _choose_tip(self, candidate, current):
        """Greedy heaviest-subtree descent from the genesis."""
        subtree = self._subtree
        children = self._children
        cursor = self.genesis_hash
        while children[cursor]:
            best_children: list[bytes] = []
            best_weight = -1
            for child in children[cursor]:
                weight = subtree[child]
                if weight > best_weight:
                    best_weight = weight
                    best_children = [child]
                elif weight == best_weight:
                    best_children.append(child)
            if len(best_children) > 1 and self.tie_break is TieBreak.RANDOM:
                cursor = self.rng.choice(best_children)
            else:
                # FIRST_SEEN: children are in arrival order; keep the first.
                cursor = best_children[0]
        return self._blocks[cursor]

    def forget(self, block_hash: bytes, tip: bytes) -> set[bytes]:
        """Take the dropped subtree's work back as well.

        It also counted for the held tip's ancestors against *their*
        siblings, so the next insertion's descent may move the tip.
        """
        parent = self._blocks[block_hash].header.prev_hash
        self._credit(parent, -self._subtree[block_hash])
        forgotten = super().forget(block_hash, tip)
        for gone in forgotten:
            del self._subtree[gone]
        return forgotten

    def assert_consistent(self) -> None:
        """Subtree weights must equal the sum over descendants."""
        total: dict[bytes, int] = {}
        blocks = self._blocks
        for block in sorted(blocks.values(), key=lambda b: -b.height):
            block_hash = block.hash
            total[block_hash] = sum(
                total[child] for child in self._children[block_hash]
            )
            if block_hash != self.genesis_hash:
                parent = blocks[block.header.prev_hash]
                total[block_hash] += block.cumulative_work - parent.cumulative_work
            if total[block_hash] != self._subtree[block_hash]:
                raise self.invalid("subtree work out of sync")
        tip = blocks[self._tip]
        if tip is not self._choose_tip(tip, tip):
            raise self.invalid("tip diverges from GHOST descent")


class GhostTree(HeaviestSubtree, BlockTree):
    """One node's view under the GHOST chain selection rule."""
