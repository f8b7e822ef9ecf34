"""GHOST: the Greedy Heaviest-Observed Sub-Tree fork choice.

"While in Bitcoin the chain with the most work ... is the main chain,
with GHOST, at a fork, a node chooses the side whose sub-tree contains
more work (accumulated over all sub-tree blocks)" (Section 9,
Sompolinsky & Zohar [45]).

The rule is written once, as a mix-in over any :class:`BlockTree`: it
keeps per-block *subtree work* incrementally — adding a block bumps
every ancestor's subtree weight — and holds the tip that a greedy
descent into the heaviest subtree from the genesis reaches, weighing a
newcomer where its branch leaves the held one.
"""

from __future__ import annotations

from ..bitcoin.chain import BlockTree


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
        """The held tip, unless ``candidate``'s side outweighs it where
        the two branches part (``candidate`` raised weights only on its
        own path).  A side that draws level with work of its own takes
        the k-way tie among the fork's children with one draw, with
        probability 1/k; a weightless one never does."""
        fork, held, rival = self._branches(current, candidate)
        if not held:  # an extension of the tip
            return candidate
        subtree = self._subtree
        children = self._children
        held_weight = subtree[held[-1].hash]
        cursor = rival[-1].hash
        if subtree[cursor] < held_weight:
            return current
        if subtree[cursor] == held_weight:
            if not subtree[candidate.hash]:  # an NG microblock
                return current
            ties = sum(subtree[c] == held_weight for c in children[fork.hash])
            # As in Bitcoin's tree, a low draw keeps the held side.
            if self.rng.random() * ties < ties - 1:
                return current
        # The rival side wins: descend greedily into it, drawing only
        # among children that tie.
        while children[cursor]:
            best = max(subtree[c] for c in children[cursor])
            tied = [c for c in children[cursor] if subtree[c] == best]
            cursor = tied[0] if len(tied) == 1 else self.rng.choice(tied)
        return self._blocks[cursor]

    def forget(self, block_hash: bytes, tip: bytes) -> set[bytes]:
        """Take the dropped subtree's work back as well.

        It also counted for the held tip's ancestors against *their*
        siblings; the tip moves only when a later rival outweighs it at
        the fork.
        """
        parent = self._blocks[block_hash].header.prev_hash
        self._credit(parent, -self._subtree[block_hash])
        forgotten = super().forget(block_hash, tip)
        for gone in forgotten:
            del self._subtree[gone]
        return forgotten

    def assert_consistent(self) -> None:
        """Subtree weights equal the sum over descendants, and the tip
        is a leaf reached by always stepping to a heaviest child."""
        total: dict[bytes, int] = {}
        blocks = self._blocks
        children = self._children
        for block in sorted(blocks.values(), key=lambda b: -b.height):
            block_hash = block.hash
            total[block_hash] = sum(total[child] for child in children[block_hash])
            if block_hash != self.genesis_hash:
                parent = blocks[block.header.prev_hash]
                total[block_hash] += block.cumulative_work - parent.cumulative_work
            if total[block_hash] != self._subtree[block_hash]:
                raise self.invalid("subtree work out of sync")
        if children[self._tip]:
            raise self.invalid("tip is not a leaf")
        path = self.main_chain()
        for parent, child in zip(path, path[1:]):
            if total[child] != max(total[c] for c in children[parent]):
                raise self.invalid("tip diverges from GHOST descent")


class GhostTree(HeaviestSubtree, BlockTree):
    """One node's view under the GHOST chain selection rule."""
