"""GHOST: the Greedy Heaviest-Observed Sub-Tree fork choice.

"While in Bitcoin the chain with the most work ... is the main chain,
with GHOST, at a fork, a node chooses the side whose sub-tree contains
more work (accumulated over all sub-tree blocks)" (Section 9,
Sompolinsky & Zohar [45]).

The tree maintains per-block *subtree work* incrementally: adding a
block bumps every ancestor's subtree weight, and the main chain is read
by greedily descending into the heaviest subtree from the genesis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bitcoin.blocks import Block, InvalidBlock
from ..bitcoin.chain import BlockRecord, BlockTree, TieBreak


@dataclass(kw_only=True)
class GhostRecord(BlockRecord):
    """A block plus GHOST-specific bookkeeping.

    GHOST chooses tips by ``subtree_work``, not by the inherited
    ``cumulative_work`` (chain work along the path from genesis), which
    stays so protocol-agnostic tooling (state digests, invariant
    checkers) can read one weight field across every tree.
    """

    own_work: int
    subtree_work: int


class GhostTree(BlockTree):
    """One node's view under the GHOST chain selection rule."""

    _records: dict[bytes, GhostRecord]

    # -- queries --------------------------------------------------------

    def subtree_work(self, block_hash: bytes) -> int:
        return self._records[block_hash].subtree_work

    def best_tip(self) -> bytes:
        """Greedy heaviest-subtree descent from the genesis."""
        cursor = self._records[self.genesis_hash]
        while cursor.children:
            best_children = []
            best_weight = -1
            for child_hash in cursor.children:
                child = self._records[child_hash]
                if child.subtree_work > best_weight:
                    best_weight = child.subtree_work
                    best_children = [child]
                elif child.subtree_work == best_weight:
                    best_children.append(child)
            if len(best_children) == 1 or self.tie_break is TieBreak.FIRST_SEEN:
                # FIRST_SEEN: children are in arrival order; keep the first.
                cursor = best_children[0]
            else:
                cursor = self.rng.choice(best_children)
        return cursor.hash

    # -- what GHOST decides ---------------------------------------------

    def _genesis_record(self, genesis: Block) -> GhostRecord:
        return GhostRecord(
            genesis,
            height=0,
            cumulative_work=0,
            arrival_time=0.0,
            own_work=0,
            subtree_work=0,
        )

    def _record_for(
        self, block: Block, parent: GhostRecord, arrival_time: float, context
    ) -> GhostRecord:
        work = block.header.work
        # Credit the new work to every ancestor's subtree.
        cursor = parent
        while True:
            cursor.subtree_work += work
            if cursor.hash == self.genesis_hash:
                break
            cursor = self._records[cursor.parent_hash]
        return GhostRecord(
            block,
            height=parent.height + 1,
            cumulative_work=parent.cumulative_work + work,
            arrival_time=arrival_time,
            own_work=work,
            subtree_work=work,
        )

    def _choose_tip(self, candidate: GhostRecord) -> bytes:
        return self.best_tip()

    def assert_consistent(self) -> None:
        """Subtree weights must equal the sum over descendants."""

        def subtree_sum(block_hash: bytes) -> int:
            record = self._records[block_hash]
            return record.own_work + sum(
                subtree_sum(child) for child in record.children
            )

        for block_hash, record in self._records.items():
            if subtree_sum(block_hash) != record.subtree_work:
                raise InvalidBlock("subtree work out of sync")
        if self._tip != self.best_tip():
            raise InvalidBlock("tip diverges from GHOST descent")
