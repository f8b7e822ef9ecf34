"""The Bitcoin block tree and heaviest-chain fork choice.

"To resolve forks ... the winning chain is the heaviest one, that is,
the one that required (in expectancy) the most mining power to generate.
All miners add blocks to the heaviest chain of which they know, with
random tie-breaking" (Section 3).  Every tree here breaks a tie that
way, once: one draw when a newcomer draws level with the branch the
node holds, and a low draw keeps the held branch.  (The operational
client keeps the first branch it heard of, footnote 2.)

The tree tracks cumulative work, computes reorganization paths, buffers
orphans whose parents have not arrived yet, and reports pruned branches
for the time-to-prune metric.

:class:`BlockTree` is also the one block-tree implementation behind
every protocol here.  GHOST (Section 9) and Bitcoin-NG (Section 4.1)
are this tree with a different answer to two questions — *is a block
admitted under its parent, and what are its tree facts*
(:meth:`BlockTree._admit`) and *which tip to hold once a block has
connected* (:meth:`BlockTree._choose_tip`) — so their trees subclass it
and override only those.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .blocks import Block, InvalidBlock


@dataclass(slots=True)
class BlockRecord:
    """A block as one node's tree holds it: the block and its children.

    What every tree says of a block (height, chain work, and on NG
    blocks the key flag, epoch number and epoch key) lives on the block
    itself, and a tree keeps only its ``blocks`` and ``children`` maps.
    """

    block: Block
    children: list[bytes]


class Reorg(NamedTuple):
    """A tip change: blocks leaving and entering the main chain.

    ``disconnected`` is ordered tip-first (the order state must be
    unwound); ``connected`` is ordered fork-point-first (the order state
    must be applied).  A named tuple: every receiver of every block
    builds one, and a tuple is the cheapest immutable record to build.
    """

    old_tip: Block
    new_tip: Block
    disconnected: tuple[Block, ...]
    connected: tuple[Block, ...]


class BlockTree:
    """One node's view of all blocks it knows, with fork choice."""

    # What ``_admit`` raises to refuse a block.
    invalid: type[Exception] = InvalidBlock

    def __init__(
        self,
        genesis: Block,
        rng: random.Random | None = None,
    ) -> None:
        self._orphans: dict[bytes, list[Block]] = {}
        # Blocks dropped by :meth:`forget`; empty on an honest network.
        self._refused: set[bytes] = set()
        self.rng = rng or random.Random(0)
        self.genesis_hash = genesis.hash
        if genesis.height == -1:  # the root's tree facts
            genesis.__dict__.update(height=0, cumulative_work=0)
        self._blocks: dict[bytes, Block] = {genesis.hash: genesis}
        self._children: dict[bytes, list[bytes]] = {genesis.hash: []}
        self._tip = genesis.hash

    # -- queries --------------------------------------------------------

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def tip(self) -> bytes:
        return self._tip

    @property
    def tip_block(self) -> Block:
        return self._blocks[self._tip]

    def record(self, block_hash: bytes) -> BlockRecord:
        return BlockRecord(self._blocks[block_hash], self._children[block_hash])

    def get(self, block_hash: bytes) -> Block | None:
        return self._blocks.get(block_hash)

    def main_chain(self, tip: bytes | None = None) -> list[bytes]:
        """Hashes from genesis to ``tip`` (default: current tip)."""
        chain: list[bytes] = []
        cursor = tip if tip is not None else self._tip
        while True:
            chain.append(cursor)
            if cursor == self.genesis_hash:
                break
            cursor = self._blocks[cursor].header.prev_hash
        chain.reverse()
        return chain

    def is_in_main_chain(self, block_hash: bytes) -> bool:
        """True when the block is an ancestor-or-equal of the tip."""
        if block_hash not in self._blocks:
            return False
        return self.find_fork_point(self._tip, block_hash) == block_hash

    def find_fork_point(self, a: bytes, b: bytes) -> bytes:
        """Lowest common ancestor of two blocks."""
        return self._branches(self._blocks[a], self._blocks[b])[0].hash

    def _branches(self, a: Block, b: Block) -> tuple[Block, list, list]:
        """The fork point of ``a`` and ``b``, and the blocks above it on
        each side, tip-first: one walk, which a tip switch also takes."""
        blocks = self._blocks
        above_a: list[Block] = []
        above_b: list[Block] = []
        while a.height > b.height:
            above_a.append(a)
            a = blocks[a.header.prev_hash]
        while b.height > a.height:
            above_b.append(b)
            b = blocks[b.header.prev_hash]
        while a is not b:
            above_a.append(a)
            above_b.append(b)
            a = blocks[a.header.prev_hash]
            b = blocks[b.header.prev_hash]
        return a, above_a, above_b

    def leaves(self) -> list[bytes]:
        """All blocks without children — the heads of every branch."""
        return [h for h, children in self._children.items() if not children]

    def pruned_blocks(self) -> list[bytes]:
        """All known blocks not on the current main chain."""
        main = set(self.main_chain())
        return [h for h in self._blocks if h not in main]

    # -- mutation -------------------------------------------------------

    def add_block(
        self, block: Block, local_time: float = 0.0, check_signature: bool = True
    ) -> list[Reorg]:
        """Insert a block (and any orphans it unlocks); return tip changes.

        ``_admit`` may judge a block by ``local_time`` and
        ``check_signature`` (Bitcoin-NG's microblock rules do).
        Unknown-parent blocks are buffered and connected when the parent
        arrives, so out-of-order gossip delivery is handled here rather
        than by every caller.  A refusal of ``block`` itself propagates;
        a refused orphan is dropped, with whatever waits on it.
        """
        block_hash = block.hash
        blocks = self._blocks
        if block_hash in blocks:
            return []
        prev_hash = block.header.prev_hash
        refused = self._refused
        if refused and (block_hash in refused or prev_hash in refused):
            refused.add(block_hash)
            raise self.invalid("block is, or builds on, one that did not connect")
        parent = blocks.get(prev_hash)
        orphans = self._orphans
        if parent is None:
            orphans.setdefault(prev_hash, []).append(block)
            return []
        reorg = self._connect(block, parent, local_time, check_signature)
        reorgs = [] if reorg is None else [reorg]
        if block_hash in orphans:
            # Adopt the orphans waiting on this block, recursively.
            pending = [block_hash]
            while pending:
                parent_hash = pending.pop()
                for orphan in orphans.pop(parent_hash, ()):
                    try:
                        reorg = self._connect(
                            orphan, blocks[parent_hash], local_time, check_signature
                        )
                    except self.invalid:
                        continue
                    if reorg is not None:
                        reorgs.append(reorg)
                    pending.append(orphan.hash)
        return reorgs

    def _connect(
        self, block, parent, local_time: float, check_signature: bool
    ) -> Reorg | None:
        self._admit(block, parent, local_time, check_signature)
        block_hash = block.hash
        self._blocks[block_hash] = block
        self._children[block_hash] = []
        self._children[parent.hash].append(block_hash)
        current = self._blocks[self._tip]
        new = self._choose_tip(block, current)
        if new is current:
            return None
        _, disconnected, connected = self._branches(current, new)
        connected.reverse()
        self._tip = new.hash
        # The named tuple's generated __new__ is a Python frame that only
        # packs its four arguments; tuple.__new__ builds the same Reorg.
        return tuple.__new__(
            Reorg, (current, new, tuple(disconnected), tuple(connected))
        )

    # -- what a protocol decides ----------------------------------------

    def _admit(
        self, block: Block, parent: Block, local_time: float, check_signature: bool
    ) -> None:
        """Take ``block`` under ``parent``, or raise :attr:`invalid`.

        The first tree to connect a block object sets its tree facts
        from the parent's; every later tree reads them.
        """
        if block.height == -1:
            block.__dict__.update(
                height=parent.height + 1,
                cumulative_work=parent.cumulative_work + block.header.work,
            )

    def _choose_tip(self, candidate: Block, current: Block) -> Block:
        """The tip to hold now that ``candidate`` has connected."""
        if candidate.cumulative_work < current.cumulative_work:
            return current
        if candidate.cumulative_work == current.cumulative_work:
            # A tie: one draw, and a low one keeps the held branch.
            if self.rng.random() < 0.5:
                return current
        return candidate

    def forget(self, block_hash: bytes, tip: bytes) -> set[bytes]:
        """Drop a block that did not connect, and everything built on it.

        A node learns that a block's spends do not connect only while
        replaying a reorg onto its ledger, after the tree adopted the
        block.  ``tip`` is where that ledger stands; the tree holds it
        again — its choice before the dropped blocks came, and no worse
        against what remains.  The dropped hashes are returned, and
        remembered: a second copy, or a later child, is refused like
        any invalid block.
        """
        children = self._children
        children[self._blocks[block_hash].header.prev_hash].remove(block_hash)
        forgotten: set[bytes] = set()
        pending = [block_hash]
        while pending:
            gone = pending.pop()
            del self._blocks[gone]
            pending.extend(children.pop(gone))
            forgotten.add(gone)
        self._refused |= forgotten
        self._tip = tip
        return forgotten

    def orphan_count(self) -> int:
        return sum(len(waiting) for waiting in self._orphans.values())

    def assert_consistent(self) -> None:
        """Structural invariants, used by property-based tests."""
        for block_hash, block in self._blocks.items():
            if block_hash == self.genesis_hash:
                continue
            parent = self._blocks.get(block.header.prev_hash)
            if parent is None:
                raise InvalidBlock("dangling parent pointer in tree")
            if block.height != parent.height + 1:
                raise InvalidBlock("height does not increment from parent")
            expected = parent.cumulative_work + block.header.work
            if block.cumulative_work != expected:
                raise InvalidBlock("cumulative work mismatch")
            if block_hash not in self._children[parent.hash]:
                raise InvalidBlock("child not registered with parent")
        tip_work = self._blocks[self._tip].cumulative_work
        best = max(b.cumulative_work for b in self._blocks.values())
        if tip_work != best:
            raise InvalidBlock("tip is not a heaviest block")
