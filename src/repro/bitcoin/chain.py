"""The Bitcoin block tree and heaviest-chain fork choice.

"To resolve forks ... the winning chain is the heaviest one, that is,
the one that required (in expectancy) the most mining power to generate.
All miners add blocks to the heaviest chain of which they know, with
random tie-breaking" (Section 3).  The operational client instead keeps
the first branch it heard of (footnote 2); both policies are provided.

The tree tracks cumulative work, computes reorganization paths, buffers
orphans whose parents have not arrived yet, and reports pruned branches
for the time-to-prune metric.

:class:`BlockTree` is also the one block-tree implementation behind
every protocol here.  GHOST (Section 9) and Bitcoin-NG (Section 4.1)
are this tree with a different answer to two questions — *what record
does a block get under its parent* (:meth:`BlockTree._record_for`, with
:meth:`BlockTree._genesis_record` for the root) and *which tip to hold
once a record has connected* (:meth:`BlockTree._choose_tip`) — so their
trees subclass it and override only those.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import NamedTuple

from .blocks import Block, InvalidBlock


class TieBreak(enum.Enum):
    """Policy when two branches have exactly equal cumulative work."""

    FIRST_SEEN = "first-seen"  # operational Bitcoin client
    RANDOM = "random"  # the paper's (and [21]'s) recommendation


@dataclass(slots=True)
class BlockRecord:
    """A block plus its position in the tree.

    The fields every protocol's record has; GHOST's and Bitcoin-NG's
    extend it with their own bookkeeping.  No field has a default, so a
    subclass adds fields positionally and every record is built with
    positional arguments (``children`` starts as a fresh ``[]``).
    """

    block: Block
    height: int
    cumulative_work: int
    children: list[bytes]

    @property
    def hash(self) -> bytes:
        return self.block.hash

    @property
    def parent_hash(self) -> bytes:
        return self.block.header.prev_hash


class Reorg(NamedTuple):
    """A tip change: blocks leaving and entering the main chain.

    ``disconnected`` is ordered tip-first (the order state must be
    unwound); ``connected`` is ordered fork-point-first (the order state
    must be applied).  A named tuple: every receiver of every block
    builds one, and a tuple is the cheapest immutable record to build.
    """

    old_tip: bytes
    new_tip: bytes
    disconnected: tuple[bytes, ...]
    connected: tuple[bytes, ...]


class BlockTree:
    """One node's view of all blocks it knows, with fork choice."""

    # What ``_record_for`` raises to refuse a block.
    invalid: type[Exception] = InvalidBlock

    def __init__(
        self,
        genesis: Block,
        tie_break: TieBreak = TieBreak.FIRST_SEEN,
        rng: random.Random | None = None,
    ) -> None:
        self._orphans: dict[bytes, list[Block]] = {}
        # Blocks dropped by :meth:`forget`; empty on an honest network.
        self._refused: set[bytes] = set()
        self.tie_break = tie_break
        self.rng = rng or random.Random(0)
        self.genesis_hash = genesis.hash
        self._records: dict[bytes, BlockRecord] = {
            genesis.hash: self._genesis_record(genesis)
        }
        self._tip = genesis.hash

    # -- queries --------------------------------------------------------

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def tip(self) -> bytes:
        return self._tip

    @property
    def tip_record(self) -> BlockRecord:
        return self._records[self._tip]

    def record(self, block_hash: bytes) -> BlockRecord:
        return self._records[block_hash]

    def get(self, block_hash: bytes) -> BlockRecord | None:
        return self._records.get(block_hash)

    def height_of(self, block_hash: bytes) -> int:
        return self._records[block_hash].height

    def main_chain(self, tip: bytes | None = None) -> list[bytes]:
        """Hashes from genesis to ``tip`` (default: current tip)."""
        chain: list[bytes] = []
        cursor = tip if tip is not None else self._tip
        while True:
            record = self._records[cursor]
            chain.append(cursor)
            if cursor == self.genesis_hash:
                break
            cursor = record.parent_hash
        chain.reverse()
        return chain

    def is_in_main_chain(self, block_hash: bytes) -> bool:
        """True when the block is an ancestor-or-equal of the tip."""
        record = self._records.get(block_hash)
        if record is None:
            return False
        cursor = self._records[self._tip]
        while cursor.height > record.height:
            cursor = self._records[cursor.parent_hash]
        return cursor.hash == block_hash

    def find_fork_point(self, a: bytes, b: bytes) -> bytes:
        """Lowest common ancestor of two blocks."""
        ra, rb = self._records[a], self._records[b]
        while ra.height > rb.height:
            ra = self._records[ra.parent_hash]
        while rb.height > ra.height:
            rb = self._records[rb.parent_hash]
        while ra.hash != rb.hash:
            ra = self._records[ra.parent_hash]
            rb = self._records[rb.parent_hash]
        return ra.hash

    def leaves(self) -> list[bytes]:
        """All blocks without children — the heads of every branch."""
        return [h for h, record in self._records.items() if not record.children]

    def pruned_blocks(self) -> list[bytes]:
        """All known blocks not on the current main chain."""
        main = set(self.main_chain())
        return [h for h in self._records if h not in main]

    # -- mutation -------------------------------------------------------

    def add_block(self, block: Block) -> list[Reorg]:
        """Insert a block (and any orphans it unlocks); return tip changes.

        Unknown-parent blocks are buffered and connected when the parent
        arrives, so out-of-order gossip delivery is handled here rather
        than by every caller.
        """
        return self._insert(block, None)

    def _insert(self, block, context) -> list[Reorg]:
        """``add_block`` proper; ``context`` goes to ``_record_for`` as is.

        A refusal of ``block`` itself propagates to the caller; a
        refused orphan is dropped, and with it whatever waits on it.
        The usual block has no orphan waiting on it and builds nothing
        but its record and the returned list.
        """
        block_hash = block.hash
        records = self._records
        if block_hash in records:
            return []
        prev_hash = block.header.prev_hash
        refused = self._refused
        if refused and (block_hash in refused or prev_hash in refused):
            refused.add(block_hash)
            raise self.invalid("block is, or builds on, one that did not connect")
        parent = records.get(prev_hash)
        orphans = self._orphans
        if parent is None:
            orphans.setdefault(prev_hash, []).append(block)
            return []
        reorg = self._connect(block, parent, context)
        reorgs = [] if reorg is None else [reorg]
        if block_hash in orphans:
            # Adopt the orphans waiting on this block, recursively.
            pending = [block_hash]
            while pending:
                parent_hash = pending.pop()
                for orphan in orphans.pop(parent_hash, ()):
                    try:
                        reorg = self._connect(orphan, records[parent_hash], context)
                    except self.invalid:
                        continue
                    if reorg is not None:
                        reorgs.append(reorg)
                    pending.append(orphan.hash)
        return reorgs

    def _connect(self, block, parent, context) -> Reorg | None:
        record = self._record_for(block, parent, context)
        self._records[block.hash] = record
        parent.children.append(block.hash)
        new_tip = self._choose_tip(record)
        if new_tip == self._tip:
            return None
        return self._switch_tip(new_tip)

    # -- what a protocol decides ----------------------------------------

    def _genesis_record(self, genesis: Block) -> BlockRecord:
        return BlockRecord(genesis, 0, 0, [])

    def _record_for(self, block: Block, parent: BlockRecord, context) -> BlockRecord:
        """The record ``block`` gets under ``parent``, not yet linked in.

        Raise :attr:`invalid` to refuse the block.
        """
        return BlockRecord(
            block,
            parent.height + 1,
            parent.cumulative_work + block.header.work,
            [],
        )

    def _choose_tip(self, candidate: BlockRecord) -> bytes:
        """The tip to hold now that ``candidate`` has connected."""
        current = self._records[self._tip]
        if candidate.cumulative_work < current.cumulative_work:
            return self._tip
        if candidate.cumulative_work == current.cumulative_work and (
            self.tie_break is TieBreak.FIRST_SEEN or self.rng.random() < 0.5
        ):
            return self._tip
        return candidate.hash

    def _switch_tip(self, new_tip: bytes) -> Reorg:
        old_tip = self._tip
        fork = self.find_fork_point(old_tip, new_tip)
        disconnected = []
        cursor = old_tip
        while cursor != fork:
            disconnected.append(cursor)
            cursor = self._records[cursor].parent_hash
        connected = []
        cursor = new_tip
        while cursor != fork:
            connected.append(cursor)
            cursor = self._records[cursor].parent_hash
        connected.reverse()
        self._tip = new_tip
        return Reorg(old_tip, new_tip, tuple(disconnected), tuple(connected))

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
        parent = self._records[self._records[block_hash].parent_hash]
        parent.children.remove(block_hash)
        forgotten: set[bytes] = set()
        pending = [block_hash]
        while pending:
            gone = pending.pop()
            pending.extend(self._records.pop(gone).children)
            forgotten.add(gone)
        self._refused |= forgotten
        self._tip = tip
        return forgotten

    def orphan_count(self) -> int:
        return sum(len(waiting) for waiting in self._orphans.values())

    def assert_consistent(self) -> None:
        """Structural invariants, used by property-based tests."""
        for block_hash, record in self._records.items():
            if block_hash == self.genesis_hash:
                continue
            parent = self._records.get(record.parent_hash)
            if parent is None:
                raise InvalidBlock("dangling parent pointer in tree")
            if record.height != parent.height + 1:
                raise InvalidBlock("height does not increment from parent")
            expected = parent.cumulative_work + record.block.header.work
            if record.cumulative_work != expected:
                raise InvalidBlock("cumulative work mismatch")
            if block_hash not in parent.children:
                raise InvalidBlock("child not registered with parent")
        tip_work = self._records[self._tip].cumulative_work
        best = max(r.cumulative_work for r in self._records.values())
        if tip_work != best:
            raise InvalidBlock("tip is not a heaviest block")
