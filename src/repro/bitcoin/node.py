"""The Bitcoin full node.

Combines the block tree, UTXO state, and mempool behind the gossip
layer.  Two operating modes, selected by what the mining controller puts
in blocks:

* **library mode** — blocks carry real transactions taken from the
  mempool by fee rate; connects maintain the UTXO set with undo data so
  reorgs roll state back correctly.
* **experiment mode** — blocks carry :class:`SyntheticPayload` (the
  paper's artificial identical transactions); state tracking is skipped,
  matching the testbed's "no transaction propagation" setup.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import cached_property

from ..crypto.hashing import hash160
from ..crypto.keys import PrivateKey
from ..ledger.errors import LedgerError
from ..ledger.mempool import Mempool
from ..ledger.transactions import COIN, Transaction
from ..ledger.utxo import UndoRecord, UtxoSet
from ..ledger.validation import compute_fee, validate_spend
from ..metrics.collector import BlockInfo, ObservationLog
from ..net.gossip import GossipNode, RelayMode, StoredObject
from ..net.network import Network
from ..net.simulator import Simulator
from .blocks import Block, SyntheticPayload, TxPayload, build_block, check_block
from .chain import BlockTree

# Default block subsidy (25 BTC, the 2015 value).
DEFAULT_BLOCK_REWARD = 25 * COIN


@dataclass
class BlockPolicy:
    """What a miner puts into the blocks it creates."""

    max_block_bytes: int = 1_000_000
    synthetic: bool = True
    synthetic_tx_size: int = 476
    bits: int = 0x207FFFFF
    reward: int = DEFAULT_BLOCK_REWARD

    def synthetic_tx_count(self) -> int:
        """Fill the block to its size cap with artificial transactions."""
        return max(0, self.max_block_bytes // self.synthetic_tx_size)


class ChainNode(GossipNode):
    """What every blockchain node here does around its tree (``chain``)
    and ledger.

    Reporting a generated block and gossiping it, reporting an arrival,
    and everything that follows an insertion: orphan backfill, replaying
    the resulting reorgs onto the UTXO set and mempool (with undo data,
    so reorgs roll state back), refusing a block whose spends do not
    connect, reporting the tip change; and admitting transactions.
    A protocol's node builds its blocks and supplies the hooks:
    :attr:`KINDS` (the object kinds its blocks travel as),
    :meth:`_check_block` (validation that needs no chain context) and
    ``_spend_fee(tx, height)`` (validate a spend, return its fee).  What
    a block does to the ledger is the block's own ``ledger_entries``.
    """

    KINDS: tuple[str, ...]

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        chain: BlockTree,
        log: ObservationLog,
        relay_mode: RelayMode,
        verification_seconds_per_byte: float,
        require_pow: bool,
        check_signatures: bool,
        utxo: UtxoSet,
    ) -> None:
        super().__init__(
            node_id,
            sim,
            network,
            relay_mode=relay_mode,
            verification_seconds_per_byte=verification_seconds_per_byte,
        )
        self.chain = chain
        self.log = log
        self.require_pow = require_pow
        self.check_signatures = check_signatures
        self.utxo = utxo
        self.mempool = Mempool()
        self._undo: dict[bytes, list[UndoRecord]] = {}
        self.blocks_rejected = 0
        log.record_tip(node_id, chain.genesis_hash, sim.now)

    # -- generated blocks --------------------------------------------------

    def _publish(self, block, kind: str, work: int, n_tx: int) -> None:
        """Report a block this node just created, then gossip it."""
        self.log.record_generation(
            BlockInfo(
                hash=block.hash,
                parent=block.header.prev_hash,
                miner=self.node_id,
                gen_time=self.sim.now,
                work=work,
                kind=kind,
                n_tx=n_tx,
                size=block.size,
            )
        )
        self.announce(block.hash, kind, block, block.size)

    # -- received objects --------------------------------------------------

    def deliver(self, obj: StoredObject, sender: int | None):
        kind = obj.kind
        if kind in self.KINDS:
            return self._receive(obj.data, kind, sender)
        if kind == "tx":
            if sender is not None:
                self._accept_relayed_transaction(obj.data)
            return None
        return False  # unknown object kinds are not relayed

    def _receive(self, block, kind: str, sender: int | None):
        """Take in a block from ``sender`` (``None``: our own).

        Returns ``False`` — do not relay — when the block is refused.
        """
        now = self.sim.now
        block_hash = block.hash
        if sender is not None:
            self.log.record_arrival(self.node_id, block_hash, now, kind)
        chain = self.chain
        try:
            if sender is not None:
                self._check_block(block)
            reorgs = chain.add_block(block, now, self.check_signatures)
        except chain.invalid:
            self.blocks_rejected += 1
            return False
        if not reorgs:
            # Only a block that moved no tip can have been buffered.
            parent_hash = block.header.prev_hash
            if (
                sender is not None
                and block_hash not in chain
                and parent_hash not in chain
            ):
                # Orphan: backfill the gap from whoever sent this block.
                self.request_object(sender, parent_hash)
            return None
        verdict = None
        tip = None
        for reorg in reorgs:
            for gone in reorg.disconnected:
                if gone.ledger_entries is not None:
                    self._disconnect_block(gone)
            try:
                for joined in reorg.connected:
                    if joined.ledger_entries is not None:
                        self._connect_block(joined)
            except chain.invalid:
                # A block on the new branch does not connect: refused
                # like any invalid block, only later — the tree had
                # adopted it.  The ledger goes back on ``old_tip``; the
                # tree drops the block with what was built on it (this
                # insertion's remaining reorgs too) and holds that tip.
                done = reorg.connected.index(joined)
                for connected in reversed(reorg.connected[:done]):
                    if connected.ledger_entries is not None:
                        self._disconnect_block(connected)
                for disconnected in reversed(reorg.disconnected):
                    if disconnected.ledger_entries is not None:
                        self._connect_block(disconnected)
                self.blocks_rejected += 1
                if block_hash in chain.forget(joined.hash, reorg.old_tip.hash):
                    verdict = False
                break
            tip = reorg.new_tip
        if tip is not None:
            self.log.record_tip(self.node_id, tip.hash, now, tip.height)
        return verdict

    def _check_block(self, block) -> None:
        """Contextless validation; raise the tree's ``invalid`` to refuse."""
        raise NotImplementedError

    # -- ledger state ------------------------------------------------------

    def _connect_block(self, block) -> int:
        """Apply a block with ledger entries that joined the main chain;
        return the fees paid.

        Raises the tree's ``invalid``, with the UTXO set as it was, when
        one of the block's spends does not connect.
        """
        coinbase, transactions = block.ledger_entries
        height = block.height
        undo_records: list[UndoRecord] = []
        if coinbase is not None:
            undo_records.append(self.utxo.apply(coinbase, height))
        fees = 0
        for tx in transactions:
            try:
                fees += self._spend_fee(tx, height)
            except LedgerError:
                # Unwind the partial connect, then surface the failure.
                for done in reversed(undo_records):
                    self.utxo.undo(done)
                raise self.chain.invalid(
                    f"block {block.hash.hex()[:8]} contains an invalid spend"
                )
            undo_records.append(self.utxo.apply(tx, height))
            self.mempool.evict_conflicts(tx)
        self._undo[block.hash] = undo_records
        return fees

    def _disconnect_block(self, block) -> None:
        """Unwind a block with ledger entries that left the main chain."""
        undo_records = self._undo.pop(block.hash, None)
        if undo_records is None:
            return
        for undo in reversed(undo_records):
            self.utxo.undo(undo)
        # Returned transactions compete for inclusion again.
        for tx in block.ledger_entries[1]:
            try:
                fee = compute_fee(tx, self.utxo, block.height)
                self.mempool.add(tx, fee)
            except LedgerError:
                continue

    # -- transaction entry points -----------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        """Accept a locally submitted transaction and gossip it."""
        fee = self._spend_fee(tx, self.chain.tip_block.height + 1)
        self.mempool.add(tx, fee)
        self.announce(tx.txid, "tx", tx, tx.size)

    def _accept_relayed_transaction(self, tx: Transaction) -> None:
        """Admit a gossiped transaction if it validates; drop otherwise."""
        try:
            fee = self._spend_fee(tx, self.chain.tip_block.height + 1)
            self.mempool.add(tx, fee)
        except LedgerError:
            return

    # -- introspection ------------------------------------------------------

    def best_object_id(self) -> bytes | None:
        return self.chain.tip

    @property
    def tip(self) -> bytes:
        return self.chain.tip


class BitcoinNode(ChainNode):
    """A miner/relay node running the Bitcoin blockchain protocol."""

    KINDS = ("block",)

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        genesis: Block,
        log: ObservationLog,
        policy: BlockPolicy | None = None,
        relay_mode: RelayMode = RelayMode.INV,
        require_pow: bool = False,
        check_signatures: bool = True,
        verification_seconds_per_byte: float = 0.0,
        key: PrivateKey | None = None,
    ) -> None:
        super().__init__(
            node_id,
            sim,
            network,
            self._build_tree(genesis, sim.rng),
            log,
            relay_mode,
            verification_seconds_per_byte,
            require_pow,
            check_signatures,
            UtxoSet(),
        )
        self.policy = policy or BlockPolicy()
        self.key = key or PrivateKey.from_seed(f"bitcoin-node-{node_id}")
        self._block_counter = 0
        self.blocks_mined = 0

    def _build_tree(self, genesis: Block, rng: random.Random) -> BlockTree:
        """The fork-choice rule this node runs (GHOST's node overrides)."""
        return BlockTree(genesis, rng)

    # -- mining ----------------------------------------------------------

    def generate_block(self) -> Block:
        """Create a block on the current tip and inject it into gossip.

        Called by the mining controller when this miner wins a
        proof-of-work event (the paper's in-situ controller analogue).
        """
        tip = self.chain.tip
        if self.policy.synthetic:
            payload: TxPayload | SyntheticPayload = SyntheticPayload(
                n_tx=self.policy.synthetic_tx_count(),
                tx_size=self.policy.synthetic_tx_size,
                salt=struct.pack("<iI", self.node_id, self._block_counter) + tip,
            )
            reward = self.policy.reward
        else:
            selected = self.mempool.select(self.policy.max_block_bytes)
            height = self.chain.tip_block.height + 1
            fees = sum(
                compute_fee(tx, self.utxo, height) for tx in selected
            )
            payload = TxPayload(tuple(selected))
            reward = self.policy.reward + fees
        self._block_counter += 1
        block = build_block(
            prev_hash=tip,
            payload=payload,
            timestamp=self.sim.now,
            bits=self.policy.bits,
            miner_id=self.node_id,
            reward=reward,
            reward_pubkey_hash=self._payout_hash,
        )
        self.blocks_mined += 1
        self._publish(block, "block", block.header.work, block.n_tx)
        return block

    @cached_property
    def _payout_hash(self) -> bytes:
        """Derived on first use: one EC multiplication per mining node."""
        return hash160(self.key.public_key().to_bytes())

    # -- what Bitcoin decides ------------------------------------------------

    def _check_block(self, block: Block) -> None:
        check_block(block, require_pow=self.require_pow)

    def _spend_fee(self, tx: Transaction, height: int) -> int:
        return validate_spend(
            tx, self.utxo, height, check_signatures=self.check_signatures
        )

    # -- introspection ------------------------------------------------------

    @property
    def height(self) -> int:
        return self.chain.tip_block.height
