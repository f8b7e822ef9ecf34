"""The Bitcoin-NG full node: miner, leader, and relay.

Mining wins (delivered by the shared scheduler) produce key blocks; the
winner becomes leader and generates microblocks at the configured rate
until it learns of a newer key block.  Received blocks are validated,
added to the chain, and relayed through the gossip layer.  Leader
equivocations observed on the chain yield poison entries that the node
publishes when it later becomes leader itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from ..bitcoin.blocks import SyntheticPayload, TxPayload
from ..bitcoin.node import ChainNode
from ..crypto.hashing import hash160
from ..crypto.keys import PrivateKey
from ..ledger.transactions import Transaction
from ..ledger.utxo import UtxoSet
from ..ledger.validation import validate_spend
from ..metrics.collector import ObservationLog
from ..net.gossip import RelayMode
from ..obs.trace import short_hash
from ..net.network import Network
from ..net.simulator import Simulator
from .blocks import (
    KeyBlock,
    Microblock,
    build_key_block,
    build_microblock,
    check_key_block,
    check_microblock_structure,
)
from .chain import NGChain
from .ghost_ng import GhostNGChain
from .params import NGParams
from .poison import InvalidPoison, PoisonEntry, PoisonRegistry
from .remuneration import build_ng_coinbase

KIND_KEY = "key"
KIND_MICRO = "micro"
# Key-block difficulty: the mining scheduler decides who wins, so every
# key block carries the regtest target, as Bitcoin's BlockPolicy does.
KEY_BLOCK_BITS = 0x207FFFFF


@dataclass
class MicroblockPolicy:
    """What the leader puts into its microblocks."""

    target_bytes: int = 50_000
    synthetic: bool = True
    synthetic_tx_size: int = 476
    synthetic_fee_per_tx: int = 0

    def synthetic_tx_count(self) -> int:
        return max(0, self.target_bytes // self.synthetic_tx_size)


class NGNode(ChainNode):
    """A Bitcoin-NG miner/relay node."""

    KINDS = (KIND_KEY, KIND_MICRO)
    chain: NGChain

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        genesis: KeyBlock,
        params: NGParams,
        log: ObservationLog,
        policy: MicroblockPolicy | None = None,
        microblock_interval: float | None = None,
        relay_mode: RelayMode = RelayMode.INV,
        require_pow: bool = False,
        check_signatures: bool = True,
        verification_seconds_per_byte: float = 0.0,
        key: PrivateKey | None = None,
        ghost_fork_choice: bool = False,
    ) -> None:
        if ghost_fork_choice:
            # Section 9 future work: GHOST over key blocks, enabling
            # higher key-block frequencies.
            chain: NGChain = GhostNGChain(genesis, params, sim.rng)
        else:
            chain = NGChain(genesis, params, sim.rng)
        super().__init__(
            node_id,
            sim,
            network,
            chain,
            log,
            relay_mode,
            verification_seconds_per_byte,
            require_pow,
            check_signatures,
            UtxoSet(coinbase_maturity=params.coinbase_maturity),
        )
        self.params = params
        self.policy = policy or MicroblockPolicy()
        # The rate the leader actually generates at; must respect the cap.
        self.microblock_interval = (
            microblock_interval
            if microblock_interval is not None
            else params.min_microblock_interval
        )
        if self.microblock_interval < params.min_microblock_interval:
            raise ValueError(
                "generation interval below the protocol minimum"
            )
        self.key = key or PrivateKey.from_seed(f"ng-node-{node_id}")
        self._fees_by_micro: dict[bytes, int] = {}
        self._micro_counter = 0
        self._leading_epoch: bytes | None = None  # our key block when leader
        self.key_blocks_mined = 0
        self.microblocks_generated = 0
        self.poison_registry = PoisonRegistry()
        self.poisons_published: list[PoisonEntry] = []

    # -- identity -----------------------------------------------------------
    # Derived on first use: one EC multiplication per node that ever
    # mines, not one per node built.

    @cached_property
    def pubkey_bytes(self) -> bytes:
        return self.key.public_key().to_bytes()

    @cached_property
    def pubkey_hash(self) -> bytes:
        return hash160(self.pubkey_bytes)

    # -- key block mining ---------------------------------------------------

    def generate_key_block(self) -> KeyBlock:
        """Mine a key block on the current tip and become leader."""
        tip = self.chain.tip
        prev_leader_hash = self._prev_leader_payout_hash(tip)
        coinbase = build_ng_coinbase(
            miner_id=self.node_id,
            timestamp=self.sim.now,
            self_pubkey_hash=self.pubkey_hash,
            prev_leader_pubkey_hash=prev_leader_hash,
            prev_epoch_fees=self._epoch_fees_behind(tip),
            params=self.params,
        )
        block = build_key_block(
            prev_hash=tip,
            timestamp=self.sim.now,
            bits=KEY_BLOCK_BITS,
            leader_pubkey=self.pubkey_bytes,
            coinbase=coinbase,
        )
        self.key_blocks_mined += 1
        self._publish(block, KIND_KEY, block.header.work, 0)
        self._start_leading(block)
        return block

    def _prev_leader_payout_hash(self, tip: bytes) -> bytes | None:
        """Payout hash for the leader whose epoch this key block closes."""
        return hash160(self.chain.latest_key_block(tip).leader_pubkey)

    def _epoch_fees_behind(self, tip: bytes) -> int:
        """Total entry fees in the epoch ending at ``tip``."""
        fees = 0
        get = self.chain.get
        cursor = get(tip)
        while isinstance(cursor, Microblock):
            fees += self._microblock_fees(cursor)
            cursor = get(cursor.header.prev_hash)
        return fees

    def _microblock_fees(self, micro: Microblock) -> int:
        if isinstance(micro.payload, SyntheticPayload):
            return micro.n_tx * self.policy.synthetic_fee_per_tx
        # Real fees need UTXO context at connect height; the node records
        # what each microblock paid as it connects (see _connect_block).
        return self._fees_by_micro.get(micro.hash, 0)

    # -- leadership -----------------------------------------------------------

    def _start_leading(self, key_block: KeyBlock) -> None:
        self._leading_epoch = key_block.hash
        if self._tracer is not None:
            self._tracer.emit(
                "epoch_start",
                self.sim.now,
                leader=self.node_id,
                key_block=short_hash(key_block.hash),
            )
        self._schedule_microblock(
            at=key_block.header.timestamp + self.microblock_interval
        )

    def _schedule_microblock(self, at: float) -> None:
        when = max(at, self.sim.now)
        self.sim.schedule_at(when, self._maybe_generate_microblock)

    def is_leader(self) -> bool:
        """True while our key block heads the epoch at the tip."""
        if self._leading_epoch is None:
            return False
        return self.chain.latest_key_block().hash == self._leading_epoch

    def abdicate(self) -> None:
        """Drop leadership, closing the epoch; a no-op for a non-leader.

        The generation timer calls this once a newer key block has
        ended the epoch.  Called directly, it models the paper's crashed
        leader: "a benign leader that crashes during his epoch of
        leadership will publish no microblocks".  The pending generation
        timer then finds ``_leading_epoch`` cleared and dies without
        rescheduling.
        """
        if self._leading_epoch is None:
            return
        if self._tracer is not None:
            self._tracer.emit(
                "epoch_end",
                self.sim.now,
                leader=self.node_id,
                key_block=short_hash(self._leading_epoch),
            )
        self._leading_epoch = None

    def _maybe_generate_microblock(self) -> None:
        if not self.is_leader():
            self.abdicate()
            return
        tip = self.chain.tip_block
        earliest = tip.header.timestamp + self.params.min_microblock_interval
        if self.sim.now < earliest - 1e-9:
            self._schedule_microblock(at=earliest)
            return
        self._generate_microblock()
        self._schedule_microblock(at=self.sim.now + self.microblock_interval)

    def _generate_microblock(self) -> Microblock:
        tip = self.chain.tip
        if self.policy.synthetic:
            payload: TxPayload | SyntheticPayload = SyntheticPayload(
                n_tx=self.policy.synthetic_tx_count(),
                tx_size=self.policy.synthetic_tx_size,
                salt=struct.pack("<iI", self.node_id, self._micro_counter) + tip,
            )
        else:
            selected = self.mempool.select(self.policy.target_bytes)
            payload = TxPayload(tuple(selected))
        self._micro_counter += 1
        micro = build_microblock(
            prev_hash=tip,
            timestamp=self.sim.now,
            payload=payload,
            leader_key=self.key,
        )
        self.microblocks_generated += 1
        self._publish(micro, KIND_MICRO, 0, micro.n_tx)
        self._publish_poisons()
        return micro

    def _publish_poisons(self) -> None:
        """As leader, claim any outstanding fraud proofs (Section 4.5)."""
        placement_height = self.chain.tip_block.key_height
        for proof in self.chain.equivocations():
            if proof.offender_pubkey in self.poison_registry:
                continue
            poison = PoisonEntry(proof=proof, reporter_miner=self.node_id)
            try:
                if self.poison_registry.register(
                    self.chain, poison, placement_height
                ):
                    self.poisons_published.append(poison)
            except InvalidPoison:
                continue

    # -- what Bitcoin-NG decides ---------------------------------------------

    def _check_block(self, block: KeyBlock | Microblock) -> None:
        if isinstance(block, KeyBlock):
            check_key_block(block, require_pow=self.require_pow)
        else:
            check_microblock_structure(block, self.params.max_microblock_bytes)

    def _spend_fee(self, tx: Transaction, height: int) -> int:
        # Goes through this module's ``validate_spend`` binding, which is
        # where the benchmark's ledger span taps NG's spend validation.
        return validate_spend(
            tx, self.utxo, height, check_signatures=self.check_signatures
        )

    def _connect_block(self, block: KeyBlock | Microblock) -> int:
        fees = super()._connect_block(block)
        if fees:
            self._fees_by_micro[block.hash] = fees
        return fees
