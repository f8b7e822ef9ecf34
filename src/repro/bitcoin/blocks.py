"""Bitcoin blocks: headers, payloads, and validity rules.

"A valid block contains (1) a solution to a cryptopuzzle involving the
hash of the previous block, (2) the hash (specifically, the Merkle root)
of the transactions in the current block, which have to be valid, and
(3) a special transaction, called the coinbase" (Section 3).

Payloads come in two flavours sharing one interface:

* :class:`TxPayload` — real validated transactions (library mode).
* :class:`SyntheticPayload` — the paper's experiment mode, where blocks
  carry a count of identically-sized artificial transactions whose
  content is irrelevant to consensus dynamics.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from ..crypto.hashing import sha256d, tagged_hash
from ..crypto.merkle import merkle_root
from ..crypto.pow import meets_target, target_from_compact, work_from_target
from ..ledger.transactions import Transaction, make_coinbase

# Serialized header size, as in Bitcoin.
HEADER_SIZE = 80

# The artificial transaction size used throughout the paper's experiments:
# "The transactions are of identical size; the operational Bitcoin system
# as of today, at 1MB blocks every 10 minutes, has a bandwidth of 3.5 such
# transactions per second" → 1 MB / (600 s * 3.5 tx/s) ≈ 476 bytes.
ARTIFICIAL_TX_SIZE = 476


class InvalidBlock(Exception):
    """Raised when a block fails consensus validity checks."""


@dataclass(frozen=True)
class TxPayload:
    """Block contents as real transactions (coinbase excluded)."""

    transactions: tuple[Transaction, ...]

    @property
    def n_tx(self) -> int:
        return len(self.transactions)

    @cached_property
    def payload_bytes(self) -> int:
        return sum(tx.size for tx in self.transactions)

    @cached_property
    def entry_hashes(self) -> list[bytes]:
        return [tx.txid for tx in self.transactions]

    def root(self) -> bytes:
        return merkle_root(self.entry_hashes)


@dataclass(frozen=True)
class SyntheticPayload:
    """Experiment-mode contents: N artificial transactions of fixed size.

    ``salt`` makes distinct blocks commit to distinct roots even with
    identical counts, standing in for the unique txids of real payloads.
    """

    n_tx: int
    tx_size: int = ARTIFICIAL_TX_SIZE
    salt: bytes = b""

    def __post_init__(self) -> None:
        if self.n_tx < 0 or self.tx_size <= 0:
            raise InvalidBlock("synthetic payload with bad dimensions")

    @property
    def payload_bytes(self) -> int:
        return self.n_tx * self.tx_size

    def root(self) -> bytes:
        body = struct.pack("<II", self.n_tx, self.tx_size) + self.salt
        return tagged_hash("repro/synthetic-payload", body)


@dataclass(frozen=True)
class BlockHeader:
    """The 80-byte committed header, hashed for proof of work."""

    prev_hash: bytes
    payload_root: bytes
    timestamp: float
    bits: int
    nonce: int

    def serialize(self) -> bytes:
        return (
            self.prev_hash
            + self.payload_root
            + struct.pack("<dIQ", self.timestamp, self.bits, self.nonce)
        )

    @cached_property
    def hash(self) -> bytes:
        return sha256d(self.serialize())

    @cached_property
    def target(self) -> int:
        return target_from_compact(self.bits)

    @cached_property
    def work(self) -> int:
        return work_from_target(self.target)

    def meets_pow(self) -> bool:
        return self._meets_pow

    @cached_property
    def _meets_pow(self) -> bool:
        return meets_target(self.hash, self.target)


@dataclass(frozen=True)
class Block:
    """A full block: header, coinbase, and payload."""

    header: BlockHeader
    coinbase: Transaction
    payload: TxPayload | SyntheticPayload

    # Tree facts: the block's height and chain work (the genesis counts
    # 0), the same in every node's tree, so the first tree to connect
    # this object sets them (``BlockTree._admit``); -1 until then.
    height = cumulative_work = -1

    @cached_property
    def hash(self) -> bytes:
        return self.header.hash

    @cached_property
    def ledger_entries(self) -> tuple[Transaction, tuple] | None:
        """``(coinbase, transactions)``; ``None`` for synthetic contents,
        whose ledger state experiment mode does not track."""
        if isinstance(self.payload, TxPayload):
            return self.coinbase, self.payload.transactions
        return None

    @property
    def n_tx(self) -> int:
        return self.payload.n_tx

    @cached_property
    def size(self) -> int:
        """Total on-wire size in bytes."""
        return HEADER_SIZE + self.coinbase.size + self.payload.payload_bytes

    @property
    def miner_hint(self) -> int:
        """Miner id embedded in the coinbase tag (simulation attribution).

        The paper attributed blocks to pools via voluntarily-published
        coinbase markers; we do the same with a 4-byte id.
        """
        tag = self.coinbase.padding
        if len(tag) < 4:
            return -1
        return struct.unpack("<i", tag[:4])[0]

    @cached_property
    def commitment_fault(self) -> str | None:
        """Why the header commitment or coinbase is invalid, or ``None``.

        Receiver-independent, so it is worked out once per block object
        and every receiver reads the same verdict.
        """
        if self.header.payload_root != self.payload.root():
            return "payload root does not match header commitment"
        if not self.coinbase.is_coinbase:
            return "first transaction must be a coinbase"
        return None

    @cached_property
    def second_coinbase_fault(self) -> str | None:
        """Why the payload mints coins, or ``None`` (once per object)."""
        if isinstance(self.payload, TxPayload):
            for tx in self.payload.transactions:
                if tx.is_coinbase:
                    return "payload contains a second coinbase"
        return None

    def __repr__(self) -> str:
        return (
            f"<Block {self.hash.hex()[:8]} prev={self.header.prev_hash.hex()[:8]} "
            f"n_tx={self.n_tx} size={self.size}>"
        )


def build_block(
    prev_hash: bytes,
    payload: TxPayload | SyntheticPayload,
    timestamp: float,
    bits: int,
    miner_id: int,
    reward: int,
    reward_pubkey_hash: bytes | None = None,
    nonce: int = 0,
) -> Block:
    """Assemble a block (unmined: the nonce is whatever was passed)."""
    tag = struct.pack("<i", miner_id) + struct.pack("<d", timestamp)
    payout_hash = reward_pubkey_hash or bytes(20)
    coinbase = make_coinbase([(payout_hash, reward)], tag=tag)
    header = BlockHeader(prev_hash, payload.root(), timestamp, bits, nonce)
    return Block(header, coinbase, payload)


def mine(block: Block, max_iterations: int = 10_000_000) -> Block:
    """Grind nonces until the header meets its target.

    Only practical at test-grade targets; simulations use the scheduler
    instead, exactly as the paper's regression-test mode skipped PoW.
    """
    header = block.header
    for nonce in range(max_iterations):
        candidate = BlockHeader(
            header.prev_hash, header.payload_root, header.timestamp, header.bits, nonce
        )
        if candidate.meets_pow():
            return Block(candidate, block.coinbase, block.payload)
    raise InvalidBlock(f"no valid nonce found in {max_iterations} iterations")


def check_block(block: Block, require_pow: bool = True) -> None:
    """Contextless validity: PoW, payload commitment, coinbase shape.

    ``require_pow=False`` reproduces regression-test mode, where "the
    client skips the block difficulty validation".

    The receiver-independent verdicts are read off the block object;
    ``require_pow`` is the receiver's own and is evaluated on every call,
    in its place between them.
    """
    if block.commitment_fault is not None:
        raise InvalidBlock(block.commitment_fault)
    if require_pow and not block.header.meets_pow():
        raise InvalidBlock("header hash does not meet target")
    if block.second_coinbase_fault is not None:
        raise InvalidBlock(block.second_coinbase_fault)


def make_genesis(
    n_tx: int = 0, timestamp: float = 0.0, bits: int = 0x207FFFFF
) -> Block:
    """The protocol-defined first block."""
    payload = SyntheticPayload(n_tx, salt=b"genesis")
    return build_block(
        prev_hash=bytes(32),
        payload=payload,
        timestamp=timestamp,
        bits=bits,
        miner_id=-1,
        reward=0,
    )
