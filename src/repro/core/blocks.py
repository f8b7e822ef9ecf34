"""Bitcoin-NG block types: key blocks and microblocks (Section 4).

A **key block** is a Bitcoin-style proof-of-work block that elects its
miner leader; "unlike Bitcoin, a key block contains a public key that
will be used in the subsequent microblocks".

A **microblock** "contains ledger entries and a header.  The header
contains the reference to the previous block, the current GMT time, a
cryptographic hash of its ledger entries, and a cryptographic signature
of the header.  The signature uses the private key that matches the
public key in the latest key block in the chain."  Microblocks carry no
proof of work and therefore no chain weight.

The leader's key signs a microblock header the first time the signature
is read — by a receiver that checks signatures, a fraud proof being
verified, the sanitizer's signature cache — and the block then drops the
key.  RFC 6979 signing is deterministic, so the bytes are those that
signing at build time would make; a run that checks no signature (the
paper's testbed did not) signs nothing.  A header's target, work and
proof-of-work verdict, and a block's id and size, are worked out once
per object: the id is read at every hop, by gossip and the block tree.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from ..bitcoin.blocks import HEADER_SIZE, SyntheticPayload, TxPayload
from ..crypto.ecdsa import InvalidPoint
from ..crypto.hashing import sha256d, tagged_hash
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.pow import meets_target, target_from_compact, work_from_target
from ..ledger.transactions import Transaction

# A compressed public key adds 33 bytes to the Bitcoin header.
KEY_HEADER_SIZE = HEADER_SIZE + 33

# Microblock header: 32 prev + 8 time + 32 root + 64 signature.
MICRO_HEADER_SIZE = 136


class InvalidNGBlock(Exception):
    """Raised when a key block or microblock fails validity checks."""


@dataclass(frozen=True)
class KeyBlockHeader:
    """Proof-of-work header carrying the epoch public key."""

    prev_hash: bytes
    payload_root: bytes
    timestamp: float
    bits: int
    nonce: int
    leader_pubkey: bytes  # 33-byte compressed secp256k1 point

    def serialize(self) -> bytes:
        return (
            self.prev_hash
            + self.payload_root
            + struct.pack("<dIQ", self.timestamp, self.bits, self.nonce)
            + self.leader_pubkey
        )

    @cached_property
    def hash(self) -> bytes:
        return tagged_hash("repro/ng-keyblock", self.serialize())

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
class KeyBlock:
    """A leader-election block: header + coinbase paying the fee split."""

    header: KeyBlockHeader
    coinbase: Transaction

    # Tree facts, set by the first tree that connects this object
    # (``NGChain._admit``): blocks of any kind since the genesis, work of
    # key blocks only, the epoch number, and the epoch key in force
    # after this block.  Microblocks carry the same.
    is_key = True
    height = cumulative_work = key_height = -1
    leader_pubkey = b""

    @cached_property
    def hash(self) -> bytes:
        return self.header.hash

    @cached_property
    def ledger_entries(self) -> tuple[Transaction, tuple]:
        """``(coinbase, transactions)``: a key block only mints."""
        return self.coinbase, ()

    @cached_property
    def size(self) -> int:
        """Key blocks are small — header plus coinbase only."""
        return KEY_HEADER_SIZE + self.coinbase.size

    @property
    def miner_hint(self) -> int:
        tag = self.coinbase.padding
        if len(tag) < 4:
            return -1
        return struct.unpack("<i", tag[:4])[0]

    @cached_property
    def commitment_fault(self) -> str | None:
        """Why the leader key's length, the coinbase commitment or the
        coinbase's shape is invalid, or ``None``.

        Receiver-independent, so it is worked out once per block object
        and every receiver reads the same verdict.
        """
        if len(self.header.leader_pubkey) != 33:
            return "malformed leader public key"
        if self.header.payload_root != sha256d(self.coinbase.serialize()):
            return "coinbase commitment mismatch"
        if not self.coinbase.is_coinbase:
            return "key block payload must be a coinbase"
        return None

    @cached_property
    def leader_key_fault(self) -> str | None:
        """Why the leader key is no curve point, or ``None`` (once per object)."""
        try:
            PublicKey.from_bytes(self.header.leader_pubkey)
        except InvalidPoint as exc:
            return f"leader public key undecodable: {exc}"
        return None

    def __repr__(self) -> str:
        return (
            f"<KeyBlock {self.hash.hex()[:8]} "
            f"prev={self.header.prev_hash.hex()[:8]}>"
        )


@dataclass(frozen=True)
class MicroblockHeader:
    """The signed microblock header."""

    prev_hash: bytes
    timestamp: float
    entries_root: bytes

    def signing_payload(self) -> bytes:
        """The bytes the leader signs."""
        body = self.prev_hash + struct.pack("<d", self.timestamp) + self.entries_root
        return tagged_hash("repro/ng-microblock-sig", body)

    @cached_property
    def hash(self) -> bytes:
        body = self.prev_hash + struct.pack("<d", self.timestamp) + self.entries_root
        return tagged_hash("repro/ng-microblock", body)


@dataclass(frozen=True, eq=False)
class Microblock:
    """Ledger entries signed by the epoch leader; carries no weight.

    ``seal`` is the 64-byte header signature, or the leader's private
    key that makes it the first time :attr:`signature` is read (see
    :func:`build_microblock`).
    """

    header: MicroblockHeader
    seal: bytes | PrivateKey
    payload: TxPayload | SyntheticPayload

    # Tree facts, as on a key block.
    is_key = False
    height = cumulative_work = key_height = -1
    leader_pubkey = b""

    @property
    def signature(self) -> bytes:
        """The leader's signature over the header; made from the key on
        first read, after which the bytes replace the key."""
        seal = self.seal
        if isinstance(seal, PrivateKey):
            seal = seal.sign(self.header.signing_payload())
            object.__setattr__(self, "seal", seal)
        return seal

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Microblock):
            return NotImplemented
        if self.header != other.header or self.payload != other.payload:
            return False
        # One key signs one header to one signature: equal seals need
        # no signing, anything else compares the signature bytes.
        return self.seal == other.seal or self.signature == other.signature

    def __hash__(self) -> int:
        return hash((self.header, self.payload))

    @cached_property
    def hash(self) -> bytes:
        return self.header.hash

    @cached_property
    def size(self) -> int:
        return MICRO_HEADER_SIZE + self.payload.payload_bytes

    @cached_property
    def ledger_entries(self) -> tuple[None, tuple] | None:
        """``(None, transactions)``; ``None`` for synthetic contents."""
        if isinstance(self.payload, TxPayload):
            return None, self.payload.transactions
        return None

    @property
    def n_tx(self) -> int:
        return self.payload.n_tx

    @cached_property
    def entries_root_fault(self) -> str | None:
        """Why the header does not commit to the payload, or ``None``.

        Receiver-independent, so worked out once per microblock object.
        """
        if self.header.entries_root != self.payload.root():
            return "entries root does not match payload"
        return None

    @cached_property
    def _signature_verdicts(self) -> dict[bytes, bool]:
        """``leader_pubkey`` -> verdict of :meth:`verify_signature` under it."""
        return {}

    def verify_signature(self, leader_pubkey: bytes) -> bool:
        """Check the header signature under the epoch's public key.

        Which key to check under is the caller's context (its view of
        the latest key block); the verdict under a given key is not, so
        it is worked out once per microblock object and key.
        """
        verdict = self._signature_verdicts.get(leader_pubkey)
        if verdict is None:
            try:
                pubkey = PublicKey.from_bytes(leader_pubkey)
            except InvalidPoint:
                verdict = False
            else:
                verdict = pubkey.verify(
                    self.header.signing_payload(), self.signature
                )
            self._signature_verdicts[leader_pubkey] = verdict
        return verdict

    def __repr__(self) -> str:
        return (
            f"<Microblock {self.hash.hex()[:8]} "
            f"prev={self.header.prev_hash.hex()[:8]} n_tx={self.n_tx}>"
        )


def build_key_block(
    prev_hash: bytes,
    timestamp: float,
    bits: int,
    leader_pubkey: bytes,
    coinbase: Transaction,
    nonce: int = 0,
) -> KeyBlock:
    """Assemble a key block (unmined; nonce as given)."""
    if len(leader_pubkey) != 33:
        raise InvalidNGBlock("leader public key must be 33 bytes compressed")
    header = KeyBlockHeader(
        prev_hash=prev_hash,
        payload_root=sha256d(coinbase.serialize()),
        timestamp=timestamp,
        bits=bits,
        nonce=nonce,
        leader_pubkey=leader_pubkey,
    )
    return KeyBlock(header, coinbase)


def build_microblock(
    prev_hash: bytes,
    timestamp: float,
    payload: TxPayload | SyntheticPayload,
    leader_key: PrivateKey,
) -> Microblock:
    """Assemble a microblock that the leader's private key signs when
    its signature is first read.

    Only a reader of :attr:`Microblock.signature` pays for the ECDSA
    sign: a receiver checking signatures, a fraud proof or poison being
    verified, the sanitizer's signature cache.  A run that checks none
    (the paper's testbed did not) signs nothing.
    """
    header = MicroblockHeader(prev_hash, timestamp, payload.root())
    return Microblock(header, leader_key, payload)


def mine_key_block(block: KeyBlock, max_iterations: int = 10_000_000) -> KeyBlock:
    """Grind nonces until the key block header meets its target."""
    header = block.header
    for nonce in range(max_iterations):
        candidate = KeyBlockHeader(
            header.prev_hash,
            header.payload_root,
            header.timestamp,
            header.bits,
            nonce,
            header.leader_pubkey,
        )
        if candidate.meets_pow():
            return KeyBlock(candidate, block.coinbase)
    raise InvalidNGBlock(f"no valid nonce in {max_iterations} iterations")


def check_key_block(block: KeyBlock, require_pow: bool = True) -> None:
    """Contextless key block validity.

    The receiver-independent verdicts are read off the block object;
    ``require_pow`` is the receiver's own and is evaluated on every call,
    in its place between them.
    """
    if block.commitment_fault is not None:
        raise InvalidNGBlock(block.commitment_fault)
    if require_pow and not block.header.meets_pow():
        raise InvalidNGBlock("key block does not meet its target")
    # Reject an obviously un-parsable key so later signature checks are
    # meaningful.
    if block.leader_key_fault is not None:
        raise InvalidNGBlock(block.leader_key_fault)


def check_microblock_structure(
    micro: Microblock, max_bytes: int
) -> None:
    """Contextless microblock validity (signature needs chain context)."""
    if micro.entries_root_fault is not None:
        raise InvalidNGBlock(micro.entries_root_fault)
    if micro.size > max_bytes:
        raise InvalidNGBlock(
            f"microblock size {micro.size} exceeds cap {max_bytes}"
        )
