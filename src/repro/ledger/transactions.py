"""Transactions: the ledger entries serialized by both protocols.

The model is Bitcoin's UTXO design (Section 3 of the paper): a
transaction spends previous outputs and creates new ones, ownership is
proven by a signature matching the public key hash in the spent output.
Script evaluation is deliberately replaced by direct pay-to-pubkey-hash
semantics — the paper's evaluation never exercises scripts.

Coinbase transactions have no inputs and may pay several outputs; the
Bitcoin-NG coinbase "deposits the funds to the current and previous
leaders" in a single transaction (Section 4.4).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

from ..crypto.hashing import sha256d
from ..crypto.keys import PrivateKey
from .errors import MalformedTransaction

# Smallest indivisible unit; 1 coin = 10^8 units, as in Bitcoin.
COIN = 100_000_000

# Total value can never exceed this (21M coins), guarding overflow games.
MAX_MONEY = 21_000_000 * COIN


def _encode_bytes(data: bytes) -> bytes:
    return struct.pack("<H", len(data)) + data


def _encode_long_bytes(data: bytes) -> bytes:
    """Length-prefixed with 4 bytes — for fields that may exceed 64 KiB."""
    return struct.pack("<I", len(data)) + data


class _Reader:
    """Cursor over a byte string for deserialization."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise MalformedTransaction("truncated serialization")
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def take_bytes(self) -> bytes:
        (length,) = struct.unpack("<H", self.take(2))
        return self.take(length)

    def take_long_bytes(self) -> bytes:
        (length,) = struct.unpack("<I", self.take(4))
        return self.take(length)

    def take_u16(self) -> int:
        (value,) = struct.unpack("<H", self.take(2))
        return value

    def take_u32(self) -> int:
        (value,) = struct.unpack("<I", self.take(4))
        return value

    def take_u64(self) -> int:
        (value,) = struct.unpack("<Q", self.take(8))
        return value

    def done(self) -> bool:
        return self._pos == len(self._data)


@dataclass(frozen=True)
class OutPoint:
    """Reference to a specific output of a previous transaction."""

    txid: bytes
    index: int

    def __post_init__(self) -> None:
        if len(self.txid) != 32:
            raise MalformedTransaction("outpoint txid must be 32 bytes")
        if not 0 <= self.index < 2**32:
            raise MalformedTransaction("outpoint index out of range")

    def serialize(self) -> bytes:
        return self.txid + struct.pack("<I", self.index)

    @classmethod
    def deserialize(cls, reader: _Reader) -> "OutPoint":
        txid = reader.take(32)
        index = reader.take_u32()
        return cls(txid, index)

    def __repr__(self) -> str:
        return f"OutPoint({self.txid.hex()[:8]}…:{self.index})"


@dataclass(frozen=True)
class TxInput:
    """Spends an outpoint; ``pubkey``/``signature`` prove ownership.

    The fields are empty while a transaction is being built and are
    populated by :meth:`Transaction.sign_input`.
    """

    outpoint: OutPoint
    pubkey: bytes = b""
    signature: bytes = b""

    def serialize(self) -> bytes:
        return (
            self.outpoint.serialize()
            + _encode_bytes(self.pubkey)
            + _encode_bytes(self.signature)
        )

    def serialize_unsigned(self) -> bytes:
        """Serialization with witness data blanked, for sighash."""
        return self.outpoint.serialize() + _encode_bytes(b"") + _encode_bytes(b"")

    @classmethod
    def deserialize(cls, reader: _Reader) -> "TxInput":
        outpoint = OutPoint.deserialize(reader)
        pubkey = reader.take_bytes()
        signature = reader.take_bytes()
        return cls(outpoint, pubkey, signature)


@dataclass(frozen=True)
class TxOutput:
    """Pays ``value`` units to the owner of ``pubkey_hash``."""

    value: int
    pubkey_hash: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_MONEY:
            raise MalformedTransaction(f"output value {self.value} out of range")
        if len(self.pubkey_hash) != 20:
            raise MalformedTransaction("pubkey hash must be 20 bytes")

    def serialize(self) -> bytes:
        return struct.pack("<Q", self.value) + self.pubkey_hash

    @classmethod
    def deserialize(cls, reader: _Reader) -> "TxOutput":
        value = reader.take_u64()
        pubkey_hash = reader.take(20)
        return cls(value, pubkey_hash)


@dataclass(frozen=True)
class Transaction:
    """A ledger entry: inputs spent, outputs created, optional padding.

    ``padding`` reserves on-wire bytes without semantic content; the
    experiments use it to produce the paper's identically-sized artificial
    transactions.
    """

    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    padding: bytes = b""

    def __post_init__(self) -> None:
        if not self.outputs:
            raise MalformedTransaction("transaction must have outputs")
        total = sum(out.value for out in self.outputs)
        if total > MAX_MONEY:
            raise MalformedTransaction("outputs exceed MAX_MONEY")

    @property
    def is_coinbase(self) -> bool:
        """Coinbase transactions mint coins and therefore have no inputs."""
        return not self.inputs

    @cached_property
    def wire(self) -> bytes:
        """The serialized transaction, built once per frozen object;
        :meth:`serialize`, :attr:`size` and :attr:`txid` all read it."""
        parts = [struct.pack("<HH", len(self.inputs), len(self.outputs))]
        parts.extend(txin.serialize() for txin in self.inputs)
        parts.extend(txout.serialize() for txout in self.outputs)
        parts.append(_encode_long_bytes(self.padding))
        return b"".join(parts)

    def serialize(self) -> bytes:
        return self.wire

    @classmethod
    def deserialize(cls, data: bytes) -> "Transaction":
        reader = _Reader(data)
        tx = cls._read(reader)
        if not reader.done():
            raise MalformedTransaction("trailing bytes after transaction")
        return tx

    @classmethod
    def _read(cls, reader: _Reader) -> "Transaction":
        n_in = reader.take_u16()
        n_out = reader.take_u16()
        inputs = tuple(TxInput.deserialize(reader) for _ in range(n_in))
        outputs = tuple(TxOutput.deserialize(reader) for _ in range(n_out))
        padding = reader.take_long_bytes()
        return cls(inputs, outputs, padding)

    @cached_property
    def txid(self) -> bytes:
        """Double-SHA256 of the serialized transaction."""
        return sha256d(self.wire)

    @cached_property
    def signature_faults(self) -> dict[int, str | None]:
        """Per judged input: why its key does not decode or its signature
        does not verify, or ``None`` for a sound one.

        That verdict depends on nothing but this frozen object, so
        :func:`repro.ledger.validation.verify_input_signatures` fills
        the slot the first time any receiver reaches the input and every
        later receiver reads it.  An input no receiver has reached yet
        has no entry.
        """
        return {}

    @property
    def size(self) -> int:
        """On-wire size in bytes."""
        return len(self.wire)

    def sighash(self, input_index: int) -> bytes:
        """Hash committed to by the signature on ``input_index``.

        Commits to every input outpoint and every output (SIGHASH_ALL
        semantics) so signatures cannot be transplanted between
        transactions.
        """
        if not 0 <= input_index < len(self.inputs):
            raise MalformedTransaction("sighash input index out of range")
        parts = [struct.pack("<HHI", len(self.inputs), len(self.outputs), input_index)]
        parts.extend(txin.serialize_unsigned() for txin in self.inputs)
        parts.extend(txout.serialize() for txout in self.outputs)
        parts.append(_encode_long_bytes(self.padding))
        return sha256d(b"".join(parts))

    def sign_input(self, input_index: int, key: PrivateKey) -> "Transaction":
        """Return a copy with ``input_index`` signed by ``key``."""
        signature = key.sign(self.sighash(input_index))
        pubkey = key.public_key().to_bytes()
        old = self.inputs[input_index]
        signed = TxInput(old.outpoint, pubkey, signature)
        inputs = self.inputs[:input_index] + (signed,) + self.inputs[input_index + 1 :]
        return Transaction(inputs, self.outputs, self.padding)

    def __repr__(self) -> str:
        kind = "coinbase" if self.is_coinbase else "tx"
        return (
            f"<{kind} {self.txid.hex()[:8]} in={len(self.inputs)} "
            f"out={len(self.outputs)} size={self.size}>"
        )


def make_coinbase(
    payouts: list[tuple[bytes, int]], tag: bytes = b""
) -> Transaction:
    """Mint a coinbase paying each (pubkey_hash, value) in ``payouts``.

    ``tag`` is arbitrary padding that makes otherwise-identical coinbases
    distinct (Bitcoin uses the block height for the same reason).
    """
    if not payouts:
        raise MalformedTransaction("coinbase needs at least one payout")
    outputs = tuple(TxOutput(value, pkh) for pkh, value in payouts)
    return Transaction(inputs=(), outputs=outputs, padding=tag)
