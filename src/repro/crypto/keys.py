"""Key pairs and addresses.

A Bitcoin-NG key block "contains a public key that will be used in the
subsequent microblocks"; nodes also own coins through addresses.  This
module provides both: deterministic key generation (seeded, so network
simulations are reproducible), signing/verification wrappers, and
base58check addresses derived from the public key hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from . import ecdsa
from .hashing import hash160, sha256d

_BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

# Version byte for pay-to-pubkey-hash addresses (Bitcoin mainnet).
ADDRESS_VERSION = 0x00


class BadAddress(Exception):
    """Raised when an address string fails to decode or checksum."""


def base58check_encode(version: int, payload: bytes) -> str:
    """Encode version byte + payload with a 4-byte double-SHA checksum."""
    raw = bytes([version]) + payload
    raw += sha256d(raw)[:4]
    number = int.from_bytes(raw, "big")
    encoded = ""
    while number:
        number, digit = divmod(number, 58)
        encoded = _BASE58_ALPHABET[digit] + encoded
    # Preserve leading zero bytes as '1' characters.
    for byte in raw:
        if byte == 0:
            encoded = "1" + encoded
        else:
            break
    return encoded


def base58check_decode(encoded: str) -> tuple[int, bytes]:
    """Decode a base58check string to (version, payload); raises BadAddress."""
    number = 0
    for char in encoded:
        digit = _BASE58_ALPHABET.find(char)
        if digit < 0:
            raise BadAddress(f"invalid base58 character {char!r}")
        number = number * 58 + digit
    raw = number.to_bytes((number.bit_length() + 7) // 8, "big")
    pad = 0
    for char in encoded:
        if char == "1":
            pad += 1
        else:
            break
    raw = b"\x00" * pad + raw
    if len(raw) < 5:
        raise BadAddress("decoded payload too short")
    body, checksum = raw[:-4], raw[-4:]
    if sha256d(body)[:4] != checksum:
        raise BadAddress("checksum mismatch")
    return body[0], body[1:]


@dataclass(frozen=True)
class PublicKey:
    """A secp256k1 public key with address and verification helpers."""

    point: ecdsa.Point

    def to_bytes(self) -> bytes:
        return ecdsa.point_to_bytes(self.point)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        return cls(ecdsa.point_from_bytes(data))

    @cached_property
    def pubkey_hash(self) -> bytes:
        """``hash160`` of the compressed key: what an output pays to."""
        return hash160(self.to_bytes())

    def address(self) -> str:
        """Return the base58check P2PKH-style address for this key."""
        return base58check_encode(ADDRESS_VERSION, self.pubkey_hash)

    def verify(self, msg_hash: bytes, signature: bytes) -> bool:
        """Verify a 64-byte compact signature over a 32-byte hash."""
        try:
            parsed = ecdsa.signature_from_bytes(signature)
        except ecdsa.InvalidSignature:
            return False
        return ecdsa.verify(self.point, msg_hash, parsed)


@dataclass(frozen=True)
class PrivateKey:
    """A secp256k1 private key.

    Use :meth:`from_seed` for deterministic keys in simulations.
    """

    secret: int

    def __post_init__(self) -> None:
        if not 1 <= self.secret < ecdsa.N:
            raise ValueError("private key scalar out of range")

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "PrivateKey":
        """Derive a key deterministically from an arbitrary seed."""
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        digest = hashlib.sha256(b"repro/keygen:" + seed).digest()
        secret = int.from_bytes(digest, "big") % (ecdsa.N - 1) + 1
        return cls(secret)

    def public_key(self) -> PublicKey:
        """The matching public key; the EC multiplication is paid once
        per key object, every later question is a lookup."""
        return self._public_key

    @cached_property
    def _public_key(self) -> PublicKey:
        return PublicKey(ecdsa.point_mul(self.secret))

    def __getstate__(self) -> dict[str, int]:
        # The derived key is a memo, not state: a pickled key is its secret.
        return {"secret": self.secret}

    def sign(self, msg_hash: bytes) -> bytes:
        """Sign a 32-byte hash, returning a 64-byte compact signature."""
        return ecdsa.signature_to_bytes(ecdsa.sign(self.secret, msg_hash))


def address_from_pubkey_hash(pubkey_hash: bytes) -> str:
    """Build an address directly from a 20-byte public key hash."""
    if len(pubkey_hash) != 20:
        raise BadAddress("public key hash must be 20 bytes")
    return base58check_encode(ADDRESS_VERSION, pubkey_hash)


def pubkey_hash_from_address(address: str) -> bytes:
    """Extract the 20-byte public key hash from an address."""
    version, payload = base58check_decode(address)
    if version != ADDRESS_VERSION:
        raise BadAddress(f"unexpected address version {version}")
    if len(payload) != 20:
        raise BadAddress("address payload must be 20 bytes")
    return payload
