"""Key pairs.

A Bitcoin-NG key block "contains a public key that will be used in the
subsequent microblocks"; outputs pay to the ``hash160`` of a public key.
This module provides deterministic key generation (seeded, so network
simulations are reproducible) and signing/verification wrappers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from . import ecdsa
from .hashing import hash160

@dataclass(frozen=True)
class PublicKey:
    """A secp256k1 public key with hashing and verification helpers."""

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

