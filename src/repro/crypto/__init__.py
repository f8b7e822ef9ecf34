"""Cryptographic substrate: hashing, Merkle trees, ECDSA keys, proof of work.

Everything the protocols need is implemented here from scratch — the
library has no binary crypto dependency.  See :mod:`repro.crypto.ecdsa`
for the secp256k1 implementation and :mod:`repro.crypto.pow` for target
arithmetic.
"""

from .hashing import DIGEST_SIZE, hash160, sha256, sha256d, tagged_hash
from .keys import PrivateKey, PublicKey
from .merkle import EMPTY_ROOT, merkle_root
from .pow import (
    GENESIS_TARGET,
    MAX_TARGET,
    InvalidTarget,
    compact_from_target,
    meets_target,
    target_from_compact,
    work_from_target,
)

__all__ = [
    "DIGEST_SIZE",
    "EMPTY_ROOT",
    "GENESIS_TARGET",
    "MAX_TARGET",
    "InvalidTarget",
    "PrivateKey",
    "PublicKey",
    "compact_from_target",
    "hash160",
    "merkle_root",
    "meets_target",
    "sha256",
    "sha256d",
    "tagged_hash",
    "target_from_compact",
    "work_from_target",
]
