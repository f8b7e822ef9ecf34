"""Hash primitives used throughout the protocol stack.

Bitcoin and Bitcoin-NG identify blocks and transactions by the double
SHA-256 of their serialized form.  This module wraps those primitives and
adds *tagged* hashing, which namespaces hashes by purpose so that, e.g., a
microblock header can never collide with a transaction id.
"""

from __future__ import annotations

import hashlib

# Number of bytes in every digest this module produces.
DIGEST_SIZE = 32


def sha256(data: bytes) -> bytes:
    """Return the single SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256d(data: bytes) -> bytes:
    """Return the double SHA-256 digest of ``data``.

    This is Bitcoin's standard block/transaction hash.
    """
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def hash160(data: bytes) -> bytes:
    """Return RIPEMD160(SHA256(data)), Bitcoin's address hash.

    Falls back to a truncated double-SHA256 when the local OpenSSL build
    does not provide ripemd160; the fallback preserves the 20-byte size
    and collision resistance needed by the ledger.
    """
    inner = hashlib.sha256(data).digest()
    try:
        ripemd = hashlib.new("ripemd160")
    except ValueError:
        return sha256d(inner)[:20]
    ripemd.update(inner)
    return ripemd.digest()


def tagged_hash(tag: str, data: bytes) -> bytes:
    """Return a domain-separated SHA-256 hash.

    The tag is hashed and prefixed twice, following the BIP-340
    construction, so hashes computed for one purpose (say, a key-block
    header) cannot be reinterpreted as hashes for another (a microblock
    signature payload).
    """
    tag_digest = sha256(tag.encode("utf-8"))
    return sha256(tag_digest + tag_digest + data)

