"""Merkle trees over transaction/entry hashes.

Blocks commit to their contents through the Merkle root of the entry
hashes, exactly as in Bitcoin.  Bitcoin-NG microblock headers carry "a
cryptographic hash of its ledger entries"; we use the same Merkle
construction for both protocols.

The tree duplicates the final hash of an odd level, matching Bitcoin's
(historically quirky) rule.
"""

from __future__ import annotations

from .hashing import sha256d

# Root used for a block that commits to no entries at all.
EMPTY_ROOT = b"\x00" * 32


def merkle_root(leaves: list[bytes]) -> bytes:
    """Compute the Merkle root of a list of 32-byte leaf hashes."""
    if not leaves:
        return EMPTY_ROOT
    level = list(leaves)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            sha256d(level[i] + level[i + 1]) for i in range(0, len(level), 2)
        ]
    return level[0]

