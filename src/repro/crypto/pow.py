"""Proof-of-work targets, compact encoding, and work accounting.

A block is valid when the integer value of its header hash is below the
target.  Chain weight ("the most work done, aggregated over all key
blocks") is the sum of per-block work, where work = 2^256 / (target + 1),
matching Bitcoin Core's accounting.

The compact "bits" encoding is Bitcoin's 4-byte floating point format; we
implement it for round-trip fidelity with real headers.
"""

from __future__ import annotations

# The maximum possible target (difficulty 1 in this codebase).
MAX_TARGET = 2**256 - 1

# Bitcoin mainnet's genesis target, kept for realistic difficulty numbers.
GENESIS_TARGET = 0x00000000FFFF0000000000000000000000000000000000000000000000000000


class InvalidTarget(Exception):
    """Raised for targets outside (0, MAX_TARGET]."""


def check_target(target: int) -> None:
    """Validate a target value, raising :class:`InvalidTarget` if bad."""
    if not 0 < target <= MAX_TARGET:
        raise InvalidTarget(f"target {target:#x} out of range")


def meets_target(header_hash: bytes, target: int) -> bool:
    """Return True when the hash satisfies the proof-of-work condition."""
    check_target(target)
    return int.from_bytes(header_hash, "big") <= target


def work_from_target(target: int) -> int:
    """Return the expected number of hashes needed to meet ``target``."""
    check_target(target)
    return (2**256) // (target + 1)


def target_from_compact(bits: int) -> int:
    """Decode Bitcoin's compact 'nBits' representation into a target."""
    exponent = bits >> 24
    mantissa = bits & 0x007FFFFF
    if bits & 0x00800000:
        raise InvalidTarget("negative compact target")
    # mantissa · 256^(exponent − 3), floored: Bitcoin's right shift for
    # exponent < 3 and left shift above it, as one expression.
    target = (mantissa << (8 * exponent)) >> 24
    if target == 0:
        raise InvalidTarget("zero compact target")
    check_target(target)
    return target


def compact_from_target(target: int) -> int:
    """Encode a target in compact 'nBits' form (lossy, like Bitcoin)."""
    check_target(target)
    size = (target.bit_length() + 7) // 8
    # The three most significant bytes: target · 256^(3 − size), floored.
    mantissa = (target << 24) >> (8 * size)
    if mantissa & 0x00800000:
        mantissa >>= 8
        size += 1
    return (size << 24) | mantissa
