"""Proof-of-work targets, compact encoding, work accounting."""

import pytest

from repro.crypto.pow import (
    GENESIS_TARGET,
    MAX_TARGET,
    InvalidTarget,
    compact_from_target,
    meets_target,
    target_from_compact,
    work_from_target,
)


def test_meets_target_boundary():
    target = 1000
    assert meets_target((1000).to_bytes(32, "big"), target)
    assert not meets_target((1001).to_bytes(32, "big"), target)


def test_work_inverse_to_target():
    assert work_from_target(MAX_TARGET) == 1
    # work = 2^256 // (target + 1), exactly; the smallest legal target is 1.
    assert work_from_target(1) == 2**255
    assert work_from_target(3) == 2**254
    small = work_from_target(GENESIS_TARGET)
    assert small > 2**31  # genesis difficulty is ~2^32 hashes


def test_work_monotone_in_difficulty():
    assert work_from_target(GENESIS_TARGET) > work_from_target(GENESIS_TARGET * 2)


def test_compact_roundtrip_bitcoin_genesis():
    # Bitcoin's genesis nBits.
    bits = 0x1D00FFFF
    target = target_from_compact(bits)
    assert target == GENESIS_TARGET
    assert compact_from_target(target) == bits


def test_compact_roundtrip_regtest():
    bits = 0x207FFFFF
    assert compact_from_target(target_from_compact(bits)) == bits


def test_compact_small_exponent():
    # Exponent <= 3 shifts right.
    assert target_from_compact(0x03123456) == 0x123456
    assert target_from_compact(0x02123456) == 0x1234
    assert target_from_compact(0x01010000) == 1  # a one-byte target
    assert target_from_compact(0x04123456) == 0x12345600


def test_compact_rejects_negative_and_zero():
    with pytest.raises(InvalidTarget):
        target_from_compact(0x03800000)  # sign bit set
    with pytest.raises(InvalidTarget):
        target_from_compact(0x03000000)  # zero mantissa
    with pytest.raises(InvalidTarget, match="zero compact target"):
        target_from_compact(0x01000100)  # the mantissa shifts out


def test_target_range_validation():
    with pytest.raises(InvalidTarget):
        work_from_target(0)
    with pytest.raises(InvalidTarget):
        work_from_target(MAX_TARGET + 1)


@pytest.mark.parametrize(
    ("target", "bits"),
    [
        (0x12, 0x01120000),
        (0x1234, 0x02123400),
        (0x123456, 0x03123456),
        (0x12345678, 0x04123456),
        (0x80, 0x02008000),  # sign bit: one more byte, mantissa shifted
    ],
)
def test_compact_encodes_short_targets(target, bits):
    assert compact_from_target(target) == bits
