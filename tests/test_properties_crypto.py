"""Property-based tests: crypto substrate invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa
from repro.crypto.hashing import sha256d, tagged_hash
from repro.crypto.keys import PrivateKey
from repro.crypto.merkle import merkle_root
from repro.crypto.pow import (
    MAX_TARGET,
    compact_from_target,
    target_from_compact,
    work_from_target,
)


@given(st.binary(min_size=0, max_size=200))
def test_sha256d_deterministic_and_sized(data):
    assert sha256d(data) == sha256d(data)
    assert len(sha256d(data)) == 32


@given(st.text(min_size=1, max_size=20), st.binary(max_size=100))
def test_tagged_hash_never_collides_with_plain(tag, data):
    assert tagged_hash(tag, data) != sha256d(data)


def _oracle_root(leaves, depth):
    """Bitcoin's tree read top-down: a node with no right subtree hashes
    its left one twice, at every level, not only above the leaves."""
    if depth == 0:
        return leaves[0]
    half = 1 << (depth - 1)
    left = _oracle_root(leaves[:half], depth - 1)
    right = _oracle_root(leaves[half:], depth - 1) if len(leaves) > half else left
    return sha256d(left + right)


@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=24))
def test_merkle_root_matches_the_recursive_oracle(leaves):
    depth = (len(leaves) - 1).bit_length()
    assert merkle_root(leaves) == _oracle_root(leaves, depth)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=ecdsa.N - 1), st.binary(min_size=32, max_size=32))
def test_sign_verify_property(secret, msg):
    signature = ecdsa.sign(secret, msg)
    assert ecdsa.verify(ecdsa.point_mul(secret), msg, signature)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=ecdsa.N - 1))
def test_pubkey_serialization_roundtrip(secret):
    point = ecdsa.point_mul(secret)
    assert ecdsa.point_from_bytes(ecdsa.point_to_bytes(point)) == point


@given(st.integers(min_value=1, max_value=MAX_TARGET))
def test_work_positive_and_antitone(target):
    work = work_from_target(target)
    assert work >= 1
    if target > 1:
        assert work_from_target(target - target // 2) >= work


@given(st.integers(min_value=2**16, max_value=MAX_TARGET))
def test_compact_encoding_close_roundtrip(target):
    # Compact encoding is lossy (23-bit mantissa) but must stay within
    # a relative error of 2^-15 and re-encode stably.
    bits = compact_from_target(target)
    decoded = target_from_compact(bits)
    assert abs(decoded - target) <= target / 2**15
    assert compact_from_target(decoded) == bits


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=1, max_size=16))
def test_key_derivation_stable(seed):
    key = PrivateKey.from_seed(seed)
    msg = b"\x09" * 32
    assert key.public_key().verify(msg, key.sign(msg))
