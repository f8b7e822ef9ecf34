"""Hash primitive behaviour and known-answer checks."""

import hashlib

from repro.crypto.hashing import (
    DIGEST_SIZE,
    hash160,
    sha256,
    sha256d,
    tagged_hash,
)


def test_sha256_matches_stdlib():
    assert sha256(b"abc") == hashlib.sha256(b"abc").digest()


def test_sha256d_is_double_hash():
    inner = hashlib.sha256(b"block").digest()
    assert sha256d(b"block") == hashlib.sha256(inner).digest()


def test_sha256d_known_vector():
    # Bitcoin's "hello" double-SHA vector.
    expected = "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
    assert sha256d(b"hello").hex() == expected


def test_digest_sizes():
    assert len(sha256(b"")) == DIGEST_SIZE
    assert len(sha256d(b"")) == DIGEST_SIZE
    assert len(tagged_hash("t", b"")) == DIGEST_SIZE
    assert len(hash160(b"")) == 20


def test_tagged_hash_domain_separation():
    assert tagged_hash("keyblock", b"data") != tagged_hash("microblock", b"data")
    assert tagged_hash("keyblock", b"data") != sha256(b"data")


def test_tagged_hash_deterministic():
    assert tagged_hash("x", b"y") == tagged_hash("x", b"y")


def test_hash160_distinct_inputs():
    assert hash160(b"a") != hash160(b"b")
