"""Merkle tree construction."""

from repro.crypto.hashing import sha256d
from repro.crypto.merkle import EMPTY_ROOT, merkle_root


def _leaves(n):
    return [sha256d(bytes([i])) for i in range(n)]


def test_empty_tree():
    assert merkle_root([]) == EMPTY_ROOT


def test_single_leaf_is_root():
    leaf = sha256d(b"only")
    assert merkle_root([leaf]) == leaf


def test_two_leaves():
    a, b = _leaves(2)
    assert merkle_root([a, b]) == sha256d(a + b)


def test_odd_leaf_duplication():
    a, b, c = _leaves(3)
    level1 = [sha256d(a + b), sha256d(c + c)]
    assert merkle_root([a, b, c]) == sha256d(level1[0] + level1[1])


def test_root_depends_on_order():
    a, b = _leaves(2)
    assert merkle_root([a, b]) != merkle_root([b, a])

