"""secp256k1 ECDSA: curve arithmetic, signing, verification."""

import pytest

from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    G,
    INFINITY,
    N,
    InvalidPoint,
    Point,
    is_on_curve,
    point_add,
    point_from_bytes,
    point_mul,
    point_to_bytes,
    sign,
    signature_from_bytes,
    signature_to_bytes,
    verify,
)


def test_generator_on_curve():
    assert is_on_curve(G)


def test_infinity_is_identity():
    assert point_add(G, INFINITY) == G
    assert point_add(INFINITY, G) == G


def test_point_addition_closed():
    p2 = point_add(G, G)
    assert is_on_curve(p2)
    p3 = point_add(p2, G)
    assert is_on_curve(p3)
    assert p3 != p2 != G


def test_inverse_points_sum_to_infinity():
    neg_g = Point(G.x, (-G.y) % ecdsa.P)
    assert point_add(G, neg_g) == INFINITY


def test_scalar_multiplication_consistency():
    # 5G computed two ways.
    by_add = G
    for _ in range(4):
        by_add = point_add(by_add, G)
    assert point_mul(5) == by_add


def test_group_order_annihilates():
    assert point_mul(N) == INFINITY
    assert point_mul(N + 1) == G


def test_point_serialization_roundtrip():
    for k in (1, 2, 7, 123456789):
        point = point_mul(k)
        assert point_from_bytes(point_to_bytes(point)) == point


def test_point_from_bytes_rejects_garbage():
    with pytest.raises(InvalidPoint):
        point_from_bytes(b"\x05" + b"\x00" * 32)
    with pytest.raises(InvalidPoint):
        point_from_bytes(b"\x02" + b"\x00" * 10)
    # x = 1 is not on the curve's quadratic residue for prefix mismatch
    # checks handled internally; an off-curve x must be rejected.
    with pytest.raises(InvalidPoint):
        point_from_bytes(b"\x02" + (5).to_bytes(32, "big"))


def test_sign_verify_roundtrip():
    secret = 0xDEADBEEF
    msg = b"\x11" * 32
    signature = sign(secret, msg)
    assert verify(point_mul(secret), msg, signature)


def test_verify_rejects_wrong_message():
    secret = 42
    signature = sign(secret, b"\x01" * 32)
    assert not verify(point_mul(secret), b"\x02" * 32, signature)


def test_verify_rejects_wrong_key():
    signature = sign(42, b"\x01" * 32)
    assert not verify(point_mul(43), b"\x01" * 32, signature)


def test_signature_is_deterministic():
    assert sign(7, b"\x03" * 32) == sign(7, b"\x03" * 32)


def test_signature_low_s_normalized():
    for secret in (5, 99, 12345):
        _, s = sign(secret, b"\x04" * 32)
        assert s <= N // 2


def test_signature_bytes_roundtrip():
    signature = sign(9, b"\x05" * 32)
    assert signature_from_bytes(signature_to_bytes(signature)) == signature


def test_signature_from_bytes_length_check():
    with pytest.raises(ecdsa.InvalidSignature):
        signature_from_bytes(b"\x00" * 63)


def test_verify_rejects_zero_r_s():
    pub = point_mul(11)
    assert not verify(pub, b"\x06" * 32, (0, 1))
    assert not verify(pub, b"\x06" * 32, (1, 0))
    assert not verify(pub, b"\x06" * 32, (N, 1))


def test_sign_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sign(0, b"\x00" * 32)
    with pytest.raises(ValueError):
        sign(N, b"\x00" * 32)
    with pytest.raises(ValueError):
        sign(1, b"\x00" * 31)


def test_jacobian_matches_affine_addition():
    # Cross-check the fast path against repeated affine additions.
    total = INFINITY
    for k in range(1, 20):
        total = point_add(total, G)
        assert point_mul(k) == total


@pytest.mark.parametrize("modulus", [ecdsa.P, ecdsa.N], ids=["P", "N"])
def test_modular_inverse_agrees_with_fermat(modulus):
    # sign/verify/_from_jacobian invert with pow(x, -1, m); the Fermat
    # form they replaced must give the same integers.
    import random

    rng = random.Random(2016)
    values = [1, 2, modulus - 2, modulus - 1]
    values += [rng.randrange(1, modulus) for _ in range(200)]
    for x in values:
        inverse = pow(x, -1, modulus)
        assert inverse == pow(x, modulus - 2, modulus)
        assert x * inverse % modulus == 1
