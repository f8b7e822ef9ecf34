"""secp256k1 ECDSA: curve arithmetic, signing, verification."""

import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    BETA,
    G,
    INFINITY,
    LAMBDA,
    N,
    P,
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

NEG_G = Point(G.x, P - G.y)


def test_generator_on_curve():
    assert is_on_curve(G)
    assert is_on_curve(INFINITY)
    assert not is_on_curve(Point(G.x, G.y + 1))
    assert not verify(Point(G.x, G.y + 1), b"\x01" * 32, (1, 1))


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
    with pytest.raises(InvalidPoint, match="out of field range"):
        point_from_bytes(b"\x02" + P.to_bytes(32, "big"))


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


def test_verify_refuses_a_malleated_high_s_copy():
    secret = 0xDEADBEEF
    msg = b"\x12" * 32
    r, s = sign(secret, msg)
    public = point_mul(secret)
    assert verify(public, msg, (r, s))
    # (r, N - s) satisfies the ECDSA equation too; LOW_S refuses it.
    assert not verify(public, msg, (r, N - s))


# -- GLV constants, scalar splitting and wNAF recoding -----------------

SCALARS = [0, 1, 2, LAMBDA, N - 1]
SCALARS += [random.Random(2016).randrange(N) for _ in range(200)]


def test_glv_constants():
    assert LAMBDA != 1 and pow(LAMBDA, 3, N) == 1
    assert BETA != 1 and pow(BETA, 3, P) == 1
    assert point_mul(LAMBDA) == Point(BETA * G.x % P, G.y)


def test_glv_split_recombines_into_two_short_halves():
    for k in SCALARS:
        k1, k2 = ecdsa._glv_split(k)
        assert (k1 + k2 * LAMBDA - k) % N == 0
        assert abs(k1) < 2**129 and abs(k2) < 2**129


def test_glv_split_rounds_to_the_nearest_lattice_point():
    # Babai round-off: subtract round(b2·k/N)·v1 + round(−b1·k/N)·v2 from
    # (k, 0), with v1 = (a1, b1) and v2 = (a2, b2).
    from fractions import Fraction

    a1, b1, a2, b2 = ecdsa._A1, ecdsa._B1, ecdsa._A2, ecdsa._B2
    for k in SCALARS:
        c1 = round(Fraction(b2 * k, N))
        c2 = round(Fraction(-b1 * k, N))
        assert ecdsa._glv_split(k) == (k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2)


@pytest.mark.parametrize("width", [5, 8])
def test_wnaf_digits(width):
    halves = [half for k in SCALARS for half in ecdsa._glv_split(k)]
    assert any(h < 0 for h in halves)
    for k in SCALARS + halves:
        digits = ecdsa._wnaf(k, width)
        assert sum(digit << i for i, digit in enumerate(digits)) == k
        for digit in digits:
            assert digit == 0 or (digit % 2 == 1 and abs(digit) < 2 ** (width - 1))
        for start in range(len(digits)):
            assert sum(1 for digit in digits[start : start + width] if digit) <= 1


# -- Every entry of every affine table ----------------------------------


def test_generator_wnaf_tables():
    g_table, lambda_g_table = ecdsa._g_odd_tables()
    # 64 odd multiples, each digit sign at its own index.
    assert len(g_table) == len(lambda_g_table) == 2**ecdsa._G_WNAF_WINDOW
    for digit in range(-127, 128, 2):
        assert Point(*g_table[digit]) == point_mul(digit % N)
        assert Point(*lambda_g_table[digit]) == point_mul(digit * LAMBDA % N)


@pytest.mark.parametrize("secret", [1, 2, 0xC0FFEE, N - 1])
def test_per_verify_key_tables(secret):
    public = point_mul(secret)
    odd = ecdsa._odd_multiples(public.x, public.y, 8)
    assert len(odd) == 8
    table = ecdsa._signed_table(odd)
    lambda_table = ecdsa._signed_table(ecdsa._endomorphism(odd))
    for digit in range(-15, 16, 2):
        assert Point(*table[digit]) == point_mul(digit * secret % N)
        assert Point(*lambda_table[digit]) == point_mul(digit * LAMBDA * secret % N)


def test_verify_builds_one_small_key_table(count_calls):
    # Q's table is built per verify, so it stays at 8 odd multiples.
    ecdsa._g_odd_tables()  # G's tables are built once, outside the count
    public = point_mul(0xC0FFEE)
    built = count_calls(ecdsa, "_odd_multiples")
    assert verify(public, b"\x31" * 32, sign(0xC0FFEE, b"\x31" * 32))
    assert built == [(public.x, public.y, 8)]


def test_operation_counts(count_calls):
    # Point operations, not wall time, so the host's speed cancels: a
    # binary double-and-add verify makes ≈256 doublings, a 4-bit comb
    # k·G ≈61 additions.
    ecdsa._g_odd_tables()  # the generator tables are built once, outside
    point_mul(1)
    public = point_mul(0xC0FFEE)
    doubles = count_calls(ecdsa, "_jac_double")
    adds = count_calls(ecdsa, "_jac_add_affine")
    for index in range(20):
        msg_hash = bytes([0x31 + index]) * 32
        signature = sign(0xC0FFEE, msg_hash)
        doubles.clear()
        adds.clear()
        assert verify(public, msg_hash, signature)
        assert len(doubles) <= 130 and len(adds) <= 85
    for k in SCALARS + KG_BOUNDARIES:
        doubles.clear()
        adds.clear()
        ecdsa._mul_g(k)
        assert not doubles and len(adds) <= 34


@pytest.mark.parametrize(
    "secret, msg_hash, expected",
    [
        (
            1,
            b"\x41" * 32,
            "65ba79dec96e83448e3e6e2cea32d0765cf4d218293dd68477e23584119771"
            "761ced565e2678fcf9614b6397339df00f552ab02551b9f8e9bb00f082bc8da41d",
        ),
        (
            0xC0FFEE,
            b"\x42" * 32,
            "21cbb7a0b5aa440586290c34863e161e0a48e27a9c75f9ebe607bf4f26195e"
            "4637b3d59fecd40cee336c0f62c8d053d6f78bcd555948d3b0468285bb5560dfca",
        ),
        (
            N - 1,
            bytes(32),
            "919026f3e239ea52cf530eb6d345dc2b56ef0928f1e9ad20d8f360284dc650"
            "4814395e7137e2204f15b69239010f3c34fbb3c858a29b0d106b1fa65bc0047263",
        ),
        (
            0xDEADBEEF,
            bytes(range(32)),
            "9e7acfc572789e63495428cd5a274e21b383e5930f0b9697d0f4f1ea6072a7"
            "1910e86a681e1d9712c653ef4bf73b8058bce58fe225f09fdee22ef13f496c08eb",
        ),
    ],
    ids=["secret-1", "coffee", "secret-N-1", "deadbeef"],
)
def test_sign_output_is_pinned(secret, msg_hash, expected):
    # r = x(k·G) for the RFC 6979 nonce k: how k·G is computed must not
    # move a byte of any signature.
    assert signature_to_bytes(sign(secret, msg_hash)).hex() == expected


def test_generator_table():
    point_mul(1)  # builds the table on first use
    table = ecdsa._G_TABLE
    assert len(table) == 17
    assert all(len(row) == 129 for row in table)  # digit 0 … 128
    for window, row in enumerate(table):
        # Everything through the variable-base path, not this table: the
        # row's base 256^w·G as −(N − 256^w)·G, then each d·base as the
        # negation of d·(−base), a short scalar.
        base = point_mul(N - 256**window, NEG_G)
        assert Point(*row[1]) == base
        neg_base = Point(base.x, P - base.y)
        for digit in range(1, 129):
            x, y = row[digit]
            assert Point(x, P - y) == point_mul(digit, neg_base)


def test_tables_are_not_built_at_import():
    probe = (
        "from repro.crypto import ecdsa; "
        "assert ecdsa._G_TABLE is None and ecdsa._G_ODD_TABLES is None"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


# -- Test-only oracle: the binary ladder GLV + wNAF replaced ------------
#
# Plain double-and-add over the general Jacobian group law, with the two
# halves of a verify joined by the affine ``point_add``.  It shares no
# code with the paths under test.


def _ladder_double(point):
    x, y, z = point
    if z == 0 or y == 0:
        return (0, 1, 0)
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    return (nx, ny, 2 * y * z % P)


def _ladder_add(p1, p2):
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 * z2z2 % P
    s2 = y2 * z1 * z1z1 % P
    if u1 == u2:
        return (0, 1, 0) if s1 != s2 else _ladder_double(p1)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * s1 * j) % P
    return (nx, ny, 2 * h * z1 * z2 % P)


def ladder_mul(k, point):
    result, addend = (0, 1, 0), (point.x, point.y, 1)
    while k:
        if k & 1:
            result = _ladder_add(result, addend)
        addend = _ladder_double(addend)
        k >>= 1
    x, y, z = result
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    return Point(x * z_inv**2 % P, y * z_inv**3 % P)


def oracle_verify(public, msg_hash, signature):
    """The verify this module had before LOW_S and GLV."""
    r, s = signature
    if not (1 <= r < N and 1 <= s < N):
        return False
    if public.is_infinity() or not is_on_curve(public):
        return False
    z = int.from_bytes(msg_hash, "big")
    s_inv = pow(s, -1, N)
    point = point_add(
        ladder_mul(z * s_inv % N, G), ladder_mul(r * s_inv % N, public)
    )
    return not point.is_infinity() and point.x % N == r


def _agrees(public, msg_hash, signature):
    expected = signature[1] <= N // 2 and oracle_verify(public, msg_hash, signature)
    assert verify(public, msg_hash, signature) == expected
    return expected


def _tampered(secret, msg_hash, tamper):
    r, s = sign(secret, msg_hash)
    public = point_mul(secret)
    if tamper == "high-s":
        return public, msg_hash, (r, N - s)
    if tamper == "r":
        return public, msg_hash, (r % (N - 1) + 1, s)
    if tamper == "s":
        return public, msg_hash, (r, s % (N - 1) + 1)
    if tamper == "message":
        return public, bytes(b ^ 1 for b in msg_hash), (r, s)
    if tamper == "key":
        return point_mul(secret % (N - 1) + 1), msg_hash, (r, s)
    return public, msg_hash, (r, s)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=N - 1),
    st.binary(min_size=32, max_size=32),
    st.sampled_from(["none", "high-s", "r", "s", "message", "key"]),
)
def test_verify_equals_the_ladder_oracle(secret, msg_hash, tamper):
    valid = _agrees(*_tampered(secret, msg_hash, tamper))
    assert valid == (tamper == "none")


def _signed_digits(half):
    """``half``'s 17 signed base-256 digits −127…128, least significant
    first, the way k·G reads them (written apart from ``_mul_g``)."""
    digits = []
    for _ in range(17):
        digit = half % 256
        if digit > 128:
            digit -= 256
        digits.append(digit)
        half = (half - digit) // 256
    assert half == 0
    return digits


# Scalars at the edges of k·G's recoding and table: a digit of exactly
# 128 (the largest entry) and a residue of 129 (the smallest that turns
# negative and carries), in the first window of either half and in a
# middle one; −128 as a whole half; a zero digit below a nonzero one; a carry
# into the 17th row of either half; every sign pair of the two halves;
# and the ends of the range.
KG_BOUNDARIES = [
    128,
    129,
    128 << 64,
    129 << 64,
    128 * LAMBDA % N,
    129 * LAMBDA % N,
    N - 128,
    256,
    # Drawn from random.Random(38) until each property held (checked
    # below): k1, then k2, carries into row 16; k1, k2 both positive;
    # positive and negative; negative and positive; both negative.
    0x2596CA18075DB052FDFCCDE6BD5B76FA4DE01DA33F8006E19151A20ABA848A08,
    0x6E3397FDDB07BCF6C4420AF84B3D38D32BA0F1041F6436BCC1642CEA35F594BA,
    0x5DCC39D710F48BB91A004483B96BA5CBC12776E46DD451B26BCEFAB3A3B48C4B,
    0xDD08A63EAFAC4819E8DBD4D68950A404B8F6768A5FD926B0616187F902FD987C,
    0x1A3A2ECA79BC971E25627009064ABB418124660C9D5A8BD9FE3FCCD4F59C2586,
    0x4ECFD2BDBA023FF29F40AA425458B675B5C973C54457B53053FA573E58358C1C,
    1,
    N - 1,
    LAMBDA,
    2**128,
]


def test_kg_boundaries_reach_each_edge():
    halves = [ecdsa._glv_split(k) for k in KG_BOUNDARIES]
    k1_digits = [_signed_digits(k1) for k1, _ in halves]
    k2_digits = [_signed_digits(k2) for _, k2 in halves]
    for digits in (k1_digits, k2_digits):
        assert any(row[0] == 128 for row in digits)
        assert any(row[0] == -127 and row[1] == 1 for row in digits)
        assert any(row[16] for row in digits)
    assert any(row[8] == 128 for row in k1_digits)
    assert any(row[8] == -127 and row[9] == 1 for row in k1_digits)
    assert any(row[:2] == [128, -1] for row in k1_digits)  # the half −128
    assert any(row[0] == 0 and row[1] for row in k1_digits)
    signs = {(k1 > 0, k2 > 0) for k1, k2 in halves if k1 and k2}
    assert len(signs) == 4


def _with_kg_boundaries(test):
    for k in KG_BOUNDARIES:
        test = example(k=k, secret=2)(test)
    return test


@_with_kg_boundaries
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2 * N),
    st.integers(min_value=2, max_value=N - 1),
)
def test_point_mul_equals_the_ladder_oracle(k, secret):
    public = point_mul(secret)  # never G: secret 1 is excluded
    assert point_mul(k, public) == ladder_mul(k % N, public)
    assert point_mul(k) == ladder_mul(k % N, G)


@pytest.mark.parametrize(
    "secret, msg_hash",
    [
        (1, b"\x21" * 32),
        (N - 1, b"\x22" * 32),  # public key -G
        (0xC0FFEE, bytes(32)),  # u1 = 0: the G chain is empty
        (0xC0FFEE, b"\xff" * 32),  # a hash >= N
    ],
    ids=["secret-1", "secret-N-1", "zero-hash", "hash-above-N"],
)
def test_verify_edge_cases_equal_the_oracle(secret, msg_hash):
    public = point_mul(secret)
    assert _agrees(public, msg_hash, sign(secret, msg_hash))
    for tamper in ("high-s", "r"):
        assert not _agrees(*_tampered(secret, msg_hash, tamper))
    for signature in ((1, N - 1), (1, 1), (N - 1, 1)):
        _agrees(public, msg_hash, signature)


def test_point_mul_with_a_negative_glv_half_equals_the_oracle():
    rng = random.Random(29)
    negative = {}
    while len(negative) < 2:
        k = rng.randrange(N)
        k1, k2 = ecdsa._glv_split(k)
        if k1 < 0:
            negative.setdefault("k1", k)
        if k2 < 0:
            negative.setdefault("k2", k)
    for public in (point_mul(0xC0FFEE), NEG_G):
        for k in negative.values():
            assert point_mul(k, public) == ladder_mul(k, public)


# -- Boundaries no random input reaches ---------------------------------
#
# Each case below is built on purpose: hashing or sampling would hit it
# with probability about 2^-256.


def test_verify_accepts_the_smallest_s():
    # z = k - r·d makes s = k⁻¹(z + r·d) = 1 for the nonce k.
    secret, k = 0xC0FFEE, 0xBEEF
    r = point_mul(k).x % N
    msg_hash = ((k - r * secret) % N).to_bytes(32, "big")
    assert _agrees(point_mul(secret), msg_hash, (r, 1))


def test_verify_accepts_the_smallest_r():
    # R = (1, √8) is on the curve, so r = 1 is valid under the public key
    # Q = r⁻¹(s·R − z·G) for any s and z.
    y = pow(8, (P + 1) // 4, P)
    R = Point(1, y)
    assert is_on_curve(R)
    s, z = 5, 7
    public = point_add(point_mul(s, R), point_mul(N - z))
    assert _agrees(public, z.to_bytes(32, "big"), (1, s))


def test_nonce_candidates_outside_one_to_n_are_skipped(monkeypatch):
    """RFC 6979 §3.2 h.3: a candidate outside [1, N) is dropped and K, V
    are re-keyed before the next draw."""
    candidates = [0, N, 1]
    # Four HMACs set K and V up; each draw is one HMAC, each re-key two.
    digests = [b"\x11" * 32] * 4
    for value in candidates:
        digests += [value.to_bytes(32, "big"), b"\x22" * 32, b"\x33" * 32]
    stream = iter(digests)

    class ScriptedMac:
        def __init__(self, key, msg, digestmod):
            self._digest = next(stream)

        def digest(self):
            return self._digest

    monkeypatch.setattr(ecdsa.hmac, "new", ScriptedMac)
    assert next(ecdsa._rfc6979_nonces(5, bytes(32))) == 1


def test_point_with_y_one_doubles_correctly():
    # x³ = 1 − 7 has a root mod P (P ≡ 7 mod 9: the root is a^((P+2)/9)).
    x = pow(-6 % P, (P + 2) // 9, P)
    T = Point(x, 1)
    assert is_on_curve(T)
    assert ecdsa._from_jacobian(ecdsa._jac_double((x, 1, 1))) == ladder_mul(2, T)
