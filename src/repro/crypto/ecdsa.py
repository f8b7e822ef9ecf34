"""Pure-Python ECDSA over secp256k1.

The operational Bitcoin client signs with OpenSSL; this reproduction
implements the same curve from scratch so the library has no binary
dependencies.  Signing is deterministic (RFC 6979 style, via HMAC-SHA256)
so test vectors are stable and simulations are reproducible.

Performance note: in CPython on the reference box a sign costs about
0.2--0.25 ms (k·G: GLV split, at most 34 mixed additions from a
fixed-base table, no doubling) and a verify 1.0--1.3 ms (u1·G + u2·Q:
GLV split, wNAF, one shared loop of ~129 doublings), depending on the
host's speed regime.  The paper puts the same check at "several
milliseconds per microblock".  A run pays a verify once per signed
object -- the verdict is memoised on the transaction or microblock, see
docs/simulation.md -- and experiments may disable verification exactly
as the paper's testbed did.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Iterator

# secp256k1 domain parameters (SEC 2).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


class InvalidSignature(Exception):
    """Raised when a signature fails verification."""


class InvalidPoint(Exception):
    """Raised when bytes do not decode to a curve point."""


@dataclass(frozen=True)
class Point:
    """An affine point on secp256k1; ``None`` coordinates encode infinity."""

    x: int | None
    y: int | None

    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point(None, None)
G = Point(GX, GY)


def is_on_curve(point: Point) -> bool:
    """Return True if the point satisfies y^2 = x^3 + 7 (mod p)."""
    if point.is_infinity():
        return True
    assert point.x is not None and point.y is not None
    return (point.y * point.y - point.x * point.x * point.x - B) % P == 0


def point_add(p1: Point, p2: Point) -> Point:
    """Add two curve points using the affine group law."""
    if p1.is_infinity():
        return p2
    if p2.is_infinity():
        return p1
    assert p1.x is not None and p1.y is not None
    assert p2.x is not None and p2.y is not None
    if p1.x == p2.x and (p1.y + p2.y) % P == 0:
        return INFINITY
    if p1 == p2:
        slope = (3 * p1.x * p1.x) * pow(2 * p1.y, P - 2, P) % P
    else:
        slope = (p2.y - p1.y) * pow(p2.x - p1.x, P - 2, P) % P
    x3 = (slope * slope - p1.x - p2.x) % P
    y3 = (slope * (p1.x - x3) - p1.y) % P
    return Point(x3, y3)


# -- Jacobian-coordinate fast path -------------------------------------
#
# Affine addition needs a modular inversion per step, which dominates the
# cost of scalar multiplication in CPython.  Jacobian projective
# coordinates defer the inversion to a single final step, making
# sign/verify roughly an order of magnitude faster.  (x, y, z) represents
# the affine point (x/z², y/z³).  Every addition adds a table point kept
# affine (z = 1), which saves five of the sixteen products of a general
# Jacobian addition.

_JacPoint = tuple[int, int, int]
_Affine = tuple[int, int]
_JAC_INFINITY: _JacPoint = (0, 1, 0)


def _from_jacobian(point: _JacPoint) -> Point:
    x, y, z = point
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return Point(x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _jac_double(point: _JacPoint) -> _JacPoint:
    x, y, z = point
    if z == 0 or y == 0:
        return _JAC_INFINITY
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P  # curve a = 0
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def _jac_add_affine(p1: _JacPoint, p2: _Affine) -> _JacPoint:
    """Mixed addition: Jacobian ``p1`` plus affine ``p2`` (z₂ = 1)."""
    x1, y1, z1 = p1
    x2, y2 = p2
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % P
    h = (x2 * z1z1 - x1) % P
    r = (y2 * z1 * z1z1 - y1) % P
    if h == 0:
        if r:
            return _JAC_INFINITY
        return _jac_double(p1)
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    nx = (r * r - hhh - 2 * v) % P
    ny = (r * (v - nx) - y1 * hhh) % P
    return (nx, ny, z1 * h % P)


def _to_affine(points: list[_JacPoint]) -> list[_Affine]:
    """Normalise finite Jacobian points with one inversion (Montgomery's
    trick: invert the product of every z, then peel each inverse off)."""
    prefix = []
    product = 1
    for _, _, z in points:
        prefix.append(product)
        product = product * z % P
    inverse = pow(product, -1, P)
    affine: list[_Affine] = [(0, 0)] * len(points)
    for index in range(len(points) - 1, -1, -1):
        x, y, z = points[index]
        z_inv = inverse * prefix[index] % P
        inverse = inverse * z % P
        z_inv2 = z_inv * z_inv % P
        affine[index] = (x * z_inv2 % P, y * z_inv2 * z_inv % P)
    return affine


# Fixed-base acceleration for the generator (k·G in sign and key
# derivation).  k splits into k₁ + k₂·λ (GLV, below), each half of at
# most 128 bits, and each half is recoded in signed base-256 digits
# −127…128.  ``_G_TABLE[w][d] = d·256^w·G`` for d = 1…128 over 17 rows
# (the 17th takes a top carry); λ·(x, y) = (β·x, y), so the λG half
# reads the same table, and a negative digit flips y.  So k·G is at most
# 34 mixed additions and no doublings.  Built lazily on first use
# (≈2.2k additions and one inversion per row, once).
_G_ROWS = 17
_G_TABLE: list[list[_Affine]] | None = None


def _build_g_table() -> list[list[_Affine]]:
    # Each row is d·base for d = 1…128 by mixed additions of the affine
    # base, then 256·base = 2·(128·base) for the next row; one inversion
    # makes all 129 affine.
    table: list[list[_Affine]] = []
    base = (GX, GY)
    for _ in range(_G_ROWS):
        row = [(base[0], base[1], 1)]
        for _ in range(127):
            row.append(_jac_add_affine(row[-1], base))
        row.append(_jac_double(row[-1]))
        *multiples, base = _to_affine(row)
        table.append([(0, 0)] + multiples)
    return table


def _mul_g(k: int) -> _JacPoint:
    global _G_TABLE
    if _G_TABLE is None:
        _G_TABLE = _build_g_table()
    result = _JAC_INFINITY
    for half, beta in zip(_glv_split(k), (1, BETA)):
        for row in _G_TABLE:
            # The digit ≡ half (mod 256) in −127…128; what it leaves
            # behind is an exact multiple of 256 (a carry when negative).
            digit = ((half + 127) & 0xFF) - 127
            half = (half - digit) >> 8
            if digit > 0:
                x, y = row[digit]
            elif digit < 0:
                x, y = row[-digit]
                y = P - y
            else:
                continue
            result = _jac_add_affine(result, (beta * x % P, y))
    return result


# -- Variable base: GLV + wNAF + Shamir's trick ------------------------
#
# secp256k1 has an efficient endomorphism (Hankerson–Menezes–Vanstone,
# *Guide to Elliptic Curve Cryptography*, ch. 3): λ·(x, y) = (β·x, y),
# with β a cube root of unity mod P and λ one mod N.  Any k splits into
# k₁ + k₂·λ (mod N) with |k₁|, |k₂| ≈ 2¹²⁸, so u1·G + u2·Q becomes four
# half-length scalars over G, λG, Q and λQ.  Each is recoded in width-w
# NAF (odd digits |d| < 2^(w−1), at most one nonzero in any w in a row)
# and the four chains share one loop of ≈129 doublings.

BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# A short basis of the lattice {(a, b) : a + b·λ ≡ 0 (mod N)}; b2 = a1.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1

# Window widths: Q's table is built per verify, so it stays small
# (8 odd multiples); G's is built once, so it is wide (64).
_Q_WINDOW = 5
_G_WNAF_WINDOW = 8
_G_ODD_TABLES: tuple[list[_Affine], list[_Affine]] | None = None


def _glv_split(k: int) -> tuple[int, int]:
    """``(k1, k2)`` with ``k ≡ k1 + k2·λ (mod N)``, both ≈128 bits, for
    ``0 <= k < N``.  Either half may be negative."""
    c1 = (_B2 * k + N // 2) // N
    c2 = (-_B1 * k + N // 2) // N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(k: int, width: int) -> list[int]:
    """Width-``width`` NAF digits of ``k`` (any sign), least significant
    first: ``k == sum(d << i for i, d in enumerate(digits))``."""
    digits: list[int] = []
    full = 1 << width
    half = full >> 1
    while k:
        zeros = (k & -k).bit_length() - 1  # run of zero digits
        digits.extend([0] * zeros)
        k >>= zeros
        digit = k & (full - 1)  # k is odd: the digit is k mods 2^width
        if digit >= half:
            digit -= full
        digits.append(digit)
        k = (k - digit) >> 1
    return digits


def _odd_multiples(x: int, y: int, count: int) -> list[_Affine]:
    """``[1·R, 3·R, …, (2·count − 1)·R]`` for R = (x, y), affine, for
    one inversion in all.

    The step 2R = (dx, dy, dz) is only Jacobian, so the chain runs on the
    isomorphic curve y² = x³ + 7·dz⁶, where (x, y) ↦ (dz²·x, dz³·y) makes
    2R the affine (dx, dy); the addition law does not read b.  A point
    (X, Y, Z) found there is (X, Y, Z·dz) on secp256k1.
    """
    dx, dy, dz = _jac_double((x, y, 1))
    dz2 = dz * dz % P
    current = (x * dz2 % P, y * dz2 * dz % P, 1)
    chain = [current]
    for _ in range(count - 1):
        current = _jac_add_affine(current, (dx, dy))
        chain.append(current)
    return _to_affine([(cx, cy, cz * dz % P) for cx, cy, cz in chain])


def _signed_table(odd: list[_Affine]) -> list[_Affine]:
    """Index a wNAF digit straight into the table: ``table[d]`` is d·R
    for every odd |d| < 2·len(odd), the negative digits landing at the
    back through Python's negative indexes."""
    table: list[_Affine] = [(0, 0)] * (4 * len(odd))
    for index, (x, y) in enumerate(odd):
        table[2 * index + 1] = (x, y)
        table[-2 * index - 1] = (x, P - y)
    return table


def _endomorphism(odd: list[_Affine]) -> list[_Affine]:
    """λ·R for each R: one multiplication per point."""
    return [(BETA * x % P, y) for x, y in odd]


def _g_odd_tables() -> tuple[list[_Affine], list[_Affine]]:
    global _G_ODD_TABLES
    if _G_ODD_TABLES is None:
        odd = _odd_multiples(GX, GY, 1 << (_G_WNAF_WINDOW - 2))
        _G_ODD_TABLES = (_signed_table(odd), _signed_table(_endomorphism(odd)))
    return _G_ODD_TABLES


def _mul_shamir(u1: int, u2: int, point: Point) -> _JacPoint:
    """``u1·G + u2·point`` for ``0 <= u1, u2 < N`` in one wNAF loop."""
    chains: list[tuple[list[int], list[_Affine]]] = []
    if u2:
        assert point.x is not None and point.y is not None
        odd = _odd_multiples(point.x, point.y, 1 << (_Q_WINDOW - 2))
        k1, k2 = _glv_split(u2)
        chains.append((_wnaf(k1, _Q_WINDOW), _signed_table(odd)))
        chains.append((_wnaf(k2, _Q_WINDOW), _signed_table(_endomorphism(odd))))
    if u1:
        g_table, lambda_g_table = _g_odd_tables()
        k1, k2 = _glv_split(u1)
        chains.append((_wnaf(k1, _G_WNAF_WINDOW), g_table))
        chains.append((_wnaf(k2, _G_WNAF_WINDOW), lambda_g_table))
    # Per bit position: the table points to add after that doubling.
    length = max(len(digits) for digits, _ in chains)
    steps: list[list[_Affine]] = [[] for _ in range(length)]
    for digits, table in chains:
        for position, digit in enumerate(digits):
            if digit:
                steps[position].append(table[digit])
    result = _JAC_INFINITY
    for adds in reversed(steps):
        result = _jac_double(result)
        for addend in adds:
            result = _jac_add_affine(result, addend)
    return result


def point_mul(k: int, point: Point = G) -> Point:
    """Return ``k * point``; the generator uses a precomputed table."""
    if k % N == 0 or point.is_infinity():
        return INFINITY
    k = k % N
    if point == G:
        return _from_jacobian(_mul_g(k))
    return _from_jacobian(_mul_shamir(0, k, point))


def point_to_bytes(point: Point) -> bytes:
    """Serialize a point in 33-byte compressed SEC form."""
    if point.is_infinity():
        raise InvalidPoint("cannot serialize the point at infinity")
    assert point.x is not None and point.y is not None
    prefix = b"\x03" if point.y & 1 else b"\x02"
    return prefix + point.x.to_bytes(32, "big")


def point_from_bytes(data: bytes) -> Point:
    """Parse a 33-byte compressed SEC point, validating curve membership."""
    if len(data) != 33 or data[0] not in (2, 3):
        raise InvalidPoint(f"bad compressed point encoding ({len(data)} bytes)")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise InvalidPoint("x coordinate out of field range")
    y_squared = (pow(x, 3, P) + B) % P
    y = pow(y_squared, (P + 1) // 4, P)
    if (y * y) % P != y_squared:
        raise InvalidPoint("x coordinate is not on the curve")
    if (y & 1) != (data[0] & 1):
        y = P - y
    return Point(x, y)


def _rfc6979_nonces(secret: int, msg_hash: bytes) -> Iterator[int]:
    """Deterministic nonce candidates k from the key and message hash.

    RFC 6979 §3.2, step h: each candidate in [1, N) is offered in turn,
    and a signer that cannot use one (r or s would be 0) draws the next.
    """
    key_bytes = secret.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + key_bytes + msg_hash, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + key_bytes + msg_hash, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            yield candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign(secret: int, msg_hash: bytes) -> tuple[int, int]:
    """Produce an ECDSA signature (r, s) over a 32-byte message hash.

    The ``s`` value is canonicalized to the low half of the group order,
    matching Bitcoin's low-S rule, so signatures are non-malleable.
    """
    if not 1 <= secret < N:
        raise ValueError("secret key out of range")
    if len(msg_hash) != 32:
        raise ValueError("message hash must be 32 bytes")
    z = int.from_bytes(msg_hash, "big")
    nonces = _rfc6979_nonces(secret, msg_hash)
    while True:
        k = next(nonces)
        point = point_mul(k)
        assert point.x is not None
        r = point.x % N
        s = (z + r * secret) * pow(k, -1, N) % N
        if r and s:
            return r, min(s, N - s)


def verify(public: Point, msg_hash: bytes, signature: tuple[int, int]) -> bool:
    """Return True iff ``signature`` is valid for ``msg_hash`` under ``public``.

    A high-S signature (s > N/2) is refused, as Bitcoin's LOW_S rule
    (BIP 146) does: otherwise anyone relaying a transaction could flip
    ``s`` to ``N - s`` and, since the txid covers the signature, re-issue
    the same payment under a new txid.
    """
    if len(msg_hash) != 32:
        raise ValueError("message hash must be 32 bytes")
    r, s = signature
    if not (1 <= r < N and 1 <= s <= N // 2):
        return False
    if public.is_infinity() or not is_on_curve(public):
        return False
    z = int.from_bytes(msg_hash, "big")
    s_inv = pow(s, -1, N)
    u1 = z * s_inv % N
    u2 = r * s_inv % N
    # Stay in Jacobian coordinates until the single final inversion.
    point = _from_jacobian(_mul_shamir(u1, u2, public))
    if point.is_infinity():
        return False
    assert point.x is not None
    return point.x % N == r


def signature_to_bytes(signature: tuple[int, int]) -> bytes:
    """Serialize (r, s) as a fixed 64-byte compact signature."""
    r, s = signature
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def signature_from_bytes(data: bytes) -> tuple[int, int]:
    """Parse a 64-byte compact signature into (r, s)."""
    if len(data) != 64:
        raise InvalidSignature(f"compact signature must be 64 bytes, got {len(data)}")
    return int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big")
