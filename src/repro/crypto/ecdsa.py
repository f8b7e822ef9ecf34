"""Pure-Python ECDSA over secp256k1.

The operational Bitcoin client signs with OpenSSL; this reproduction
implements the same curve from scratch so the library has no binary
dependencies.  Signing is deterministic (RFC 6979 style, via HMAC-SHA256)
so test vectors are stable and simulations are reproducible.

Performance note: in CPython on the reference box a sign costs about
1 ms and a verify 2.4--4 ms depending on the host's speed regime (most
of it the double-and-add over the signer's key), which mirrors the
paper's observation that signature checking adds "several milliseconds
per microblock".  A run pays a verify once per signed object -- the
verdict is memoised on the transaction or microblock, see
docs/simulation.md -- and experiments may disable verification exactly
as the paper's testbed did.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

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
# the affine point (x/z², y/z³).

_JacPoint = tuple[int, int, int]
_JAC_INFINITY: _JacPoint = (0, 1, 0)


def _to_jacobian(point: Point) -> _JacPoint:
    if point.is_infinity():
        return _JAC_INFINITY
    assert point.x is not None and point.y is not None
    return (point.x, point.y, 1)


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


def _jac_add(p1: _JacPoint, p2: _JacPoint) -> _JacPoint:
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
        if s1 != s2:
            return _JAC_INFINITY
        return _jac_double(p1)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * s1 * j) % P
    nz = 2 * h * z1 * z2 % P
    return (nx, ny, nz)


# Fixed-base acceleration for the generator: a 4-bit windowed table
# ``_G_TABLE[w][d] = d * 16^w * G`` lets k·G run with ~64 additions and
# no doublings.  Built lazily on first use (costs ~1k point ops once).
_G_WINDOW_BITS = 4
_G_WINDOWS = 64  # 256 / 4
_G_TABLE: list[list[_JacPoint]] | None = None


def _build_g_table() -> list[list[_JacPoint]]:
    table: list[list[_JacPoint]] = []
    base = _to_jacobian(G)
    for _ in range(_G_WINDOWS):
        row = [_JAC_INFINITY]
        current = _JAC_INFINITY
        for _ in range((1 << _G_WINDOW_BITS) - 1):
            current = _jac_add(current, base)
            row.append(current)
        table.append(row)
        for _ in range(_G_WINDOW_BITS):
            base = _jac_double(base)
    return table


def _mul_g(k: int) -> _JacPoint:
    global _G_TABLE
    if _G_TABLE is None:
        _G_TABLE = _build_g_table()
    result = _JAC_INFINITY
    window = 0
    while k:
        digit = k & 0xF
        if digit:
            result = _jac_add(result, _G_TABLE[window][digit])
        k >>= 4
        window += 1
    return result


def _mul_generic(k: int, point: Point) -> _JacPoint:
    result = _JAC_INFINITY
    addend = _to_jacobian(point)
    while k:
        if k & 1:
            result = _jac_add(result, addend)
        addend = _jac_double(addend)
        k >>= 1
    return result


def point_mul(k: int, point: Point = G) -> Point:
    """Return ``k * point``; the generator uses a precomputed table."""
    if k % N == 0 or point.is_infinity():
        return INFINITY
    k = k % N
    if point == G:
        return _from_jacobian(_mul_g(k))
    return _from_jacobian(_mul_generic(k, point))


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


def _rfc6979_nonce(secret: int, msg_hash: bytes) -> int:
    """Derive a deterministic nonce k from the key and message hash."""
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
            return candidate
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
    k = _rfc6979_nonce(secret, msg_hash)
    while True:
        point = point_mul(k)
        assert point.x is not None
        r = point.x % N
        if r == 0:
            k = (k + 1) % N or 1
            continue
        s = (z + r * secret) * pow(k, -1, N) % N
        if s == 0:
            k = (k + 1) % N or 1
            continue
        if s > N // 2:
            s = N - s
        return r, s


def verify(public: Point, msg_hash: bytes, signature: tuple[int, int]) -> bool:
    """Return True iff ``signature`` is valid for ``msg_hash`` under ``public``."""
    if len(msg_hash) != 32:
        raise ValueError("message hash must be 32 bytes")
    r, s = signature
    if not (1 <= r < N and 1 <= s < N):
        return False
    if public.is_infinity() or not is_on_curve(public):
        return False
    z = int.from_bytes(msg_hash, "big")
    s_inv = pow(s, -1, N)
    u1 = z * s_inv % N
    u2 = r * s_inv % N
    # Stay in Jacobian coordinates until the single final inversion.
    jac = _jac_add(_mul_g(u1), _mul_generic(u2, public))
    point = _from_jacobian(jac)
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
