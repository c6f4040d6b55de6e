"""Reference arithmetic for the P-256 and ECDSA tests.

:func:`reference_multiply` is the plain left-to-right double-and-add in
Jacobian coordinates (generic ``a``) that ``repro.crypto.ec`` used before
it gained its fixed-base comb and wNAF kernels. It shares no code with
them, so the tests can require the production kernels to return the same
points.
"""

from repro.crypto.ec import CURVE_P256, ECPoint
from repro.crypto.ecdsa import EcdsaSignature
from repro.crypto.hashing import sha256


def reference_multiply(point: ECPoint, scalar: int) -> ECPoint:
    """``scalar·point`` by double-and-add, one inversion at the end."""
    curve = point.curve
    if scalar < 0:
        return reference_multiply(-point, -scalar)
    scalar %= curve.n
    if scalar == 0 or point.is_infinity:
        return ECPoint.infinity(curve)
    p = curve.p
    a = curve.a % p
    rx, ry, rz = 0, 1, 0
    qx, qy, qz = point.x, point.y, 1
    for bit in bin(scalar)[2:]:
        rx, ry, rz = _double(rx, ry, rz, p, a)
        if bit == "1":
            rx, ry, rz = _add(rx, ry, rz, qx, qy, qz, p, a)
    if rz == 0:
        return ECPoint.infinity(curve)
    z_inv = pow(rz, -1, p)
    z_inv2 = z_inv * z_inv % p
    return ECPoint(curve, rx * z_inv2 % p, ry * z_inv2 * z_inv % p)


def infinity_key_forgery(message: bytes) -> EcdsaSignature:
    """A signature ``(x(k·G), e·k^-1)`` that "verifies" under the key ``O``.

    With the point at infinity as public key, ``u2·Q`` vanishes and the
    check reduces to ``x(u1·G) == r`` with ``u1 = e/s = k``.
    """
    n = CURVE_P256.n
    k = 7
    e = int.from_bytes(sha256(message), "big") % n
    r = reference_multiply(CURVE_P256.generator, k).x % n
    return EcdsaSignature(r, e * pow(k, -1, n) % n)


def _double(x: int, y: int, z: int, p: int, a: int) -> tuple[int, int, int]:
    if z == 0 or y == 0:
        return (0, 1, 0)
    ysq = y * y % p
    s = 4 * x * ysq % p
    m = (3 * x * x + a * z * z % p * z % p * z) % p
    nx = (m * m - 2 * s) % p
    ny = (m * (s - nx) - 8 * ysq * ysq) % p
    nz = 2 * y * z % p
    return (nx, ny, nz)


def _add(
    x1: int, y1: int, z1: int, x2: int, y2: int, z2: int, p: int, a: int
) -> tuple[int, int, int]:
    if z1 == 0:
        return (x2, y2, z2)
    if z2 == 0:
        return (x1, y1, z1)
    z1sq = z1 * z1 % p
    z2sq = z2 * z2 % p
    u1 = x1 * z2sq % p
    u2 = x2 * z1sq % p
    s1 = y1 * z2sq * z2 % p
    s2 = y2 * z1sq * z1 % p
    if u1 == u2:
        if s1 != s2:
            return (0, 1, 0)
        return _double(x1, y1, z1, p, a)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    hsq = h * h % p
    hcu = hsq * h % p
    nx = (r * r - hcu - 2 * u1 * hsq) % p
    ny = (r * (u1 * hsq - nx) - s1 * hcu) % p
    nz = h * z1 % p * z2 % p
    return (nx, ny, nz)
