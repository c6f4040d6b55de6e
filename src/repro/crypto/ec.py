"""NIST P-256 elliptic curve group arithmetic.

Pure-Python short-Weierstrass arithmetic (``y^2 = x^3 - 3x + b`` over GF(p))
in Jacobian coordinates for speed. This backs ECDSA audit-log signatures,
ECDHE in the TLS handshake, and certificate signatures — the same roles
LibreSSL's EC code plays inside the LibSEAL enclave.

Scalar multiplication picks one of two kernels by its input point:

* ``k·G`` for the curve's generator uses a fixed-base comb. The table holds
  the 15 affine multiples ``j·16^i·G`` for each of the 64 4-bit windows,
  normalised with one inversion. It is built once per curve on first use
  (about 11 ms), never at import. A multiply then costs at most 64 mixed
  additions and no doublings.
* Any other point uses a width-5 wNAF: its 8 odd multiples ``P .. 15P`` are
  precomputed and made affine with one inversion, then a 256-bit scalar
  costs about 256 doublings (the a = -3 formula) and 43 mixed additions.

Both kernels return exactly the affine point plain double-and-add returns,
so signatures (RFC 6979 nonces are deterministic), chain heads and
certificates are bit-identical to that ladder; the tests keep it as the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

_WNAF_WIDTH = 5


@dataclass(frozen=True)
class Curve:
    """Domain parameters of a prime-field short-Weierstrass curve with a = -3."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int  # order of the base point

    def __post_init__(self) -> None:
        if (self.a + 3) % self.p:
            raise ValueError("only curves with a = -3 are supported")

    @cached_property
    def generator(self) -> "ECPoint":
        return ECPoint(self, self.gx, self.gy)

    @property
    def coordinate_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @cached_property
    def _comb_table(self) -> list[list[tuple[int, int]]]:
        """``table[i][j - 1]`` is the affine point ``j·16^i·G``."""
        p = self.p
        base = (self.gx, self.gy, 1)
        points = []
        for _ in range((self.n.bit_length() + 3) // 4):
            row = [base]
            for _ in range(14):
                row.append(_jac_add(*row[-1], *base, p))
            points.extend(row)
            base = _jac_add(*row[-1], *base, p)  # 16 * base
        affine = _batch_to_affine(points, p)
        return [affine[i : i + 15] for i in range(0, len(affine), 15)]


CURVE_P256 = Curve(
    name="P-256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)


class ECPoint:
    """A point on a :class:`Curve`, including the point at infinity.

    Instances are immutable; arithmetic returns new points. The point at
    infinity is represented with ``x is None and y is None``.
    """

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x: int | None, y: int | None):
        self.curve = curve
        self.x = x
        self.y = y
        if x is not None and not self._on_curve():
            raise ValueError(f"point ({x}, {y}) is not on curve {curve.name}")

    @classmethod
    def infinity(cls, curve: Curve) -> "ECPoint":
        return cls(curve, None, None)

    def _on_curve(self) -> bool:
        p = self.curve.p
        lhs = self.y * self.y % p
        rhs = (self.x * self.x * self.x + self.curve.a * self.x + self.curve.b) % p
        return lhs == rhs

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ECPoint):
            return NotImplemented
        return self.curve is other.curve and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.curve.name, self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return f"ECPoint({self.curve.name}, infinity)"
        return f"ECPoint({self.curve.name}, x={self.x:#x}, y={self.y:#x})"

    def __neg__(self) -> "ECPoint":
        if self.is_infinity:
            return self
        return ECPoint(self.curve, self.x, (-self.y) % self.curve.p)

    def __add__(self, other: "ECPoint") -> "ECPoint":
        if self.curve is not other.curve:
            raise ValueError("cannot add points on different curves")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        p = self.curve.p
        if self.x == other.x:
            if (self.y + other.y) % p == 0:
                return ECPoint.infinity(self.curve)
            return self._double()
        slope = (other.y - self.y) * pow(other.x - self.x, -1, p) % p
        x3 = (slope * slope - self.x - other.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return ECPoint(self.curve, x3, y3)

    def _double(self) -> "ECPoint":
        p = self.curve.p
        slope = (3 * self.x * self.x + self.curve.a) * pow(2 * self.y, -1, p) % p
        x3 = (slope * slope - 2 * self.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return ECPoint(self.curve, x3, y3)

    def __mul__(self, scalar: int) -> "ECPoint":
        """Scalar multiplication: fixed-base comb for the generator, wNAF otherwise.

        The curve group has prime order ``n``, so reducing the scalar mod
        ``n`` also handles negative scalars: ``(-k)·P == (n - k)·P``.
        """
        curve = self.curve
        scalar %= curve.n
        if scalar == 0 or self.is_infinity:
            return ECPoint.infinity(curve)
        p = curve.p
        if self.x == curve.gx and self.y == curve.gy:
            x, y, z = _comb_multiply(curve._comb_table, scalar, p)
        else:
            x, y, z = _wnaf_multiply(self.x, self.y, scalar, p)
        if z == 0:
            return ECPoint.infinity(curve)
        z_inv = pow(z, -1, p)
        z_inv2 = z_inv * z_inv % p
        return ECPoint(curve, x * z_inv2 % p, y * z_inv2 * z_inv % p)

    __rmul__ = __mul__

    def encode(self) -> bytes:
        """Uncompressed SEC1 encoding: ``04 || X || Y`` (infinity: ``00``)."""
        if self.is_infinity:
            return b"\x00"
        size = self.curve.coordinate_bytes
        return b"\x04" + self.x.to_bytes(size, "big") + self.y.to_bytes(size, "big")

    @classmethod
    def decode(cls, curve: Curve, data: bytes) -> "ECPoint":
        """Decode a point produced by :meth:`encode`, validating it on-curve."""
        if data == b"\x00":
            return cls.infinity(curve)
        size = curve.coordinate_bytes
        if len(data) != 1 + 2 * size or data[0] != 0x04:
            raise ValueError("malformed EC point encoding")
        x = int.from_bytes(data[1 : 1 + size], "big")
        y = int.from_bytes(data[1 + size :], "big")
        return cls(curve, x, y)


# Jacobian (X, Y, Z) stands for the affine point (X/Z^2, Y/Z^3); Z == 0 is
# infinity. The kernels look the group operations up as module globals on
# every call, which lets the tests count additions and doublings.


def _comb_multiply(
    table: list[list[tuple[int, int]]], scalar: int, p: int
) -> tuple[int, int, int]:
    """``scalar·G`` as one mixed addition per nonzero 4-bit window."""
    x, y, z = 0, 1, 0
    for row in table:
        digit = scalar & 15
        if digit:
            x, y, z = _jac_add_affine(x, y, z, *row[digit - 1], p)
        scalar >>= 4
    return x, y, z


def _wnaf_multiply(px: int, py: int, scalar: int, p: int) -> tuple[int, int, int]:
    """``scalar·P`` for an affine ``P`` by width-5 wNAF, most significant digit first."""
    twice = _jac_double(px, py, 1, p)
    odd = [(px, py, 1)]
    for _ in range((1 << (_WNAF_WIDTH - 2)) - 1):
        odd.append(_jac_add(*odd[-1], *twice, p))
    odd = _batch_to_affine(odd, p)  # odd[i] == (2i + 1)·P
    digits = _wnaf(scalar)
    x, y = odd[digits.pop() >> 1]  # the top digit is positive
    z = 1
    for digit in reversed(digits):
        x, y, z = _jac_double(x, y, z, p)
        if digit > 0:
            x, y, z = _jac_add_affine(x, y, z, *odd[digit >> 1], p)
        elif digit < 0:
            tx, ty = odd[-digit >> 1]
            x, y, z = _jac_add_affine(x, y, z, tx, p - ty, p)
    return x, y, z


def _wnaf(scalar: int) -> list[int]:
    """Width-5 non-adjacent form of ``scalar > 0``, least significant digit first.

    Digits are 0 or odd in ``[-15, 15]``, and any two nonzero digits are at
    least five positions apart.
    """
    window = 1 << _WNAF_WIDTH
    digits = []
    while scalar:
        digit = 0
        if scalar & 1:
            digit = scalar & (window - 1)
            if digit >= window >> 1:
                digit -= window
            scalar -= digit
        digits.append(digit)
        scalar >>= 1
    return digits


def _batch_to_affine(points: list[tuple[int, int, int]], p: int) -> list[tuple[int, int]]:
    """Affine forms of finite Jacobian points with one shared inversion."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = acc * z % p
    inv = pow(acc, -1, p)
    affine = [(0, 0)] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        z_inv = inv * prefix[i] % p
        inv = inv * z % p
        z_inv2 = z_inv * z_inv % p
        affine[i] = (x * z_inv2 % p, y * z_inv2 * z_inv % p)
    return affine


def _jac_double(x: int, y: int, z: int, p: int) -> tuple[int, int, int]:
    """Jacobian doubling for a = -3 (dbl-2001-b)."""
    if z == 0 or y == 0:
        return (0, 1, 0)
    delta = z * z % p
    gamma = y * y % p
    beta = x * gamma % p
    alpha = 3 * (x - delta) * (x + delta) % p
    nx = (alpha * alpha - 8 * beta) % p
    ny = (alpha * (4 * beta - nx) - 8 * gamma * gamma) % p
    nz = 2 * y * z % p
    return (nx, ny, nz)


def _jac_add_affine(
    x1: int, y1: int, z1: int, x2: int, y2: int, p: int
) -> tuple[int, int, int]:
    """Jacobian plus affine ``(x2, y2)``: the mixed addition both kernels loop on."""
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = z1 * z1 % p
    u2 = x2 * z1sq % p
    s2 = y2 * z1sq % p * z1 % p
    h = (u2 - x1) % p
    r = (s2 - y1) % p
    if h == 0:
        if r:
            return (0, 1, 0)
        return _jac_double(x1, y1, z1, p)
    hsq = h * h % p
    hcu = hsq * h % p
    v = x1 * hsq % p
    nx = (r * r - hcu - 2 * v) % p
    ny = (r * (v - nx) - y1 * hcu) % p
    nz = z1 * h % p
    return (nx, ny, nz)


def _jac_add(
    x1: int, y1: int, z1: int, x2: int, y2: int, z2: int, p: int
) -> tuple[int, int, int]:
    """General Jacobian addition, used only to build precomputed tables."""
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
        return _jac_double(x1, y1, z1, p)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    hsq = h * h % p
    hcu = hsq * h % p
    nx = (r * r - hcu - 2 * u1 * hsq) % p
    ny = (r * (u1 * hsq - nx) - s1 * hcu) % p
    nz = h * z1 % p * z2 % p
    return (nx, ny, nz)
