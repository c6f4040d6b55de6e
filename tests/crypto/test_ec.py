"""Tests for P-256 group arithmetic."""

import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.ec as ec
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ec import CURVE_P256, ECPoint
from repro.crypto.ecdsa import EcdsaPrivateKey

from tests.crypto.ec_reference import reference_multiply

G = CURVE_P256.generator
N = CURVE_P256.n

# Known multiples of the P-256 base point (public test vectors).
TWO_G_X = 0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978
TWO_G_Y = 0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1
THREE_G_X = 0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C
THREE_G_Y = 0x8734640C4998FF7E374B06CE1A64A2ECD82AB036384FB83D9A79B127A27D5032


def test_generator_is_on_curve():
    assert not G.is_infinity
    assert G == ECPoint(CURVE_P256, CURVE_P256.gx, CURVE_P256.gy)


def test_generator_is_built_once():
    assert CURVE_P256.generator is CURVE_P256.generator


def test_double_generator_known_vector():
    two_g = G + G
    assert two_g.x == TWO_G_X
    assert two_g.y == TWO_G_Y


def test_scalar_multiplication_known_vectors():
    assert (2 * G).x == TWO_G_X
    assert (3 * G).x == THREE_G_X
    assert (3 * G).y == THREE_G_Y


def test_addition_consistent_with_scalar_multiplication():
    assert 2 * G + 3 * G == 5 * G
    assert 7 * G + 11 * G == 18 * G


def test_order_annihilates_generator():
    assert (CURVE_P256.n * G).is_infinity


def test_negation_and_inverse():
    p = 9 * G
    assert (p + (-p)).is_infinity
    assert -(-p) == p


def test_infinity_is_identity():
    inf = ECPoint.infinity(CURVE_P256)
    assert inf + G == G
    assert G + inf == G
    assert (0 * G).is_infinity


def test_scalar_reduction_mod_order():
    assert (CURVE_P256.n + 5) * G == 5 * G


def test_negative_scalar():
    assert (-3) * G == -(3 * G)


def test_encode_decode_roundtrip():
    p = 12345 * G
    assert ECPoint.decode(CURVE_P256, p.encode()) == p


def test_encode_decode_infinity():
    inf = ECPoint.infinity(CURVE_P256)
    assert ECPoint.decode(CURVE_P256, inf.encode()).is_infinity


def test_decode_rejects_off_curve_point():
    bad = b"\x04" + (5).to_bytes(32, "big") + (7).to_bytes(32, "big")
    with pytest.raises(ValueError):
        ECPoint.decode(CURVE_P256, bad)


def test_decode_rejects_malformed_encoding():
    with pytest.raises(ValueError):
        ECPoint.decode(CURVE_P256, b"\x02" + b"\x00" * 64)
    with pytest.raises(ValueError):
        ECPoint.decode(CURVE_P256, b"\x04" + b"\x00" * 10)


def test_constructor_rejects_off_curve():
    with pytest.raises(ValueError):
        ECPoint(CURVE_P256, 5, 7)


def test_cross_curve_addition_rejected():
    from dataclasses import replace

    other = replace(CURVE_P256, name="clone")
    q = ECPoint(other, other.gx, other.gy)
    with pytest.raises(ValueError):
        _ = G + q


# --- Kernel parity: comb (k*G) and wNAF (k*P) against double-and-add -------

#: 0, small windows, every 16^i boundary, all-15 nibbles, the order's
#: neighbourhood and negatives of the same.
_EDGE = {0, 1, 2, 15, 16, 17, 31, 32, 33, (1 << 256) - 1, N - 16, N - 1, N, N + 1, 2 * N}
for _i in range(65):
    _EDGE |= {16**_i - 1, 16**_i, 16**_i + 1, 15 * 16**_i}
EDGE_SCALARS = sorted(_EDGE | {-k for k in _EDGE})

_rng = Random(0xEC256)
RANDOM_SCALARS = [_rng.randrange(1, N) for _ in range(24)]
RANDOM_POINTS = [reference_multiply(G, _rng.randrange(2, N)) for _ in range(3)]
VARIABLE_BASES = [-G, reference_multiply(G, 2)] + RANDOM_POINTS


def test_generator_multiply_matches_reference_on_edge_scalars():
    for k in EDGE_SCALARS:
        assert k * G == reference_multiply(G, k), hex(k)


def test_variable_base_multiply_matches_reference_on_edge_scalars():
    point = RANDOM_POINTS[0]
    for k in EDGE_SCALARS:
        assert k * point == reference_multiply(point, k), hex(k)


@pytest.mark.parametrize("base", [G] + VARIABLE_BASES)
def test_multiply_matches_reference_on_random_scalars(base):
    for k in RANDOM_SCALARS:
        assert k * base == reference_multiply(base, k), hex(k)


def test_generator_lookalike_on_clone_curve_uses_its_own_table():
    from dataclasses import replace

    clone = replace(CURVE_P256, name="clone")
    for k in RANDOM_SCALARS[:4]:
        product = k * clone.generator
        assert product.curve is clone
        assert (product.x, product.y) == ((k * G).x, (k * G).y)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-2 * N, max_value=2 * N), st.integers(min_value=1, max_value=N - 1))
def test_multiply_matches_reference_property(k, base_scalar):
    base = reference_multiply(G, base_scalar)
    assert k * G == reference_multiply(G, k)
    assert k * base == reference_multiply(base, k)


# --- Deterministic operation counts (no timing) ----------------------------


@pytest.fixture
def group_ops(monkeypatch):
    """Count the Jacobian additions and doublings the kernels perform."""
    CURVE_P256._comb_table  # built lazily; keep its cost out of the counts
    counts = {"add": 0, "double": 0}

    def count(name, kind):
        original = getattr(ec, name)

        def counted(*args):
            counts[kind] += 1
            return original(*args)

        monkeypatch.setattr(ec, name, counted)

    count("_jac_add", "add")
    count("_jac_add_affine", "add")
    count("_jac_double", "double")
    return counts


def test_fixed_base_multiply_op_counts(group_ops):
    for k in EDGE_SCALARS + RANDOM_SCALARS:
        group_ops.update(add=0, double=0)
        _ = k * G
        assert group_ops["add"] <= 64 and group_ops["double"] == 0, hex(k)


def test_variable_base_multiply_op_counts(group_ops):
    point = RANDOM_POINTS[0]
    for k in EDGE_SCALARS + RANDOM_SCALARS:
        group_ops.update(add=0, double=0)
        _ = k * point
        assert group_ops["add"] <= 60 and group_ops["double"] <= 257, hex(k)


# --- Wall clock (opt in with -m timing) -------------------------------------


def _best_seconds(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.timing
def test_kernels_beat_reference_ladder_wallclock(monkeypatch):
    """Same-host ratios: each expression timed with the production kernels,
    then again with ``ECPoint.__mul__`` swapped for the reference ladder."""
    key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"ec-timing"))
    public = key.public_key()
    signed = [(m, key.sign(m)) for m in (b"m%d" % i for i in range(8))]
    CURVE_P256._comb_table

    def multiply():
        for k in RANDOM_SCALARS:
            _ = k * G

    def verify():
        for message, signature in signed:
            assert public.verify(message, signature)

    fast = (_best_seconds(multiply), _best_seconds(verify))
    monkeypatch.setattr(ECPoint, "__mul__", reference_multiply)
    monkeypatch.setattr(ECPoint, "__rmul__", reference_multiply)
    slow = (_best_seconds(multiply), _best_seconds(verify))
    assert slow[0] >= 4 * fast[0], f"k*G only {slow[0] / fast[0]:.2f}x faster"
    assert slow[1] >= 1.8 * fast[1], f"verify only {slow[1] / fast[1]:.2f}x faster"
