"""Property tests pinning the Jacobian/wNAF fast path to the affine reference.

The fast scalar-multiplication core (Jacobian coordinates, wNAF windows,
fixed-base tables) must be *bit-identical* to the schoolbook affine
double-and-add it replaced — same canonical affine coordinates for every
scalar and point, not merely the same group element up to representation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bls import BlsMultiSig
from repro.crypto.curve import (
    Point,
    generator,
    hash_to_point,
    reference_scalar_mult,
)
from repro.crypto.params import DEFAULT_PARAMS, TOY_PARAMS

G = generator(TOY_PARAMS)
R = TOY_PARAMS.r

scalars = st.integers(min_value=0, max_value=2 * R)
signed_scalars = st.integers(min_value=-2 * R, max_value=2 * R)
base_scalars = st.integers(min_value=1, max_value=R - 1)


def assert_same_point(fast: Point, reference: Point) -> None:
    assert fast == reference
    if not fast.is_infinity:
        # Bit-identical canonical affine coordinates, not just group equality.
        assert fast.x.value == reference.x.value
        assert fast.y.value == reference.y.value
        assert fast.to_bytes() == reference.to_bytes()


class TestJacobianMatchesAffineReference:
    @given(k=scalars)
    @settings(max_examples=60, deadline=None)
    def test_fixed_base_path(self, k):
        assert_same_point(G * k, reference_scalar_mult(G, k))

    @given(a=base_scalars, k=scalars)
    @settings(max_examples=60, deadline=None)
    def test_variable_point_path(self, a, k):
        point = reference_scalar_mult(G, a)
        assert_same_point(point * k, reference_scalar_mult(point, k))

    @given(k=signed_scalars)
    @settings(max_examples=40, deadline=None)
    def test_negative_scalars(self, k):
        assert_same_point(G * k, reference_scalar_mult(G, k))

    @given(message=st.binary(min_size=0, max_size=64), k=base_scalars)
    @settings(max_examples=20, deadline=None)
    def test_hashed_points(self, message, k):
        point = hash_to_point(message, TOY_PARAMS)
        assert_same_point(point * k, reference_scalar_mult(point, k))

    def test_edge_scalars(self):
        for k in (0, 1, 2, 3, R - 1, R, R + 1, 2 * R - 1, 2 * R, 2 * R + 1):
            assert_same_point(G * k, reference_scalar_mult(G, k))

    def test_cofactor_sized_scalar(self):
        point = reference_scalar_mult(G, 7)
        k = TOY_PARAMS.cofactor  # larger than r: exercises long wNAF chains
        assert_same_point(point * k, reference_scalar_mult(point, k))

    def test_order_two_point(self):
        # (-1, 0) is the 2-torsion point of y^2 = x^3 + 1.
        two_torsion = Point.from_ints(TOY_PARAMS.p - 1, 0, TOY_PARAMS)
        assert two_torsion.is_on_curve()
        for k in range(5):
            assert_same_point(
                two_torsion * k, reference_scalar_mult(two_torsion, k)
            )

    def test_small_odd_order_points(self):
        # (0, +-1) has order 3 on y^2 = x^3 + 1 for every p = 2 (mod 3);
        # its odd multiples hit infinity, which the wNAF tables cannot
        # represent (regression: the table was silently corrupted).
        for y in (1, TOY_PARAMS.p - 1):
            point = Point.from_ints(0, y, TOY_PARAMS)
            assert point.is_on_curve()
            assert (point * 3).is_infinity
            for k in range(8):
                assert_same_point(point * k, reference_scalar_mult(point, k))

    def test_small_order_times_large_scalar(self):
        point = Point.from_ints(0, 1, TOY_PARAMS)
        for k in (R, R + 1, TOY_PARAMS.cofactor):
            assert_same_point(point * k, reference_scalar_mult(point, k))


@pytest.mark.heavy_crypto
class TestFastPathFullParams:
    """Same pinning on the production 512-bit curve (opt-in, slow)."""

    @given(k=st.integers(min_value=0, max_value=2 * DEFAULT_PARAMS.r))
    @settings(max_examples=10, deadline=None)
    def test_fixed_base_matches_reference(self, k):
        g_full = generator(DEFAULT_PARAMS)
        assert_same_point(g_full * k, reference_scalar_mult(g_full, k))

    def test_sign_verify_roundtrip(self):
        scheme = BlsMultiSig(DEFAULT_PARAMS)
        pair = scheme.keygen(99)
        share = scheme.sign(pair.secret_key, b"full-params-message", 0)
        assert scheme.verify_share(share, b"full-params-message", pair.public_key)


@pytest.mark.pairing
class TestPairingCache:
    def test_cache_hits_do_not_change_results(self):
        scheme = BlsMultiSig(TOY_PARAMS)
        pair = scheme.keygen(5)
        share = scheme.sign(pair.secret_key, b"cached", 0)
        first = scheme.verify_share(share, b"cached", pair.public_key)
        assert scheme._pairing_cache  # populated
        second = scheme.verify_share(share, b"cached", pair.public_key)
        assert first and second

    def test_cache_bounded(self):
        scheme = BlsMultiSig(TOY_PARAMS)
        scheme.PAIRING_CACHE_MAX = 4
        pair = scheme.keygen(5)
        for i in range(6):
            share = scheme.sign(pair.secret_key, b"m%d" % i, 0)
            assert scheme.verify_share(share, b"m%d" % i, pair.public_key)
        assert len(scheme._pairing_cache) <= 4 + 1
