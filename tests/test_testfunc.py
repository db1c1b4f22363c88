"""Test functions, quadrature and moments.

Derived expectations are frozen from independent oracles (numpy trapezoid
on its own grids), never from the code paths under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfn_lab import testfunc
from gfn_lab.testfunc import (MollifierError, TestFunction, build_mollifier,
                              check_node_count, moment, moments_upto, scale,
                              tf_lincomb, translate)

from conftest import oracle_trapezoid

RNG = np.random.default_rng(0)


class TestBuildMollifier:
    def test_q0_unit_mass(self, moll0):
        """Normalized standard bump: mass 1 within 1e-12."""
        assert abs(moll0.mass() - 1.0) <= 1e-12
        oracle = oracle_trapezoid(moll0.fn, -1.0, 1.0, 8192)
        assert abs(oracle - 1.0) <= 1e-12

    def test_q2_vanishing_moments_vs_oracle(self, moll2):
        """m1, m2 vanish to 1e-10, confirmed by an oracle at doubled nodes."""
        for k in (1, 2):
            mk = moment(moll2, k)
            assert abs(mk) <= 1e-10
            oracle = oracle_trapezoid(lambda x, k=k: x**k * moll2.fn(x),
                                      -1.0, 1.0, 8192)
            assert abs(oracle - mk) <= 1e-11

    def test_q2_changes_sign(self, moll2):
        """Unit mass with vanishing second moment forces negativity."""
        xs = np.linspace(-1.0, 1.0, 2001)
        vals = moll2.fn(xs)
        assert vals.min() < -1e-3 and vals.max() > 0.0

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_moment_spec_up_to_q6(self, q):
        ms = moments_upto(build_mollifier(q), q)
        assert abs(ms[0] - 1.0) <= 1e-10, ms
        assert np.all(np.abs(ms[1:]) <= 1e-10), ms

    def test_ill_conditioned_rejected(self):
        with pytest.raises(MollifierError, match="q=24"):
            build_mollifier(24)

    def test_quadrature_grid_validation(self):
        with pytest.raises(ValueError):
            check_node_count(100)
        with pytest.raises(ValueError):
            check_node_count(32)
        check_node_count(64)

    def test_moment_order_cap(self, moll2):
        with pytest.raises(ValueError):
            moment(moll2, 17)
        moment(moll2, 16)


class TestMoment:
    def test_first_moment_of_even_function_vanishes(self, moll2):
        assert abs(moment(moll2, 1)) <= 1e-12

    def test_third_moment_symmetric_q2_is_zero(self, moll2):
        # even symmetry kills every odd moment of the centered construction
        assert abs(moment(moll2, 3)) <= 1e-12

    def test_third_moment_offset_q2_nonzero(self, moll2_offset):
        """The center-offset A_2 member has |m3| > 1e-3; this constant
        drives the order-(q+1) embedding error."""
        m3 = moment(moll2_offset, 3)
        assert abs(m3) > 1e-3
        lo, hi = moll2_offset.box
        oracle = oracle_trapezoid(lambda x: x**3 * moll2_offset.fn(x),
                                  lo, hi, 8192)
        assert m3 == pytest.approx(oracle, abs=1e-11)
        assert m3 == pytest.approx(-0.046888, abs=1e-4)

    @pytest.mark.parametrize("alpha", range(0, 9))
    def test_doubling_convergence(self, moll2, alpha):
        """Boundary flatness makes the trapezoid rule super-algebraic."""
        val, err = moment(moll2, alpha, return_error=True)
        assert err <= 1e-11

    def test_moments_upto_matches_single_calls(self, moll2_offset):
        ms = moments_upto(moll2_offset, 5)
        for a in range(6):
            assert ms[a] == pytest.approx(moment(moll2_offset, a), abs=1e-14)

    def test_moments_upto_agrees_with_moment_on_consecutive_boxes(
            self, moll2, moll2_offset):
        """Each order agrees with ``moment`` to 1e-15 relative to the
        moment of |xi^a fn| (the scale of the sums' rounding), and nothing
        is kept between calls: on interleaved boxes and orders, every call
        equals the same call made fresh, bit for bit."""
        member = scale(moll2_offset, 0.5)
        calls = [(member, 3, 64), (moll2, 3, None),
                 (tf_lincomb([0.5, 0.5], [moll2, moll2]), 5, None),
                 (translate(moll2_offset, 0.7), 8, 1024),
                 (member, 5, 1024), (moll2, 16, 1024)]
        fresh = [moments_upto(tf, qmax, n) for tf, qmax, n in calls[::-1]]
        for (tf, qmax, n), want in zip(calls, fresh[::-1]):
            got = moments_upto(tf, qmax, n)
            assert got.tobytes() == want.tobytes()
            pts, w = testfunc.support_grid(tf, n)
            absf = np.abs(tf.fn(pts))
            for a in range(qmax + 1):
                size = float(np.dot(w, np.abs(pts) ** a * absf))
                assert abs(got[a] - moment(tf, a, n)) <= 1e-15 * size

    def test_moment_powers_are_products(self, moll2_offset):
        """xi^alpha comes from multiplying the values by the nodes alpha
        times, not from ``pow``; the mass is the plain dot product of
        weights and values."""
        tf = translate(moll2_offset, 0.3)
        pts, w = testfunc.support_grid(tf, 512)
        vals = tf.fn(pts)
        for a in range(9):
            assert moment(tf, a, 512) == float(np.dot(w, vals))
            vals = vals * pts

    def test_translated_first_moment(self, moll2_offset):
        """m1(phi(.-x)) = m1 + x*m0."""
        for x in (-0.4, 0.3, 1.1):
            shifted = translate(moll2_offset, x)
            expect = moment(moll2_offset, 1) + x * moment(moll2_offset, 0)
            assert moment(shifted, 1) == pytest.approx(expect, abs=1e-10)


class TestScale:
    def test_identity_at_one(self, moll2):
        assert scale(moll2, 1.0) is moll2

    def test_pointwise_definition(self, moll2):
        sp = scale(moll2, 0.5)
        assert sp(0.3) == 2.0 * moll2(0.6)

    def test_out_of_range_rejected(self, moll2):
        with pytest.raises(ValueError):
            scale(moll2, 1.5)
        with pytest.raises(ValueError):
            scale(moll2, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(eps=st.floats(min_value=0.05, max_value=1.0))
    def test_mass_invariant_under_scaling(self, moll2, eps):
        assert moment(scale(moll2, eps), 0) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(eps=st.floats(min_value=0.1, max_value=1.0),
           alpha=st.integers(min_value=0, max_value=4))
    def test_moment_scaling_law(self, moll2_offset, eps, alpha):
        """m_alpha(S_eps phi) = eps^alpha m_alpha(phi)."""
        lhs = moment(scale(moll2_offset, eps), alpha)
        rhs = eps**alpha * moment(moll2_offset, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)

    def test_radius_and_center_scale(self, moll2_offset):
        sp = scale(moll2_offset, 0.25)
        assert sp.radius == moll2_offset.radius * 0.25
        assert sp.center == moll2_offset.center * 0.25


class TestTranslate:
    def test_zero_shift_is_identity(self, moll2):
        assert translate(moll2, 0.0) is moll2

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, moll2, x):
        with pytest.raises(ValueError, match="finite"):
            translate(moll2, x)

    def test_round_trip_is_the_original_frame(self, moll2):
        """A shift and its undoing build a new function in moll2's own
        frame, which evaluates as moll2."""
        back = translate(translate(moll2, 0.7), -0.7)
        assert back is not moll2 and back.frame == (moll2, 1.0, 0.0)
        xs = RNG.uniform(-1.5, 1.5, 64)
        np.testing.assert_array_equal(back.fn(xs), moll2.fn(xs))

    def test_pointwise_definition(self, moll2):
        t = translate(moll2, 0.4)
        xs = RNG.uniform(-1.5, 1.5, 64)
        np.testing.assert_array_equal(t.fn(xs), moll2.fn(xs - 0.4))


class TestBox:
    @pytest.mark.parametrize("lo, hi", [
        (np.nan, 1.0), (-1.0, np.nan), (-np.inf, 1.0), (-1.0, np.inf),
        (1.0, 1.0), (1.0, -1.0)])
    def test_non_finite_or_empty_interval_rejected(self, lo, hi):
        for make in (testfunc.Box, testfunc.Box.interval):
            with pytest.raises(ValueError, match="finite ends lo < hi"):
                make(lo, hi)


class TestSupport:
    def test_exterior_points_exactly_zero(self, moll2, moll2_offset):
        """1000 random points outside the support ball evaluate to 0."""
        battery = [moll2, moll2_offset, scale(moll2, 0.3),
                   translate(moll2_offset, 1.2),
                   tf_lincomb([1.0, -0.5], [moll2, moll2_offset])]
        for tf in battery:
            c, r = tf.center, tf.radius
            signs = RNG.choice([-1.0, 1.0], 1000)
            pts = c + signs * (r + RNG.uniform(0.0, 3.0, 1000))
            assert np.all(tf.fn(pts) == 0.0)

    def test_derivative_keeps_support(self, moll2):
        d = moll2.derivative()
        assert d(1.5) == 0.0 and d(-2.0) == 0.0

    def test_exact_derivative_matches_finite_differences(self, moll2_offset):
        d = moll2_offset.derivative()
        xs = RNG.uniform(-0.8, 1.1, 32)
        h = 1e-6
        fd = (moll2_offset.fn(xs + h) - moll2_offset.fn(xs - h)) / (2 * h)
        np.testing.assert_allclose(d.fn(xs), fd, atol=5e-7)

    def test_opaque_function_has_no_derivative(self, moll2):
        """Without an exact derivative evaluator there is no derivative."""
        opaque = TestFunction(moll2.center, moll2.radius, moll2.fn)
        with pytest.raises(TypeError, match="exact derivative"):
            opaque.derivative()
