"""Pairings, distributional derivatives, classical pullback."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfn_lab.basic_space import embed_C
from gfn_lab.diffeo import affine_map, get_diffeo, identity_map
from gfn_lab.distributions import (DiracDerivative, Heaviside,
                                   PullbackDistribution, SmoothDensity,
                                   classical_pullback, derivative, pair,
                                   smooth_density)
from gfn_lab.testfunc import Box, DomainError, tf_lincomb, translate

from conftest import oracle_trapezoid

RNG = np.random.default_rng(3)


class TestPairSmooth:
    def test_complex_density_raises(self, moll2):
        """Densities are real: a complex one fails numpy's cast into the
        real sample buffer instead of being paired."""
        with pytest.raises(TypeError):
            pair(SmoothDensity(lambda x: np.exp(1j * x)), moll2)


class TestPairDirac:
    def test_delta_is_point_evaluation(self, moll2):
        assert pair(DiracDerivative(0), moll2) == moll2(0.0)

    def test_delta_at_position(self, moll2_offset):
        assert pair(DiracDerivative(0, 0.3), moll2_offset) == moll2_offset(0.3)

    def test_delta_prime(self, moll2_offset):
        exact = moll2_offset.derivative()(0.0)
        assert pair(DiracDerivative(1), moll2_offset) == pytest.approx(
            -exact, abs=1e-9)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            DiracDerivative(5)


class TestPairHalfLine:
    def test_heaviside_vs_oracle(self, moll0):
        """<H, psi> = integral of psi over (0, inf)."""
        got = pair(Heaviside(), moll0)
        oracle = oracle_trapezoid(moll0.fn, 0.0, 1.0, 65536)
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_heaviside_support_left_of_zero(self, moll0):
        assert pair(Heaviside(), translate(moll0, -5.0)) == 0.0


class TestLinearity:
    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_pair_linear_in_test_function(self, moll0, moll2_offset, a, b):
        combo = tf_lincomb([a, b], [moll0, moll2_offset])
        for w in (DiracDerivative(1), Heaviside(), smooth_density("sin")):
            lhs = pair(w, combo)
            rhs = a * pair(w, moll0) + b * pair(w, moll2_offset)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestDerivative:
    def test_heaviside_derivative_is_delta(self, moll2_offset):
        got = pair(derivative(Heaviside()), moll2_offset)
        assert got == moll2_offset(0.0)
        # oracle: -integral of psi' over (0, inf) telescopes to psi(0)
        d = moll2_offset.derivative()
        oracle = -oracle_trapezoid(d.fn, 0.0, 1.2, 65536)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_dirac_ladder(self, moll2_offset):
        d = derivative(DiracDerivative(1))
        assert d.kind == "dirac" and d.order == 2

    def test_smooth_density_closed_form(self, moll0):
        got = pair(derivative(smooth_density("sin")), moll0)
        oracle = pair(smooth_density("cos"), moll0)
        assert got == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("w", [DiracDerivative(0), DiracDerivative(1),
                                   Heaviside(), smooth_density("sin")],
                             ids=["delta", "delta1", "H", "sin"])
    def test_derivation_against_pairing(self, w, moll2_offset):
        """<w', psi> + <w, psi'> = 0."""
        psi = moll2_offset
        total = pair(derivative(w), psi) + pair(w, psi.derivative())
        assert abs(total) <= 1e-8

    @pytest.mark.parametrize("w", [SmoothDensity(np.sin),
                                   PullbackDistribution(identity_map(),
                                                        Heaviside())],
                             ids=["bare-density", "pullback"])
    def test_no_closed_form_raises(self, w):
        with pytest.raises(TypeError, match="closed-form"):
            derivative(w)


class TestDomain:
    """The open set belongs to the representative: ``embed_C(w, omega)``
    checks U(Omega) before ``pair`` runs, its exact zeros included."""

    OMEGA = Box.interval(-2.0, 2.0)

    def test_support_escape_raises(self, moll0):
        rep = embed_C(SmoothDensity(np.sin), omega=self.OMEGA)
        with pytest.raises(DomainError):
            rep(moll0, 1.5)

    def test_inside_is_fine(self, moll0):
        for w in (SmoothDensity(np.sin), DiracDerivative(0, -1.9),
                  Heaviside()):
            rep = embed_C(w, omega=self.OMEGA)
            assert rep(moll0, 0.5) == pair(w, moll0, shift=0.5)

    def test_missed_dirac_still_checks_the_domain(self, moll0):
        """The point misses the support, but the support escapes the open
        set: the domain check comes before the zero."""
        rep = embed_C(DiracDerivative(0, -1.9), omega=self.OMEGA)
        assert pair(DiracDerivative(0, -1.9), moll0, shift=1.5) == 0.0
        with pytest.raises(DomainError):
            rep(moll0, 1.5)

    def test_heaviside_left_of_zero_still_checks_the_domain(self, moll0):
        rep = embed_C(Heaviside(), omega=self.OMEGA)
        assert pair(Heaviside(), moll0, shift=-1.5) == 0.0
        with pytest.raises(DomainError):
            rep(moll0, -1.5)


class TestClassicalPullback:
    def test_identity_is_plain_pair(self, moll2_offset):
        u = smooth_density("sin")
        mu = identity_map()
        assert classical_pullback(mu, u, moll2_offset) == pair(u, moll2_offset)

    def test_delta_under_doubling(self, moll2_offset):
        """<mu* delta, psi> = psi(mu^{-1}(0)) |det D mu^{-1}(0)| = psi(0)/2."""
        mu = affine_map(2.0)
        got = classical_pullback(mu, DiracDerivative(0), moll2_offset)
        assert got == pytest.approx(0.5 * moll2_offset(0.0), abs=1e-12)

    def test_smooth_change_of_variables(self, moll0):
        """<mu* f, psi> = integral of f(mu(x)) psi(x) dx."""
        mu = get_diffeo("sin-bend")
        got = classical_pullback(mu, smooth_density("sin"), moll0)
        oracle = oracle_trapezoid(
            lambda x: np.sin(mu.forward(x)) * moll0.fn(x), -1.0, 1.0, 65536)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_chart_escape_raises(self, moll0):
        om = Box.interval(-1.0, 1.0)
        mu = affine_map(2.0, omega_dst=om)
        with pytest.raises(DomainError):
            classical_pullback(mu, DiracDerivative(0), moll0)
