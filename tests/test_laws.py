"""Algebraic laws of the test-function operators, checked by hypothesis.

The group laws of translate and scale, their folding into one affine
frame, the agreement of the frame pairing with the member's own evaluator,
pairing at a shift as pairing with the translate, linearity of the
smooth-density pairing, and the bit-identical C/J round trip are what
the sweeps rely on when they rebuild the same member along different
operator chains.
Pullback functoriality and the fit's invariance under rescaled values are
what the transport and order verdicts rely on.
"""

import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gfn_lab.asymptotics import SweepSeries, fit_order
from gfn_lab.basic_space import (embed_C, embed_J, embed_sigma, mul, sub,
                                 translate_formalism)
from gfn_lab.diffeo import affine_map, compose, pullback_rep
from gfn_lab.distributions import (DiracDerivative, Heaviside, pair,
                                   smooth_density)
from gfn_lab.testfunc import (Box, DomainError, build_mollifier, scale,
                              support_grid, tf_lincomb, translate)

from conftest import sup_abs
from test_shared_evaluation import OMEGA, rows_catalog

shifts = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
scales = st.floats(min_value=0.05, max_value=1.0)
weights = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
proper_scales = st.floats(min_value=0.05, max_value=1.0, exclude_max=True)
tiny_scales = st.floats(min_value=2.0**-14, max_value=1.0)
far_shifts = st.floats(min_value=0.0, max_value=3.0)
# shifts x at which translate(scale(moll2_offset, 0.75), x) has its box edge
# exactly on a pairing's point: 0.3 on the left edge, 0 on the right
EDGE_X, ZERO_EDGE_X = 0.9375, -0.8625


def members(base, e, t):
    """A scaled member, a translated one, and both in either order."""
    return [scale(base, e), translate(base, t),
            translate(scale(base, e), t), scale(translate(base, t), e)]


class TestTranslateGroup:
    @settings(max_examples=50, deadline=None)
    @given(e=scales, t=shifts)
    def test_a_zero_shift_is_the_function(self, moll2_offset, e, t):
        for phi in [moll2_offset, *members(moll2_offset, e, t)]:
            assert translate(phi, 0.0) is phi
            assert translate(phi, -0.0) is phi

    @settings(max_examples=100, deadline=None)
    @given(e=scales, a=shifts, b=shifts, c=shifts)
    @example(e=0.5, a=0.7, b=-0.7, c=0.0)
    def test_stacked_shifts_are_one_frame_level(self, moll2_offset, e, a, b,
                                                c):
        """Shifts stack as one frame over the base, its offset the shifts
        added in order; the functions it was built through are not kept."""
        f = moll2_offset
        phi = scale(f, e)
        _, eps, offset = phi.frame
        built = []
        for s in (a, b, c):
            built.append(weakref.ref(phi))
            phi = translate(phi, s)
            offset += s
        assert all(r() in (None, phi, f) for r in built)
        assert phi.frame[0] is f and phi.frame[1:] == (eps, offset)
        xs = np.linspace(*phi.box, 257)
        np.testing.assert_array_equal(phi.fn(xs),
                                      eps**-1 * f.fn((xs - offset) / eps))

    @settings(max_examples=50, deadline=None)
    @given(a=shifts, b=shifts)
    def test_composition_is_one_shift(self, moll2_offset, a, b):
        f = moll2_offset
        two = translate(translate(f, a), b)
        xs = np.linspace(*two.box, 257)
        np.testing.assert_array_equal(two.fn(xs), f.fn(xs - (a + b)))


class TestScaleGroup:
    @settings(max_examples=100, deadline=None)
    @given(e1=scales, e2=scales)
    def test_composition_matches_product(self, moll2_offset, e1, e2):
        f = moll2_offset
        two = scale(scale(f, e1), e2)
        one = scale(f, e1 * e2)
        assert two.center == pytest.approx(one.center, rel=1e-12, abs=1e-300)
        assert two.radius == pytest.approx(one.radius, rel=1e-12)
        xs = np.linspace(*one.box, 513)
        lhs, rhs = two.fn(xs), one.fn(xs)
        # near the flat support edge a few-ulp shift of the argument moves
        # tiny values by a large relative amount; compare against the sup
        sup = np.max(np.abs(rhs))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * sup)


class TestPairLinearity:
    @settings(max_examples=40, deadline=None)
    @given(a=weights, b=weights, t=shifts, e=scales,
           density=st.sampled_from(["sin", "cos", "x2", "x4"]))
    def test_smooth_pair_is_linear_over_lincomb(self, moll2_offset, moll0,
                                                a, b, t, e, density):
        w = smooth_density(density)
        f = moll2_offset
        g = translate(scale(moll0, e), t)
        wf, wg = pair(w, f), pair(w, g)
        lhs = pair(w, tf_lincomb([a, b], [f, g]))
        # the combination is integrated on its own, wider grid, which
        # resolves a narrow g to about 2e-10 relative
        tol = 1e-9 * (abs(a * wf) + abs(b * wg)) + 1e-12
        assert lhs == pytest.approx(a * wf + b * wg, abs=tol)


class TestFrames:
    @settings(max_examples=60, deadline=None)
    @given(w1=st.floats(min_value=0.1, max_value=0.9), amp=weights, e=scales,
           x=shifts, n=st.sampled_from([1024, 2048, 4096]),
           density=st.sampled_from(["sin", "cos", "x", "x2", "x4"]))
    def test_frame_pairing_matches_a_closure_pairing(self, moll2_offset,
                                                     moll0, w1, amp, e, x, n,
                                                     density):
        """<f, T_x S_eps phi> from the terms' own grids agrees with
        integrating the member's own evaluator over its own grid of 32,768
        panels.  At n = 256 the trapezoid rule itself is off by about 2e-11
        of the integrand, on the member's grid as on the terms' grids."""
        chi = scale(moll0, 0.6).derivative()
        phi = tf_lincomb([w1, 1.0 - w1, amp],
                         [moll2_offset, translate(moll0, -0.2), chi])
        psi = translate(scale(phi, e), x)
        f = smooth_density(density).f
        pts, wt = support_grid(psi, 32768)
        integrand = f(pts) * psi.fn(pts)
        closure = float(np.dot(wt, integrand))
        l1 = float(np.dot(wt, np.abs(integrand)))
        assert abs(pair(smooth_density(density), psi, n) - closure) <= \
            1e-13 * l1

    @settings(max_examples=100, deadline=None)
    @given(e1=proper_scales, x=shifts, e2=proper_scales)
    def test_scale_translate_scale_is_one_frame_level(self, moll2_offset,
                                                      e1, x, e2):
        f = moll2_offset
        inner = scale(f, e1)
        mid = translate(inner, x)
        g = scale(mid, e2)
        levels = [weakref.ref(inner)] + ([weakref.ref(mid)] if x else [])
        del inner, mid
        # g refers to f alone, not to the functions it was built through
        assert all(r() is None for r in levels)
        base, a, b = g.frame
        assert base is f and a == e1 * e2 and b == x * e2
        xs = np.linspace(*g.box, 257)
        np.testing.assert_array_equal(g.fn(xs), a**-1 * f.fn((xs - b) / a))


def shifted_members(base, combo, e, t, u):
    """(phi, the shift undoing its latest one, the shift back to its
    untranslated offset) for a scaled, a translated and a combined phi."""
    scaled = scale(base, e)
    twice = translate(translate(scaled, t), u)
    return [(scaled, None, None),
            (translate(base, t), -t, -t),
            (scale(translate(base, t), e), None, None),
            (translate(scale(combo, e), t), -t, -t),
            (twice, -u, -twice.frame[2])]


class TestPairAtAShift:
    KINDS = [*(smooth_density(f) for f in ("sin", "x", "x2", "x4")),
             DiracDerivative(0), DiracDerivative(1), Heaviside()]

    @settings(max_examples=25, deadline=None)
    @given(e=proper_scales, t=shifts, u=shifts, x=shifts,
           n=st.sampled_from([1024, 4096]))
    @example(e=0.5, t=0.25, u=0.5, x=-0.75, n=1024)
    @example(e=0.3, t=1e-17, u=2.0, x=2.0, n=4096)
    def test_pair_at_a_shift_is_pair_with_the_translate(self, moll2_offset,
                                                        moll0, e, t, u, x, n):
        """pair(w, phi, n, shift=s) is pair(w, translate(phi, s), n) bit for
        bit, at shifts that undo phi's own too."""
        combo = tf_lincomb([0.6, 0.4], [moll2_offset, translate(moll0, -0.2)])
        for phi, undo, home in shifted_members(moll2_offset, combo, e, t, u):
            for s in {x, 0.0, undo, home} - {None}:
                for w in self.KINDS:
                    assert pair(w, phi, n, shift=s) == \
                        pair(w, translate(phi, s), n)

    @settings(max_examples=25, deadline=None)
    @given(e=proper_scales, t=shifts, u=shifts, x=shifts,
           n=st.sampled_from([1024, 4096]))
    @example(e=0.75, t=0.25, u=0.5, x=EDGE_X, n=1024)
    @example(e=0.75, t=0.25, u=0.5, x=np.nextafter(EDGE_X, 2.0), n=1024)
    @example(e=0.75, t=0.25, u=0.5, x=np.nextafter(EDGE_X, -2.0), n=1024)
    @example(e=0.75, t=0.25, u=0.5, x=ZERO_EDGE_X, n=4096)
    @example(e=0.75, t=0.25, u=0.5, x=np.nextafter(ZERO_EDGE_X, 2.0), n=4096)
    @example(e=0.75, t=0.25, u=0.5, x=np.nextafter(ZERO_EDGE_X, -2.0),
             n=4096)
    def test_point_and_half_line_pairings_are_the_direct_values(
            self, moll2_offset, moll0, e, t, u, x, n):
        """A point value at a shift is the value it stands for, computed on
        the translate without ``pair``; where the support box misses the
        point or the half-line x >= 0 the pairing is +0.0.  How close a
        half-line integral is to its value is
        ``TestHeavisideByTerms.test_cut_integrals_are_accurate``'s."""
        combo = tf_lincomb([0.6, 0.4], [moll2_offset, translate(moll0, -0.2)])
        for phi, undo, home in shifted_members(moll2_offset, combo, e, t, u):
            for s in {x, 0.0, undo, home} - {None}:
                psi = translate(phi, s)
                for p in (0.0, 0.3):
                    got = pair(DiracDerivative(0, p), phi, n,
                               shift=s)
                    assert got == psi(p)
                    if abs(p - psi.center) > psi.radius:
                        assert math.copysign(1.0, got) == 1.0
                if psi.box[1] <= 0.0:
                    got = pair(Heaviside(), phi, n, shift=s)
                    assert got == 0.0 and math.copysign(1.0, got) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(e=proper_scales, t=shifts, x=far_shifts, y=far_shifts,
           n=st.sampled_from([1024, 4096]))
    @example(e=0.5, t=0.25, x=1.0, y=3.0, n=1024)
    def test_heaviside_over_the_whole_box_ignores_the_shift(
            self, moll2_offset, moll0, e, t, x, y, n):
        """Two shifts that both put the box in x >= 0 give the same
        Heaviside pairing, bit for bit: the integral of the base."""
        combo = tf_lincomb([0.6, 0.4], [moll2_offset, translate(moll0, -0.2)])
        for phi in members(moll2_offset, e, t) + members(combo, e, t):
            if min(translate(phi, s).box[0] for s in (x, y)) >= 0.0:
                assert pair(Heaviside(), phi, n, shift=x) == \
                    pair(Heaviside(), phi, n, shift=y)

    @settings(max_examples=25, deadline=None)
    @given(e=tiny_scales, x=far_shifts, n=st.sampled_from([1024, 4096]))
    @example(e=2.0**-14, x=3.0, n=1024)
    def test_heaviside_over_the_whole_box_is_accurate(self, moll2_offset,
                                                      moll0, e, x, n):
        """A Heaviside pairing whose box lies in x >= 0 is within 1e-14 of
        composite Simpson on 8n panels in base coordinates, also at small
        scales, where a grid over the translated box would lose bits to
        the cancellation in (p - b) / a."""
        combo = tf_lincomb([0.6, 0.4], [moll2_offset, translate(moll0, -0.2)])
        for base in (moll2_offset, combo):
            phi = scale(base, e)
            assume(translate(phi, x).box[0] >= 0.0)
            lo, hi = base.box
            v = base.fn(np.linspace(lo, hi, 8 * n + 1))
            ref = (hi - lo) / (8 * n) / 3.0 * (
                v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum())
            assert abs(pair(Heaviside(), phi, n, shift=x) - ref) <= 1e-14

    def test_edge_examples_sit_on_the_edge(self, moll2_offset):
        left = translate(scale(moll2_offset, 0.75), EDGE_X)
        right = translate(scale(moll2_offset, 0.75), ZERO_EDGE_X)
        assert left.center - 0.3 == left.radius
        assert right.center + right.radius == 0.0
        assert abs(0.0 - right.center) == right.radius


class TestFormalismRoundTrip:
    @pytest.fixture(scope="class")
    def reps(self):
        mixed = build_mollifier(2, radius=0.8, center=0.1)
        return mixed, [embed_C(smooth_density("sin")),
                       embed_J(smooth_density("x2"))]

    @settings(max_examples=60, deadline=None)
    @given(e=scales, t=shifts, x=shifts)
    @example(e=0.5, t=0.25, x=-0.25)
    @example(e=0.5, t=0.25, x=0.25)
    @example(e=1.0, t=1e-17, x=2.0)
    def test_round_trip_is_bit_identical(self, reps, e, t, x):
        base, representatives = reps
        for rep in representatives:
            back = translate_formalism(translate_formalism(rep))
            assert back.formalism == rep.formalism
            for phi in members(base, e, t):
                assert back(phi, x) == rep(phi, x)

    def test_translating_twice_rebuilds_the_representative(self):
        """Translating twice builds a new representative, in rep's
        formalism, on rep's open set, whose rows are rep's bit for bit."""
        om = Box.interval(-2.5, 2.5)
        ix = embed_C(smooth_density("x"), omega=om)
        terms = (build_mollifier(2, radius=0.8, center=0.1),
                 build_mollifier(0, radius=0.5))
        coeffs = np.array([[1.0, 0.25, 0.6], [0.0, 0.75, 0.4]])
        rows = [(coeffs, terms, eps, b) for eps in (1.0, 0.125)
                for b in (0.0, 0.3)]
        xs = [-0.7, 0.0, 0.55]
        for rep in [embed_C(DiracDerivative(0), omega=om),
                    embed_J(Heaviside()), embed_sigma(np.sin, omega=om),
                    sub(embed_C(smooth_density("sin"), omega=om),
                        embed_sigma(np.sin, omega=om)),
                    mul(ix, ix)]:
            out = translate_formalism(rep)
            assert {out.formalism, rep.formalism} == {"C", "J"}
            assert out.omega == rep.omega and out.linear == rep.linear
            back = translate_formalism(out)
            assert back is not rep
            assert (back.formalism, back.omega, back.linear) == \
                (rep.formalism, rep.omega, rep.linear)
            for member in rows:
                assert back.row(member, xs).tobytes() == \
                    rep.row(member, xs).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(e=scales, t=shifts, x=shifts)
    @example(e=0.5, t=0.25, x=-0.25)
    def test_J_and_C_embeddings_translate_into_each_other(self, moll2_offset,
                                                          e, t, x):
        """translate_formalism(embed_J(w)) is embed_C(w), which is embed_J
        on the member translated by x, and translate_formalism(embed_C(w))
        is embed_J(w), bit for bit."""
        for w in (DiracDerivative(0), DiracDerivative(1), Heaviside(),
                  smooth_density("sin")):
            J, C = embed_J(w), embed_C(w)
            to_C, to_J = translate_formalism(J), translate_formalism(C)
            for phi in members(moll2_offset, e, t):
                want = np.array([C(phi, x), J(translate(phi, x), x),
                                 J(phi, x)])
                got = np.array([to_C(phi, x), C(phi, x), to_J(phi, x)])
                assert got.tobytes() == want.tobytes()


class TestOneEvaluator:
    """A representative's value at (phi, x) is, after its U(Omega) test,
    its row on the one member read from phi's frame (base, a, b): a 1 x 1
    coefficient array over (base,) at eps = a, with offset b."""

    @pytest.fixture(scope="class")
    def catalog(self):
        reps = {name: rep for name, rep in rows_catalog(OMEGA, 0.4).items()
                if not isinstance(rep, tuple)}
        reps["J-delta"] = translate_formalism(reps["delta"])
        return reps

    @settings(max_examples=15, deadline=None)
    @given(e=scales, t=shifts, x=shifts)
    @example(e=0.5, t=0.25, x=-0.25)
    def test_a_value_is_the_row_of_one_member(self, catalog, moll2_offset,
                                              e, t, x):
        for name, rep in catalog.items():
            for phi in members(moll2_offset, e, t):
                if not rep.in_domain(phi, x):
                    with pytest.raises(DomainError):
                        rep(phi, x)
                    continue
                base, a, b = phi.frame
                want = np.asarray(rep.row((np.ones((1, 1)), (base,), a, b),
                                          [x]))
                assert np.array(rep(phi, x)).tobytes() == \
                    want[0].tobytes(), name


factors = st.floats(min_value=0.3, max_value=3.0).flatmap(
    lambda a: st.sampled_from([a, -a]))


class TestPullbackFunctor:
    @settings(max_examples=60, deadline=None)
    @given(a1=factors, b1=shifts, a2=factors, b2=shifts, e=scales,
           x=st.floats(min_value=-1.0, max_value=1.0),
           dist=st.sampled_from(["delta", "sin"]))
    def test_pullback_along_a_composition_is_the_iterated_pullback(
            self, moll2_offset, a1, b1, a2, b2, e, x, dist):
        mu, nu = affine_map(a1, b1), affine_map(a2, b2)
        w = DiracDerivative(0) if dist == "delta" else smooth_density("sin")
        R = embed_C(w)
        comp = pullback_rep(compose(mu, nu), R)
        seq = pullback_rep(nu, pullback_rep(mu, R))
        phi = scale(moll2_offset, e)
        # the transformed member's values are phi's times |det D(mu nu)^-1|
        atol = 1e-12 * max(1.0, sup_abs(phi) / abs(a1 * a2))
        assert comp(phi, x) == pytest.approx(seq(phi, x), rel=1e-12, abs=atol)


class TestFitInvariance:
    @settings(max_examples=200, deadline=None)
    @given(slope=st.floats(min_value=-6.0, max_value=6.0),
           wobble=st.lists(st.floats(min_value=-0.5, max_value=0.5),
                           min_size=8, max_size=8),
           k=st.integers(min_value=-60, max_value=60))
    def test_rescaling_values_by_a_power_of_two(self, slope, wobble, k):
        eps = 2.0 ** -np.arange(2, 10, dtype=float)
        values = eps**slope * 2.0 ** np.asarray(wobble)
        base = fit_order(SweepSeries("m", 0, eps, values), 6)
        scaled = fit_order(SweepSeries("m", 0, eps, values * 2.0**k), 6)
        assert scaled.slope == pytest.approx(base.slope, rel=1e-12,
                                             abs=1e-12)
        assert scaled.intercept == pytest.approx(base.intercept + k,
                                                 rel=1e-12, abs=1e-12)
