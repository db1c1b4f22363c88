"""Shared evaluation: the rewritten evaluators and the sample cache
reproduce the straightforward computations bit for bit.

The sweeps' CSVs are compared byte for byte across versions, so every
speedup here must keep each floating-point operation.  The reference
expressions below are the straightforward forms: the masked bump with a
gather and scatter, and Horner's rule recomputing x - c at every step.
"""

import dataclasses
import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gfn_lab import asymptotics as asy, basic_space, distributions
from gfn_lab.asymptotics import SweepSpec
from gfn_lab.basic_space import (ExpExpRepresentative, Representative,
                                 _value_at, embed_C, embed_J, embed_sigma,
                                 mul, sub, translate_formalism)
from gfn_lab.diffeo import (PartialDomain, get_diffeo, pullback_rep,
                            transform_test_object)
from gfn_lab.distributions import (SMOOTH_CHAINS, DiracDerivative, Heaviside,
                                   SmoothDensity, pair, pair_row,
                                   smooth_density)
from gfn_lab.test_objects import (TestObjectPath, make_battery,
                                  perturbation_directions)
from gfn_lab.testfunc import (DEFAULT_NODES, Box, DomainError, TestFunction,
                              _parametric_eval, build_mollifier, bump,
                              bump_deriv,
                              moments_upto, scale, support_grid, tf_lincomb,
                              translate, union_box)

from probes import (MemberPath, probed_d1_outcome, probed_outcome,
                    probed_tables, with_domain)

OMEGA = Box.interval(-2.5, 2.5)
EDGE = 1.0 - 2.0**-53  # the largest double below 1


def bump_reference(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    out[m] = np.exp(-1.0 / (1.0 - tm * tm))
    return out


def bump_deriv_reference(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    g = 1.0 - tm * tm
    out[m] = np.exp(-1.0 / g) * (-2.0 * tm) / (g * g)
    return out


def horner_reference(coeffs, c, r, x):
    B = bump_reference((x - c) / r)
    acc = np.zeros_like(B)
    for k in range(len(coeffs) - 1, -1, -1):
        acc = acc * (x - c) + coeffs[k]
    return acc * B


def horner_deriv_reference(coeffs, c, r, x):
    u = (x - c) / r
    B = bump_reference(u)
    dB = bump_deriv_reference(u) / r
    poly = np.zeros_like(B)
    dpoly = np.zeros_like(B)
    for k in range(len(coeffs) - 1, -1, -1):
        dpoly = dpoly * (x - c) + poly
        poly = poly * (x - c) + coeffs[k]
    return dpoly * B + poly * dB


#: stated bump-monomial coefficients, one array per degree 0..7, with the
#: signs and spread of a mollifier's
COEFFS = [np.array([1.75, -0.5, -6.25, 1.5, 9.0, -2.25, -4.5, 1.0][:q + 1])
          for q in range(8)]

special = st.sampled_from([0.0, 1.0, -1.0, EDGE, -EDGE, np.nan,
                           0.5, -2.0**-30])
coords = st.one_of(special, st.floats(min_value=-1.5, max_value=1.5))
inputs = arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=9),
                elements=coords)
lines = arrays(np.float64, array_shapes(min_dims=0, max_dims=1, max_side=9),
               elements=st.one_of(special, st.floats(allow_nan=True,
                                                     allow_infinity=True)))
# every finite double, the ones whose powers overflow included
finite_lines = arrays(np.float64,
                      array_shapes(min_dims=0, max_dims=1, max_side=9),
                      elements=st.one_of(special.filter(np.isfinite),
                                         st.floats(allow_nan=False,
                                                   allow_infinity=False)))
POLYNOMIALS = {"x": [0.0, 1.0], "x2": [0.0, 0.0, 1.0],
               "x4": [0.0, 0.0, 0.0, 0.0, 1.0]}
DEGREES = {"one": 0, "x": 1, "x2": 2, "x4": 4}


def monomial_reference(c, k, x):
    """c x^k as the products (c x) x ... x; a constant as c + x*0."""
    if k == 0:
        return c + x * 0
    acc = c * x
    for _ in range(k - 1):
        acc = acc * x
    return acc


def assert_same(out, ref):
    assert np.ndim(out) == np.ndim(ref)
    assert np.array_equal(out, ref, equal_nan=True)


class TestEvaluatorsBitIdentical:
    @settings(max_examples=300, deadline=None)
    @given(t=inputs)
    def test_bump(self, t):
        assert_same(bump(t), bump_reference(t))
        assert_same(bump_deriv(t), bump_deriv_reference(t))

    @settings(max_examples=200, deadline=None)
    @given(x=inputs, q=st.integers(min_value=0, max_value=7))
    def test_mollifier_fn_and_dfn(self, x, q):
        fn, dfn = _parametric_eval(COEFFS[q], 0.0, 1.0)
        assert_same(fn(x), horner_reference(COEFFS[q], 0.0, 1.0, x))
        assert_same(dfn(x), horner_deriv_reference(COEFFS[q], 0.0, 1.0, x))

    @settings(max_examples=200, deadline=None)
    @given(x=finite_lines, name=st.sampled_from(sorted(POLYNOMIALS)))
    def test_poly_chain_matches_polyval(self, x, name):
        """Every polynomial link of a density's derivative chain, at every
        finite input.  Equal as values: polyval's additions of zero turn
        -0.0 into 0.0, which the products keep."""
        c = np.asarray(POLYNOMIALS[name])
        links = SMOOTH_CHAINS[name][:-1]  # the last link is the zero function
        assert len(links) == len(c)
        with np.errstate(invalid="ignore", over="ignore"):
            for f in links:
                assert_same(f(x), np.polynomial.polynomial.polyval(x, c))
                c = c[1:] * np.arange(1, len(c))

    @settings(max_examples=200, deadline=None)
    @given(x=lines, name=st.sampled_from(sorted(DEGREES)))
    def test_poly_chain_links_are_products(self, x, name):
        """Link j of x^k is k!/(k-j)! x^(k-j) as left-to-right products, bit
        for bit and at every input, on floats, 0-d and 1-d arrays alike,
        leaving the input as it was; the last link is zero."""
        k = DEGREES[name]
        chain = SMOOTH_CHAINS[name]
        assert len(chain) == k + 2
        given_x = x.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            for j, f in enumerate(chain[:-1]):
                out = f(x)
                ref = monomial_reference(math.perm(k, j) * 1.0, k - j, x)
                assert_same(out, ref)
                assert np.array_equal(np.signbit(out), np.signbit(ref))
                assert_same(x, given_x)
                for v, want in zip(np.ravel(x), np.ravel(ref)):
                    for arg in (float(v), np.asarray(v)):
                        got = f(arg)
                        assert np.ndim(got) == 0
                        assert np.array_equal(got, want, equal_nan=True)
                        assert np.signbit(got) == np.signbit(want)
        assert_same(chain[-1](x), np.zeros_like(x))

    @pytest.mark.parametrize("name", sorted(DEGREES))
    def test_poly_chain_at_nan_and_inf(self, name):
        """nan stays nan; +-inf gives the product's infinity, where
        polyval's c + x*0 start gives nan; a constant link is nan there."""
        k = DEGREES[name]
        x = np.array([np.nan, np.inf, -np.inf])
        with np.errstate(invalid="ignore"):
            for j, f in enumerate(SMOOTH_CHAINS[name][:-1]):
                d = k - j
                want = [np.nan, np.nan, np.nan] if d == 0 else \
                    [np.nan, np.inf, np.inf if d % 2 == 0 else -np.inf]
                assert_same(f(x), np.array(want))

    @pytest.mark.parametrize("q", range(8))
    def test_support_grid_of_offset_member(self, q):
        fn, dfn = _parametric_eval(COEFFS[q], 0.15, 0.8)
        pts, _ = support_grid(TestFunction(0.15, 0.8, fn), DEFAULT_NODES)
        np.testing.assert_array_equal(
            fn(pts), horner_reference(COEFFS[q], 0.15, 0.8, pts))
        np.testing.assert_array_equal(
            dfn(pts), horner_deriv_reference(COEFFS[q], 0.15, 0.8, pts))


def fresh_member():
    return scale(build_mollifier(2, radius=0.9, center=0.1), 0.25)


class TestSharedSamples:
    def test_association_probe_evaluates_each_base_once_per_member(self):
        """A full-path member is built again at every (eps, x), always over
        the same support; its terms are evaluated once, for all points."""
        calls = {"base": [], "other": []}

        def counted(tf, tag):
            inner = tf.fn

            def fn(p):
                calls[tag].append(np.size(p))
                return inner(p)

            tf.fn = fn
            return tf

        base = counted(build_mollifier(2, radius=0.9, center=0.1), "base")
        other = counted(build_mollifier(2, radius=1.1, center=-0.05), "other")

        def member(eps, x):
            w = 0.5 + 0.4 * np.sin(1.3 * x + 0.2)
            return tf_lincomb([w, 1.0 - w], [base, other])

        path = MemberPath(member, 1.15, "counted")
        ix = embed_C(smooth_density("x"), omega=OMEGA)
        ix2 = embed_C(smooth_density("x2"), omega=OMEGA)
        [[values]] = probed_tables(sub(mul(ix, ix), ix2), path, SMALL)
        assert calls == {"base": [DEFAULT_NODES + 1],
                         "other": [DEFAULT_NODES + 1]}
        # the gap vanishes on strict A_2 members up to rounding
        assert np.max(values) <= 1e-12

    def test_smooth_sweep_pairs_at_a_shift(self, monkeypatch):
        """embed_C of a smooth density pairs at the probe's shift: probing
        full-path members point by point builds no translated function and
        makes one pair_row call per point, on the member read from its
        frame."""
        translated, paired, built = [], [], []
        count_calls(monkeypatch, translate, translated)
        count_calls(monkeypatch, pair_row, paired)
        base = build_mollifier(2, radius=0.9, center=0.1)
        other = build_mollifier(2, radius=1.1, center=-0.05)

        def member(eps, x):
            built.append((eps, x))
            w = 0.5 + 0.4 * np.sin(1.3 * x + 0.2)
            return tf_lincomb([w, 1.0 - w], [base, other])

        path = MemberPath(member, 1.15, "counted")
        w = smooth_density("x4")
        probed_tables(embed_C(w, omega=OMEGA), path, SMALL)
        points = len(SMALL.eps) * len(SMALL.K)
        assert len(built) == points
        assert translated == []
        assert [args[0] for args in paired] == [w] * points

    def test_missed_dirac_evaluates_and_translates_nothing(self,
                                                         monkeypatch):
        """embed_C of delta probed on full-path members point by point: the
        terms are evaluated only at points whose shifted box holds 0,
        elsewhere the pairing is +0.0, and no translate is built at any
        point."""
        spec = dataclasses.replace(SMALL, K=np.linspace(-1, 1, 9))
        base = build_mollifier(2, radius=0.9, center=0.1)
        other = build_mollifier(2, radius=1.1, center=-0.05)

        def member(eps, x):
            w = 0.5 + 0.4 * np.sin(1.3 * x + 0.2)
            return tf_lincomb([w, 1.0 - w], [base, other])

        hits = []
        for eps in spec.eps:
            for x in spec.K:
                lo, hi = translate(scale(member(eps, x), eps), x).box
                if lo <= 0.0 <= hi:
                    hits.append((eps, x))
        assert 0 < len(hits) < len(spec.eps) * len(spec.K)
        evaluated, translated = [], []
        for tf in (base, other):
            inner = tf.fn
            tf.fn = lambda p, inner=inner: evaluated.append(p) or inner(p)
        count_calls(monkeypatch, translate, translated)
        path = MemberPath(member, 1.15, "counted")
        [[values]] = probed_tables(embed_C(DiracDerivative(0), omega=OMEGA),
                                   path, spec)
        assert len(evaluated) == 2 * len(hits)
        assert translated == []
        assert np.all(values > 0.0)

    def test_heaviside_over_the_whole_box_reads_cached_samples(self,
                                                              monkeypatch):
        """A Heaviside pairing whose shifted box lies in x > 0 sums the
        base's cached samples: a freshly built full-path member, over the
        support its terms were sampled on, builds no grid and no translate
        and evaluates no term."""
        base = build_mollifier(2, radius=0.9, center=0.1)
        other = build_mollifier(2, radius=1.1, center=-0.05)

        def member(x):
            w = 0.5 + 0.4 * np.sin(1.3 * x + 0.2)
            return tf_lincomb([w, 1.0 - w], [base, other])

        eps, x = 0.25, 1.5  # the box is x + eps * [-1.15, 1.15]
        pair(Heaviside(), scale(member(0.5), eps), shift=0.5)  # samples terms
        phi = scale(member(x), eps)
        assert translate(phi, x).box[0] > 0.0
        gridded, translated, evaluated = [], [], []
        count_calls(monkeypatch, support_grid, gridded)
        count_calls(monkeypatch, translate, translated)
        for tf in (base, other):
            inner = tf.fn
            tf.fn = lambda p, inner=inner: evaluated.append(p) or inner(p)
        got = pair(Heaviside(), phi, shift=x)
        assert (gridded, translated, evaluated) == ([], [], [])
        assert got == pytest.approx(1.0, abs=1e-12)  # unit mass

    def test_square_evaluates_its_factor_once(self):
        """mul(ix, ix) in association: one evaluation per probe, squared."""
        ix = embed_C(smooth_density("x"), omega=OMEGA)
        calls, row = [], ix.row
        ix.row = lambda member, xs: calls.extend(xs) or row(member, xs)
        square = mul(ix, ix)
        for x in (-0.7, 0.0, 0.3):
            member = fresh_member()
            calls.clear()
            value = square(member, x)
            assert calls == [x]
            assert value == ix(fresh_member(), x) * ix(fresh_member(), x)

    def test_composite_probe_checks_the_domain_once(self, monkeypatch):
        """An embed-order or association probe tests U(Omega) once, and so
        does a composite of operands on different open sets: it lives on
        their intersection, and its operands skip their checks."""
        checks = []
        in_domain = Representative.in_domain

        def counted(rep, phi, x):
            checks.append(x)
            return in_domain(rep, phi, x)

        monkeypatch.setattr(Representative, "in_domain", counted)
        diff = sub(embed_C(smooth_density("sin"), omega=OMEGA),
                   embed_sigma(np.sin, omega=OMEGA))
        ix = embed_C(smooth_density("x"), omega=OMEGA)
        gap = sub(mul(ix, ix), embed_C(smooth_density("x2"), omega=OMEGA))
        mixed = sub(embed_C(smooth_density("sin"), omega=OMEGA),
                    embed_sigma(np.sin, omega=Box.interval(-9.0, 9.0)))
        for rep in (diff, gap, mixed):
            for x in (-0.7, 0.3):
                checks.clear()
                rep(fresh_member(), x)
                assert checks == [x]

    def test_other_node_count_is_sampled_again(self):
        """The pairing reads the base's samples on the base's own grid,
        once per node count, and keeps one moment list per node count,
        whatever the shift: <sin, base((. - x) / a) / a> = sin(x) C +
        cos(x) S, where C and S are the pairings of cos and sin at x = 0."""
        w, cos = smooth_density("sin"), smooth_density("cos")
        member = fresh_member()
        base, a, _ = member.frame
        calls, inner = [], base.fn
        base.fn = lambda p: calls.append(np.size(p)) or inner(p)
        for x, n in [(0.3, 1024), (-0.4, 1024), (0.3, 1024), (0.3, 2048)]:
            psi = translate(member, x)
            assert psi.frame == (base, a, x)
            C, S = pair(cos, member, n), pair(w, member, n)
            assert pair(w, psi, n) == math.sin(x) * C + math.cos(x) * S
            assert base._cache["grid"][0] == (base.center, base.radius, n)
        assert calls == [1024 + 1, 2048 + 1]
        assert list(base._cache) == ["grid", ("moments", 1024),
                                     ("moments", 2048)]

    def test_base_keeps_one_samples_entry_along_a_row(self):
        """A 41-point row evaluates the base once and caches one grid and
        one moment list."""
        rep = embed_C(smooth_density("sin"), omega=OMEGA)
        owner = fresh_member()
        base, a, _ = owner.frame
        calls = []
        inner = base.fn

        def counted(p):
            calls.append(np.size(p))
            return inner(p)

        base.fn = counted
        for x in np.linspace(-1.0, 1.0, 41):
            rep(owner, float(x))
        assert calls == [DEFAULT_NODES + 1]
        assert list(base._cache) == ["grid", ("moments", DEFAULT_NODES)]
        assert base._cache["grid"][0] == \
            (base.center, base.radius, DEFAULT_NODES)
        assert owner._cache == {}

    def test_samples_make_no_reference_cycle(self):
        """Dropping the owner frees it at once, without the cycle collector."""
        rep = embed_C(smooth_density("sin"), omega=OMEGA)
        owner = fresh_member()
        rep(owner, 0.2)
        ref = weakref.ref(owner)
        gc.disable()
        try:
            del owner
            assert ref() is None
        finally:
            gc.enable()

    def test_cached_grid_is_read_only(self):
        """The base's nodes, weights and samples, and a term's values on a
        combination's grid, are shared and cannot be written."""
        owner = fresh_member()
        pair(smooth_density("sin"), translate(owner, 0.1))
        term = build_mollifier(1, radius=0.7)
        combo = tf_lincomb([0.5, 0.5], [owner.frame[0], term])
        pair(smooth_density("sin"), translate(scale(combo, 0.5), 0.1))
        arrays_ = [*owner.frame[0].samples_on(owner.frame[0], DEFAULT_NODES),
                   *combo.samples_on(combo, DEFAULT_NODES),
                   term.samples_on(combo, DEFAULT_NODES)[2]]
        for arr in arrays_:
            with pytest.raises(ValueError):
                arr[0] = 0.0


def defects():
    """The embedding defects of sin and x^4, as embed-order sweeps them."""
    return tuple(sub(embed_C(smooth_density(f), omega=OMEGA),
                     embed_sigma(smooth_density(f).f, omega=OMEGA))
                 for f in ("sin", "x4"))


def count_calls(monkeypatch, original, log, owner=None):
    """Replace ``original`` at every gfn_lab binding site, or on ``owner``
    (a class, for a method) when given, by a wrapper that appends the tuple
    of its positional arguments to ``log``."""
    def wrapper(*args, **kwargs):
        log.append(args)
        return original(*args, **kwargs)

    if owner is not None:
        monkeypatch.setattr(owner, original.__name__, wrapper)
        return
    for name, mod in list(sys.modules.items()):
        if name.startswith("gfn_lab") and \
                vars(mod).get(original.__name__) is original:
            monkeypatch.setattr(mod, original.__name__, wrapper)


SMALL = SweepSpec(i_min=2, i_max=7, K=np.linspace(-1, 1, 5), alphas=(0,),
                  fit_window=4)


def assert_same_report(shared, alone):
    assert shared.N == alone.N and shared.passed == alone.passed
    assert [v.slope for v in shared.verdicts] == [v.slope for v in alone.verdicts]
    assert [v.intercept for v in shared.verdicts] == \
        [v.intercept for v in alone.verdicts]
    for s1, s2 in zip(shared.series, alone.series, strict=True):
        assert (s1.member_id, s1.alpha) == (s2.member_id, s2.alpha)
        np.testing.assert_array_equal(s1.values, s2.values)


LINCOMB_TERMS = [build_mollifier(2, radius=0.9, center=0.1),
                 build_mollifier(0, radius=1.1, center=-0.05),
                 build_mollifier(3, radius=0.7, center=0.2)]


class TestSmoothPairingBuffers:
    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=3),
           eps=st.sampled_from([1.0, 0.5, 0.3, 2.0**-6]),
           shift=st.floats(-1.0, 1.0), n=st.sampled_from([None, 256]))
    def test_every_chain_link_pairs_as_the_plain_expression(self, coeffs,
                                                             eps, shift, n):
        """Each link of every density chain, the x link that returns its
        argument and the constant links included, wrapped so that it
        declares no closed form, pairs a scaled and shifted lincomb to the
        one-line trapezoid sum, and leaves the shared nodes, weights and
        samples as they were."""
        psi = scale(tf_lincomb(coeffs, LINCOMB_TERMS[:len(coeffs)]), eps)
        base, a, b = translate(psi, shift).frame
        xi, wt, samples = base.samples_on(base, n or DEFAULT_NODES)
        shared = [v.copy() for v in (xi, wt, samples)]
        for chain in SMOOTH_CHAINS.values():
            for f in chain:
                opaque = SmoothDensity(lambda t, f=f: f(t))  # no closed form
                want = float(np.dot(wt, f(a * xi + b) * samples))
                assert pair(opaque, psi, n, shift=shift) == want
                for v, kept in zip((xi, wt, samples), shared):
                    assert np.array_equal(v, kept)


LEAVES = [*LINCOMB_TERMS, scale(build_mollifier(0), 0.6).derivative()]


@st.composite
def nested_lincombs(draw, depth=1):
    """A linear combination of scaled and shifted terms, some of them
    combinations themselves; no term narrower than 0.09 of its leaf, so
    that 32,768 panels of the member's grid resolve every term."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if depth and draw(st.booleans()):
            t = draw(nested_lincombs(depth - 1))
        else:
            t = draw(st.sampled_from(LEAVES))
        t = translate(scale(t, draw(st.floats(0.3, 1.0))),
                      draw(st.floats(-0.3, 0.3)))
        terms.append(t)
    coeffs = draw(st.lists(st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.1),
                           min_size=len(terms), max_size=len(terms)))
    return tf_lincomb(coeffs, terms)


class TestSmoothPairingByTerms:
    @settings(max_examples=40, deadline=None)
    @given(member=nested_lincombs(), eps=st.floats(2.0**-14, 1.0),
           x=st.floats(-2.0, 2.0), n=st.sampled_from([1024, DEFAULT_NODES]))
    def test_every_chain_link_pairs_by_addition_theorems(self, member, eps,
                                                         x, n):
        """Every link of every density chain pairs a framed nested
        combination within 1e-14 of the integrand's L1 norm of the member's
        own evaluator on 32,768 panels of its grid, in the member's
        coordinates; no combination's samples are read, only the terms'
        own.  The reference forms the argument eps xi + x in extended
        precision: rounded to ulp(x), it moves a sine or cosine near one of
        its zeros by more than the tolerance."""
        psi = translate(scale(member, eps), x)
        assert psi.frame == (member, eps, x)
        xi, wt = support_grid(member, 32768)
        v = member.fn(xi)
        arg = eps * xi.astype(np.longdouble) + x
        read = []
        with pytest.MonkeyPatch.context() as mp:
            count_calls(mp, TestFunction.samples_on, read, owner=TestFunction)
            for chain in SMOOTH_CHAINS.values():
                for f in chain:
                    integrand = f(arg) * v
                    l1 = np.dot(wt, np.abs(integrand))
                    got = pair(SmoothDensity(f), psi, n)
                    assert abs(got - np.dot(wt, integrand)) <= 1e-14 * l1
        assert all(args[0]._terms is None and args[1] is args[0]
                   for args in read)
        for leaf in LEAVES:  # a term's moments are moments_upto's
            m = leaf._cache.get(("moments", n))
            assert m is None or \
                np.array_equal(m, moments_upto(leaf, len(m) - 1, n))


class TestSharedMembers:
    def test_moderate_on_a_tuple_matches_separate_calls(self):
        bat = make_battery("full_path", 2, 2, seed=9, flavor="strict")
        r1, r2 = defects()
        shared = asy.test_moderate((r1, r2), bat, SMALL)
        assert len(shared) == 2
        assert_same_report(shared[0], asy.test_moderate(r1, bat, SMALL))
        assert_same_report(shared[1], asy.test_moderate(r2, bat, SMALL))

    def test_mixed_tuple_with_a_derivative_order(self):
        """Each representative keeps its own x-stencil when alpha > 0."""
        bat = make_battery("full_path", 0, 1, seed=21)
        spec = SweepSpec(i_min=2, i_max=6, K=np.linspace(-1, 1, 3),
                         alphas=(0, 1), fit_window=4)
        reps = (embed_C(DiracDerivative(0), omega=OMEGA),
                embed_sigma(np.sin, omega=OMEGA))
        shared = asy.sweep(reps, bat[0], spec)
        for rep, tables in zip(reps, shared, strict=True):
            for s1, s2 in zip(tables, asy.sweep(rep, bat[0], spec),
                              strict=True):
                np.testing.assert_array_equal(s1.values, s2.values)

    def test_negligible_on_a_tuple_matches_separate_calls(self):
        def factory(kind, q):
            flavor = "strict" if kind == "strict" else "cm"
            return make_battery("full_path", q, 1, seed=31 + q, flavor=flavor)

        def counted(rep, calls):  # rep, its rows' points recorded
            return Representative(
                lambda member, xs: calls.extend(xs) or rep.row(member, xs),
                linear=rep.linear, omega=rep.omega)

        # the zero representative has its witness at q = n and leaves the
        # search there; the delta embedding never has one and runs to q_max
        zero = Representative(lambda member, xs: np.zeros(len(xs)),
                              linear=True, omega=OMEGA)
        delta = embed_C(DiracDerivative(0), omega=OMEGA)
        shared_calls, alone_calls = [], []
        reps = tuple(counted(r, shared_calls) for r in (zero, delta))
        shared = asy.test_negligible(reps, [0, 1], SMALL, factory, q_max=3)
        for rep, report in zip((zero, delta), shared, strict=True):
            alone = asy.test_negligible(counted(rep, alone_calls), [0, 1],
                                        SMALL, factory, q_max=3)
            assert report.passed == alone.passed
            for n in (0, 1):
                assert report.entries[n].witness_q == alone.entries[n].witness_q
                assert report.entries[n].orders == alone.entries[n].orders
        assert [e.witness_q for e in shared[0].entries.values()] == [0, 1]
        assert [e.witness_q for e in shared[1].entries.values()] == [None, None]
        assert len(shared_calls) == len(alone_calls)


class TestSquaredMassFromSamples:
    """The squared-mass inner integrates every frame on its own support
    grid; its row reads the terms' cached samples."""

    @settings(max_examples=150, deadline=None)
    @given(i=st.integers(0, 20),
           kind=st.sampled_from(["mollifier", "perturbed", "scaled-perturbed",
                                 "full-path"]),
           q=st.integers(0, 4), radius=st.floats(0.3, 1.2),
           center=st.floats(-0.3, 0.3), t=st.floats(-1e-3, 1e-3),
           x=st.floats(-1.0, 1.0), seed=st.integers(0, 50),
           n=st.sampled_from([64, 1024, 2048, DEFAULT_NODES]),
           name=st.sampled_from(["identity", "sin-bend", "cubic"]))
    def test_dyadic_scale_equals_direct_quadrature(self, i, kind, q, radius,
                                                   center, t, x, seed, n,
                                                   name):
        """At eps = 2^-i the row over the unscaled terms' samples gives
        the bits of ``inner`` on the scaled member's own grid; so does the
        row of the inner pulled back along a map."""
        eps = 2.0 ** -i
        moll = build_mollifier(q, radius=radius, center=center)
        psi = perturbation_directions(1, seed)[0]
        coeffs, terms = [1.0, t], (moll, psi)
        if kind == "mollifier":
            phi, coeffs, terms = scale(moll, eps), [1.0], (moll,)
        elif kind == "perturbed":  # d_1's phi + t psi, both scaled
            phi = tf_lincomb([1.0, t], [scale(moll, eps), scale(psi, eps)])
        elif kind == "scaled-perturbed":
            phi = scale(tf_lincomb([1.0, t], [moll, psi]), eps)
        else:
            path = make_battery("full_path", q, 1, seed)[0]
            phi = scale(path(eps, x), eps)
            coeffs, terms = [w for w, in path.weights(eps, [x])], path.terms
        member = (np.array(coeffs)[:, None], terms, eps, 0.0)
        inner = asy.squared_mass_inner(n)
        assert inner.row(member, [x]) == [inner(phi, x)]
        pulled = inner.pulled(get_diffeo(name, OMEGA))
        assert pulled.row(member, [x]) == [pulled(phi, x)]

    def test_full_path_terms_once_across_log_abs_dx_rows(self):
        """The counterexample's first x-derivative sweeps a coefficient-form
        full path by the inner's row, at every eps and stencil point; each
        term is evaluated once, on the terms' shared grid."""
        calls = {"base": [], "other": []}

        def counted(tf, tag):
            inner = tf.fn

            def fn(p):
                calls[tag].append(np.size(p))
                return inner(p)

            tf.fn = fn
            return tf

        base = counted(build_mollifier(0, radius=0.9, center=0.1), "base")
        other = counted(build_mollifier(0, radius=1.1, center=-0.05), "other")

        def weights(eps, xs):
            w = [0.5 + 0.4 * math.sin(1.3 * x + 0.2) for x in xs]
            return [w, [1.0 - v for v in w]]

        path = TestObjectPath((base, other), weights, "counted")
        rep = ExpExpRepresentative(asy.squared_mass_inner(1024), omega=OMEGA)
        asy.sweep(rep, path, dataclasses.replace(SMALL, alphas=(1,)))
        assert calls == {"base": [1025], "other": [1025]}


def sweep_outcome(rep, path, spec):
    """The bytes of every table of the sweep, or the exception it raised
    with its message."""
    try:
        tables = asy.sweep(rep, path, spec)
    except (DomainError, FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(rep, tuple):
        tables = [t for per_rep in tables for t in per_rep]
    return [(t.member_id, t.alpha, t.values.tobytes()) for t in tables]


def d1_outcome(rep, battery, directions, k_max, spec):
    """The member ids and table bytes of d1_form_test, or the exception it
    raised with its message."""
    try:
        report = asy.d1_form_test(rep, battery, directions, k_max, spec)
    except (DomainError, FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)
    return [(s.member_id, s.values.tobytes()) for s in report.series]


def rows_catalog(omega, nan_above):
    """Representatives with a row, by name: every SMOOTH_CHAINS link
    embedded, sin on 256 panels, sigma of sin, a sigma that is NaN above
    ``nan_above``, the composites that embed-order and association sweep,
    a tuple of them, the delta, delta', delta'', the Heaviside and the
    difference of delta and the Heaviside, sin behind an opaque wrapper, the
    counterexample's log channel (a row at alpha = 1 only), a composite
    of operands on different open sets (it lives on their intersection),
    and the closed form pullbacks of delta off the origin, of the Heaviside (its cut moved
    to -1), sin, sigma of sin, the sin defect and the log channel."""
    links = {f"{name}[{j}]": embed_C(SmoothDensity(f), omega=omega)
             for name, chain in SMOOTH_CHAINS.items()
             for j, f in enumerate(chain)}
    ix = embed_C(smooth_density("x"), omega=omega, n=256)
    ix2 = embed_C(smooth_density("x2"), omega=omega, n=256)
    iota = {f: embed_C(smooth_density(f), omega=omega) for f in ("sin", "x4")}
    sigma = {f: embed_sigma(smooth_density(f).f, omega=omega)
             for f in ("sin", "x4")}
    gap = embed_sigma(lambda x: math.nan if x > nan_above else math.cos(x),
                      omega=omega)
    defect = {f: sub(iota[f], sigma[f]) for f in ("sin", "x4")}
    delta = embed_C(DiracDerivative(0), omega=omega)
    step = embed_C(Heaviside(), omega=omega)
    exp_exp = ExpExpRepresentative(asy.squared_mass_inner(1024), omega=omega)
    bend, shift = get_diffeo("sin-bend", omega), get_diffeo("shift-1", omega)
    return {
        "delta": delta,
        "heaviside": step,
        "delta-minus-H": sub(delta, step),
        "delta1": embed_C(DiracDerivative(1), omega=omega),
        "delta2": embed_C(DiracDerivative(2), omega=omega),
        "opaque-sin": embed_C(SmoothDensity(lambda t: np.sin(t)),
                              omega=omega, n=256),
        "exp-exp": exp_exp,
        **links,
        "sin@256": embed_C(smooth_density("sin"), omega=omega, n=256),
        "sigma-sin": embed_sigma(np.sin, omega=omega),
        "sigma-nan": gap,
        "defect-sin": defect["sin"],
        "defect-x4": defect["x4"],
        "association": sub(mul(ix, ix), ix2),
        "product": mul(iota["sin"], sigma["x4"]),
        "nan-product": mul(gap, iota["x4"]),
        "shared": (defect["sin"], defect["x4"], gap),
        "other-set": sub(iota["sin"],
                         embed_sigma(np.sin, omega=Box.interval(-9.0, 9.0))),
        "pulled-delta": pullback_rep(bend, embed_C(DiracDerivative(0, 0.3),
                                                   omega=omega)),
        "pulled-heaviside": pullback_rep(shift, step),
        "pulled-sin": pullback_rep(bend, iota["sin"]),
        "pulled-sigma-sin": pullback_rep(bend, sigma["sin"]),
        "pulled-defect-sin": pullback_rep(bend, defect["sin"]),
        "pulled-exp-exp": pullback_rep(bend, exp_exp),
    }


class TestPulledBackLogChannel:
    @pytest.mark.parametrize("name", ["sin-bend", "cubic"])
    def test_rows_run_without_the_transform(self, name, monkeypatch):
        """``pullback_rep`` of the squared-mass log channel sweeps a
        coefficient-form path at alphas (0, 1) by its pulled row; its
        tables are, bit for bit, those probed point by point, each member
        integrated by the pulled inner.  Neither calls the transform: both
        integrate in source coordinates (``TestPulledSquaredMass``
        compares them with the transform)."""
        calls = []
        make = basic_space.pullback_pair_transform

        def counted(mu):
            transform = make(mu)
            return lambda *args: calls.append(args) or transform(*args)

        monkeypatch.setattr(basic_space, "pullback_pair_transform", counted)
        rep = pullback_rep(get_diffeo(name, OMEGA), ExpExpRepresentative(
            asy.squared_mass_inner(1024), OMEGA))
        spec = dataclasses.replace(SMALL, K=np.linspace(-0.6, 0.6, 5),
                                   alphas=(0, 1))
        for path in make_battery("full_path", 0, 2, 7):
            rows = asy.sweep(rep, path, spec)
            [points] = probed_tables(rep, path, spec)
            assert calls == [] and np.isfinite(rows[1].values).all()
            for got, want in zip(rows, points, strict=True):
                assert got.values.tobytes() == want.tobytes()


class TestPulledEmbeddings:
    @pytest.mark.parametrize("name", ["sin-bend", "cubic"])
    def test_rows_run_without_the_transform(self, name, monkeypatch):
        """``pullback_rep`` of the delta's embedding sweeps a
        coefficient-form path at alphas (0, 1) by its row, with no member
        built and neither the transform nor the pulled test function
        called; probed point by point, the same members give its tables."""
        calls, built = [], []
        count_calls(monkeypatch, basic_space.pullback_pair_transform, calls)
        count_calls(monkeypatch, distributions.pullback_test_function, calls)
        count_calls(monkeypatch, TestObjectPath.__call__, built,
                    owner=TestObjectPath)
        rep = pullback_rep(get_diffeo(name, OMEGA),
                           embed_C(DiracDerivative(0), omega=OMEGA))
        spec = dataclasses.replace(SMALL, K=np.linspace(-0.6, 0.6, 5),
                                   alphas=(0, 1))
        for path in make_battery("full_path", 1, 2, 7):
            rows = asy.sweep(rep, path, spec)
            assert (calls, built) == ([], [])
            [points] = probed_tables(rep, path, spec)
            assert calls == [] and np.isfinite(rows[1].values).all()
            for got, want in zip(rows, points, strict=True):
                assert got.values.tobytes() == want.tobytes()
            built.clear()


class TestOneSweepSource:
    """A sweep reads rows only: a path not in coefficient form raises
    ``TypeError`` naming the representative and the path before any eps,
    with nothing paired and no member built.  Every representative has a
    row, so every representative sweeps a coefficient-form path."""

    @staticmethod
    def cases():
        path = make_battery("full_path", 1, 1, seed=5)[0]
        delta = embed_C(DiracDerivative(0), omega=OMEGA)
        return {
            "transformed-path": (delta, transform_test_object(
                get_diffeo("sin-bend", OMEGA), path)),
            "hand-built-path": (delta, MemberPath(
                lambda e, x: path(e, x), path.radius_bound, "by-hand")),
        }

    @pytest.mark.parametrize("name", list(cases()))
    @pytest.mark.parametrize("alphas", [(0,), (1,)])
    def test_no_row_raises_before_any_member(self, name, alphas,
                                             monkeypatch):
        rep, path = self.cases()[name]
        paired, built = [], []
        count_calls(monkeypatch, pair, paired)
        count_calls(monkeypatch, TestObjectPath.__call__, built,
                    owner=TestObjectPath)
        spec = dataclasses.replace(SMALL, alphas=alphas)
        with pytest.raises(TypeError) as got:
            asy.sweep(rep, path, spec)
        assert repr(rep) in str(got.value)
        assert repr(path.member_id) in str(got.value)
        assert (paired, built) == ([], [])
        # the same representative and path still probe point by point
        probed_tables(rep, path, spec)

    @pytest.mark.parametrize("name", ["embed_J", "translated", "hand-built"])
    @pytest.mark.parametrize("alphas", [(0,), (1,)])
    def test_any_rep_sweeps_by_row(self, name, alphas, monkeypatch):
        """A J-formalism embedding, the J translate of delta and a
        hand-built row sweep a coefficient-form path with no member built,
        to the tables and errors probed point by point."""
        path = make_battery("full_path", 1, 1, seed=5)[0]
        rep = {
            "embed_J": embed_J(DiracDerivative(0)),
            "translated": translate_formalism(
                embed_C(DiracDerivative(0), omega=OMEGA)),
            "hand-built": Representative(
                lambda member, xs: np.cos(np.array(xs)), omega=OMEGA),
        }[name]
        spec = dataclasses.replace(SMALL, alphas=alphas)
        built = []
        with monkeypatch.context() as mp:
            count_calls(mp, TestObjectPath.__call__, built,
                        owner=TestObjectPath)
            got = sweep_outcome(rep, path, spec)
        assert built == [] and isinstance(got, list)
        assert got == probed_outcome(rep, path, spec)


class TestCoefficientRows:
    """A coefficient-form path swept by representatives with a row pairs
    the whole row at once; every table, and every error with its message,
    is that of the sweep probed point by point by checked calls
    (``probed_outcome``)."""

    @settings(max_examples=200, deadline=None)
    @given(mode=st.sampled_from(["static", "eps_path", "full_path"]),
           flavor=st.sampled_from(["strict", "cm", "mixed", "symmetric"]),
           q=st.integers(0, 3), seed=st.integers(0, 2**16),
           index=st.integers(0, 2), k=st.integers(1, 7),
           half=st.sampled_from([2.5, 1.6, 1.3, 1.1, 1.02, 1.0]),
           nan_above=st.sampled_from([math.inf, 0.6, -0.2, -0.95]),
           name=st.sampled_from(list(rows_catalog(OMEGA, 0.0))),
           alphas=st.sampled_from([(0,), (1,), (0, 1), (2,), (3,)]))
    # boxes in x < 0, straddling 0 and in x > 0 on every row
    @example(mode="full_path", flavor="cm", q=1, seed=3, index=1, k=7,
             half=2.5, nan_above=math.inf, name="heaviside", alphas=(0, 1))
    @example(mode="eps_path", flavor="mixed", q=2, seed=4, index=2, k=7,
             half=1.6, nan_above=math.inf, name="delta-minus-H", alphas=(2,))
    @example(mode="full_path", flavor="mixed", q=0, seed=5, index=0, k=7,
             half=2.5, nan_above=math.inf, name="delta", alphas=(1,))
    @example(mode="full_path", flavor="mixed", q=0, seed=6, index=1, k=5,
             half=1.6, nan_above=math.inf, name="exp-exp", alphas=(1,))
    @example(mode="full_path", flavor="strict", q=2, seed=7, index=2, k=4,
             half=1.1, nan_above=math.inf, name="heaviside", alphas=(1,))
    def test_row_tables_are_the_point_by_point_tables(
            self, mode, flavor, q, seed, index, k, half, nan_above, name,
            alphas):
        """Random battery members, every SMOOTH_CHAINS link, the delta, the
        Heaviside, the log channel and the swept composites, at orders 0 to
        3; an open set of half-width ``half`` that K = [-1, 1] may leave or
        touch, and a sigma that may turn NaN at some point."""
        path = make_battery(mode, q, 3, seed, flavor=flavor)[index]
        rep = rows_catalog(Box.interval(-half, half), nan_above)[name]
        spec = dataclasses.replace(SMALL, K=np.linspace(-1, 1, k),
                                   alphas=alphas)
        built = []
        with pytest.MonkeyPatch.context() as mp:
            count_calls(mp, TestObjectPath.__call__, built,
                        owner=TestObjectPath)
            got = sweep_outcome(rep, path, spec)
        want = probed_outcome(rep, path, spec)
        assert got == want
        assert built == []  # every row at once, errors included
        # the first row leaves the catalog's own set, which a pulled
        # representative trades for its preimage (no log-channel check)
        if half <= 1.1 and "exp-exp" not in name \
                and not name.startswith("pulled-"):
            assert got[0] is DomainError

    @settings(max_examples=100, deadline=None)
    @given(q=st.integers(0, 2), seed=st.integers(0, 2**16),
           count=st.integers(1, 3), index=st.integers(0, 2),
           k=st.integers(1, 5), k_max=st.integers(0, 2),
           n_dirs=st.integers(1, 2),
           lo=st.sampled_from([2.5, 1.6, 1.3, 1.2, 1.1, 1.02, 1.0]),
           hi=st.sampled_from([2.5, 1.6, 1.3, 1.2, 1.1, 1.02, 1.0]),
           nan_above=st.sampled_from([math.inf, 0.6, -0.2, -0.95]),
           cut=st.sampled_from([None, (-1.0, 2), (0.0, 4), (0.6, 6)]),
           name=st.sampled_from(["delta", "heaviside", "sin[0]", "sin@256",
                                 "sigma-sin", "sigma-nan", "exp-exp"]))
    @example(q=0, seed=6, count=2, index=1, k=5, k_max=2, n_dirs=2, lo=2.5,
             hi=2.5, nan_above=math.inf, cut=(0.0, 4), name="exp-exp")
    # a direction leaves (-1.3, hi) at x = -1 and the member first at x = 1
    @example(q=0, seed=10, count=1, index=0, k=5, k_max=1, n_dirs=2, lo=1.3,
             hi=1.02, nan_above=math.inf, cut=None, name="delta")
    # the directions widen sigma's box beyond the member's
    @example(q=0, seed=14513, count=1, index=0, k=1, k_max=1, n_dirs=1,
             lo=1.3, hi=2.5, nan_above=math.inf, cut=None, name="sigma-sin")
    def test_d1_tables_are_the_point_by_point_tables(
            self, q, seed, count, index, k, k_max, n_dirs, lo, hi, nan_above,
            cut, name):
        """d1_form_test's tables, error type and message are those of the
        d_1 probe run point by point (``probed_d1_outcome``): linear and
        phi-independent representatives, a sigma that may turn NaN and the
        log channel, with up to two directions, an open set (-lo, hi) that
        K may leave at either end, and, on one member, a partial domain
        that rejects x >= a cut from eps = 2^-i on."""
        battery = make_battery("static", q, count, seed)
        if cut is not None and index < count:
            x0, i0 = cut
            battery[index] = with_domain(battery[index], PartialDomain(
                lambda e, x: x < x0 or e < 2.0**-i0))
        dirs = perturbation_directions(n_dirs, seed + 1)
        rep = rows_catalog(Box.interval(-lo, hi), nan_above)[name]
        spec = dataclasses.replace(SMALL, K=np.linspace(-1, 1, k))
        assert d1_outcome(rep, battery, dirs, k_max, spec) == \
            probed_d1_outcome(rep, battery, dirs, k_max, spec)

    def test_heaviside_rows_cover_every_kind_of_box(self):
        """The Heaviside example above meets boxes in x < 0, boxes that
        straddle 0 and boxes in x > 0 on every row of its sweep."""
        path = make_battery("full_path", 1, 3, 3, flavor="cm")[1]
        c, r = union_box(path.terms)
        for eps in SMALL.eps:
            lo = c * eps + np.linspace(-1, 1, 7) - r * eps
            hi = lo + 2 * r * eps
            assert (hi <= 0).any() and (lo >= 0).any()
            assert ((lo < 0) & (hi > 0)).any()

    @pytest.mark.parametrize("name", ["delta", "heaviside", "sigma-sin",
                                      "defect-sin"])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_steps_shrink_at_the_ends_of_K(self, name, alpha):
        """Narrow terms on an open set just past K: the ends of K take a
        shrunk step, as in partial_x, and the derivative rows keep the
        tables probed point by point, with no member built."""
        terms = (build_mollifier(1, radius=0.002, center=0.0002),
                 build_mollifier(0, radius=0.0015, center=-0.0001))
        path = TestObjectPath(
            terms, lambda e, xs: [[0.5 + 0.1 * x for x in xs],
                                  [0.5 - 0.1 * x for x in xs]], "narrow")
        half = 1.0015
        rep = rows_catalog(Box.interval(-half, half), math.inf)[name]
        spec = dataclasses.replace(SMALL, alphas=(alpha,))
        h = spec.eps[0] * asy.H_FACTOR
        hw = asy.stencil_halfwidth(alpha)
        assert hw * h >= half - 1.0  # the first row's ends shrink
        built = []
        with pytest.MonkeyPatch.context() as mp:
            count_calls(mp, TestObjectPath.__call__, built,
                        owner=TestObjectPath)
            got = sweep_outcome(rep, path, spec)
        assert isinstance(got, list) and built == []
        assert got == probed_outcome(rep, path, spec)

    def test_closed_form_sweep_builds_no_member(self, monkeypatch):
        """embed-order's defects over a battery path build no member and no
        combination, and call no representative, checked or not: U(Omega)
        is checked as arrays, and the rows read the terms; neither does
        delta or delta'."""
        built, combined, called, evaluated = [], [], [], []
        count_calls(monkeypatch, TestObjectPath.__call__, built,
                    owner=TestObjectPath)
        count_calls(monkeypatch, tf_lincomb, combined)
        count_calls(monkeypatch, Representative.__call__, called,
                    owner=Representative)
        path = make_battery("full_path", 2, 2, seed=9, flavor="mixed")[1]
        assert len(path.terms) == 3
        count_calls(monkeypatch, _value_at, evaluated)  # one-member rows
        reps = defects()
        asy.sweep(reps, path, SMALL)
        for k in (0, 1):
            asy.sweep(embed_C(DiracDerivative(k), omega=OMEGA), path, SMALL)
        assert (built, combined, called, evaluated) == ([], [], [], [])

    def test_d1_form_moderate_sweep_builds_no_member(self, monkeypatch):
        """d1-form's moderate test of iota-sin sweeps alpha 0 and 1 over
        full-path members: both orders are rows, with no member built."""
        built = []
        count_calls(monkeypatch, TestObjectPath.__call__, built,
                    owner=TestObjectPath)
        battery = make_battery("full_path", 0, 2, 14)
        rep = embed_C(smooth_density("sin"), omega=OMEGA)
        report = asy.test_moderate(
            rep, battery, dataclasses.replace(SMALL, alphas=(0, 1)))
        assert [s.alpha for s in report.series] == [0, 1, 0, 1]
        assert built == []

    def test_row_leaves_the_shared_caches_as_a_point_would(self):
        """The (C, S) sums and moments a row caches in each term are those
        that probing the same members point by point caches."""
        caches = []
        for run in (asy.sweep, probed_tables):
            path = make_battery("full_path", 1, 1, seed=5, flavor="cm")[0]
            run(defects(), path, SMALL)
            caches.append([{k: [np.asarray(v).tobytes() for v in vals]
                            for k, vals in t._cache.items() if k != "grid"}
                           for t in path.terms])
        assert caches[0] == caches[1]
