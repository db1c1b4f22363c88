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

from gfn_lab import asymptotics as asy, numdiff
from gfn_lab.asymptotics import SweepSpec
from gfn_lab.basic_space import (ExpExpRepresentative, Representative,
                                 embed_C, embed_sigma, mul, sub)
from gfn_lab.distributions import (SMOOTH_CHAINS, DiracDerivative, Heaviside,
                                   SmoothDensity, pair, smooth_density)
from gfn_lab.test_objects import (TestObjectPath, make_battery,
                                  perturbation_directions)
from gfn_lab.testfunc import (DEFAULT_NODES, Box, DomainError, TestFunction,
                              build_mollifier, bump, bump_deriv,
                              moments_upto, scale, support_grid, tf_lincomb,
                              translate, union_box)

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


MOLLIFIERS = [build_mollifier(q) for q in range(8)]

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
        m = MOLLIFIERS[q]
        assert_same(m.fn(x), horner_reference(m.coeffs, 0.0, 1.0, x))
        assert_same(m.dfn(x), horner_deriv_reference(m.coeffs, 0.0, 1.0, x))

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
        m = build_mollifier(q, radius=0.8, center=0.15)
        pts, _ = support_grid(m, DEFAULT_NODES)
        np.testing.assert_array_equal(
            m.fn(pts), horner_reference(m.coeffs, 0.15, 0.8, pts))
        np.testing.assert_array_equal(
            m.dfn(pts), horner_deriv_reference(m.coeffs, 0.15, 0.8, pts))


def fresh_member():
    return scale(build_mollifier(2, radius=0.9, center=0.1), 0.25)


class TestSharedSamples:
    def test_association_probe_evaluates_each_base_once_per_member(self):
        """A full-path member is built again at every (eps, x), always over
        the same support; its terms are evaluated once for the whole sweep."""
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

        path = TestObjectPath(member, 1.15, "counted")
        ix = embed_C(smooth_density("x"), omega=OMEGA)
        ix2 = embed_C(smooth_density("x2"), omega=OMEGA)
        tables = asy.sweep(sub(mul(ix, ix), ix2), path, SMALL)
        assert calls == {"base": [DEFAULT_NODES + 1],
                         "other": [DEFAULT_NODES + 1]}
        # the gap vanishes on strict A_2 members up to rounding
        assert np.max(tables[0].values) <= 1e-12

    def test_smooth_sweep_pairs_at_a_shift(self, monkeypatch):
        """embed_C of a smooth density pairs at the probe's shift: a sweep
        over a full-path member builds no translated function and makes
        one pair call per point."""
        translated, paired, built = [], [], []
        count_calls(monkeypatch, translate, translated)
        count_calls(monkeypatch, pair, paired)
        base = build_mollifier(2, radius=0.9, center=0.1)
        other = build_mollifier(2, radius=1.1, center=-0.05)

        def member(eps, x):
            built.append((eps, x))
            w = 0.5 + 0.4 * np.sin(1.3 * x + 0.2)
            return tf_lincomb([w, 1.0 - w], [base, other])

        path = TestObjectPath(member, 1.15, "counted")
        w = smooth_density("x4")
        asy.sweep(embed_C(w, omega=OMEGA), path, SMALL)
        points = len(SMALL.eps) * len(SMALL.K)
        assert len(built) == points
        assert translated == []
        assert [args[0] for args in paired] == [w] * points

    def test_missed_dirac_evaluates_and_translates_nothing(self,
                                                         monkeypatch):
        """embed_C of delta over a full-path member: the terms are evaluated,
        and a translate is built, only at points whose shifted box holds 0;
        elsewhere the pairing is +0.0."""
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
        path = TestObjectPath(member, 1.15, "counted")
        tables = asy.sweep(embed_C(DiracDerivative(0), omega=OMEGA), path,
                           spec)
        assert len(evaluated) == 2 * len(hits)
        assert [x for _, x in hits if x != 0.0] == \
            [args[1] for args in translated]
        assert np.all(tables[0].values > 0.0)

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
        calls = []
        inner = ix.eval_fn

        def counted(phi, x):
            calls.append(x)
            return inner(phi, x)

        ix.eval_fn = counted
        square = mul(ix, ix)
        for x in (-0.7, 0.0, 0.3):
            member = fresh_member()
            calls.clear()
            value = square(member, x)
            assert calls == [x]
            assert value == ix(fresh_member(), x) * ix(fresh_member(), x)

    def test_composite_probe_checks_the_domain_once(self, monkeypatch):
        """An embed-order or association probe tests U(Omega) once: the
        operands on the composite's own open set skip their checks."""
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
        for rep in (diff, gap):
            for x in (-0.7, 0.3):
                checks.clear()
                rep(fresh_member(), x)
                assert checks == [x]

    def test_other_node_count_is_sampled_again(self):
        """The pairing reads the base's samples on the base's own grid,
        once per node count, and keeps one (C, S) pair per (scale, offset,
        node count): <sin, base((. - x) / a) / a> = sin(x) C + cos(x) S."""
        w = smooth_density("sin")
        member = fresh_member()
        base, a, _ = member.frame
        for x, n in [(0.3, 1024), (-0.4, 1024), (0.3, 1024), (0.3, 2048)]:
            psi = translate(member, x)
            assert psi.frame == (base, a, x)
            xi, wt = support_grid(base, n)
            v = base.fn(xi)
            C = np.dot(wt, np.cos(a * xi) * v)
            S = np.dot(wt, np.sin(a * xi) * v)
            assert pair(w, psi, n) == math.sin(x) * C + math.cos(x) * S
            assert base._cache["grid"][0] == (base.center, base.radius, n)
        assert list(base._cache) == ["grid", ("trig", a, 0.0, 1024),
                                     ("trig", a, 0.0, 2048)]

    def test_base_keeps_one_samples_entry_along_a_row(self):
        """A 41-point row evaluates the base once and caches one grid and
        one (C, S) pair."""
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
        assert list(base._cache) == ["grid",
                                     ("trig", a, 0.0, DEFAULT_NODES)]
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

        def counted(rep, calls):
            def ev(phi, x):
                calls.append(x)
                return rep(phi, x)

            return Representative(ev, linear=rep.linear, omega=rep.omega)

        # the zero representative has its witness at q = n and leaves the
        # search there; the delta embedding never has one and runs to q_max
        zero = Representative(lambda phi, x: 0.0, linear=True, omega=OMEGA)
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


def squared_mass_direct(phi, n):
    """The quadrature of |phi|^2 on phi's own support grid."""
    pts, w = support_grid(phi, n)
    return float(np.dot(w, np.abs(phi.fn(pts)) ** 2))


class TestSquaredMassFromSamples:
    """The squared-mass inner reads a dyadic rescale of an untranslated
    function from the base's cached samples, bit for bit the quadrature on
    the scaled support; every other frame is integrated directly."""

    @settings(max_examples=150, deadline=None)
    @given(i=st.integers(0, 20),
           kind=st.sampled_from(["mollifier", "perturbed", "scaled-perturbed",
                                 "full-path"]),
           q=st.integers(0, 4), radius=st.floats(0.3, 1.2),
           center=st.floats(-0.3, 0.3), t=st.floats(-1e-3, 1e-3),
           x=st.floats(-1.0, 1.0), seed=st.integers(0, 50),
           n=st.sampled_from([64, 1024, 2048, DEFAULT_NODES]))
    def test_dyadic_scale_equals_direct_quadrature(self, i, kind, q, radius,
                                                   center, t, x, seed, n):
        eps = 2.0 ** -i
        moll = build_mollifier(q, radius=radius, center=center)
        psi = perturbation_directions(1, seed)[0]
        if kind == "mollifier":
            phi = scale(moll, eps)
        elif kind == "perturbed":  # d_1's phi + t psi, both scaled
            phi = tf_lincomb([1.0, t], [scale(moll, eps), scale(psi, eps)])
        elif kind == "scaled-perturbed":
            phi = scale(tf_lincomb([1.0, t], [moll, psi]), eps)
        else:
            phi = scale(make_battery("full_path", q, 1, seed)[0](eps, x), eps)
        base, a, b = phi.frame
        assert (a, b) in ((eps, 0.0), (1.0, 0.0))
        got = asy.squared_mass_inner(n)(phi, x)
        assert base._cache["grid"][0] == \
            (base.center, base.radius, n)
        assert got == squared_mass_direct(phi, n)

    def test_other_frames_are_integrated_directly(self):
        from gfn_lab.basic_space import pullback_pair_transform
        from gfn_lab.diffeo import get_diffeo

        moll = build_mollifier(2, radius=0.9, center=0.1)
        chi, _ = pullback_pair_transform(get_diffeo("sin-bend", OMEGA))(
            scale(moll, 0.25), 0.4)
        for phi in (translate(scale(moll, 0.25), 0.3), scale(moll, 0.3),
                    scale(moll, 0.75), scale(translate(moll, 0.2), 0.5),
                    chi):
            base = phi.frame[0]
            read = []
            base.samples_on = lambda *args, read=read: read.append(args)
            assert asy.squared_mass_inner(1024)(phi, 0.0) == \
                squared_mass_direct(phi, 1024)
            assert read == []
            del base.samples_on

    def test_full_path_terms_once_across_log_abs_dx_rows(self):
        """The counterexample's first x-derivative sweeps a full-path member
        built again at every stencil point; each term is evaluated once."""
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

        def member(eps, x):
            w = 0.5 + 0.4 * np.sin(1.3 * x + 0.2)
            return tf_lincomb([w, 1.0 - w], [base, other])

        path = TestObjectPath(member, 1.15, "counted")
        rep = ExpExpRepresentative(asy.squared_mass_inner(1024), omega=OMEGA)
        asy.sweep(rep, path, dataclasses.replace(SMALL, alphas=(1,)))
        assert calls == {"base": [1025], "other": [1025]}


def opaque(path):
    """The same members behind an opaque ``fn``: a sweep builds each one."""
    return TestObjectPath(lambda e, x: path(e, x), path.radius_bound,
                          path.member_id)


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


def probed_magnitude(rep, path, eps, x, alpha):
    """|d^alpha/dx^alpha rep(S_eps path(eps, x), x)| at one point by checked
    calls: rep(member, x); central differences of them at partial_x's
    step, shrunk near the boundary of Omega; or, for a log channel, 0 at
    alpha = 0 (the member at x checked) and log_abs_dx in log2 over the
    checked inner functional at alpha = 1."""
    def member(y):
        return scale(path(eps, y), eps)

    h = eps * asy.H_FACTOR
    if rep.has_log_channel:
        if alpha == 0:
            if rep.omega is not None:
                rep.check_domain(member(x), x)
            return 0.0

        def section(y):
            phi = member(y)
            rep.check_domain(phi, y)
            return rep.inner(phi, y)

        return rep.log_abs_dx(section, x, h) / asy.LN2
    if alpha == 0:
        return abs(rep(member(x), x))
    if rep.omega is not None:
        dist = rep.omega.distance_to_boundary(x)
        if dist <= 0:
            raise DomainError(f"derivative point x={x} outside Omega")
        hw = numdiff.stencil_halfwidth(alpha)
        if hw * h >= dist:
            h = 0.5 * dist / hw
    return abs(numdiff.central_difference(lambda y: rep(member(y), y), x,
                                          alpha, h))


def probed_outcome(rep, path, spec):
    """``sweep_outcome`` of a sweep probed point by point: at each (eps, x)
    in order, the partial domain, then each representative's checked
    magnitude, then a NaN among them; the sup over K per row."""
    reps = rep if isinstance(rep, tuple) else (rep,)
    who = path.member_id
    tables = [[] for _ in reps]
    try:
        for alpha in spec.alphas:
            if alpha > 1 and any(r.has_log_channel for r in reps):
                raise ValueError(
                    "log-channel sweeps support first x-derivatives only")
            rows = []
            for eps in spec.eps.tolist():
                mags = []
                for x in spec.K.tolist():
                    if path.domain is not None and \
                            not path.domain.contains(eps, x):
                        raise DomainError(
                            f"sweep point (eps={eps:g}, x={x:g}) outside the "
                            f"partial domain of {who!r} (eps0 too large?)")
                    mags.append([probed_magnitude(r, path, eps, x, alpha)
                                 for r in reps])
                    if any(math.isnan(v) for v in mags[-1]):
                        raise FloatingPointError(
                            f"probe returned NaN at (eps={eps:g}, x={x:g}) "
                            f"for {who!r}")
                rows.append([max(col) for col in zip(*mags)])
            for table, values in zip(tables, zip(*rows)):
                table.append((who, alpha, np.array(values).tobytes()))
    except (DomainError, FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)
    return [t for per_rep in tables for t in per_rep]


def rows_catalog(omega, nan_above):
    """Representatives with a row, by name: every SMOOTH_CHAINS link
    embedded, sin on 256 panels, sigma of sin, a sigma that is NaN above
    ``nan_above``, the composites that embed-order and association sweep,
    a tuple of them, the delta, the Heaviside and their difference, the
    counterexample's log channel (a row at alpha = 1 only), and a
    composite whose operand keeps its own open set (it has no row)."""
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
    return {
        "delta": delta,
        "heaviside": step,
        "delta-minus-H": sub(delta, step),
        "exp-exp": ExpExpRepresentative(asy.squared_mass_inner(1024),
                                        omega=omega),
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
    }


class TestCoefficientRows:
    """A coefficient-form path swept by representatives with a row pairs
    the whole row at once; every table, and every error with its message,
    is that of the sweep probed point by point by checked calls
    (``probed_outcome``), and so are those of the same members behind an
    opaque fn."""

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
        assert sweep_outcome(rep, opaque(path), spec) == want
        if mode != "static" and name != "other-set":
            assert built == []  # every row at once, errors included
        if half <= 1.1 and name != "exp-exp":  # the first row leaves
            assert got[0] is DomainError       # (no log-channel check)

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
            None, 0.0022, "narrow", terms=terms,
            weights=lambda e, xs: [[0.5 + 0.1 * x for x in xs],
                                   [0.5 - 0.1 * x for x in xs]])
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
        assert got == probed_outcome(rep, path, spec) \
            == sweep_outcome(rep, opaque(path), spec)

    def test_closed_form_sweep_builds_no_member(self, monkeypatch):
        """embed-order's defects, and the delta, over a battery path build
        no member, no combination and call no representative; the same
        members behind an opaque fn, or delta', are built once per point,
        and each defect evaluates each once, unchecked: U(Omega) is
        checked as arrays, so no checked call is made."""
        built, combined, called, evaluated = [], [], [], []
        count_calls(monkeypatch, TestObjectPath.__call__, built,
                    owner=TestObjectPath)
        count_calls(monkeypatch, tf_lincomb, combined)
        count_calls(monkeypatch, Representative.__call__, called,
                    owner=Representative)
        path = make_battery("full_path", 2, 2, seed=9, flavor="mixed")[1]
        assert len(path.terms) == 3
        reps = defects()
        for r in reps:
            r.eval_fn = (lambda phi, x, f=r.eval_fn:
                         evaluated.append(x) or f(phi, x))
        asy.sweep(reps, path, SMALL)
        assert (built, combined, called, evaluated) == ([], [], [], [])
        points = len(SMALL.eps) * len(SMALL.K)
        asy.sweep(reps, opaque(path), SMALL)
        assert sum(args[0] is path for args in built) == points
        assert len(combined) == points and len(evaluated) == 2 * points
        assert called == []
        built.clear()
        asy.sweep(embed_C(DiracDerivative(0), omega=OMEGA), path, SMALL)
        assert built == []
        asy.sweep(embed_C(DiracDerivative(1), omega=OMEGA), path, SMALL)
        assert len(built) == points
        built.clear()
        asy.sweep(embed_C(DiracDerivative(0), omega=OMEGA),
                  opaque(path), SMALL)
        assert sum(args[0] is path for args in built) == points

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
        a sweep of the same members behind an opaque fn caches."""
        caches = []
        for swept in (lambda p: p, opaque):
            path = make_battery("full_path", 1, 1, seed=5, flavor="cm")[0]
            asy.sweep(defects(), swept(path), SMALL)
            caches.append([{k: [np.asarray(v).tobytes() for v in vals]
                            for k, vals in t._cache.items() if k != "grid"}
                           for t in path.terms])
        assert caches[0] == caches[1]
