"""Diffeomorphism catalog, pullbacks, transformed test objects, domains."""

import numpy as np
import pytest

from gfn_lab.basic_space import embed_C
from gfn_lab.diffeo import (PartialDomain, affine_map, catalog,
                            check_Z_requirements, compose, get_diffeo,
                            identity_map, pullback_rep,
                            transform_test_object)
from gfn_lab.distributions import (DiracDerivative, Heaviside,
                                   PullbackDistribution)
from gfn_lab.test_objects import TestObjectPath, make_battery
from gfn_lab.testfunc import Box, DomainError, scale

RNG = np.random.default_rng(17)
OMEGA = Box.interval(-2.5, 2.5)


def sanity_check(mu, lo: float, hi: float, count: int, seed: int) -> None:
    """Spot-check inverse consistency to 1e-10 and the supplied inverse
    derivative to 1e-6 relative."""
    rng = np.random.default_rng(seed)
    xs = lo + (hi - lo) * rng.random(count)
    back = mu.inverse(mu.forward(xs))
    worst = float(np.max(np.abs(back - xs)))
    assert worst <= 1e-10, f"{mu.name}: inverse round trip error {worst:.3e}"
    ys = mu.forward(xs)
    h = 1e-6 * max(1.0, float(np.max(np.abs(ys))))
    fd = (mu.inverse(ys + h) - mu.inverse(ys - h)) / (2.0 * h)
    rel = np.max(np.abs(fd - mu.d_inverse(ys)) / np.maximum(np.abs(fd), 1e-12))
    assert rel <= 1e-6, f"{mu.name}: inverse derivative off by {rel:.3e} relative"


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_sanity(self, name):
        """Inverse round trip to 1e-10, inverse derivative to 1e-6 rel."""
        sanity_check(get_diffeo(name, OMEGA), -1.2, 1.2, count=64, seed=2)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_diffeo("moebius")

    def test_compose_applies_right_factor_first(self):
        mu = compose(get_diffeo("affine-2x", OMEGA),
                     get_diffeo("shift-1", OMEGA))
        assert mu.forward(0.25) == 2.0 * (0.25 + 1.0)
        assert mu.inverse(mu.forward(0.3)) == pytest.approx(0.3, abs=1e-14)

    def test_source_box_follows_inverse(self):
        mu = get_diffeo("affine-2x", OMEGA)
        assert mu.omega_src.lo == pytest.approx(-1.25)
        assert mu.omega_src.hi == pytest.approx(1.25)

    def test_sin_bend_dense_round_trip_within_few_ulps(self):
        mu = get_diffeo("sin-bend")
        xs = np.linspace(-3.0, 3.0, 200001)
        back = mu.inverse(mu.forward(xs))
        ulps = np.abs(back - xs) / np.spacing(np.maximum(np.abs(xs), 1.0))
        assert np.max(ulps) <= 4.0

    def test_sin_bend_inverse_rejects_nan(self):
        mu = get_diffeo("sin-bend")
        ys = np.array([-1.0, np.nan, 0.5])
        with pytest.raises(FloatingPointError, match="sin-bend"):
            mu.inverse(ys)
        with pytest.raises(FloatingPointError, match="sin-bend"):
            mu.d_inverse(float("nan"))

    def test_lipschitz_bound_covers_samples(self):
        mu = get_diffeo("cubic", OMEGA)
        lip = mu.lipschitz_forward(-1.0, 1.0)
        xs = np.linspace(-1.0, 1.0, 1001)
        assert lip >= np.max(3 * xs**2 + 1)


class TestPullbackRep:
    def test_identity_bit_identical(self, moll2):
        rep = embed_C(DiracDerivative(0))
        pb = pullback_rep(identity_map(), rep)
        for _ in range(50):
            phi = scale(moll2, 0.1 + 0.8 * RNG.random())
            x = float((RNG.random() - 0.5) * 2)
            assert pb(phi, x) == rep(phi, x)

    def test_requires_c_formalism(self):
        from gfn_lab.basic_space import embed_J
        with pytest.raises(Exception):
            pullback_rep(identity_map(), embed_J(DiracDerivative(0)))

    def test_functoriality(self, moll2):
        """(mu o nu)^ R agrees with nu^ (mu^ R) on 50 probes."""
        mu = get_diffeo("affine-2x", OMEGA)
        nu = get_diffeo("shift-1", OMEGA)
        R = embed_C(DiracDerivative(0))
        lhs = pullback_rep(compose(mu, nu), R)
        rhs = pullback_rep(nu, pullback_rep(mu, R))
        for _ in range(50):
            phi = scale(moll2, 0.1 + 0.2 * RNG.random())
            x = float(-1.0 + 0.7 * RNG.random())
            assert abs(lhs(phi, x) - rhs(phi, x)) <= 1e-9

    def test_double_pullback_is_identity(self, moll2):
        """Pulling back along mu then its inverse restores the evaluator."""
        mu = get_diffeo("sin-bend", OMEGA)
        R = embed_C(DiracDerivative(0))
        roundtrip = pullback_rep(mu.inverted(), pullback_rep(mu, R))
        for _ in range(20):
            phi = scale(moll2, 0.1 + 0.2 * RNG.random())
            x = float((RNG.random() - 0.5) * 0.8)
            assert abs(roundtrip(phi, x) - R(phi, x)) <= 1e-9

    @pytest.mark.parametrize("name", ["affine-2x", "sin-bend", "cubic"])
    @pytest.mark.parametrize("uname", ["delta", "H"])
    def test_embedding_commutes(self, name, uname, moll2):
        """mu^ iota(u) = iota(mu* u) to 1e-8."""
        u = DiracDerivative(0) if uname == "delta" else Heaviside()
        mu = get_diffeo(name, OMEGA)
        lhs = pullback_rep(mu, embed_C(u))
        rhs = embed_C(PullbackDistribution(mu, u))
        for _ in range(10):
            phi = scale(moll2, 0.1 + 0.3 * RNG.random())
            x = float((RNG.random() - 0.5) * 0.6)
            assert abs(lhs(phi, x) - rhs(phi, x)) <= 1e-8


class TestTransformTestObject:
    def test_identity_returns_source(self):
        src = make_battery("full_path", 2, 1, seed=4, flavor="strict")[0]
        out, dom = transform_test_object(identity_map(), src,
                                         compacts=[np.linspace(-1, 1, 5)])
        assert out is src
        assert dom.contains(0.3, 0.0)

    def test_doubling_closed_form(self):
        """For mu = 2x: phi(eps,x)(xi) = phi~(eps, x/2)(xi/2) / 2."""
        mu = affine_map(2.0, omega_dst=OMEGA)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        out, dom = transform_test_object(mu, src)
        for _ in range(100):
            e = 0.05 + 0.5 * RNG.random()
            x = float((RNG.random() - 0.5) * 1.2)
            xi = float((RNG.random() - 0.5) * 3.0)
            if not dom.contains(e, x):
                continue
            assert out(e, x)(xi) == pytest.approx(
                0.5 * src(e, x / 2)(xi / 2), abs=1e-12)

    def test_unit_mass_preserved(self):
        mu = get_diffeo("sin-bend", OMEGA)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        out, dom = transform_test_object(mu, src)
        for _ in range(10):
            e = 0.05 + 0.3 * RNG.random()
            x = float((RNG.random() - 0.5) * 1.2)
            if dom.contains(e, x):
                assert abs(out(e, x).mass(n=2048) - 1.0) <= 1e-9

    def test_scaling_consistency_with_pair_transform(self):
        """S_eps of the transformed member equals the transform of the
        scaled source member (the two transformation routes agree)."""
        from gfn_lab.basic_space import pullback_pair_transform
        mu = get_diffeo("cubic", OMEGA)
        src = make_battery("full_path", 1, 1, seed=6, flavor="strict")[0]
        out, dom = transform_test_object(mu, src)
        trans = pullback_pair_transform(mu)
        for _ in range(20):
            e = 0.05 + 0.2 * RNG.random()
            xt = float((RNG.random() - 0.5) * 0.8)
            x = mu.forward(xt)
            if not dom.contains(e, x):
                continue
            chi, y = trans(scale(src(e, xt), e), xt)
            assert y == x
            lhs = scale(out(e, x), e)
            for xi in RNG.uniform(-1.5, 1.5, 8):
                assert lhs(xi) == pytest.approx(chi(xi), abs=1e-12)


class TestPartialDomain:
    def test_eps0_registration_geometric_bound(self):
        """For mu = 2x the fit condition is eps * bound <= dist(L, boundary),
        so the halved search must land within a factor 2 of it."""
        mu = affine_map(2.0, omega_dst=OMEGA)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        L = np.linspace(-0.8, 0.8, 9)
        out, dom = transform_test_object(mu, src, compacts=[L])
        eps0 = next(iter(dom.eps0_records.values()))[1]
        dist = 2.5 - 0.8
        predicted = dist / out.radius_bound
        assert predicted / 2 <= eps0 <= 2 * predicted

    def test_everywhere_domain(self):
        dom = PartialDomain.everywhere()
        assert dom.contains(0.5, 100.0)
        assert not dom.contains(1.5, 0.0)

    def test_unsatisfiable_raises(self):
        dom = PartialDomain(lambda e, x: False)
        with pytest.raises(DomainError):
            dom.register_compact([0.0])


class TestZRequirements:
    def test_constant_path_passes(self, moll2):
        path = TestObjectPath("static", lambda e, x: moll2, 2,
                              float(moll2.radius), "const")
        rep = check_Z_requirements(path, np.linspace(-1, 1, 5), 1.0,
                                   beta_max=3)
        assert rep.passed
        assert rep.radius_observed <= moll2.radius + 1e-12
        assert rep.deriv_bounds[0] == pytest.approx(moll2.sup_abs(), rel=1e-2)

    def test_transformed_object_passes(self):
        mu = affine_map(2.0, omega_dst=OMEGA)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        L = np.linspace(-0.8, 0.8, 9)
        out, dom = transform_test_object(mu, src, compacts=[L])
        eps0 = next(iter(dom.eps0_records.values()))[1]
        rep = check_Z_requirements(out, L, eps0, beta_max=3, n_eps=4)
        assert rep.passed

    def test_growing_support_fails_boundedness(self, moll0):
        """A path whose support radius grows like 1/eps cannot carry a
        finite uniform bound."""
        def fn(e, x):
            return scale(moll0, e)  # member radius e*r ...

        # ... but declare the reciprocal family: radius r/eps, bound inf
        def fn_grow(e, x):
            tf = scale(moll0, e)
            grown = tf.fn
            out = type(tf)(0.0, moll0.radius / e,
                           lambda xi: grown(xi * e * e), label="grow")
            return out

        path = TestObjectPath("full_path", fn_grow, 0, float("inf"), "grow")
        rep = check_Z_requirements(path, np.array([0.0]), 0.5, beta_max=1,
                                   n_eps=3)
        assert not rep.radius_ok
        assert not rep.passed
