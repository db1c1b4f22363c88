"""Diffeomorphism catalog, pullbacks, transformed test objects, domains."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfn_lab.basic_space import embed_C
from gfn_lab.diffeo import (Diffeomorphism, PartialDomain, affine_map,
                            catalog, check_Z_requirements, compose,
                            get_diffeo, identity_map, pullback_rep,
                            transform_test_object)
from gfn_lab.distributions import (DiracDerivative, Heaviside,
                                   PullbackDistribution,
                                   pullback_test_function)
from gfn_lab.test_objects import TestObjectPath, make_battery
from gfn_lab.testfunc import (Box, DomainError, bump_testfunction, scale,
                              translate)

RNG = np.random.default_rng(17)
OMEGA = Box.interval(-2.5, 2.5)


def sanity_check(mu, lo: float, hi: float, count: int, seed: int) -> None:
    """Spot-check inverse consistency to 1e-10, and the supplied forward
    derivative and the inverse derivative taken from it to 1e-6 relative."""
    rng = np.random.default_rng(seed)
    xs = lo + (hi - lo) * rng.random(count)
    back = mu.inverse(mu.forward(xs))
    worst = float(np.max(np.abs(back - xs)))
    assert worst <= 1e-10, f"{mu.name}: inverse round trip error {worst:.3e}"
    h = 1e-6 * max(1.0, float(np.max(np.abs(xs))))
    fd = (mu.forward(xs + h) - mu.forward(xs - h)) / (2.0 * h)
    rel = np.max(np.abs(fd - mu.d_forward(xs)) / np.maximum(np.abs(fd), 1e-12))
    assert rel <= 1e-6, f"{mu.name}: forward derivative off by {rel:.3e} relative"
    ys = mu.forward(xs)
    h = 1e-6 * max(1.0, float(np.max(np.abs(ys))))
    fd = (mu.inverse(ys + h) - mu.inverse(ys - h)) / (2.0 * h)
    rel = np.max(np.abs(fd - mu.det_d_inverse(ys)) / np.maximum(np.abs(fd), 1e-12))
    assert rel <= 1e-6, f"{mu.name}: inverse derivative off by {rel:.3e} relative"


def transport_maps() -> dict:
    """Every catalog map, two compositions and two inverted maps."""
    cat = catalog(OMEGA)
    cat["compose"] = compose(cat["affine-2x"], cat["shift-1"])
    cat["compose-nonlinear"] = compose(cat["cubic"], cat["sin-bend"])
    cat["inverted"] = cat["sin-bend"].inverted()
    cat["inverted-cubic"] = cat["cubic"].inverted()
    return cat


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_sanity(self, name):
        """Inverse round trip to 1e-10, forward and inverse derivatives to
        1e-6 rel."""
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
            mu.det_d_inverse(float("nan"))

    def test_transformed_radius_bound_covers_the_derivative(self):
        """A transformed path's radius bound is at least sup |mu'| over
        the source set times the source path's bound."""
        mu = get_diffeo("cubic", OMEGA)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        xs = np.linspace(mu.omega_src.lo, mu.omega_src.hi, 100001)
        bound = transform_test_object(mu, src).radius_bound
        assert bound >= np.max(3.0 * xs * xs + 1.0) * src.radius_bound

    def test_domain_without_source_set_keeps_the_radius_bound(self):
        """A map with no open sets samples mu' on (-3, 3) for the bound, so
        the partial domain admits only source balls inside (-3, 3): every
        admitted member's support lies within eps * radius_bound of x."""
        mu = get_diffeo("cubic")
        assert mu.omega_src is None
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        tr = transform_test_object(mu, src)
        # the preimage of 100 is about 4.6; this member reaches 89.7 > 38.1
        assert not tr.domain.contains(0.5, 100.0)
        rng = np.random.default_rng(3)
        admitted = 0
        for e, x in zip(2.0 ** -rng.uniform(0.0, 8.0, 300),
                        rng.uniform(-40.0, 40.0, 300)):
            if tr.domain.contains(e, x):
                admitted += 1
                member = tr(e, x)
                assert abs(member.center) + member.radius <= tr.radius_bound
        assert 50 < admitted < 300


class TestDerivedCharts:
    """A map built from its target chart alone takes the sorted preimages
    of that chart's ends as its source chart; the expected charts below
    are the closed forms each map once wrote out by hand."""

    OMEGAS = (OMEGA, Box.interval(-1.5, 0.7))

    @staticmethod
    def affine_chart(a, b, om):
        return Box(*sorted(((om.lo - b) / a, (om.hi - b) / a)))

    @pytest.mark.parametrize("om", OMEGAS)
    def test_catalog_maps(self, om):
        cat = catalog(om)
        expected = {
            "identity": om,
            "affine-2x": self.affine_chart(2.0, 0.0, om),
            "shift-1": self.affine_chart(1.0, 1.0, om),
            "sin-bend": Box(cat["sin-bend"].inverse(om.lo),
                            cat["sin-bend"].inverse(om.hi)),
            "cubic": Box(cat["cubic"].inverse(om.lo),
                         cat["cubic"].inverse(om.hi)),
        }
        for name, mu in cat.items():
            assert mu.omega_dst == om, name
            assert mu.omega_src == expected[name], name
        flip = affine_map(-0.7, 0.2, om)
        assert flip.omega_src == self.affine_chart(-0.7, 0.2, om)

    @pytest.mark.parametrize("om", OMEGAS)
    def test_compositions(self, om):
        maps = {**catalog(om), "flip": affine_map(-0.7, 0.2, om)}
        for mu_name, nu_name in [("affine-2x", "shift-1"),
                                 ("cubic", "sin-bend"), ("flip", "cubic"),
                                 ("sin-bend", "flip"), ("flip", "flip")]:
            mu, nu = maps[mu_name], maps[nu_name]
            comp = compose(mu, nu)
            ends = sorted((nu.inverse(mu.omega_src.lo),
                           nu.inverse(mu.omega_src.hi)))
            assert comp.omega_dst == mu.omega_dst
            assert comp.omega_src == Box(*ends), (mu_name, nu_name)

    @pytest.mark.parametrize("om", [None, OMEGA])
    def test_inverted_swaps_the_charts(self, om):
        maps = {**catalog(om), "flip": affine_map(-0.7, 0.2, om)}
        for name, mu in maps.items():
            inv = mu.inverted()
            assert inv.omega_src is mu.omega_dst, name
            assert inv.omega_dst is mu.omega_src, name

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_scalar_in_float_out(self, name):
        mu = get_diffeo(name, OMEGA)
        for fn in (mu.forward, mu.inverse, mu.d_forward, mu.det_d_inverse):
            assert type(fn(0.3)) is float
            assert fn(np.array([0.3, 0.4])).shape == (2,)


class TestJacobianFromPreimage:
    """det D mu^{-1}(y) is 1 / mu'(mu^{-1}(y)), read off the preimage the
    inverse has just produced, so each evaluation inverts once."""

    YS = np.linspace(-2.5, 2.5, 20001)

    def test_matches_the_closed_forms_bit_for_bit(self):
        cat = catalog(OMEGA)
        x = cat["sin-bend"].inverse(self.YS)
        c = cat["cubic"].inverse(self.YS)
        expected = {
            "sin-bend": 1.0 / (1.0 + 0.25 * np.cos(x)),
            "cubic": 1.0 / (3.0 * c * c + 1.0),
            "affine-2x": np.full_like(self.YS, 0.5),
            "shift-1": np.ones_like(self.YS),
            "identity": np.ones_like(self.YS),
        }
        for name, mu in cat.items():
            pre = mu.inverse(self.YS)
            assert np.array_equal(mu.det_d_inverse(self.YS), expected[name]), name
            assert np.array_equal(np.abs(1.0 / mu.d_forward(pre)),
                                  np.abs(expected[name])), name

    @staticmethod
    def counted(name):
        """A catalog map rebuilt with an inverse that records each call."""
        base = get_diffeo(name, OMEGA)
        sizes = []

        def inverse(y):
            sizes.append(np.size(y))
            return base.inverse(y)

        mu = Diffeomorphism(f"counted-{name}", base.forward, inverse,
                            base.d_forward, omega_src=base.omega_src,
                            omega_dst=base.omega_dst)
        return base, mu, sizes

    @pytest.mark.parametrize("name", ["sin-bend", "cubic", "affine-2x"])
    def test_member_inverts_once_per_array(self, name):
        base, mu, sizes = self.counted(name)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        out = transform_test_object(mu, src)
        ref = transform_test_object(base, src)
        xi = np.linspace(-2.0, 2.0, 257)
        for e, x in ((0.25, 0.3), (0.0625, -0.5)):
            member = out(e, x)
            sizes.clear()
            vals = member.fn(xi)
            assert sizes == [xi.size]
            assert np.array_equal(vals, ref(e, x).fn(xi))
            assert np.any(vals != 0.0)

    @pytest.mark.parametrize("name", ["sin-bend", "cubic", "affine-2x"])
    def test_pulled_back_function_inverts_once_per_array(self, name, moll2):
        base, mu, sizes = self.counted(name)
        psi = translate(scale(moll2, 0.3), 0.2)
        chi = pullback_test_function(mu, psi)
        xi = np.linspace(chi.center - chi.radius, chi.center + chi.radius, 257)
        sizes.clear()
        vals = chi.fn(xi)
        assert sizes == [xi.size]
        assert np.array_equal(vals, pullback_test_function(base, psi).fn(xi))
        assert np.any(vals != 0.0)


class TestDeclaredSupport:
    """Transformed members and pulled-back test functions vanish exactly
    on [r, 2r] beyond their declared radius r, on both sides, over the
    moment-invariance compact set and four scales from its eps0."""

    L = np.linspace(-0.7, 0.7, 7)
    OFFSETS = np.linspace(1.0, 2.0, 129)

    @classmethod
    def assert_vanishes_beyond_radius(cls, tf):
        c, r = float(tf.center), float(tf.radius)
        outside = np.concatenate([c + r * cls.OFFSETS, c - r * cls.OFFSETS])
        assert np.all(tf.fn(outside) == 0.0), tf
        inside = np.linspace(c - r, c + r, 257)
        assert np.any(tf.fn(inside) != 0.0), tf

    @pytest.mark.parametrize("name", ["sin-bend", "cubic", "affine-2x"])
    def test_zero_beyond_declared_radius(self, name):
        mu = get_diffeo(name, OMEGA)
        for q in (2, 4):
            bat = make_battery("full_path", q, 4, 7 + q, flavor="symmetric",
                               build_q=2 * q - 2)
            for path in bat:
                tr = transform_test_object(mu, path)
                eps0 = tr.domain.register_compact(self.L)
                for e in eps0 * 2.0 ** -np.arange(4, dtype=float):
                    for x in self.L:
                        assert tr.domain.contains(e, x)
                        self.assert_vanishes_beyond_radius(tr(e, x))
                        xt = mu.inverse(float(x))
                        psi = translate(scale(path(e, xt), e), xt)
                        self.assert_vanishes_beyond_radius(
                            pullback_test_function(mu, psi))


class TestTracedMaps:
    """The benchmark's traced run replaces ``inverse`` and
    ``det_d_inverse`` on each map instance; the map must accept that and
    evaluate through the replacements afterwards."""

    @pytest.mark.parametrize("key", sorted(transport_maps()))
    def test_instance_attributes_can_be_wrapped(self, key, moll2):
        mu = transport_maps()[key]
        ys = np.linspace(-0.6, 0.6, 33)
        psi = translate(scale(moll2, 0.2), 0.1)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]

        def evaluate():
            tr = transform_test_object(mu, src)
            return (mu.inverse(ys), mu.det_d_inverse(ys),
                    pullback_test_function(mu, psi).fn(ys),
                    tr(0.25, 0.3).fn(ys))

        before = evaluate()
        calls = {"inverse": 0, "det_d_inverse": 0}

        def wrap(fn, label):
            def wrapped(*args, **kwargs):
                calls[label] += 1
                return fn(*args, **kwargs)
            return wrapped

        mu.inverse = wrap(mu.inverse, "inverse")
        mu.det_d_inverse = wrap(mu.det_d_inverse, "det_d_inverse")
        for b, a in zip(before, evaluate()):
            assert np.array_equal(a, b)
        # the direct inverse and det_d_inverse (which inverts once), the
        # member's scalar preimage and its evaluator, and the pulled-back
        # evaluator, which the identity does not build; the support boxes
        # and the radius bound read the forward map only
        if mu.is_identity:
            assert calls == {"inverse": 4, "det_d_inverse": 1}
        else:
            assert calls == {"inverse": 5, "det_d_inverse": 1}


class TestExactImageBoxes:
    """A pulled-back function lives on the image of its source box, and a
    transformed member on the image of its source member's box under
    s -> (mu(xt + eps s) - x)/eps: exactly 0 outside the box, and nonzero
    within 1% of each end, so a loose box fails."""

    FAR = np.geomspace(1e-15, 1.0, 61)
    NEAR = np.linspace(0.0, 0.01, 129)[1:]

    @classmethod
    def assert_fills_its_box(cls, tf, label):
        lo, hi = tf.box
        width = hi - lo
        outside = np.concatenate([lo - width * cls.FAR, hi + width * cls.FAR,
                                  [np.nextafter(lo, -np.inf),
                                   np.nextafter(hi, np.inf)]])
        assert np.all(tf.fn(outside) == 0.0), label
        assert np.any(tf.fn(lo + width * cls.NEAR) != 0.0), label
        assert np.any(tf.fn(hi - width * cls.NEAR) != 0.0), label

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(sorted(transport_maps())),
           c=st.floats(min_value=-1.0, max_value=1.0),
           r=st.floats(min_value=0.05, max_value=1.0),
           log_eps=st.floats(min_value=-20.0, max_value=0.0),
           x=st.floats(min_value=-1.0, max_value=1.0))
    def test_zero_outside_and_filled_to_the_ends(self, key, c, r, log_eps, x):
        mu = transport_maps()[key]
        psi = bump_testfunction(radius=r, center=c)
        label = f"{key} c={c!r} r={r!r} eps=2^{log_eps!r} x={x!r}"
        if not mu.is_identity:
            self.assert_fills_its_box(pullback_test_function(mu, psi), label)
        path = TestObjectPath(lambda e, y: psi, abs(c) + r, "box")
        tr = transform_test_object(mu, path)
        member = tr(2.0**log_eps, x)
        self.assert_fills_its_box(member, label)
        if tr.domain.contains(2.0**log_eps, x):  # where the bound holds
            assert abs(member.center) + member.radius <= tr.radius_bound, label


class TestBoundsWithoutInverse:
    """Support boxes and radius bounds read the forward map and its
    derivative only: building a pulled-back function, a transformed path
    and one of its members inverts nothing but the member's point."""

    @pytest.mark.parametrize("key", sorted(set(transport_maps())
                                           - {"identity"}))
    def test_building_inverts_no_array(self, key, moll2):
        mu = transport_maps()[key]
        calls = []

        def recorded(fn, label):
            def wrapped(y):
                calls.append((label, np.ndim(y)))
                return fn(y)
            return wrapped

        mu.inverse = recorded(mu.inverse, "inverse")
        mu.det_d_inverse = recorded(mu.det_d_inverse, "det_d_inverse")
        psi = translate(scale(moll2, 0.2), 0.1)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        chi = pullback_test_function(mu, psi)
        member = transform_test_object(mu, src)(0.25, 0.3)
        assert calls == [("inverse", 0)]
        xi = np.linspace(-1.0, 1.0, 65)
        chi.fn(xi)
        member.fn(xi)
        assert calls == [("inverse", 0), ("inverse", 1), ("inverse", 1)]


class TestFailLoudly:
    """A map that overflows or is not injective on a box raises, naming
    the map, instead of giving a non-finite or empty support."""

    def test_overflowing_image_raises(self):
        mu = get_diffeo("cubic")
        path = TestObjectPath(lambda e, y: bump_testfunction(1e103),
                              1e103, "huge")
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="cubic"):
                pullback_test_function(mu, bump_testfunction(1.0, 1e103))
            with pytest.raises(ValueError, match="cubic"):
                transform_test_object(mu, path)(0.5, 0.0)

    def test_empty_image_raises(self, moll2):
        flat = Diffeomorphism("flat", lambda x: 0.0 * np.asarray(x),
                              lambda y: y, lambda x: 0.0 * np.asarray(x))
        with pytest.raises(ValueError, match="flat"):
            pullback_test_function(flat, moll2)

    def test_non_finite_derivative_raises(self):
        mu = Diffeomorphism("nan-slope", lambda x: x, lambda y: y,
                            lambda x: np.full_like(x, np.nan))
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        with pytest.raises(ValueError, match="nan-slope"):
            transform_test_object(mu, src)


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
    def test_identity_reproduces_source(self):
        """The identity map goes through the general transform: members
        equal the source's up to the rounding of (eps xi + x - x) / eps."""
        src = make_battery("full_path", 2, 1, seed=4, flavor="strict")[0]
        out = transform_test_object(identity_map(), src)
        assert out.domain.register_compact(np.linspace(-1, 1, 5)) == 1.0
        assert out.domain.contains(0.3, 0.0)
        xi = np.linspace(-1.5, 1.5, 61)
        for e, x in ((0.3, 0.0), (0.125, -0.7), (1.0, 0.4)):
            want = src(e, x).fn(xi)
            np.testing.assert_allclose(out(e, x).fn(xi), want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("name", ["sin-bend", "cubic"])
    def test_one_scalar_inverse_per_point(self, name):
        """Members and domain checks at several eps reuse each point's
        preimage: one scalar inverse per distinct x, looked up on the map
        when first needed, and members bitwise those of the formula."""
        mu = get_diffeo(name, OMEGA)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        out = transform_test_object(mu, src)
        inverse, scalar = mu.inverse, []

        def counted(y):
            if np.ndim(y) == 0:
                scalar.append(float(y))
            return inverse(y)

        mu.inverse = counted
        L = np.linspace(-0.7, 0.7, 7)
        xi = np.linspace(-2.0, 2.0, 101)
        members = 0
        for e in (0.5, 0.25, 0.125):
            for x in map(float, L):
                if not out.domain.contains(e, x):
                    continue
                got = out(e, x).fn(xi)
                xt = inverse(x)
                pre = inverse(e * xi + x)
                want = src(e, xt).fn((pre - xt) / e) * np.abs(
                    1.0 / mu.d_forward(pre))
                assert got.tobytes() == want.tobytes()
                members += 1
        assert members >= 14
        assert sorted(scalar) == sorted(map(float, L))

    def test_doubling_closed_form(self):
        """For mu = 2x: phi(eps,x)(xi) = phi~(eps, x/2)(xi/2) / 2."""
        mu = affine_map(2.0, omega_dst=OMEGA)
        src = make_battery("full_path", 2, 1, seed=9, flavor="strict")[0]
        out = transform_test_object(mu, src)
        dom = out.domain
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
        out = transform_test_object(mu, src)
        dom = out.domain
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
        out = transform_test_object(mu, src)
        dom = out.domain
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
        out = transform_test_object(mu, src)
        eps0 = out.domain.register_compact(L)
        dist = 2.5 - 0.8
        predicted = dist / out.radius_bound
        assert predicted / 2 <= eps0 <= 2 * predicted

    def test_everywhere_domain(self):
        """A predicate admitting every point still bounds eps to (0, 1]."""
        dom = PartialDomain(lambda e, x: True)
        assert dom.contains(0.5, 100.0)
        assert not dom.contains(1.5, 0.0)

    def test_unsatisfiable_raises(self):
        dom = PartialDomain(lambda e, x: False)
        with pytest.raises(DomainError):
            dom.register_compact([0.0])

    def test_empty_grid_raises(self):
        """An empty grid used to register eps0 = 1.0, admitting nothing."""
        with pytest.raises(ValueError, match="empty set of points L"):
            PartialDomain(lambda e, x: True).register_compact([])


class TestZRequirements:
    def test_constant_path_passes(self, moll2):
        path = TestObjectPath(lambda e, x: moll2,
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
        out = transform_test_object(mu, src)
        eps0 = out.domain.register_compact(L)
        rep = check_Z_requirements(out, L, eps0, beta_max=3, n_eps=4)
        assert rep.passed

    def test_empty_point_set_raises(self):
        """No point of L used to pass every clause vacuously."""
        mu = get_diffeo("cubic", Box(-2.5, 2.5))
        path = transform_test_object(
            mu, make_battery("full_path", 2, 1, 9)[0])
        with pytest.raises(ValueError, match="empty set of points"):
            check_Z_requirements(path, [], 0.25)

    @pytest.mark.parametrize("n_eps, beta_max", [(0, 4), (-1, 4), (6, -1)])
    def test_no_scale_or_order_raises(self, n_eps, beta_max):
        """No eps used to pass with every bound 0.0; beta_max = -1 raised
        KeyError from the bounds."""
        path = make_battery("full_path", 2, 1, 9)[0]
        with pytest.raises(ValueError, match="n_eps >= 1 and beta_max >= 0"):
            check_Z_requirements(path, [0.0], 0.5, beta_max=beta_max,
                                 n_eps=n_eps)

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
                           lambda xi: grown(xi * e * e))
            return out

        path = TestObjectPath(fn_grow, float("inf"), "grow")
        rep = check_Z_requirements(path, np.array([0.0]), 0.5, beta_max=1,
                                   n_eps=3)
        assert not rep.radius_ok
        assert not rep.passed
