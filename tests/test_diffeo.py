"""Diffeomorphism catalog, pullbacks, transformed test objects, domains."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfn_lab import basic_space
from gfn_lab.asymptotics import squared_mass_inner
from gfn_lab.basic_space import (ExpExpRepresentative, Representative,
                                 embed_C, embed_J, embed_sigma, mul,
                                 pullback_pair_transform, sub,
                                 translate_formalism)
from gfn_lab.diffeo import (Diffeomorphism, PartialDomain, affine_map,
                            catalog, check_Z_requirements, compose,
                            get_diffeo, identity_map, pullback_rep,
                            transform_test_object)
from gfn_lab.distributions import (DiracDerivative, Heaviside, pair_row,
                                   pullback_test_function, smooth_density)
from gfn_lab.test_objects import (MomentClass, check_moment_class,
                                  make_battery)
from gfn_lab.testfunc import (Box, DomainError, _moment_sums,
                              build_mollifier, bump_testfunction,
                              moments_upto, scale, translate)

from conftest import sup_abs
from probes import MemberPath, by_members
from test_shared_evaluation import rows_catalog

RNG = np.random.default_rng(17)
OMEGA = Box.interval(-2.5, 2.5)
U = 0.5 * float(np.finfo(float).eps)  # the unit roundoff


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


def chord_maps() -> dict:
    """``transport_maps()`` and the compositions that tests/test_rows.py
    transports members by."""
    maps, cat = transport_maps(), catalog(OMEGA)
    for outer, inner in (("sin-bend", "cubic"), ("cubic", "sin-bend"),
                         ("affine-2x", "sin-bend")):
        maps[f"{outer}.{inner}"] = compose(cat[outer], cat[inner])
    return maps


class TestChord:
    @pytest.mark.parametrize("name", sorted(chord_maps()))
    def test_is_d_forward_at_zero(self, name):
        mu = chord_maps()[name]
        ys = np.linspace(-1.2, 1.2, 97)
        assert np.array_equal(mu.chord(ys, np.zeros_like(ys)),
                              mu.d_forward(ys))

    @pytest.mark.parametrize("name", sorted(chord_maps()))
    def test_is_the_divided_difference(self, name):
        """Against (mu(y + h) - mu(y)) / h for 1e-3 <= |h| <= 0.5.  That
        quotient rounds mu's two values, each at a few ulps of |mu|, and
        y + h, which moves mu(y + h) by |mu'| ulps of |y + h|; the chord
        rounds at a few ulps of itself.  The gap must lie within 8 u of
        the first three over |h|, plus 8 u |chord|."""
        mu = chord_maps()[name]
        rng = np.random.default_rng(5)
        y = rng.uniform(-1.2, 1.2, 400)
        h = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(
            -3.0, np.log10(0.5), 400)
        got = mu.chord(y, h)
        up, at = mu.forward(y + h), mu.forward(y)
        floor = 8.0 * U * ((np.abs(up) + np.abs(at) + np.abs(
            mu.d_forward(y + h) * (y + h))) / np.abs(h) + np.abs(got))
        assert np.all(np.abs(got - (up - at) / h) <= floor)

    def test_a_map_without_one_takes_the_divided_difference(self):
        cubic = get_diffeo("cubic")
        mu = Diffeomorphism("plain-cubic", cubic.forward, cubic.inverse,
                            cubic.d_forward)
        y, h = np.array([0.3, -0.7, 1.1]), np.array([0.25, 0.0, -0.5])
        want = [(cubic.forward(0.3 + 0.25) - cubic.forward(0.3)) / 0.25,
                cubic.d_forward(-0.7),
                (cubic.forward(1.1 - 0.5) - cubic.forward(1.1)) / -0.5]
        assert mu.chord(y, h).tolist() == want


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
        path = MemberPath(lambda e, y: psi, abs(c) + r, "box")
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
        member.fn(xi)  # the row of one member: a (1, 65) stack of nodes
        assert calls == [("inverse", 0), ("inverse", 1), ("inverse", 2)]


class TestFailLoudly:
    """A map that overflows or is not injective on a box raises, naming
    the map, instead of giving a non-finite or empty support."""

    def test_overflowing_image_raises(self):
        mu = get_diffeo("cubic")
        path = MemberPath(lambda e, y: bump_testfunction(1e103), 1e103,
                          "huge")
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
        """mu^ iota(u), in closed form, is iota(u) at the transformed pair
        to 1e-8."""
        u = DiracDerivative(0) if uname == "delta" else Heaviside()
        mu = get_diffeo(name, OMEGA)
        lhs = pullback_rep(mu, embed_C(u))
        transform = pullback_pair_transform(mu)
        for _ in range(10):
            phi = scale(moll2, 0.1 + 0.3 * RNG.random())
            x = float((RNG.random() - 0.5) * 0.6)
            assert abs(lhs(phi, x) - embed_C(u)(*transform(phi, x))) <= 1e-8


def closed_form_maps() -> dict:
    """Every catalog map on OMEGA and two decreasing affine maps."""
    maps = dict(catalog(OMEGA))
    maps["affine(-1,0.25)"] = affine_map(-1.0, 0.25, OMEGA)
    maps["affine(-2,0)"] = affine_map(-2.0, 0.0, OMEGA)
    return maps


def closed_form_reps() -> dict:
    """The lab's representatives that pull back in closed form, on OMEGA:
    delta off the origin, the Heaviside, sin and x^4 embedded, sigma of
    sin, and embed-order's defects iota(f) - sigma(f)."""
    out = {"delta": embed_C(DiracDerivative(0, 0.3), omega=OMEGA),
           "H": embed_C(Heaviside(), omega=OMEGA),
           "sigma-sin": embed_sigma(np.sin, omega=OMEGA)}
    for f in ("sin", "x4"):
        out[f] = embed_C(smooth_density(f), omega=OMEGA)
        out[f"defect-{f}"] = sub(out[f], embed_sigma(smooth_density(f).f,
                                                     omega=OMEGA))
    return out


class TestClosedFormPullback:
    """Each representative the lab builds pulls back in closed form, which
    ``pullback_pair_transform`` defines: mu^ R (phi~, x~) = R(chi, y)."""

    #: the closed form against R at the transformed pair, relative to
    #: max(1, |R|): the two quadratures of a density or a step differ by
    #: rounding (at most 1.3e-13 measured, on shift-1's moved cut)
    BOUND = 1e-12

    @pytest.mark.parametrize("mname,rname", [
        (m, r) for m in sorted(closed_form_maps())
        for r in sorted(closed_form_reps())
        if not (r == "H" and m.startswith("affine(-"))])  # none: it raises
    def test_closed_form_is_the_transform(self, mname, rname):
        """Members down to eps = 2^-11 at points across K and straddling
        the pulled cut mu^{-1}(0) and the pulled point mu^{-1}(0.3)."""
        mu, rep = closed_form_maps()[mname], closed_form_reps()[rname]
        pulled, transform = pullback_rep(mu, rep), pullback_pair_transform(mu)
        phis = [build_mollifier(2, radius=0.8, center=0.1),
                build_mollifier(1, radius=0.5)]
        probes = 0
        for phi in phis:
            for eps in (1.0, 2.0**-3, 2.0**-7, 2.0**-11):
                xs = np.linspace(-0.6, 0.6, 7).tolist() + [
                    mu.inverse(0.0) + 0.3 * eps, mu.inverse(0.3) - 0.2 * eps]
                for x in xs:
                    p = scale(phi, eps)
                    if not pulled.in_domain(p, x):
                        continue
                    want = rep(*transform(p, x))
                    got = pulled(p, x)
                    assert abs(got - want) <= self.BOUND * max(1.0, abs(want))
                    if mu.is_identity:
                        assert got == want
                    probes += 1
        assert probes >= 60

    def test_the_cut_moves_under_shift_1(self, moll2):
        """H pulled back along x + 1 is the step at mu^{-1}(0) = -1."""
        pulled = pullback_rep(get_diffeo("shift-1", OMEGA),
                              embed_C(Heaviside(), omega=OMEGA))
        for x in (-1.5, -1.0, -0.7, 0.0):
            phi = scale(moll2, 0.3)
            assert pulled(phi, x) == embed_C(Heaviside())(phi, x + 1.0)

    def test_pulled_embeddings_pull_back_again(self, moll2):
        """Functoriality composes for the step and a density too."""
        mu, nu = get_diffeo("affine-2x", OMEGA), get_diffeo("sin-bend", OMEGA)
        for u in (Heaviside(), smooth_density("x4")):
            R = embed_C(u)
            lhs = pullback_rep(compose(mu, nu), R)
            rhs = pullback_rep(nu, pullback_rep(mu, R))
            for x in (-0.4, 0.0, 0.3):
                phi = scale(moll2, 0.2)
                assert lhs(phi, x) == pytest.approx(rhs(phi, x), abs=1e-12)

    @pytest.mark.parametrize("case", [
        "delta1", "H-decreasing", "hand-built", "inner", "pulled-inner"])
    def test_no_closed_form_raises(self, case):
        """delta^(k) for k >= 1, a step under a decreasing map, a
        hand-built row, and a log channel whose inner has no ``pulled`` (a
        pulled inner has none) raise ``TypeError``."""
        mu = get_diffeo("sin-bend", OMEGA)
        log = ExpExpRepresentative(squared_mass_inner(256), omega=OMEGA)
        rep = {
            "delta1": lambda: embed_C(DiracDerivative(1)),
            "H-decreasing": lambda: embed_C(Heaviside()),
            "hand-built": lambda: Representative(
                lambda member, xs: np.array(xs)),
            "inner": lambda: ExpExpRepresentative(
                SimpleNamespace(row=lambda member, xs: list(xs))),
            "pulled-inner": lambda: pullback_rep(mu, log),
        }[case]()
        if case == "H-decreasing":
            mu = affine_map(-1.0, 0.25, OMEGA)
        with pytest.raises(TypeError, match="closed-form pullback"):
            pullback_rep(mu, rep)

    def test_a_pulled_square_pulls_back_once(self, monkeypatch):
        """pullback_rep(mu, mul(R, R)) pulls R back once and squares it:
        one pair_row call per row, where the product of two pullbacks of R
        makes two, with the same bits."""
        mu = get_diffeo("sin-bend", OMEGA)
        R = embed_C(smooth_density("sin"), omega=OMEGA)
        square = pullback_rep(mu, mul(R, R))
        apart = mul(pullback_rep(mu, R), pullback_rep(mu, R))
        path = make_battery("full_path", 1, 1, seed=3)[0]
        xs = np.linspace(-1.0, 1.0, 9).tolist()
        for eps in (0.5, 2.0**-6):
            member = (np.array(path.weights(eps, xs)), path.terms, eps, 0.0)
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(basic_space, "pair_row",
                           lambda *args: calls.append(1) or pair_row(*args))
                got = square.row(member, xs)
                assert len(calls) == 1
                want = apart.row(member, xs)
                assert len(calls) == 3
            assert got.tobytes() == want.tobytes()

    def test_a_translate_to_C_has_a_closed_form(self, moll2):
        """The C translate of embed_J(delta) is embed_C(delta): it pulls
        back in closed form, to the values of embed_C(delta)'s pullback."""
        mu = get_diffeo("sin-bend", OMEGA)
        rep = translate_formalism(embed_J(DiracDerivative(0)))
        pulled = pullback_rep(mu, rep)
        want = pullback_rep(mu, embed_C(DiracDerivative(0)))
        for x in (-0.4, 0.0, 0.3):
            phi = scale(moll2, 0.2)
            assert pulled(phi, x) == want(phi, x)

    def test_identity_keeps_every_value_and_row(self):
        """Under the identity every lab-built representative, the
        composites, the log channel and pulled embeddings included,
        gives its own values and rows, bit for bit, on its own open set."""
        path = make_battery("full_path", 1, 2, seed=3)[1]
        xs = np.linspace(-1.0, 1.0, 9).tolist()
        for name, rep in rows_catalog(OMEGA, 0.4).items():
            if isinstance(rep, tuple) or name == "pulled-exp-exp":
                continue  # a pulled inner has no pullback
            pulled = pullback_rep(identity_map(), rep)
            assert pulled.omega == rep.omega, name
            for eps in (0.5, 2.0**-6):
                member = (np.array(path.weights(eps, xs)), path.terms, eps,
                          0.0)
                assert (np.asarray(pulled.row(member, xs)).tobytes()
                        == np.asarray(rep.row(member, xs)).tobytes()), name
                phi = scale(path(eps, 0.1), eps)
                got, want = pulled(phi, 0.1), rep(phi, 0.1)
                assert np.array(got).tobytes() == np.array(want).tobytes()


class TestPulledOpenSet:
    """A pulled representative lives on mu's source set within
    mu^{-1}(R's open set)."""

    MU = get_diffeo("sin-bend", OMEGA)
    NARROW = Box.interval(-0.5, 0.5)

    def test_a_pulled_log_channel_keeps_R_open_set(self, moll2):
        """R raises at the image of (S_0.1 phi, 1.0); so does its pullback."""
        R = ExpExpRepresentative(squared_mass_inner(1024), omega=self.NARROW)
        phi = scale(moll2, 0.1)
        with pytest.raises(DomainError):
            R(*pullback_pair_transform(self.MU)(phi, 1.0))
        pulled = pullback_rep(self.MU, R)
        end = self.MU.inverse(0.5)  # the preimage of R's open set
        assert pulled.omega == Box.interval(-end, end)
        assert not pulled.in_domain(phi, 1.0)
        with pytest.raises(DomainError):
            pulled(phi, 1.0)
        assert abs(pulled(phi, 0.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("u", [DiracDerivative(0), Heaviside()],
                             ids=["delta", "H"])
    def test_a_pulled_embedding_keeps_its_domain_error(self, u, moll2):
        """R raises where the transformed pair leaves its open set, and so
        does the pullback, at the edge of mu^{-1}(0.5) too."""
        pulled = pullback_rep(self.MU, embed_C(u, omega=self.NARROW))
        end = self.MU.inverse(0.5)
        phi = scale(moll2, 0.1)
        with pytest.raises(DomainError):
            pulled(phi, 1.0)
        with pytest.raises(DomainError):
            pulled(phi, end - 0.05)
        assert np.isfinite(pulled(phi, end - 0.15))


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
        path = MemberPath(lambda e, x: moll2, float(moll2.radius), "const")
        rep = check_Z_requirements(path, np.linspace(-1, 1, 5), 1.0,
                                   beta_max=3)
        assert rep.passed
        assert rep.radius_observed <= moll2.radius + 1e-12
        assert rep.deriv_bounds[0] == pytest.approx(sup_abs(moll2), rel=1e-2)

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

        path = MemberPath(fn_grow, float("inf"), "grow")
        rep = check_Z_requirements(path, np.array([0.0]), 0.5, beta_max=1,
                                   n_eps=3)
        assert not rep.radius_ok
        assert not rep.passed


class TestSourceCoordinateMoments:
    """``check_moment_class`` integrates a transformed member in source
    coordinates (``_quadrature``), with no inverse at its nodes."""

    L = np.linspace(-0.7, 0.7, 7)

    @pytest.mark.parametrize("name", ["affine-2x", "sin-bend", "cubic"])
    @pytest.mark.parametrize("q", [2, 4])
    def test_within_the_floor_of_the_members_moments(self, name, q):
        """Against ``moments_upto`` of the member itself, which integrates
        over xi through the Newton inverse.  The member's argument
        (mu^{-1}(eps xi + x) - xt) / eps rounds at a few u (|x| + |xt|) /
        eps, and the two coordinates differ by the shift (mu(xt) - x) / eps
        of as much; a shift d moves m_a by about a |m_{a-1}| d.  So, on the
        scenario's battery, grid and 2048 panels, the gap must lie within
        16 u (1 + |x|) / eps for eps = 2^-2 .. 2^-13, at every x the
        partial domain admits."""
        mu = get_diffeo(name, OMEGA)
        bat = make_battery("full_path", q, 2, 7, flavor="symmetric",
                           build_q=max(q, 2 * q - 2))
        checked = 0
        for tr in (transform_test_object(mu, p) for p in bat):
            for e in (2.0 ** -np.arange(2, 14)).tolist():
                xs = [x for x in self.L.tolist() if tr.domain.contains(e, x)]
                if not xs:
                    continue
                pts, v = tr._quadrature(e, xs, 2048)
                got = _moment_sums(v, pts, q)
                for x, row in zip(xs, got):
                    want = moments_upto(tr(e, x), q, n=2048)
                    bound = 16.0 * U * (1.0 + abs(x)) / e
                    assert np.all(np.abs(row - want) <= bound), (e, x)
                    checked += 1
        assert checked >= 2 * 8 * len(self.L)

    @pytest.mark.parametrize("name", ["sin-bend", "cubic"])
    def test_a_member_built_source_integrates_as_its_terms(self, name):
        """A source that builds its members (no terms) gives its members'
        own grids to the transformed quadrature: the same bits as the
        terms' shared samples."""
        mu = get_diffeo(name, OMEGA)
        src = make_battery("full_path", 2, 1, 7, flavor="symmetric")[0]
        built = by_members(src)
        cls, eps = MomentClass("asympt_CM", 2), [2.0**-3, 2.0**-4, 2.0**-5]
        got, want = (check_moment_class(transform_test_object(mu, p), cls,
                                        eps, self.L, n=512)
                     for p in (built, src))
        assert got.orders == want.orders

    def test_a_plain_a0_source_under_sin_bend_fails(self):
        """Negative control: a source with unit mass and no vanishing
        moment keeps a second moment of order eps^0 under a nonlinear map,
        so the transformed path fails asympt_CM at q = 2."""
        src = make_battery("full_path", 0, 1, 7, flavor="symmetric")[0]
        tr = transform_test_object(get_diffeo("sin-bend", OMEGA), src)
        i0 = max(2, int(-np.log2(tr.domain.register_compact(self.L))))
        chk = check_moment_class(tr, MomentClass("asympt_CM", 2),
                                 2.0 ** -np.arange(i0, i0 + 6), self.L,
                                 n=2048, zero_tol=1e-11)
        assert not chk.passed and chk.orders[2] < 2 - 0.3

    @pytest.mark.parametrize("name", ["sin-bend", "cubic"])
    def test_moments_pass_no_array_to_the_inverse(self, name):
        """Only the points' preimages are inverted, one scalar each."""
        mu = get_diffeo(name, OMEGA)
        tr = transform_test_object(
            mu, make_battery("full_path", 2, 1, 9, flavor="symmetric")[0])
        inverse, shapes = mu.inverse, []
        mu.inverse = lambda y: shapes.append(np.shape(y)) or inverse(y)
        check_moment_class(tr, MomentClass("asympt_CM", 2),
                           [2.0**-4, 2.0**-5, 2.0**-6], self.L, n=256)
        assert shapes == [()] * len(self.L)
