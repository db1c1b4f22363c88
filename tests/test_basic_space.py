"""Embeddings, the C/J translation, algebra operations and derivatives."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gfn_lab import basic_space, distributions
from gfn_lab.basic_space import (Dj_derivative, ExpExpRepresentative,
                                 FormalismError, PreconditionError,
                                 Representative, d1_derivative, embed_C,
                                 embed_J, embed_sigma, mul, partial_x, sub,
                                 translate_formalism)
from gfn_lab.asymptotics import squared_mass_inner
from gfn_lab.diffeo import get_diffeo, pullback_rep
from gfn_lab.distributions import (DiracDerivative, Heaviside, SmoothDensity,
                                   derivative, pair, smooth_density)
from gfn_lab.testfunc import (Box, DomainError, build_mollifier, moment,
                              scale, tf_lincomb)
from gfn_lab.asymptotics import SweepSpec, sweep
from gfn_lab.test_objects import TestObjectPath

from conftest import oracle_trapezoid

RNG = np.random.default_rng(5)


def random_probes(count=20, qmax=3, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        phi = build_mollifier(int(rng.integers(0, qmax)),
                              radius=0.7 + 0.5 * rng.random(),
                              center=(rng.random() - 0.5) * 0.3)
        out.append((scale(phi, 0.2 + 0.8 * rng.random()),
                    float((rng.random() - 0.5) * 1.6)))
    return out


class TestEmbedC:
    def test_delta_closed_form(self, moll2_offset):
        """iota(delta)(S_eps phi, x) = eps^{-1} phi(-x/eps)."""
        rep = embed_C(DiracDerivative(0))
        for eps, x in ((0.5, 0.2), (0.125, -0.04), (1.0, 0.6)):
            got = rep(scale(moll2_offset, eps), x)
            assert got == pytest.approx(moll2_offset(-x / eps) / eps,
                                        abs=1e-13)

    def test_smooth_density_vs_oracle(self, moll0):
        rep = embed_C(smooth_density("sin"))
        x = 0.37
        got = rep(moll0, x)
        oracle = oracle_trapezoid(lambda xi: np.sin(x + xi) * moll0.fn(xi),
                                  -1.0, 1.0, 65536)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_zero_distribution(self, moll0):
        rep = embed_C(SmoothDensity(lambda x: np.zeros_like(x)))
        assert rep(moll0, 0.3) == 0.0

    def test_linear_flag(self):
        assert embed_C(DiracDerivative(0)).linear

    def test_domain_predicate(self, moll0):
        rep = embed_C(DiracDerivative(0), omega=Box.interval(-2, 2))
        assert rep.in_domain(moll0, 0.5)
        assert not rep.in_domain(moll0, 1.5)
        with pytest.raises(DomainError):
            rep(moll0, 1.5)


class TestTracedPair:
    def test_counting_wrapper_sees_each_embed_C_pairing_once(self,
                                                             monkeypatch,
                                                             moll2_offset):
        """The benchmark's traced run replaces ``pair`` where it is bound
        with a wrapper taking (*args, **kwargs) and naming the call by the
        kind of its first argument; an embedding must pair through it."""
        rep = embed_C(smooth_density("sin"))
        phi = scale(moll2_offset, 0.5)
        before = rep(phi, 0.3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].kind)
            return pair(*args, **kwargs)

        monkeypatch.setattr(distributions, "pair", counted)
        monkeypatch.setattr(basic_space, "pair", counted)
        assert rep(phi, 0.3) == before
        assert calls == ["smooth"]


class TestEmbedJ:
    def test_independent_of_x(self, moll2_offset):
        rep = embed_J(DiracDerivative(0))
        vals = {rep(moll2_offset, x) for x in (-0.7, 0.0, 0.4, 1.3)}
        assert len(vals) == 1
        assert vals.pop() == moll2_offset(0.0)

    def test_delta_prime(self, moll2_offset):
        rep = embed_J(DiracDerivative(1))
        exact = -moll2_offset.derivative()(0.0)
        assert rep(moll2_offset, 0.0) == pytest.approx(exact, abs=1e-8)


class TestEmbedSigma:
    def test_constant_one(self, moll0, moll2):
        rep = embed_sigma(lambda x: 1.0)
        assert rep(moll0, 0.2) == 1.0 == rep(moll2, -0.9)

    def test_value_at_point(self, moll0):
        rep = embed_sigma(np.sin)
        assert rep(moll0, np.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_independent_of_test_function(self, moll0, moll2_offset):
        rep = embed_sigma(np.sin)
        assert rep(moll0, 0.3) == rep(moll2_offset, 0.3)


class TestFormalismTranslation:
    def test_round_trip_bit_identical(self):
        rep = embed_J(DiracDerivative(0))
        back = translate_formalism(translate_formalism(rep))
        for phi, x in random_probes(100):
            assert back(phi, x) == rep(phi, x)

    def test_j_to_c_matches_convolution_embedding(self):
        repC = translate_formalism(embed_J(DiracDerivative(0)))
        direct = embed_C(DiracDerivative(0))
        for phi, x in random_probes(20):
            assert repC(phi, x) == pytest.approx(direct(phi, x), abs=1e-12)

    def test_phi_independent_fixed_point(self, moll0):
        rep = embed_sigma(np.cos)
        out = translate_formalism(rep)
        assert out(moll0, 0.4) == rep(moll0, 0.4)


class TestAlgebra:
    def test_sigma_multiplicative_exactly(self, moll0):
        f, g = np.sin, np.cos
        lhs = mul(embed_sigma(f), embed_sigma(g))
        rhs = embed_sigma(lambda x: f(x) * g(x))
        for x in RNG.uniform(-1.5, 1.5, 25):
            assert lhs(moll0, x) - rhs(moll0, x) == 0.0

    def test_formalism_mismatch_raises(self):
        with pytest.raises(FormalismError):
            mul(embed_C(DiracDerivative(0)), embed_J(DiracDerivative(0)))

    def test_product_clears_linearity(self):
        r = embed_C(DiracDerivative(0))
        assert not mul(r, r).linear

    @pytest.mark.parametrize("op, value", [(sub, lambda u, v: u - v),
                                           (mul, lambda u, v: u * v)],
                             ids=["sub", "mul"])
    def test_operand_on_another_box_keeps_its_check(self, op, value, moll0):
        """A composite of operands on different open sets lives on their
        intersection: it raises where the narrower operand raises, with
        that operand's message, in either order."""
        wide = embed_C(smooth_density("sin"), omega=Box.interval(-2.5, 2.5))
        narrow = embed_C(smooth_density("x"), omega=Box.interval(-1.5, 1.5))
        phi = scale(moll0, 0.5)  # support B(x, 0.5) at x
        with pytest.raises(DomainError) as alone:
            narrow(phi, 1.2)  # inside the wide box, not the narrow one
        for r1, r2 in ((wide, narrow), (narrow, wide)):
            both = op(r1, r2)
            assert both(phi, 0.3) == value(r1(phi, 0.3), r2(phi, 0.3))
            with pytest.raises(DomainError) as got:
                both(phi, 1.2)
            assert str(got.value) == str(alone.value)

    def test_composite_lives_on_the_intersection(self):
        """None stands for the line, equal sets give the first operand's
        box, and the pullback lives on the pulled intersection."""
        a, b = Box.interval(-2.0, 1.0), Box.interval(-1.0, 2.0)
        sets = {(None, None): None, (a, None): a, (None, a): a,
                (a, Box.interval(-2.0, 1.0)): a, (a, b): Box(-1.0, 1.0)}
        for (s1, s2), want in sets.items():
            got = sub(embed_sigma(np.sin, omega=s1),
                      embed_C(DiracDerivative(0), omega=s2)).omega
            assert got == want and (want is not a or got is a)
        mu = get_diffeo("sin-bend", Box.interval(-2.5, 2.5))
        mixed = mul(embed_sigma(np.sin, omega=a),
                    embed_C(smooth_density("sin"), omega=b))
        on_one = mul(embed_sigma(np.sin, omega=Box(-1.0, 1.0)),
                     embed_C(smooth_density("sin"), omega=Box(-1.0, 1.0)))
        pulled = pullback_rep(mu, mixed)
        assert pulled.omega == pullback_rep(mu, on_one).omega
        assert pulled.row is not None

    def test_embedded_product_gap_strict_a2(self, moll2):
        """iota(x)^2 - iota(x^2) = eps^2 (m1^2 - m2), zero on strict A_2."""
        ix = embed_C(smooth_density("x"))
        ix2 = embed_C(smooth_density("x2"))
        gap = sub(mul(ix, ix), ix2)
        for eps in (0.5, 0.25, 0.0625):
            for x in (-0.9, 0.0, 0.7):
                assert abs(gap(scale(moll2, eps), x)) <= 1e-12


class TestPartialX:
    def test_mixed_set_composite_steps_on_the_intersection(self):
        """A composite of operands on a wide and a narrow set takes its
        x-derivative's step on their intersection whichever operand is the
        narrow one: both orders give the value of the composite with both
        operands on the narrow set, as does a sweep's row at alpha = 1."""
        wide, narrow = Box.interval(-2.5, 2.5), Box.interval(-1.5, 1.5)
        w = smooth_density("sin")

        def defect(s1, s2):
            return sub(embed_C(w, omega=s1), embed_sigma(np.sin, omega=s2))

        phi = scale(build_mollifier(0), 2.0**-16)
        x = 1.5 - 5e-5
        want = partial_x(defect(narrow, narrow), 1, phi, x, h=1e-4)
        # terms narrower than the step: K's last point takes a shrunk one
        path = TestObjectPath(
            None, 0.0022, "narrow",
            terms=(build_mollifier(1, radius=0.002, center=0.0002),
                   build_mollifier(0, radius=0.0015, center=-0.0001)),
            weights=lambda e, xs: [[0.6] * len(xs), [0.4] * len(xs)])
        spec = SweepSpec(i_min=2, i_max=7, K=np.array([-0.5, 1.4985]),
                         alphas=(1,), fit_window=4)
        table = sweep(defect(narrow, narrow), path, spec)[0].values
        for s1, s2 in ((wide, narrow), (narrow, wide)):
            assert partial_x(defect(s1, s2), 1, phi, x, h=1e-4) == want
            got = sweep(defect(s1, s2), path, spec)[0].values
            assert got.tobytes() == table.tobytes()

    def test_sigma_sin_derivative(self, moll0):
        rep = embed_sigma(np.sin)
        for x in (-0.8, 0.0, 0.5):
            got = partial_x(rep, 1, moll0, x, h=1e-5)
            assert got == pytest.approx(np.cos(x), abs=1e-8)

    def test_embed_j_x_derivative_vanishes(self, moll2_offset):
        rep = embed_J(Heaviside())
        assert partial_x(rep, 1, moll2_offset, 0.3, h=1e-5) == 0.0

    def test_delta_embedding_derivative(self, moll2_offset):
        """d/dx iota(delta)(S_eps phi, x) at 0 is -eps^{-2} phi'(0)."""
        rep = embed_C(DiracDerivative(0))
        eps = 2.0**-4
        expect = -moll2_offset.derivative()(0.0) / eps**2
        got = partial_x(rep, 1, scale(moll2_offset, eps), 0.0,
                        h=eps * 2.0**-7)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_second_derivative_of_sigma(self, moll0):
        rep = embed_sigma(np.sin)
        got = partial_x(rep, 2, moll0, 0.4, h=1e-3)
        assert got == pytest.approx(-np.sin(0.4), abs=1e-7)


class TestD1Derivative:
    def test_linear_exact_path(self, moll0, moll2):
        rep = embed_C(DiracDerivative(0))
        psi = tf_lincomb([1.0, -1.0], [moll0, moll2])  # zero mass
        got = d1_derivative(rep, moll0, 0.2, [psi])
        assert got == rep(psi, 0.2)

    def test_second_order_on_linear_is_zero(self, moll0, moll2):
        rep = embed_C(DiracDerivative(0))
        psi = tf_lincomb([1.0, -1.0], [moll0, moll2])
        assert d1_derivative(rep, moll0, 0.2, [psi, psi]) == 0.0

    def test_linear_checks_phi_then_each_direction(self, moll0, moll2):
        """A linear representative's d_1 tests (phi, x) on U(Omega) first,
        as rep(phi, x) does, and then each direction, at every order."""
        rep = embed_C(DiracDerivative(0), omega=Box.interval(-1.5, 1.5))
        psi = tf_lincomb([1.0, -1.0], [build_mollifier(0, radius=0.3),
                                       build_mollifier(2, radius=0.3)])
        assert abs(psi.mass()) <= 1e-10
        for x in (0.9, 5.0):
            with pytest.raises(DomainError) as value:
                rep(moll0, x)
            for dirs in ([psi], [psi, psi]):
                with pytest.raises(DomainError) as d1:
                    d1_derivative(rep, moll0, x, dirs)
                assert str(d1.value) == str(value.value)
        # phi admitted at x = 1.1, a wide direction not: it raises as rep
        phi, wide = scale(moll0, 0.25), tf_lincomb([1.0, -1.0], [moll0, moll2])
        assert rep.in_domain(phi, 1.1) and rep.in_domain(psi, 1.1)
        with pytest.raises(DomainError) as value:
            rep(wide, 1.1)
        for dirs in ([wide], [psi, wide], [wide, psi]):
            with pytest.raises(DomainError) as d1:
                d1_derivative(rep, phi, 1.1, dirs)
            assert str(d1.value) == str(value.value)

    def test_squared_mass_chain_rule(self, moll0, moll2):
        """R(phi,x) = (int phi)^2 is neither linear nor phi-independent:
        d1_derivative has no exact d_1 for it and raises."""
        rep = Representative(lambda phi, x: moment(phi, 0)**2, linear=False)
        psi = tf_lincomb([1.0, -1.0], [moll0, moll2])
        with pytest.raises(ValueError, match="no d_1 rows"):
            d1_derivative(rep, moll0, 0.0, [psi])

    @pytest.mark.parametrize("f", [np.sin, lambda x: np.inf],
                             ids=["sin", "inf"])
    def test_phi_independent_skips_the_perturbations(self, f, moll0, moll2):
        """A representative that ignores phi gives v - v (+0.0, or NaN from
        a value that is not finite) and checks the domain of the box
        covering phi and the directions; unflagged, it has no d_1."""
        om = Box.interval(-1.5, 1.5)
        flagged = embed_sigma(f, omega=om)
        plain = Representative(flagged.eval_fn, omega=om)
        assert flagged.phi_independent and not plain.phi_independent
        phi = scale(moll0, 0.25)
        psi = tf_lincomb([1.0, -1.0], [moll0, moll2])  # zero mass, radius 1
        v = f(0.3)
        for dirs in ([psi], [psi, scale(psi, 0.5)]):
            got = d1_derivative(flagged, phi, 0.3, dirs)
            assert np.array(got).tobytes() == np.array(v - v).tobytes()
            with pytest.raises(DomainError):
                d1_derivative(flagged, phi, 0.6, dirs)
            with pytest.raises(ValueError, match="no d_1 rows"):
                d1_derivative(plain, phi, 0.3, dirs)

    def test_nonzero_mass_direction_rejected(self, moll0, moll2):
        rep = embed_C(DiracDerivative(0))
        with pytest.raises(PreconditionError):
            d1_derivative(rep, moll0, 0.0, [moll2])

    def test_order_cap(self, moll0, moll2):
        rep = embed_C(DiracDerivative(0))
        psi = tf_lincomb([1.0, -1.0], [moll0, moll2])
        with pytest.raises(ValueError):
            d1_derivative(rep, moll0, 0.0, [psi, psi, psi])


class TestDjDerivative:
    @pytest.mark.parametrize("w", [DiracDerivative(0), DiracDerivative(1),
                                   Heaviside(), smooth_density("sin")],
                             ids=["delta", "delta1", "H", "sin"])
    def test_commutes_with_embedding(self, w):
        """D_j iota^J(F) = iota^J(dF) pointwise to 1e-8."""
        repJ = embed_J(w)
        repdF = embed_J(derivative(w))
        for phi, x in random_probes(5, seed=23):
            lhs = Dj_derivative(repJ, phi, x)
            assert abs(lhs - repdF(phi, x)) <= 1e-8

    def test_requires_j_formalism(self, moll0):
        with pytest.raises(FormalismError):
            Dj_derivative(embed_C(DiracDerivative(0)), moll0, 0.0)

    def test_constant_representative_vanishes(self, moll0):
        rep = Representative(lambda phi, x: 1.0, formalism="J", linear=False)
        rep.phi_independent = True
        assert Dj_derivative(rep, moll0, 0.1) == pytest.approx(0.0, abs=1e-9)


class TestLinearityInvariant:
    @pytest.mark.parametrize("w", [DiracDerivative(0), Heaviside(),
                                   smooth_density("sin")],
                             ids=["delta", "H", "sin"])
    def test_linear_flag_matches_behavior(self, w, moll0, moll2_offset):
        """Representatives flagged linear are additive and homogeneous in
        the test-function slot on random probes."""
        rep = embed_C(w)
        rng = np.random.default_rng(37)
        for _ in range(8):
            a, b = rng.uniform(-2, 2, 2)
            combo = tf_lincomb([a, b], [moll0, moll2_offset])
            x = float(rng.uniform(-0.5, 0.5))
            lhs = rep(combo, x)
            rhs = a * rep(moll0, x) + b * rep(moll2_offset, x)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestExpExpRepresentative:
    def test_unit_modulus(self, moll0):
        rep = ExpExpRepresentative(squared_mass_inner(1024))
        assert abs(rep(moll0, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_overflow_guard(self, moll0):
        """Past I = 700 the value channel raises, naming I; the log channel
        still answers."""
        rep = ExpExpRepresentative(lambda phi, x: 1e4)
        with pytest.raises(FloatingPointError, match="I = 10000"):
            rep(moll0, 0.0)
        got = rep.log_abs_dx(1e4, 1e4 + 1e-3, 1e4 - 1e-3, 1e-3)
        assert got == pytest.approx(1e4, abs=1e-6)

    @staticmethod
    def log_abs_dx_per_point(ival, up, dn, h):
        """The per-point formula of log_abs_dx, kept as the reference."""
        di = (up - dn) / (2.0 * h)
        noise = 8.0 * np.finfo(float).eps * max(abs(up), abs(dn), 1.0) \
            / (2.0 * h)
        if abs(di) <= noise:
            return -np.inf
        return ival + float(np.log(abs(di)))

    I_VALUES = st.one_of(st.floats(-5.0, 5.0), st.floats(700.0, 1e5))

    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.tuples(
        I_VALUES, I_VALUES,  # I(x), I(x - h)
        st.sampled_from([0.0, 1e-16, 1e-14, 1e-12, 1e-9, 1e-3, 1.0]),
        st.integers(-3, 3),  # I(x + h) - I(x - h) in units of max(|I|, 1)
        st.sampled_from([None, 0, 1, 2])), min_size=1, max_size=8),
        i=st.integers(2, 20))
    @example(points=[(1e4, 1e4, 1e-16, 1, None), (2.0, 3.0, 1e-3, 2, None),
                     (2.0, 3.0, 0.0, 0, 0), (2.0, 3.0, 1e-3, 1, 1),
                     (800.0, 900.0, 1e-3, -1, 2)], i=9)
    def test_log_abs_dx_on_arrays_is_the_per_point_formula(self, points, i):
        """Elementwise on arrays, and on floats, the per-point formula's
        floats: at the -inf noise floor and above I = 700.  A NaN among the
        three values gives NaN, so that a sweep's NaN check raises; the
        reference dropped a NaN I(x) below the floor as -inf."""
        h = 2.0**-i * 2.0**-7
        rep = ExpExpRepresentative(squared_mass_inner(1024))
        rows = []
        for ival, dn, unit, k, nan in points:
            row = [ival, dn + k * unit * max(abs(dn), 1.0), dn]
            if nan is not None:
                row[nan] = math.nan
            rows.append(row)
        got = rep.log_abs_dx(*np.array(rows).T, h)
        for g, row in zip(got.tolist(), rows, strict=True):
            want = self.log_abs_dx_per_point(*row, h)
            one = float(rep.log_abs_dx(*row, h))
            if not any(map(math.isnan, row)):
                assert g == want == one
            else:
                assert math.isnan(g) and math.isnan(one)
                assert math.isnan(want) or math.isnan(row[0]) and \
                    want == -np.inf

    def test_d1_log_magnitude_matches_analytic(self, moll0, moll2):
        """log |d1 R(phi)(psi)| = I + log |2 int phi psi| for the squared
        mass functional."""
        inner = squared_mass_inner(2048)
        rep = ExpExpRepresentative(inner)
        psi = tf_lincomb([1.0, -1.0], [moll0, moll2])
        ival = inner(moll0, 0.0)
        cross = oracle_trapezoid(lambda t: moll0.fn(t) * psi.fn(t),
                                 -1.0, 1.0, 16384)
        expect = ival + np.log(abs(2.0 * cross))
        got = rep.log_abs_d1(ival, [inner.d1(moll0, psi)])
        assert got == pytest.approx(expect, abs=1e-5)


class TestReprs:
    @staticmethod
    def built():
        """Representatives and densities as the lab builds them."""
        om = Box.interval(-2.5, 2.5)
        sin_defect = sub(embed_C(smooth_density("sin"), omega=om),
                         embed_sigma(np.sin, omega=om))
        return [sin_defect,
                mul(embed_C(smooth_density("x4"), omega=om),
                    embed_C(DiracDerivative(1), omega=om)),
                translate_formalism(embed_J(Heaviside())),
                ExpExpRepresentative(squared_mass_inner(256), om),
                pullback_rep(get_diffeo("sin-bend", om), sin_defect),
                Representative(lambda phi, x: 0.0),
                derivative(smooth_density("x4")),
                SmoothDensity(lambda t: t)]

    def test_a_repr_names_what_was_built(self):
        """The same in every construction, with no address in it."""
        first, again = map(repr, self.built()), map(repr, self.built())
        first = list(first)
        assert first == list(again)
        assert not any("0x" in r for r in first)
        assert first[0] == ("sub(embed_C(SmoothDensity(sin)), "
                            "embed_sigma(sin)) on (-2.5, 2.5)")
        assert first[-2:] == ["SmoothDensity(4*x^3)",
                              "SmoothDensity(TestReprs.built.<locals>."
                              "<lambda>)"]
