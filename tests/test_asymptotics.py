"""Sweep engine: order fitting, verdicts, CSV emission."""

import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from gfn_lab import asymptotics as asy
from gfn_lab.asymptotics import (SweepSeries, SweepSpec,
                                 counterexample_scenario, d1_form_test,
                                 emit_plotdata, fit_order, sweep,
                                 squared_mass_inner, write_sweep_csv)
from gfn_lab.basic_space import (ExpExpRepresentative, Representative,
                                 d1_derivative, embed_C, embed_sigma, mul, sub)
from gfn_lab.basic_space import pullback_pair_transform
from gfn_lab.diffeo import (Diffeomorphism, PartialDomain, compose, get_diffeo,
                            identity_map, pullback_rep)
from gfn_lab.distributions import DiracDerivative, smooth_density
from gfn_lab.scenarios import ScenarioConfig, run_scenario
from gfn_lab.test_objects import make_battery, perturbation_directions
from gfn_lab.testfunc import (Box, DomainError, TestFunction,
                              build_mollifier, scale, tf_lincomb)

from conftest import sup_abs
from probes import MemberPath, probed_tables, with_domain

OMEGA = Box.interval(-2.5, 2.5)
U = 0.5 * float(np.finfo(float).eps)  # the unit roundoff
EPS = 2.0 ** -np.arange(2, 13, dtype=float)


def series_from(values, is_log=False, eps=None):
    e = EPS if eps is None else eps
    return SweepSeries("synthetic", 0, e[:len(values)], np.asarray(values),
                       is_log=is_log)


class TestFitOrder:
    def test_exact_quadratic_power_law(self):
        v = fit_order(series_from(EPS**2), fit_window=6)
        assert abs(v.slope - 2.0) <= 0.01
        assert v.kind == "power"

    def test_exact_inverse_power_law(self):
        v = fit_order(series_from(EPS**-1), fit_window=6)
        assert abs(v.slope + 1.0) <= 0.01
        assert v.moderate_N() == 1

    def test_zero_rows_are_infinite_order(self):
        v = fit_order(series_from(np.zeros_like(EPS)), fit_window=6)
        assert v.kind == "zero" and v.slope == math.inf

    def test_superpolynomial_growth(self):
        """exp(1/eps) in the log channel: local slope magnitude doubles per
        halving, an unbounded strictly increasing sequence."""
        log2_vals = (1.0 / EPS) / math.log(2)
        v = fit_order(series_from(log2_vals, is_log=True), fit_window=8)
        assert v.kind == "superpoly"
        mags = np.abs(v.local_slopes)
        assert np.all(np.diff(mags) > 0)
        assert not v.is_moderate

    def test_oscillating_prefactor_still_power(self):
        vals = EPS**2 * (1.5 + np.cos(np.arange(len(EPS))))
        v = fit_order(series_from(vals), fit_window=8)
        assert v.kind == "power"
        assert abs(v.slope - 2.0) <= 0.3

    def test_moderate_N_rounding(self):
        assert fit_order(series_from(EPS**-1), 6).moderate_N() == 1
        assert fit_order(series_from(EPS**0.1), 6).moderate_N() == 0
        assert fit_order(series_from(EPS**-2.5), 6).moderate_N() == 3

    def test_log_table_with_inf_raises(self):
        """A blow-up is not a zero: +inf in the log channel names its eps."""
        log2_vals = np.log2(EPS**-1)
        log2_vals[-3:] = math.inf
        with pytest.raises(FloatingPointError,
                           match=rf"synthetic.*eps={EPS[-3]:g}"):
            fit_order(series_from(log2_vals, is_log=True), fit_window=6)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_value_table_with_inf_or_nan_raises(self, bad):
        vals = EPS**-1
        vals[-2] = bad
        with pytest.raises(FloatingPointError,
                           match=rf"synthetic.*eps={EPS[-2]:g}"):
            fit_order(series_from(vals), fit_window=6)

    def test_log_minus_inf_counts_as_zero(self):
        log2_vals = np.log2(EPS**2)
        log2_vals[-2:] = -math.inf
        v = fit_order(series_from(log2_vals, is_log=True), fit_window=6)
        assert v.n_zero == 2 and v.kind == "power"
        assert v.slope == pytest.approx(2.0, abs=1e-12)


class TestSweep:
    def test_delta_table_rows(self, moll2_offset):
        """For small eps only the grid point x = 0 is inside the scaled
        support, so the row equals 2^i |phi(eps,0)(0)|."""
        bat = make_battery("full_path", 0, 1, seed=21, flavor="strict")
        spec = SweepSpec(i_min=2, i_max=12, K=np.linspace(-1, 1, 41),
                         alphas=(0,), fit_window=6)
        rep = embed_C(DiracDerivative(0), omega=OMEGA)
        ser = sweep(rep, bat[0], spec)[0]
        for j, e in enumerate(ser.eps):
            i = -math.log2(e)
            if i >= 6:
                expect = abs(bat[0](e, 0.0)(0.0)) / e
                assert ser.values[j] == pytest.approx(expect, rel=1e-12)

    def test_sigma_table_constant(self, moll0):
        bat = make_battery("full_path", 0, 1, seed=21)
        spec = SweepSpec(i_min=2, i_max=8, K=np.linspace(-1, 1, 21),
                         alphas=(0,), fit_window=4)
        ser = sweep(embed_sigma(np.sin, omega=OMEGA), bat[0], spec)[0]
        assert np.all(ser.values == ser.values[0])
        assert ser.values[0] == pytest.approx(np.sin(1.0), abs=1e-12)

    def test_domain_violation_names_point(self):
        """A point outside the path's partial domain raises, naming it."""
        src = make_battery("full_path", 0, 1, seed=9, flavor="strict")[0]
        path = with_domain(src, PartialDomain(
            lambda e, x: abs(x) < 2.0 or e < 2.0**-5))
        spec = SweepSpec(i_min=2, i_max=8, K=np.linspace(-2.3, 2.3, 5),
                         alphas=(0,), fit_window=4)
        rep = embed_C(DiracDerivative(0), omega=OMEGA)
        with pytest.raises(DomainError, match=r"eps=0\.25, x=-2\.3\) outside "
                                              r"the partial domain"):
            sweep(rep, path, spec)

    def test_nan_probe_names_point(self):
        """A NaN at one K point raises instead of reaching the max."""
        bat = make_battery("full_path", 0, 1, seed=21)
        rep = embed_sigma(lambda x: math.nan if x == 0.5 else 1.0)
        spec = SweepSpec(i_min=2, i_max=8, K=np.linspace(-1, 1, 5),
                         alphas=(0,), fit_window=4)
        with pytest.raises(FloatingPointError, match=r"eps=0\.25, x=0\.5"):
            sweep(rep, bat[0], spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(i_min=1, i_max=10)
        with pytest.raises(ValueError):
            SweepSpec(i_min=2, i_max=22)
        with pytest.raises(ValueError):
            SweepSpec(i_min=2, i_max=10, fit_window=3)
        with pytest.raises(ValueError):
            SweepSpec(i_min=2, i_max=5, fit_window=6)


class TestModerateness:
    def test_delta_embedding_is_order_minus_one(self):
        bat = make_battery("full_path", 0, 2, seed=21)
        spec = SweepSpec(i_min=2, i_max=12, K=np.linspace(-1, 1, 21),
                         alphas=(0,), fit_window=6)
        rep = asy.test_moderate(embed_C(DiracDerivative(0), omega=OMEGA), bat, spec)
        assert rep.passed and rep.N == 1
        for v in rep.verdicts:
            assert abs(v.slope + 1.0) <= 0.05

    def test_sigma_is_order_zero(self):
        bat = make_battery("full_path", 0, 2, seed=21)
        spec = SweepSpec(i_min=2, i_max=12, K=np.linspace(-1, 1, 21),
                         alphas=(0,), fit_window=6)
        rep = asy.test_moderate(embed_sigma(np.sin, omega=OMEGA), bat, spec)
        assert rep.passed and rep.N == 0

    def test_identity_pullback_table_bit_identical(self):
        bat = make_battery("full_path", 0, 2, seed=21)
        spec = SweepSpec(i_min=2, i_max=10, K=np.linspace(-1, 1, 11),
                         alphas=(0,), fit_window=5)
        base = embed_C(DiracDerivative(0), omega=OMEGA)
        r1 = asy.test_moderate(base, bat, spec)
        r2 = asy.test_moderate(pullback_rep(identity_map(OMEGA), base), bat, spec)
        for s1, s2 in zip(r1.series, r2.series):
            np.testing.assert_array_equal(s1.values, s2.values)


class TestNothingToJudge:
    """A verdict over no point, no member or no direction beyond the second
    raises instead of passing vacuously."""

    SPEC = SweepSpec(i_min=2, i_max=8, K=np.linspace(-1, 1, 5),
                     alphas=(0,), fit_window=4)

    @staticmethod
    def delta():
        return embed_C(DiracDerivative(0))

    def test_moderate_over_an_empty_K_raises(self):
        bat = make_battery("static", 0, 2, 7)
        with pytest.raises(ValueError, match="K"):
            asy.test_moderate(self.delta(), bat, SweepSpec(K=np.array([])))

    def test_negligible_over_an_empty_K_raises(self):
        """An empty K would witness q = n for every n of the delta, which
        has no witness on a real K."""
        def factory(kind, q):
            flavor = "strict" if kind == "strict" else "cm"
            return make_battery("full_path", q, 1, seed=3, flavor=flavor)

        with pytest.raises(ValueError, match="K"):
            asy.test_negligible(self.delta(), [0, 1, 2, 3],
                                SweepSpec(K=np.array([])), factory, q_max=3)

    def test_sweep_over_no_derivative_order_raises(self):
        """No alpha used to pass negligibility with witness q = n and order
        inf for every n, and to blame moderateness on an empty battery."""
        def factory(kind, q):
            return make_battery("full_path", q, 1, seed=3, flavor=kind)

        with pytest.raises(ValueError, match="alphas"):
            asy.test_negligible(self.delta(), [0, 1, 2, 3],
                                SweepSpec(alphas=()), factory)
        with pytest.raises(ValueError, match="alphas"):
            asy.test_moderate(self.delta(), make_battery("static", 0, 2, 7),
                              SweepSpec(alphas=()))

    @pytest.mark.parametrize("alphas", [(0, 5), (-1,), (0.5,), (0, 1, 2, 9)])
    def test_unsupported_derivative_order_raises(self, alphas):
        with pytest.raises(ValueError, match="alphas"):
            SweepSpec(alphas=alphas)

    @pytest.mark.parametrize("alphas", [(0,), (0, 1), (1, 2, 3, 4)])
    def test_supported_derivative_orders_pass(self, alphas):
        assert SweepSpec(alphas=alphas).alphas == alphas

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_K_with_a_point_that_is_not_finite_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(K=np.array([-0.5, bad, 0.5]))

    def test_moderate_over_an_empty_battery_raises(self):
        with pytest.raises(ValueError, match="no verdict"):
            asy.test_moderate(self.delta(), [], self.SPEC)

    def test_d1_form_over_an_empty_battery_raises(self):
        dirs = perturbation_directions(2, seed=5)
        with pytest.raises(ValueError, match="no verdict"):
            d1_form_test(self.delta(), [], dirs, 2, self.SPEC)

    @pytest.mark.parametrize("empty", ["strict", "cm"])
    def test_negligible_over_an_empty_battery_raises(self, empty):
        def factory(kind, q):
            if kind == empty:
                return []
            return make_battery("full_path", q, 1, seed=3, flavor=kind)

        with pytest.raises(ValueError, match=f"empty {empty} battery"):
            asy.test_negligible(self.delta(), [0], self.SPEC, factory,
                                q_max=1)

    def test_negligible_over_no_decay_order_raises(self):
        """No decay order used to pass with no entry."""
        def factory(kind, q):
            return make_battery("full_path", q, 1, seed=3, flavor=kind)

        with pytest.raises(ValueError, match="no decay order"):
            asy.test_negligible(self.delta(), [], self.SPEC, factory)

    def test_d1_form_with_three_directions_raises(self):
        """A third direction used to be dropped without a word."""
        bat = make_battery("static", 0, 1, seed=6)
        dirs = perturbation_directions(3, seed=5)
        with pytest.raises(ValueError, match="at most two directions"):
            d1_form_test(embed_C(DiracDerivative(0), omega=OMEGA), bat, dirs,
                         2, self.SPEC)

    def test_d1_form_of_a_nonlinear_representative_raises(self):
        """A representative that is neither linear, phi-independent nor a
        log channel has no d_1 rows: k_max >= 1 raises, k = 0 sweeps."""
        bat = make_battery("static", 0, 1, seed=6)
        dirs = perturbation_directions(2, seed=5)
        square = mul(embed_C(DiracDerivative(0), omega=OMEGA),
                     embed_C(DiracDerivative(0), omega=OMEGA))
        for k_max in (1, 2):
            with pytest.raises(ValueError, match="no d_1 rows"):
                d1_form_test(square, bat, dirs, k_max, self.SPEC)
        assert len(d1_form_test(square, bat, dirs, 0, self.SPEC).series) == 1


class TestNegligibility:
    def test_zero_representative_witness_is_n(self):
        rep = Representative(lambda phi, x: 0.0, linear=True, omega=OMEGA)
        rep.row = lambda member, xs: np.zeros(len(xs))
        spec = SweepSpec(i_min=2, i_max=8, K=np.linspace(-1, 1, 5),
                         alphas=(0,), fit_window=4)

        def factory(kind, q):
            flavor = "strict" if kind == "strict" else "cm"
            return make_battery("full_path", q, 1, seed=3, flavor=flavor)

        out = asy.test_negligible(rep, [0, 1, 2], spec, factory)
        assert out.passed
        for n, entry in out.entries.items():
            assert entry.witness_q == n

    def test_embedding_defect_witnesses(self):
        """iota(f) - sigma(f) decays one order beyond the moment class."""
        diff = sub(embed_C(smooth_density("sin"), omega=OMEGA),
                   embed_sigma(np.sin, omega=OMEGA))
        spec = SweepSpec(i_min=2, i_max=9, K=np.linspace(-1, 1, 7),
                         alphas=(0,), fit_window=6)

        def factory(kind, q):
            flavor = "strict" if kind == "strict" else "cm"
            return make_battery("full_path", q, 2, seed=31 + q, flavor=flavor)

        out = asy.test_negligible(diff, [1, 2], spec, factory)
        assert out.passed
        assert out.entries[1].witness_q <= 1
        assert out.entries[2].witness_q <= 2


class TestD1Form:
    def test_linear_first_order_term(self):
        """For iota(delta), the k=1 term is the delta evaluation at the
        scaled direction: order -1."""
        bat = make_battery("static", 0, 2, seed=6)
        dirs = perturbation_directions(2, seed=5)
        spec = SweepSpec(i_min=2, i_max=10, K=np.linspace(-1, 1, 11),
                         alphas=(0,), fit_window=5)
        rep = d1_form_test(embed_C(DiracDerivative(0), omega=OMEGA), bat,
                           dirs, 1, spec)
        assert rep.passed and rep.N == 1
        k1 = [v for v in rep.verdicts if "|k1" in v.member_id]
        assert k1 and all(abs(v.slope + 1.0) <= 0.05 for v in k1)

    def test_k0_matches_static_sweep(self):
        bat = make_battery("static", 0, 1, seed=6)
        dirs = perturbation_directions(1, seed=5)
        spec = SweepSpec(i_min=2, i_max=10, K=np.linspace(-1, 1, 11),
                         alphas=(0,), fit_window=5)
        base = embed_C(DiracDerivative(0), omega=OMEGA)
        d1rep = d1_form_test(base, bat, dirs, 0, spec)
        direct = sweep(base, bat[0], spec)[0]
        k0 = [v for v in d1rep.verdicts if "|k0" in v.member_id][0]
        assert abs(k0.slope - fit_order(direct, 5).slope) <= 1e-12

    def test_report_series_are_the_fitted_tables(self):
        """The report carries one table per verdict, in verdict order."""
        bat = make_battery("static", 0, 2, seed=6)
        dirs = perturbation_directions(2, seed=5)
        spec = SweepSpec(i_min=2, i_max=8, K=np.linspace(-1, 1, 5),
                         alphas=(0,), fit_window=4)
        rep = d1_form_test(embed_C(DiracDerivative(0), omega=OMEGA), bat,
                           dirs, 2, spec)
        assert len(rep.series) == len(rep.verdicts) == 5 * len(bat)
        for ser, v in zip(rep.series, rep.verdicts, strict=True):
            assert ser.member_id == v.member_id
            assert fit_order(ser, 4).slope == v.slope

    def test_sigma_higher_terms_vanish(self):
        bat = make_battery("static", 0, 1, seed=6)
        dirs = perturbation_directions(2, seed=5)
        spec = SweepSpec(i_min=2, i_max=10, K=np.linspace(-1, 1, 11),
                         alphas=(0,), fit_window=5)
        rep = d1_form_test(embed_sigma(np.sin, omega=OMEGA), bat, dirs, 2, spec)
        assert rep.passed and rep.N == 0
        for v in rep.verdicts:
            if "|k1" in v.member_id or "|k2" in v.member_id:
                assert v.kind == "zero"


    D1_SPEC = SweepSpec(i_min=2, i_max=8, K=np.linspace(-1, 1, 5),
                        alphas=(0,), fit_window=4)

    @staticmethod
    def counted_squared_mass(calls):
        """The counterexample representative, the points of its inner's
        row calls recorded and its inner's d_1 calls as "d1"."""
        inner = squared_mass_inner(1024)
        row, d1 = inner.row, inner.d1
        inner.row = lambda member, xs: calls.extend(xs) or row(member, xs)
        inner.d1 = lambda phi, psi: calls.append("d1") or d1(phi, psi)
        return ExpExpRepresentative(inner, omega=OMEGA)

    def test_log_rows_read_I_and_each_d1_once(self):
        """The squared-mass inner and its d_1 read phi alone: each row
        costs I once and d_1 I once per direction, whatever K holds."""
        bat = make_battery("static", 0, 2, seed=6)
        dirs = perturbation_directions(2, seed=5)
        one_point = dataclasses.replace(self.D1_SPEC, K=self.D1_SPEC.K[:1])
        calls, per_point = [], []
        d1_form_test(self.counted_squared_mass(calls), bat, dirs, 2,
                     self.D1_SPEC)
        d1_form_test(self.counted_squared_mass(per_point), bat, dirs, 2,
                     one_point)
        assert calls == [-1.0, "d1", "d1"] * len(bat) * len(self.D1_SPEC.eps)
        assert calls == per_point

    def test_pulled_back_log_channel_has_no_d1_rows(self):
        """A pulled-back inner depends on x and has no exact d_1: its log
        channel sweeps k = 0, and k >= 1 raises."""
        rep = ExpExpRepresentative(squared_mass_inner(1024), omega=OMEGA)
        mu = get_diffeo("sin-bend", OMEGA)
        pulled = rep.compose_pullback(mu)
        assert hasattr(rep.inner, "d1") and not hasattr(pulled.inner, "d1")
        bat = make_battery("static", 0, 1, seed=6)
        dirs = perturbation_directions(2, seed=5)
        for k_max in (1, 2):
            with pytest.raises(ValueError, match="no d_1 rows"):
                d1_form_test(pulled, bat, dirs, k_max, self.D1_SPEC)
        assert len(d1_form_test(pulled, bat, dirs, 0, self.D1_SPEC).series) \
            == 1

    def test_shared_terms_sum_like_log_abs_d1(self):
        """Each tuple summed from I and the d_1 I read once per row equals
        log_abs_d1 on that tuple, and k I + sum log |2 int phi psi_j|, bit
        for bit; an exactly-zero d_1 I gives -inf."""
        rep = ExpExpRepresentative(squared_mass_inner(1024), omega=OMEGA)
        bat = make_battery("static", 0, 1, seed=6)
        zero = TestFunction(0.0, 0.5, np.zeros_like)
        dirs = [perturbation_directions(1, seed=5)[0], zero]
        report = d1_form_test(rep, bat, dirs, 2, self.D1_SPEC)
        tuples = [(0,), (1,), (0, 0), (0, 1)]
        for j, e in enumerate(self.D1_SPEC.eps.tolist()):
            phi = scale(bat[0](), e)
            psis = [scale(d, e) for d in dirs]
            for ser, idx in zip(report.series[1:], tuples, strict=True):
                want = rep.log_abs_d1(rep.inner(phi, 0.0), [
                    rep.inner.d1(phi, psis[i]) for i in idx])
                assert ser.values[j] == want / asy.LN2
                if 1 in idx:
                    assert want == -np.inf
                else:
                    straight = len(idx) * rep.inner(phi, 0.0)
                    for i in idx:
                        straight += float(np.log(abs(
                            rep.inner.d1(phi, psis[i]))))
                    assert want == straight

    @pytest.mark.parametrize("exact_d1", [True, False])
    def test_log_channel_is_checked_on_U_Omega(self, exact_d1):
        """The log channel raises where test_moderate raises on the same
        members: with the squared-mass inner at k_max = 2; with a plain
        wrapper of it, which has no exact d_1, at k_max = 0, while
        k_max >= 1 raises ``ValueError`` up front."""
        inner = squared_mass_inner(1024)
        if not exact_d1:
            wrapper = (lambda f: lambda phi, x: f(phi, x))(inner)
            wrapper.row = inner.row
            inner = wrapper
        rep = ExpExpRepresentative(inner, omega=Box.interval(-0.5, 0.5))
        bat = make_battery("static", 0, 2, 6)
        dirs = perturbation_directions(2, 5)
        with pytest.raises(DomainError, match="x=-1.0") as moderate:
            asy.test_moderate(rep, bat, self.D1_SPEC)
        if not exact_d1:
            for k_max in (1, 2):
                with pytest.raises(ValueError, match="no d_1 rows"):
                    d1_form_test(rep, bat, dirs, k_max, self.D1_SPEC)
        with pytest.raises(DomainError) as d1:
            d1_form_test(rep, bat, dirs, 2 if exact_d1 else 0, self.D1_SPEC)
        assert str(d1.value) == str(moderate.value)

    def test_reused_row_keeps_the_domain_check(self):
        """A probe reused along the row still checks every point of K."""

        class RejectFrom:
            def contains(self, eps, x):
                return x < 0.5

        path = with_domain(make_battery("static", 0, 1, seed=6)[0],
                           RejectFrom())
        dirs = perturbation_directions(2, seed=5)
        calls = []
        rep = self.counted_squared_mass(calls)
        with pytest.raises(DomainError, match=r"eps=0\.25, x=0\.5"):
            d1_form_test(rep, [path], dirs, 2, self.D1_SPEC)
        assert calls == [-1.0, "d1", "d1"]


class TestExactD1:
    """The squared-mass inner's exact d_1 on the d1-form scenario's seed-7
    static members and directions, at eps = 2^-2..2^-12 and n = 1024."""

    BATTERY = make_battery("static", 0, 4, seed=13)
    DIRECTIONS = perturbation_directions(2, seed=12)
    I_MAX = 12
    inner = staticmethod(squared_mass_inner(1024))
    cases = pytest.mark.parametrize(
        "member,i", list(itertools.product(range(4), range(2, I_MAX + 1))))

    def scaled(self, member, eps):
        return (scale(self.BATTERY[member](), eps),
                [scale(psi, eps) for psi in self.DIRECTIONS])

    @cases
    def test_d1_is_linear_in_the_direction(self, member, i):
        phi, (p0, p1) = self.scaled(member, 2.0**-i)
        d0, d1 = self.inner.d1(phi, p0), self.inner.d1(phi, p1)
        for a, b in ((1.0, 1.0), (0.7, -1.3), (-2.5, 0.0)):
            got = self.inner.d1(phi, tf_lincomb([a, b], [p0, p1]))
            assert abs(got - (a * d0 + b * d1)) <= \
                1e-14 * (abs(a * d0) + abs(b * d1))

    @cases
    def test_d1_agrees_with_the_central_quotient(self, member, i):
        """The quotient of I at phi +- t psi, t = 1e-4 sup|phi| / sup|psi|,
        is 2 int phi psi in exact arithmetic: I is quadratic."""
        phi, psis = self.scaled(member, 2.0**-i)
        for psi in psis:
            t = 1e-4 * sup_abs(phi) / sup_abs(psi)
            up = self.inner(tf_lincomb([1.0, t], [phi, psi]), 0.0)
            dn = self.inner(tf_lincomb([1.0, -t], [phi, psi]), 0.0)
            want = (up - dn) / (2.0 * t)
            assert abs(self.inner.d1(phi, psi) - want) <= 1e-9 * abs(want)

    @staticmethod
    def probed_log_tables(rep, battery, directions, spec):
        """Per member and tuple, the sup over K of log_abs_d1 in log2 at
        every point (0 for k = 0), in d1_form_test's order."""
        tuples = [(), (0,), (1,), (0, 0), (0, 1)]
        tables = []
        for path in battery:
            phi0 = path(1.0, 0.0)
            rows = []
            for e in spec.eps.tolist():
                sphi = scale(phi0, e)
                psis = [scale(psi, e) for psi in directions]
                rows.append([max(rep.log_abs_d1(rep.inner(sphi, x), [
                    rep.inner.d1(sphi, psis[i]) for i in idx]) / asy.LN2
                    for x in spec.K.tolist()) for idx in tuples])
            tables += [np.array(col) for col in zip(*rows)]
        return tables

    def test_log_abs_d1_is_the_d1_form_row(self):
        """Each log table is, bit for bit, the sup over K of log_abs_d1
        probed at every point, and so is each verdict."""
        spec = SweepSpec(i_min=2, i_max=self.I_MAX, K=np.linspace(-1, 1, 5),
                         alphas=(0,), fit_window=4)
        rep = ExpExpRepresentative(self.inner, omega=OMEGA)
        got = d1_form_test(rep, self.BATTERY, self.DIRECTIONS, 2, spec)
        want = self.probed_log_tables(rep, self.BATTERY, self.DIRECTIONS,
                                      spec)
        assert len(got.series) == len(want) == 5 * len(self.BATTERY)
        for ser, v, table in zip(got.series, got.verdicts, want, strict=True):
            assert ser.values.tobytes() == table.tobytes()
            w = fit_order(dataclasses.replace(ser, values=table), 4)
            assert (v.kind, v.n_zero, v.slope, v.intercept, v.residual) == \
                (w.kind, w.n_zero, w.slope, w.intercept, w.residual)


class TestD1FormSharedDirections:
    """A linear representative's k >= 1 magnitudes, R(S_eps psi, x) and 0,
    do not depend on the member: the battery pairs each direction once per
    (eps, x), with the same tables as a per-member loop."""

    SPEC = SweepSpec(i_min=2, i_max=7, K=np.linspace(-1, 1, 5),
                     alphas=(0,), fit_window=4)

    @staticmethod
    def linear_catalog():
        from gfn_lab.distributions import Heaviside
        return [embed_C(DiracDerivative(0), omega=OMEGA),
                embed_C(Heaviside(), omega=OMEGA),
                embed_C(smooth_density("sin"), omega=OMEGA)]

    @staticmethod
    def reference_tables(rep, battery, directions, spec):
        """d1_derivative per member, per eps, per point and per tuple."""
        tuples = [(), (0,), (1,), (0, 0), (0, 1)]
        tables = []
        for path in battery:
            phi0 = path(1.0, 0.0)
            rows = []
            for e in spec.eps:
                e = float(e)
                sphi = scale(phi0, e)
                scaled = [scale(psi, e) for psi in directions]
                rows.append([max(abs(d1_derivative(rep, sphi, float(x),
                                                   [scaled[i] for i in idx]))
                                 for x in spec.K)
                             for idx in tuples])
            tables += [np.asarray(col) for col in zip(*rows)]
        return tables

    def test_pairings_do_not_grow_with_the_battery(self):
        """Each direction's row is evaluated once per eps for the whole
        battery, and each member's own row once per eps; as every value is
        read from the row, no other call shows that nothing is paired
        point by point."""
        dirs = perturbation_directions(2, seed=5)
        rows = len(self.SPEC.eps)
        for rep in self.linear_catalog():
            calls = []
            row = rep.row
            rep.row = lambda member, xs, row=row: \
                calls.append(member[1]) or row(member, xs)
            for count in (1, 4):
                calls.clear()
                bat = make_battery("static", 0, count, seed=6)
                d1_form_test(rep, bat, dirs, 2, self.SPEC)
                on_dirs = [sum(terms == d._terms[1] for terms in calls)
                           for d in dirs]
                assert on_dirs == [rows, rows]
                assert len(calls) - sum(on_dirs) == count * rows

    def test_tables_match_a_per_member_loop(self):
        bat = make_battery("static", 0, 3, seed=6)
        dirs = perturbation_directions(2, seed=5)
        for rep in self.linear_catalog() + [embed_sigma(np.sin, omega=OMEGA)]:
            got = d1_form_test(rep, bat, dirs, 2, self.SPEC)
            want = self.reference_tables(rep, bat, dirs, self.SPEC)
            assert len(got.series) == len(want)
            for ser, values in zip(got.series, want, strict=True):
                assert np.array_equal(ser.values, values), ser.member_id

    def test_direction_with_mass_still_raises(self):
        from gfn_lab.basic_space import PreconditionError
        from gfn_lab.testfunc import build_mollifier
        bat = make_battery("static", 0, 2, seed=6)
        for rep in self.linear_catalog():
            for k_max in (1, 2):
                with pytest.raises(PreconditionError, match="mass"):
                    d1_form_test(rep, bat, [build_mollifier(0, radius=0.8)],
                                 k_max, self.SPEC)

    def test_second_member_domain_is_checked(self):
        """Magnitudes shared from the first member do not skip the second
        member's domain check."""

        class RejectFrom:
            def contains(self, eps, x):
                return not (eps == 0.125 and x >= 0.5)

        first, second = make_battery("static", 0, 2, seed=6)
        second = with_domain(second, RejectFrom())
        dirs = perturbation_directions(2, seed=5)
        for rep in self.linear_catalog():
            with pytest.raises(DomainError,
                               match=rf"eps=0\.125, x=0\.5\).*"
                                     rf"{second.member_id!r}"):
                d1_form_test(rep, [first, second], dirs, 2, self.SPEC)

    @pytest.mark.parametrize("k_max", [-1, 3])
    def test_order_outside_range_rejected(self, k_max):
        bat = make_battery("static", 0, 1, seed=6)
        dirs = perturbation_directions(2, seed=5)
        with pytest.raises(ValueError, match="0..2"):
            d1_form_test(embed_C(DiracDerivative(0), omega=OMEGA), bat, dirs,
                         k_max, self.SPEC)

    @pytest.mark.parametrize("k_max", [1, 2])
    def test_directional_order_without_directions_rejected(self, k_max):
        bat = make_battery("static", 0, 1, seed=6)
        for rep in (embed_C(DiracDerivative(0), omega=OMEGA),
                    ExpExpRepresentative(squared_mass_inner(1024),
                                         omega=OMEGA)):
            with pytest.raises(ValueError, match="direction"):
                d1_form_test(rep, bat, [], k_max, self.SPEC)
        d1_form_test(embed_C(DiracDerivative(0), omega=OMEGA), bat, [], 0,
                     self.SPEC)


class TestVerdictInvariance:
    """Moderateness verdicts survive the diffeomorphism action: the pulled
    back representative tests with the same N, and sweeping the original
    against the transformed battery reproduces it too."""

    @pytest.mark.parametrize("name", ["affine-2x", "sin-bend"])
    @pytest.mark.parametrize("dist,expected_N",
                             [("delta", 1), ("H", 0), ("sin", 0)])
    def test_same_N_after_pullback(self, name, dist, expected_N):
        from gfn_lab.diffeo import transform_test_object
        from gfn_lab.distributions import Heaviside
        w = {"delta": DiracDerivative(0), "H": Heaviside(),
             "sin": smooth_density("sin")}[dist]
        mu = get_diffeo(name, OMEGA)
        rep = embed_C(w, omega=OMEGA)
        bat = make_battery("full_path", 0, 2, seed=41, flavor="strict")
        K = np.linspace(-0.7, 0.7, 7)
        spec = SweepSpec(i_min=3, i_max=10, K=K, alphas=(0,), fit_window=5)

        base = asy.test_moderate(rep, bat, spec)
        assert base.passed and base.N == expected_N

        pulled = asy.test_moderate(pullback_rep(mu, rep), bat, spec)
        assert pulled.passed and pulled.N == expected_N

        # a transformed path has no coefficient form: its tables are
        # probed point by point
        verdicts, series = [], []
        for path in bat:
            out = transform_test_object(mu, path)
            out.domain.register_compact(K)
            [[values]] = probed_tables(rep, out, spec)
            series.append(SweepSeries(out.member_id, 0, spec.eps, values))
            verdicts.append(fit_order(series[-1], spec.fit_window))
        via_battery = asy._moderate_report(verdicts, series)
        assert via_battery.passed and via_battery.N == expected_N


class TestCounterexample:
    def test_inner_scale_at_identity(self, moll0):
        """int |S_eps phi|^2 = eps^{-1} int |phi|^2."""
        inner = squared_mass_inner(4096)
        base = inner(moll0, 0.0)
        for eps in (0.5, 0.125, 2.0**-8):
            got = inner(scale(moll0, eps), 0.0)
            assert got == pytest.approx(base / eps, rel=1e-9)

    def test_full_scenario(self):
        mu = get_diffeo("sin-bend", OMEGA)
        src = make_battery("eps_path", 0, 1, seed=13)[0]
        eps_bat = make_battery("eps_path", 0, 2, seed=14)
        spec = SweepSpec(i_min=4, i_max=12, K=np.linspace(-1, 1, 7),
                         alphas=(1,), fit_window=9)
        rep = counterexample_scenario(mu, src, spec, eps_bat, quad_n=1024)
        assert rep.value_deviation == 0.0
        assert rep.untransformed.passed and rep.untransformed.N == 0
        assert rep.verdict.kind == "superpoly"
        assert rep.strictly_increasing
        assert rep.slope_ratio >= 10

    def test_affine_map_does_not_trigger(self):
        """An affine map keeps the transformed inner functional
        x-independent: the log-derivative table is identically empty of
        growth (zero kind), matching the class invariance of linear maps."""
        mu = get_diffeo("affine-2x", OMEGA)
        src = make_battery("eps_path", 0, 1, seed=13)[0]
        eps_bat = make_battery("eps_path", 0, 1, seed=14)
        spec = SweepSpec(i_min=4, i_max=12, K=np.linspace(-1, 1, 7),
                         alphas=(1,), fit_window=9)
        rep = counterexample_scenario(mu, src, spec, eps_bat, quad_n=1024)
        assert rep.verdict.kind == "zero"

    def test_no_slopes_give_a_failing_ratio(self, tmp_path):
        """Under an affine map the log table is exactly -inf and has no
        local slope: the ratio is NaN, not inf, so the scenario's
        slope-ratio assertion fails instead of passing on nothing."""
        res = run_scenario(ScenarioConfig("counterexample", seed=7,
                                          diffeo="affine-2x",
                                          out=str(tmp_path)))
        ratio, = [a for a in res.assertions if a.name == "slope-ratio"]
        assert ratio.observed == "nan" and not ratio.passed

    def test_a_point_outside_omega_raises(self, tmp_path):
        """The configured Omega holds: K = [-1, 1] reaches past (-0.9, 0.9),
        so the run raises instead of passing on points outside it."""
        with pytest.raises(DomainError):
            run_scenario(ScenarioConfig("counterexample", omega=(-0.9, 0.9),
                                        out=str(tmp_path)))

    def test_a_nan_modulus_fails(self, tmp_path, monkeypatch):
        """A NaN value of R is no evidence of |R| = 1: modulus-one reads
        it and fails, where a running max(0, NaN) kept the 0."""
        monkeypatch.setattr(ExpExpRepresentative, "__call__",
                            lambda self, phi, x: complex(math.nan))
        res = run_scenario(ScenarioConfig("counterexample", seed=7,
                                          out=str(tmp_path)))
        mod, = [a for a in res.assertions if a.name == "modulus-one"]
        assert mod.observed == "nan" and not mod.passed

    def test_overflowing_probe_raises(self):
        """A probe whose I passes 700 gives no evidence of |R| = 1: the
        modulus check raises, naming I, instead of passing."""
        probe = scale(build_mollifier(0), 2.0**-11)
        src = MemberPath(lambda e, x: probe, probe.radius, "overflow-probe")
        mu = get_diffeo("sin-bend", OMEGA)
        eps_bat = make_battery("eps_path", 0, 1, seed=14)
        spec = SweepSpec(i_min=4, i_max=12, K=np.linspace(-1, 1, 7),
                         alphas=(1,), fit_window=9)
        with pytest.raises(FloatingPointError, match=r"I = 1382\.\d"):
            counterexample_scenario(mu, src, spec, eps_bat, quad_n=1024)


class TestPulledSquaredMass:
    """The squared-mass inner pulled back along a map integrates in source
    coordinates, per point and as a row."""

    @pytest.mark.parametrize("name", ["sin-bend", "cubic", "sin-bend.cubic"])
    def test_within_the_floor_of_the_transform(self, name):
        """Through ``pullback_pair_transform`` the integral runs over chi's
        grid in xi, and chi reads S_eps phi at mu^{-1}(xi + mu(x)) - x, which
        rounds at a few u (|x| + |mu(x)|); that moves I by about
        2 ||phi phi'||_1 / ||phi||^2 (a few here) times the rounding over
        eps, relative to I.  So the pulled inner must lie within
        32 u (1 + |x|) / eps of it, relative to I, for eps = 2^-2 .. 2^-14."""
        parts = [get_diffeo(p, OMEGA) for p in name.split(".")]
        mu = parts[0] if len(parts) == 1 else compose(*parts)
        inner = squared_mass_inner(1024)
        pulled, transform = inner.pulled(mu), pullback_pair_transform(mu)
        paths = [make_battery("eps_path", 0, 1, 7)[0],
                 make_battery("full_path", 2, 1, 7)[0]]
        for path in paths:
            for eps in (2.0 ** -np.arange(2, 15)).tolist():
                for x in np.linspace(-1.0, 1.0, 11).tolist():
                    phi = scale(path(eps, x), eps)
                    want = inner(*transform(phi, x))
                    bound = 32.0 * U * (1.0 + abs(x)) / eps * want
                    assert abs(pulled(phi, x) - want) <= bound, (eps, x)

    def test_a_zero_slope_raises(self):
        flat = Diffeomorphism("flat", lambda x: 0.0 * np.asarray(x),
                              lambda y: y, lambda x: 0.0 * np.asarray(x))
        path = make_battery("eps_path", 0, 1, 7)[0]
        pulled = squared_mass_inner(256).pulled(flat)
        with pytest.raises(ValueError, match="flat"):
            pulled(scale(path(0.25, 0.0), 0.25), 0.0)
        with pytest.raises(ValueError, match="flat"):
            pulled.row((np.array(path.weights(0.25, [0.0])), path.terms, 0.25,
                        0.0), [0.0])


class TestRunningWorsts:
    def test_a_nan_commutator_fails_jform_commute(self, tmp_path,
                                                  monkeypatch):
        """A NaN derivative fails each commute check with observed nan,
        where a running max kept the errors before it."""
        from gfn_lab import scenarios
        monkeypatch.setattr(scenarios, "Dj_derivative",
                            lambda rep, phi, x: math.nan)
        res = run_scenario(ScenarioConfig("jform-commute", seed=7,
                                          out=str(tmp_path)))
        commute = [a for a in res.assertions
                   if a.name.startswith("commute-")]
        assert len(commute) == 4
        assert all(a.observed == "nan" and not a.passed for a in commute)


class TestCSV:
    HEADER = ["epsilon", "alpha", "member_id", "sup_value_or_log",
              "local_slope"]

    def test_sweep_csv_schema_and_slopes(self, tmp_path):
        ser = series_from(EPS**2)
        p = tmp_path / "t.csv"
        write_sweep_csv(p, [ser])
        rows = list(csv.reader(open(p)))
        assert rows[0] == self.HEADER
        assert len(rows) == 1 + len(EPS)
        assert rows[1][4] == ""  # no slope for the first row
        assert float(rows[2][4]) == pytest.approx(2.0, abs=1e-12)

    def test_plotdata_reproduces_fit(self, tmp_path):
        ser = series_from(EPS**2)
        verdict = fit_order(ser, 6)
        p = tmp_path / "p.csv"
        emit_plotdata(p, [ser], [verdict])
        rows = list(csv.reader(open(p)))
        assert rows[0] == ["member_id", "alpha", "log2_eps", "log2_value",
                           "fit_slope", "fit_intercept"]
        assert float(rows[1][4]) == verdict.slope

    def test_empty_table_header_only(self, tmp_path):
        p = tmp_path / "e.csv"
        write_sweep_csv(p, [])
        rows = list(csv.reader(open(p)))
        assert rows == [self.HEADER]

    def test_byte_identical_rewrite(self, tmp_path):
        bat = make_battery("full_path", 0, 1, seed=21)
        spec = SweepSpec(i_min=2, i_max=9, K=np.linspace(-1, 1, 11),
                         alphas=(0,), fit_window=5)
        rep = embed_C(DiracDerivative(0), omega=OMEGA)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(p1, sweep(rep, bat[0], spec))
        write_sweep_csv(p2, sweep(rep, bat[0], spec))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_a_repeated_member_and_alpha_raises(self, tmp_path):
        """Two series, or two verdicts, with one (member_id, alpha) would
        be rows no reader can tell apart, and the plot data would give
        both the later fit."""
        ser = series_from(EPS**2)
        other = dataclasses.replace(ser, values=EPS**3)
        with pytest.raises(ValueError, match="repeated"):
            write_sweep_csv(tmp_path / "s.csv", [ser, other])
        verdicts = [fit_order(ser, 6), fit_order(other, 6)]
        with pytest.raises(ValueError, match="repeated"):
            emit_plotdata(tmp_path / "p.csv", [ser, other], verdicts[:1])
        with pytest.raises(ValueError, match="repeated"):
            emit_plotdata(tmp_path / "p.csv", [ser], verdicts)
        relabeled = dataclasses.replace(other, alpha=1)
        write_sweep_csv(tmp_path / "s.csv", [ser, relabeled])

    def test_embed_order_plotdata_carries_each_series_own_fit(self,
                                                              tmp_path):
        """Both embed-order defects sweep the same members; each plotted
        series is labelled by its defect and carries the fit of its own
        swept values."""
        cfg = ScenarioConfig("embed-order", seed=0, q=1, battery_count=2,
                             k_points=11, out=str(tmp_path))
        run_scenario(cfg)
        window = cfg.sweep_bounds("moderate")[2]
        swept = {}
        for row in csv.DictReader(open(tmp_path / "embed-order_sweep.csv")):
            key = (row["member_id"], int(row["alpha"]))
            swept.setdefault(key, []).append(
                (float(row["epsilon"]), float(row["sup_value_or_log"])))
        assert {m.split("|")[0] for m, _ in swept} == {"sin", "x4"}
        plotted = list(csv.DictReader(
            open(tmp_path / "embed-order_plotdata.csv")))
        assert {(r["member_id"], int(r["alpha"])) for r in plotted} == \
            set(swept)
        for row in plotted:
            key = (row["member_id"], int(row["alpha"]))
            eps, values = map(np.array, zip(*swept[key]))
            own = fit_order(SweepSeries(key[0], key[1], eps, values), window)
            assert (float(row["fit_slope"]), float(row["fit_intercept"])) \
                == (own.slope, own.intercept), key
