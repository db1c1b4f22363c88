"""Battery construction and moment-class verdicts."""

import math

import numpy as np
import pytest

from gfn_lab.test_objects import (MomentClass, check_moment_class,
                                  make_battery, perturbation_directions)
from gfn_lab.testfunc import (build_mollifier, bump_testfunction, moment,
                              tf_lincomb)

RNG = np.random.default_rng(29)
EPS_GRID = 2.0 ** -np.arange(2, 9, dtype=float)


def closure_battery(mode, q, count, seed, flavor):
    """make_battery's members as closures over their mollifiers build them,
    draw for draw: one function (eps, x) -> member per path."""
    symmetric = flavor == "symmetric"
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        r = 1.0 if i == 0 else 0.75 + 0.5 * rng.random()
        c = 0.0 if (i == 0 or symmetric) else (rng.random() - 0.5) * 0.4 * r
        if mode == "static":
            out.append(lambda e, x, tf=build_mollifier(q, radius=r, center=c):
                       tf)
            continue
        rho = 0.5 + 0.4 * rng.random()
        d = (rng.random() - 0.5) * 0.4
        chi = bump_testfunction(radius=rho, center=d).derivative()
        amp = 0.05 + 0.15 * rng.random()
        if mode == "eps_path":
            base = build_mollifier(q + 2, radius=r, center=c)

            def member(e, x, base=base, chi=chi, amp=amp):
                return tf_lincomb([1.0, amp * e**q * (1.0 + e)], [base, chi])

            out.append(member)
            continue
        r2 = 0.75 + 0.5 * rng.random()
        c2 = 0.0 if symmetric else (rng.random() - 0.5) * 0.4 * r2
        om = 0.5 + 1.0 * rng.random()
        th = 2.0 * math.pi * rng.random()
        with_cm = flavor == "cm" or (flavor == "mixed" and i % 2 == 1)
        base = build_mollifier(q + 2 * with_cm, radius=r, center=c)
        other = build_mollifier(q + 2 * with_cm, radius=r2, center=c2)

        def member(e, x, base=base, other=other, chi=chi, amp=amp, om=om,
                   th=th, with_cm=with_cm):
            w = 0.5 + 0.4 * math.sin(om * x + th)
            if with_cm:
                return tf_lincomb([w, 1.0 - w, amp * e**q * (1.0 + e)],
                                  [base, other, chi])
            return tf_lincomb([w, 1.0 - w], [base, other])

        out.append(member)
    return out


class TestMakeBattery:
    def test_deterministic_bit_level(self):
        """Same seed gives identical member evaluations and coefficients."""
        a = make_battery("static", 2, 4, seed=42)
        b = make_battery("static", 2, 4, seed=42)
        xs = np.linspace(-1.3, 1.3, 257)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa(1, 0).coeffs, pb(1, 0).coeffs)
            np.testing.assert_array_equal(pa(1, 0).fn(xs), pb(1, 0).fn(xs))
        c = make_battery("full_path", 1, 4, seed=7)
        d = make_battery("full_path", 1, 4, seed=7)
        for pc, pd in zip(c, d):
            np.testing.assert_array_equal(pc(0.3, 0.4).fn(xs),
                                          pd(0.3, 0.4).fn(xs))

    @pytest.mark.parametrize("mode", ["static", "eps_path"])
    def test_member_ignores_what_its_mode_ignores(self, mode):
        """A static member at any (eps, x) is its member at (1, 0), and an
        eps-path member its member at (eps, 0), bit for bit."""
        xs = np.linspace(-1.5, 1.5, 257)
        for path in make_battery(mode, 2, 3, seed=5):
            assert path.member_id.startswith(f"{mode}-q2-s5-")
            for eps, x in ((1.0, 0.0), (0.25, 0.7), (2.0**-9, -1.3)):
                got = path(eps, x)
                want = path(1.0, 0.0) if mode == "static" else path(eps, 0.0)
                assert (got.center, got.radius) == (want.center, want.radius)
                assert got.fn(xs).tobytes() == want.fn(xs).tobytes()

    @pytest.mark.parametrize("mode, flavor", [
        ("static", "mixed"), ("eps_path", "mixed"), ("full_path", "strict"),
        ("full_path", "cm"), ("full_path", "mixed"),
        ("full_path", "symmetric")])
    def test_members_are_the_closures_members(self, mode, flavor):
        """A member in coefficient form is, bit for bit, the member the
        closure over the same mollifiers builds: the same support, the same
        coefficients, the same samples of it and of its derivative."""
        xs = np.linspace(-2.0, 2.0, 513)
        for q, seed in ((0, 3), (2, 8)):
            paths = make_battery(mode, q, 4, seed, flavor=flavor)
            refs = closure_battery(mode, q, 4, seed, flavor)
            for path, ref in zip(paths, refs, strict=True):
                assert (path.fn is None) == (mode != "static")
                for eps, x in ((1.0, 0.0), (0.25, 0.7), (2.0**-9, -1.3),
                               (0.3, -0.0), (0.5, 0.123456789)):
                    got, want = path(eps, x), ref(eps, x)
                    assert (got.center, got.radius) == \
                        (want.center, want.radius)
                    if mode != "static":
                        assert got._terms[0] == want._terms[0]
                    assert got.fn(xs).tobytes() == want.fn(xs).tobytes()
                    assert (got.dfn is None) == (want.dfn is None)
                    if got.dfn is not None:
                        assert got.dfn(xs).tobytes() == \
                            want.dfn(xs).tobytes()

    def test_weights_give_every_point_its_members_coefficients(self):
        """A row of weights holds, at each x, the coefficients of the member
        at x."""
        xs = [-1.0, -0.3, 0.0, 0.45, 1.0]
        for mode in ("eps_path", "full_path"):
            for path in make_battery(mode, 1, 3, seed=4):
                rows = path.weights(0.125, xs)
                assert len(rows) == len(path.terms)
                for k, x in enumerate(xs):
                    assert path(0.125, x)._terms == \
                        ([row[k] for row in rows], path.terms)

    def test_static_ignores_arguments(self):
        path = make_battery("static", 0, 1, seed=1)[0]
        assert path(0.3, 0.7) is path(0.9, -1.0)

    def test_first_member_is_standard_bump(self):
        """Member 0 of a one-element static battery is the canonical
        normalized bump."""
        path = make_battery("static", 0, 1, seed=1)[0]
        tf = path()
        assert tf.radius == 1.0 and tf.center == 0.0
        np.testing.assert_array_equal(tf.coeffs, build_mollifier(0).coeffs)
        assert abs(tf.mass() - 1.0) <= 1e-12

    def test_eps_path_ignores_x(self):
        path = make_battery("eps_path", 1, 1, seed=1)[0]
        xs = np.linspace(-1, 1, 65)
        np.testing.assert_array_equal(path(0.25, 0.9).fn(xs),
                                      path(0.25, -0.3).fn(xs))

    def test_full_path_mass_one(self):
        """Convex mixes of unit-mass members keep mass 1."""
        for path in make_battery("full_path", 2, 3, seed=5):
            for _ in range(7):
                e = 0.05 + 0.95 * RNG.random()
                x = float((RNG.random() - 0.5) * 2)
                assert abs(path(e, x).mass() - 1.0) <= 1e-10

    def test_radius_bound_honored(self):
        for mode in ("static", "eps_path", "full_path"):
            for path in make_battery(mode, 1, 3, seed=13):
                for _ in range(5):
                    tf = path(0.1 + 0.9 * RNG.random(),
                              float((RNG.random() - 0.5) * 2))
                    extent = float(np.max(np.abs(tf.center)) + tf.radius)
                    assert extent <= path.radius_bound + 1e-12

    def test_full_members_meet_path_requirements(self):
        """Each full-path member has a finite uniform radius bound and
        finite derivative sups on a compact grid."""
        from gfn_lab.diffeo import check_Z_requirements
        L = np.linspace(-0.8, 0.8, 5)
        for path in make_battery("full_path", 1, 3, seed=2):
            rep = check_Z_requirements(path, L, 0.5, beta_max=3, n_eps=3)
            assert rep.passed, (path.member_id, rep)

    @pytest.mark.parametrize("flavor", ["cmm", "Strict", "", "full"])
    def test_unknown_flavor_raises(self, flavor):
        """Any unknown flavor used to build a "mixed" battery."""
        for mode in ("static", "eps_path", "full_path"):
            with pytest.raises(ValueError, match="flavor"):
                make_battery(mode, 1, 2, seed=0, flavor=flavor)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_battery("spiral", 1, 2, seed=0)
        with pytest.raises(ValueError):
            make_battery("static", 1, 0, seed=0)
        with pytest.raises(ValueError):
            make_battery("static", 3, 1, seed=0, build_q=1)


class TestMomentClasses:
    def test_strict_battery_passes_strict(self):
        for path in make_battery("full_path", 2, 3, seed=3, flavor="strict"):
            rep = check_moment_class(path, MomentClass("strict_Aq", 2),
                                     EPS_GRID[:3], x_grid=[-0.6, 0.0, 0.8])
            assert rep.passed, rep.max_moment

    @pytest.mark.parametrize("kind", ["strict_Aq", "asympt_CM"])
    def test_empty_grid_raises(self, kind):
        """An empty x grid used to pass strict A_2 with no member seen."""
        path = make_battery("eps_path", 2, 1, 7)[0]
        for eps_grid, x_grid in (([0.5], []), ([], [0.0])):
            with pytest.raises(ValueError, match="empty eps or x grid"):
                check_moment_class(path, MomentClass(kind, 2), eps_grid,
                                   x_grid)

    def test_cm_on_one_eps_raises(self):
        """One eps fits no decay order: every order read inf, and a member
        that fails on four eps (orders 2.16 < 3.7) passed."""
        path = make_battery("full_path", 2, 2, 7, flavor="cm")[1]
        cls, xs = MomentClass("asympt_CM", 4), [-0.6, 0.0, 0.8]
        with pytest.raises(ValueError, match="at least two eps"):
            check_moment_class(path, cls, [0.5], xs)
        rep = check_moment_class(path, cls, [0.5, 0.25, 0.125, 0.0625], xs)
        assert not rep.passed and max(rep.orders.values()) < 2.2
        assert not check_moment_class(path, MomentClass("strict_Aq", 4),
                                      [0.5], xs).passed  # one eps suffices

    def test_a1_mollifier_fails_strict_a2(self):
        """Only the first moment vanishes at order 1; m2 stays O(1)."""
        phi = build_mollifier(1)
        assert abs(moment(phi, 2)) > 1e-3
        from gfn_lab.test_objects import TestObjectPath
        path = TestObjectPath(lambda e, x: phi, float(phi.radius), "a1")
        rep = check_moment_class(path, MomentClass("strict_Aq", 2),
                                 EPS_GRID[:2], x_grid=[0.0])
        assert not rep.passed

    def test_cm_battery_order(self):
        """eps-path members realize moments decaying at exactly order q."""
        for path in make_battery("eps_path", 2, 3, seed=11):
            rep = check_moment_class(path, MomentClass("asympt_CM", 2),
                                     EPS_GRID, x_grid=[0.0])
            assert rep.passed
            assert rep.orders[1] >= 2 - 0.1

    def test_strict_path_trivially_cm(self):
        """Identically vanishing moments report order +inf."""
        path = make_battery("full_path", 2, 1, seed=3, flavor="strict")[0]
        rep = check_moment_class(path, MomentClass("asympt_CM", 2), EPS_GRID,
                                 x_grid=[0.2])
        assert rep.passed
        assert all(v == math.inf for v in rep.orders.values())

    def test_monotone_class_chain(self):
        """strict(q) implies CM(q) implies CM(q-1) on every member."""
        for path in make_battery("full_path", 2, 2, seed=19, flavor="strict"):
            assert check_moment_class(path, MomentClass("strict_Aq", 2),
                                      EPS_GRID[:2], x_grid=[0.1]).passed
            assert check_moment_class(path, MomentClass("asympt_CM", 2),
                                      EPS_GRID, x_grid=[0.1]).passed
            assert check_moment_class(path, MomentClass("asympt_CM", 1),
                                      EPS_GRID, x_grid=[0.1]).passed
        for path in make_battery("eps_path", 2, 2, seed=19):
            assert check_moment_class(path, MomentClass("asympt_CM", 2),
                                      EPS_GRID, x_grid=[0.0]).passed
            assert check_moment_class(path, MomentClass("asympt_CM", 1),
                                      EPS_GRID, x_grid=[0.0]).passed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MomentClass("weak_Aq", 2)


class TestPerturbationDirections:
    def test_zero_mass(self):
        for psi in perturbation_directions(4, seed=2):
            assert abs(psi.mass()) <= 1e-12

    def test_derivative_qualifies(self, moll2_offset):
        d = moll2_offset.derivative()
        assert abs(moment(d, 0)) <= 1e-12

    def test_bounded_battery(self):
        sups = [psi.sup_abs() for psi in perturbation_directions(4, seed=2)]
        assert all(np.isfinite(s) and s < 50 for s in sups)

    def test_deterministic(self):
        a = perturbation_directions(3, seed=8)
        b = perturbation_directions(3, seed=8)
        xs = np.linspace(-1.5, 1.5, 101)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.fn(xs), pb.fn(xs))
