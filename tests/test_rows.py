"""Rows of members: a path's members over all x of a grid at once, the
row-wise Newton inverse under them, the pulled-back log channel over a
sweep row, and the checks that read them.  Every row must give the bits of
the per-point code it replaces."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfn_lab import asymptotics as asy, basic_space, test_objects, testfunc
from gfn_lab.asymptotics import (SweepSpec, _insertion_row,
                                 squared_mass_inner, sweep)
from gfn_lab.basic_space import ExpExpRepresentative, embed_C
from gfn_lab.diffeo import (Z_XI_SAMPLES, PartialDomain,
                            check_Z_requirements, compose, get_diffeo,
                            sin_bend_map, transform_test_object)
from gfn_lab.distributions import Heaviside, pair, pair_row, smooth_density
from gfn_lab.test_objects import (MomentClass, TestObjectPath, _decay_order,
                                  _member_rows, check_moment_class,
                                  make_battery)
from gfn_lab.testfunc import (TAU_M, Box, DomainError, TestFunction,
                              _grid_rows, _moment_sums, build_mollifier,
                              moments_upto, scale, support_grid)

from probes import probed_tables

OMEGA = Box(-2.5, 2.5)
MAPS = ["identity", "affine-2x", "shift-1", "sin-bend", "cubic",
        "sin-bend.cubic", "cubic.sin-bend", "affine-2x.sin-bend"]


def named_map(name):
    parts = [get_diffeo(p, OMEGA) for p in name.split(".")]
    return parts[0] if len(parts) == 1 else compose(*parts)


def source_battery(q, seed):
    return make_battery("full_path", q, 2, seed, flavor="symmetric",
                        build_q=max(q, 2 * q - 2))


def transformed_battery(name, q, seed):
    """What moment-invariance checks: symmetric full paths under a map,
    with the grid of points the partial domain admits from eps0 down."""
    return [transform_test_object(named_map(name), p)
            for p in source_battery(q, seed)]


# ---------------------------------------------------------------------------
# the row-wise Newton inverse


class TestRowNewton:
    def test_rows_equal_the_call_on_each_row(self):
        mu = sin_bend_map(0.25)
        rng = np.random.default_rng(3)
        # rows of very different magnitudes stop after different steps
        ys = rng.uniform(-3.0, 3.0, (9, 161)) * np.geomspace(1e-3, 1e3, 9)[:, None]
        got = mu.inverse(ys)
        assert got.shape == ys.shape and got.flags.c_contiguous
        for y, row in zip(ys, got):
            assert np.array_equal(row, mu.inverse(y))
        assert np.array_equal(mu.inverse(ys[4:5]), got[4:5])
        assert mu.inverse(0.3) == mu.inverse(np.array([0.3]))[0]
        assert isinstance(mu.inverse(0.3), float)

    def test_a_stack_of_stacks_is_rows_too(self):
        mu = sin_bend_map(0.25)
        ys = np.linspace(-5.0, 5.0, 2 * 3 * 7).reshape(2, 3, 7)
        got = mu.inverse(ys)
        assert got.shape == ys.shape
        for y, row in zip(ys.reshape(6, 7), got.reshape(6, 7)):
            assert np.array_equal(row, mu.inverse(y))

    def test_a_row_that_does_not_converge_raises_its_own_message(self):
        mu = sin_bend_map(0.25)
        bad = np.array([0.5, np.nan, 1.0])
        with pytest.raises(FloatingPointError) as alone:
            mu.inverse(bad)
        ys = np.stack([np.linspace(-1.0, 1.0, 3), bad, np.ones(3)])
        with pytest.raises(FloatingPointError) as stacked:
            mu.inverse(ys)
        assert str(stacked.value) == str(alone.value)
        assert "did not converge" in str(alone.value)


# ---------------------------------------------------------------------------
# rows of a path


def assert_rows_are_the_members(path, eps, xs, n):
    centers, radii, fn = _member_rows(path, eps, xs)
    pts, w = _grid_rows(centers, radii, n)
    vals = fn(pts)
    for flags in (pts.flags, w.flags, vals.flags):
        assert flags.c_contiguous
    for k, x in enumerate(xs):
        member = path(eps, x)
        assert (centers[k], radii[k]) == (member.center, member.radius)
        nodes, weights = support_grid(member, n)
        assert np.array_equal(pts[k], nodes)
        assert np.array_equal(w[k], weights)
        assert np.array_equal(vals[k], member.fn(nodes))


def source_coordinate_moments(mu, src):
    """The moments of transform_test_object(mu, src)'s member at (eps, x),
    one member at a time, in source coordinates: the source member at
    xt = mu^{-1} x on its own grid, its nodes s moved to s chord(xt, eps s)."""
    def moments(e, x, q, n):
        xt = mu.inverse(x)
        member = src(e, xt)
        s, w = support_grid(member, n)
        return _moment_sums(member.fn(s) * w, s * mu.chord(xt, e * s), q)

    return moments


def moment_report_by_hand(path, cls, eps_grid, xs, n, zero_tol,
                          moments=None):
    """check_moment_class's report from one member at a time, with each
    member's moments by ``moments(eps, x, q, n)``, by default
    ``moments_upto`` of path(eps, x)."""
    moments = moments or (lambda e, x, q, n: moments_upto(path(e, x), q, n=n))
    sup_m = np.zeros((len(eps_grid), cls.q + 1))
    mass_dev = 0.0
    for ie, e in enumerate(eps_grid):
        for x in xs:
            ms = moments(e, x, cls.q, n)
            sup_m[ie] = np.maximum(sup_m[ie], np.abs(ms))
            mass_dev = max(mass_dev, abs(ms[0] - 1.0))
    if cls.kind == "strict_Aq":
        worst = float(sup_m[:, 1:].max()) if cls.q >= 1 else 0.0
        return (worst <= TAU_M and mass_dev <= TAU_M, {},
                max(worst, mass_dev))
    orders = {a: _decay_order(np.array(eps_grid), sup_m[:, a],
                              path.member_id, zero_tol)
              for a in range(1, cls.q + 1)}
    return all(o >= cls.q - 0.3 for o in orders.values()), orders, None


def z_report_by_hand(path, L, eps0, beta_max, n_eps):
    """check_Z_requirements's report from one member at a time."""
    membership_ok, radius_obs = True, 0.0
    bounds = {b: 0.0 for b in range(beta_max + 1)}
    for e in (eps0 * 2.0 ** -np.arange(n_eps, dtype=float)).tolist():
        for x in L:
            if path.domain is not None and not path.domain.contains(e, x):
                membership_ok = False
                continue
            tf = path(e, x)
            radius_obs = max(radius_obs, abs(tf.center) + tf.radius)
            xi = np.linspace(*tf.box, Z_XI_SAMPLES)
            h = xi[1] - xi[0]
            cur = tf.fn(xi)
            bounds[0] = max(bounds[0], float(np.max(np.abs(cur))))
            for b in range(1, beta_max + 1):
                cur = (cur[2:] - cur[:-2]) / (2.0 * h)
                if len(cur) < 3:
                    break
                bounds[b] = max(bounds[b], float(np.max(np.abs(cur))))
    return membership_ok, radius_obs, bounds


class TestMemberRows:
    @settings(max_examples=24, deadline=None)
    @given(name=st.sampled_from(MAPS), q=st.sampled_from([2, 4]),
           seed=st.integers(0, 40), i0=st.integers(1, 9),
           count=st.integers(1, 7))
    def test_transformed_rows_are_the_members(self, name, q, seed, i0, count):
        L = np.linspace(-0.7, 0.7, 7).tolist()
        for path in transformed_battery(name, q, seed):
            eps0 = path.domain.register_compact(L)
            for e in (eps0 * 2.0 ** -np.arange(i0, i0 + 2)).tolist():
                assert_rows_are_the_members(path, e, L[:count], 256)

    @pytest.mark.parametrize("mode", ["static", "eps_path", "full_path"])
    def test_source_rows_are_the_members(self, mode):
        for path in make_battery(mode, 2, 3, 11):
            for e in (1.0, 0.5, 2.0**-9):
                assert_rows_are_the_members(path, e, [-0.7, 0.0, 0.35], 512)

    def test_a_hand_built_path_is_built_member_by_member(self, moll2):
        path = TestObjectPath(lambda e, x: scale(moll2, e * (1.0 + x * x)),
                              1.0, "hand")
        assert_rows_are_the_members(path, 0.5, [0.0, 0.3, -0.6], 128)

    def test_transformed_rows_look_the_inverse_up_per_call(self):
        """A traced run replaces ``inverse`` on the map after the path is
        built; one row inverts every member's nodes in one call."""
        mu = get_diffeo("sin-bend", OMEGA)
        path = transform_test_object(mu, make_battery("full_path", 2, 1, 9)[0])
        L = [-0.5, 0.0, 0.5]
        path.domain.register_compact(L)  # the points' preimages, once
        sizes, inverse = [], mu.inverse

        def counted(y):
            sizes.append(np.size(y))
            return inverse(y)

        mu.inverse = counted
        centers, radii, fn = _member_rows(path, 0.125, L)
        fn(_grid_rows(centers, radii, 64)[0])
        assert sizes == [3 * 65]

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(MAPS), q=st.sampled_from([2, 4]),
           seed=st.integers(0, 40))
    def test_checks_equal_their_per_point_reports(self, name, q, seed):
        """Transformed members' moments are integrals in source
        coordinates (``source_coordinate_moments``); their Z report reads
        the members themselves."""
        L = np.linspace(-0.7, 0.7, 7)
        mu = named_map(name)
        for src in source_battery(q, seed):
            path = transform_test_object(mu, src)
            eps0 = path.domain.register_compact(L)
            i0 = max(2, int(-math.log2(eps0)))
            eps_grid = (2.0 ** -np.arange(i0, i0 + 6, dtype=float)).tolist()
            cls = MomentClass("asympt_CM", q)
            got = check_moment_class(path, cls, eps_grid, L, n=512,
                                     zero_tol=1e-11)
            assert (got.passed, got.orders, got.max_moment) == \
                moment_report_by_hand(path, cls, eps_grid, L.tolist(), 512,
                                      1e-11, source_coordinate_moments(mu, src))
            z = check_Z_requirements(path, L, 2.0 * eps0, beta_max=3,
                                     n_eps=4)
            assert (z.membership_ok, z.radius_observed, z.deriv_bounds) == \
                z_report_by_hand(path, L.tolist(), 2.0 * eps0, 3, 4)
        for path in make_battery("full_path", q, 2, seed, flavor="symmetric",
                                 build_q=max(q, 2 * q - 2)):
            cls = MomentClass("strict_Aq", q)
            got = check_moment_class(path, cls, [0.5, 0.25], L[::3], n=512)
            assert (got.passed, got.orders, got.max_moment) == \
                moment_report_by_hand(path, cls, [0.5, 0.25],
                                      L[::3].tolist(), 512, 0.0)

    def test_moment_sums_read_c_contiguous_rows(self, monkeypatch):
        seen = []
        sums = test_objects._moment_sums

        def guarded(v, pts, qmax):
            seen.append(v.flags.c_contiguous and pts.flags.c_contiguous)
            return sums(v, pts, qmax)

        monkeypatch.setattr(test_objects, "_moment_sums", guarded)
        path = transformed_battery("sin-bend", 2, 7)[0]
        check_moment_class(path, MomentClass("asympt_CM", 2),
                           [2.0**-4, 2.0**-5], [-0.5, 0.0, 0.5], n=256)
        assert seen == [True, True]


# ---------------------------------------------------------------------------
# a NaN sample fails loudly


def path_with_a_nan_sample():
    """Members at x = 0 are a mollifier; at any other x, the same one with
    one NaN sample, in the middle of its nodes."""
    base = build_mollifier(0)

    def broken(xi):
        out = np.array(base.fn(xi), dtype=float)
        out[len(out) // 2] = np.nan
        return out

    member = TestFunction(base.center, base.radius, broken)
    return TestObjectPath(lambda e, x: base if x == 0.0 else member, 1.0,
                          "nan-path")


class TestNanSamples:
    def test_moment_class_names_the_first_point(self):
        path = path_with_a_nan_sample()
        with pytest.raises(FloatingPointError, match=r"eps=0\.5, x=0\.1\)"):
            check_moment_class(path, MomentClass("strict_Aq", 0), [0.5],
                               [0.0, 0.1])

    def test_z_requirements_names_the_first_point(self):
        path = path_with_a_nan_sample()
        with pytest.raises(FloatingPointError, match=r"eps=0\.5, x=0\.1\)"):
            check_Z_requirements(path, [0.0, 0.1], 0.5, beta_max=2, n_eps=1)


# ---------------------------------------------------------------------------
# the log channel over a sweep row


class TestPulledBackLogRow:
    @pytest.mark.parametrize("name", MAPS)
    def test_row_equals_the_pulled_back_inner_per_point(self, name):
        mu = named_map(name)
        rep = ExpExpRepresentative(squared_mass_inner(1024))
        pulled = rep.compose_pullback(mu)
        row = rep.inner.pulled(mu).row
        path = make_battery("eps_path", 0, 1, 7)[0]
        K = np.linspace(-1.0, 1.0, 11).tolist()  # 0.0 is in K
        for eps in (0.25, 2.0**-7):
            h = eps * asy.H_FACTOR
            ys = [y for x in K for y in (x, x + h, x - h)]
            member = (np.array(path.weights(eps, ys)), path.terms, eps)
            got = row(member, ys)
            want = [pulled.inner(scale(path(eps, y), eps), y) for y in ys]
            assert got == want

    def test_counterexample_rows_run_without_the_transform(self, monkeypatch):
        """The sweep reaches the row with mu itself, not through the
        transform closure, which a traced run wraps."""
        calls = []
        make = basic_space.pullback_pair_transform

        def wrapped(mu):
            transform = make(mu)
            return lambda *args: calls.append(1) or transform(*args)

        monkeypatch.setattr(basic_space, "pullback_pair_transform", wrapped)
        spec = SweepSpec(4, 14, np.linspace(-1.0, 1.0, 11), (1,), 11)
        path = make_battery("eps_path", 0, 1, 7)[0]
        report = asy.counterexample_scenario(
            get_diffeo("sin-bend", OMEGA), path, spec,
            make_battery("eps_path", 0, 2, 8), 1024)
        assert calls == []
        assert np.all(np.isfinite(report.log_series.values))

    def test_dots_read_c_contiguous_rows(self, monkeypatch):
        dot = np.dot
        strided = []

        def guarded(a, b, *args):
            if not (a.flags.c_contiguous and b.flags.c_contiguous):
                strided.append((a.strides, b.strides))
            return dot(a, b, *args)

        path = make_battery("full_path", 0, 1, 7)[0]
        rep = ExpExpRepresentative(squared_mass_inner(1024))
        mu = get_diffeo("sin-bend", OMEGA)
        ys = [-0.5, 0.0, 0.5]
        member = (np.array(path.weights(0.125, ys)), path.terms, 0.125)
        monkeypatch.setattr(np, "dot", guarded)
        rep.inner.row(member, ys)
        rep.inner.pulled(mu).row(member, ys)
        assert strided == []


class TestLogChannelDomain:
    """The log channel checks U(Omega) at every member it evaluates."""

    SPEC = dict(i_min=2, i_max=7, K=np.linspace(-1.0, 1.0, 5), fit_window=6)

    @staticmethod
    def reps(omega):
        return (ExpExpRepresentative(squared_mass_inner(1024), omega),
                embed_C(smooth_density("sin"), omega=omega))

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_raises_where_a_value_channel_raises(self, alpha):
        path = make_battery("full_path", 0, 1, 7)[0]
        spec = SweepSpec(alphas=(alpha,), **self.SPEC)
        log, value = self.reps(Box(-1.1, 1.1))
        with pytest.raises(DomainError) as got:
            sweep(log, path, spec)
        with pytest.raises(DomainError) as want:
            sweep(value, path, spec)
        assert "x=-1.0," in str(got.value)
        if alpha == 0:
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_row_and_per_point_paths_agree(self, alpha):
        """Inside U(Omega) the row gives the bits of the same members built
        one by one and probed by checked calls, on a partial domain that
        admits everything."""
        path = dataclasses.replace(make_battery("full_path", 0, 1, 7)[0],
                                   domain=PartialDomain(lambda e, x: True))
        spec = SweepSpec(alphas=(alpha,), **self.SPEC)
        for rep in self.reps(OMEGA):
            rows = sweep(rep, path, spec)[0].values
            [[points]] = probed_tables(rep, path, spec)
            assert rows.tobytes() == points.tobytes()

    def test_alpha_zero_builds_no_member(self, monkeypatch):
        built = []
        call = TestObjectPath.__call__
        monkeypatch.setattr(TestObjectPath, "__call__",
                            lambda self, *a: built.append(a) or call(self, *a))
        path = make_battery("eps_path", 0, 1, 7)[0]
        spec = SweepSpec(alphas=(0,), **self.SPEC)
        for omega in (None, OMEGA):
            rep = ExpExpRepresentative(squared_mass_inner(1024), omega)
            table = sweep(rep, path, spec)[0].values
            assert np.array_equal(table, np.zeros(len(spec.eps)))
        assert built == []
        never = dataclasses.replace(path, weights=lambda e, xs: 1 / 0)
        row = _insertion_row(((ExpExpRepresentative(squared_mass_inner(1024)),
                               never),), 0, spec.K)
        out, fail = row(0.25, len(spec.K))
        assert np.array_equal(out, np.zeros((1, len(spec.K))))
        assert fail is None


class TestRowBlocks:
    """Rows taken in blocks give the bits of rows taken at once."""

    @pytest.mark.parametrize("block", [2**10, 2**13, 2**15, 2**24])
    def test_any_block_size_gives_the_per_point_bits(self, block,
                                                     monkeypatch):
        monkeypatch.setattr(testfunc, "ROW_BLOCK_NODES", block)
        path = make_battery("full_path", 0, 1, 7)[0]
        eps, K = 0.125, np.linspace(-0.4, 1.0, 9).tolist()
        coeffs = np.array(path.weights(eps, K))
        want = [pair(Heaviside(), scale(path(eps, x), eps), 512, shift=x)
                for x in K]
        assert pair_row(Heaviside(), coeffs, path.terms, eps, K,
                        512).tolist() == want
        inner = squared_mass_inner(1024)
        assert inner.row((coeffs, path.terms, eps), K) == \
            [inner(scale(path(eps, x), eps), x) for x in K]
        mu = get_diffeo("cubic", OMEGA)
        pulled = ExpExpRepresentative(inner).compose_pullback(mu).inner
        assert inner.pulled(mu).row((coeffs, path.terms, eps), K) == \
            [pulled(scale(path(eps, x), eps), x) for x in K]
