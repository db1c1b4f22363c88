"""One pairing path: ``pair`` is ``pair_row``'s row of one member for every
kind but the pullback.  The scalar pairing it replaced is kept below as the
reference (``pair_reference``), and every pairing must give its floats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfn_lab import numdiff
from gfn_lab.diffeo import get_diffeo
from gfn_lab.distributions import (SMOOTH_CHAINS, DiracDerivative, Heaviside,
                                   PullbackDistribution, SmoothDensity,
                                   _simpson, pair, pair_row,
                                   pullback_test_function, smooth_density)
from gfn_lab.test_objects import make_battery
from gfn_lab.testfunc import (DEFAULT_NODES, Box, TestFunction, scale,
                              shifted_frame, tf_lincomb, translate)

from test_shared_evaluation import LEAVES, nested_lincombs

WIDE = Box.interval(-50.0, 50.0)  # no pullback below leaves its charts


def by_terms_reference(form: tuple, tf, a: float, b, d: float, n: int):
    """<f, tf((. - b - d) / a) / a> for f of closed ``form``: a combination
    pairs each term tb((. - s) / r) / r at scale a r and offset d + a s, and
    any other function pairs by an addition theorem on its own grid, from
    its cached moments (per n) or C, S = <cos, sin(a . + d), tf> (per a, d,
    n).  b is kept from d: b + d, rounded, moves a sine near its zeros.
    ``tf`` may be the (coeffs, terms) of a combination, with coefficients
    per shift of an array b: each shift pairs by its operations alone."""
    terms = tf if isinstance(tf, tuple) else tf._terms
    if terms is not None:
        total = 0.0
        for c, t in zip(*terms):
            tb, r, s = t.frame
            total += c * by_terms_reference(form, tb, a * r, b, d + a * s,
                                            n)
        return total
    kind, p, q = form  # ("mono", c, k) or ("trig", alpha, beta)
    key = ("moments", n) if kind == "mono" else ("trig", a, d, n)
    sums = tf._cache.get(key)
    if sums is None or (kind == "mono" and len(sums) <= q):
        xi, wt, v = tf.samples_on(tf, n)
        if kind == "mono":  # moments_upto(tf, q, n), from the samples
            sums = [(v := v * m).sum() for m in [wt] + [xi] * q]
        else:
            sums = [np.dot(wt, g(a * xi + d) * v) for g in (np.cos, np.sin)]
        tf._cache[key] = sums
    if kind == "mono":  # p sum_j C(q, j) a^j (b + d)^(q - j) m_j, no pow
        pa, pb = [1.0], [1.0]
        for _ in range(q):
            pa.append(pa[-1] * a)
            pb.append(pb[-1] * (b + d))
        return p * sum(math.comb(q, j) * pa[j] * pb[q - j] * sums[j]
                       for j in range(q + 1))
    if isinstance(b, np.ndarray):  # libm per shift, as for one shift
        sb, cb = (np.array([*map(g, b)]) for g in (math.sin, math.cos))
    else:
        sb, cb = math.sin(b), math.cos(b)
    C, S = sums
    return p * (sb * C + cb * S) + q * (cb * C - sb * S)


def psi_derivative_at_reference(psi: TestFunction, a: float, order: int):
    if order == 0:
        return psi(a)
    # walk down exact derivative closures while they exist; the remaining
    # numeric step then has the lowest possible stencil order
    if order > 1 and psi.dfn is not None:
        return psi_derivative_at_reference(psi.derivative(), a, order - 1)
    step = numdiff.DEFAULT_STEP[order] * psi.radius
    return float(numdiff.richardson_derivative(
        lambda t: psi(t), a, order=order, base_step=step, levels=2))


def pair_reference(w, psi, n=None, shift=0.0):
    """The scalar pairing as it was before it became a row of one member,
    verbatim, with the scalar addition theorems of ``by_terms_reference``,
    but for two lines: the translate's center and radius, which
    ``shifted_frame`` no longer returns, and a pullback paired by this
    reference, the pulled function with it (``classical_pullback``'s
    checks pass on ``WIDE``)."""
    if n is None:
        n = DEFAULT_NODES
    (base, a, b), same = shifted_frame(psi, shift)
    center, radius = ((same.center, same.radius) if same is not None
                      else (base.center * a + b, base.radius * a))

    if w.kind == "smooth":
        if hasattr(w.f, "form"):
            return float(by_terms_reference(w.f.form, base, a, b, 0.0, n))
        xi, wt, samples = base.samples_on(base, n)  # shared, read-only
        arg = a * xi
        arg += b
        vals = np.multiply(w.f(arg), samples, out=arg)  # arg is ours
        return float(np.dot(wt, vals))

    if (w.kind == "dirac" and w.order == 0
            and abs(w.position - center) > radius) or \
            (w.kind == "heaviside" and center + radius <= 0.0):
        return 0.0
    if w.kind == "heaviside" and center - radius >= 0.0:
        lo, hi = base.box
        return _simpson(base.samples_on(base, n)[2], (hi - lo) / n)
    psi = same if same is not None else translate(psi, shift)

    if w.kind == "dirac":
        sign = -1.0 if w.order % 2 else 1.0
        return sign * psi_derivative_at_reference(psi, w.position, w.order)

    if w.kind == "heaviside":  # the box straddles 0
        hi = center + radius
        return _simpson(psi.fn(np.linspace(0.0, hi, n + 1)), hi / n)

    if w.kind == "pullback":
        return pair_reference(w.base, pullback_test_function(w.mu, psi), n)

    raise TypeError(f"unknown distribution kind {w.kind!r}")


def same_float(got, want):
    """Equal as floats: only the sign of a zero may differ."""
    return got == want or (math.isnan(got) and math.isnan(want))


def catalog():
    """Every SMOOTH_CHAINS link, closed-form and behind an opaque wrapper,
    the Heaviside, delta^(0..4) at 0 and pullbacks of delta, the Heaviside
    and sin."""
    out = {}
    for name, chain in SMOOTH_CHAINS.items():
        for j, f in enumerate(chain):
            out[f"{name}[{j}]"] = SmoothDensity(f)
            out[f"opaque-{name}[{j}]"] = SmoothDensity(lambda t, f=f: f(t))
    out["H"] = Heaviside()
    for k in range(numdiff.MAX_ORDER + 1):
        out[f"delta{k}"] = DiracDerivative(k)
    for mu in ("sin-bend", "shift-1"):
        for u in ("delta0", "H", "sin[0]"):
            out[f"{mu}*{u}"] = PullbackDistribution(get_diffeo(mu, WIDE),
                                                    out[u])
    return out


CATALOG = catalog()


def opaque_leaf(tf):
    """``tf`` behind an opaque evaluator: no frame, terms or ``dfn``."""
    return TestFunction(tf.center, tf.radius, lambda p: tf.fn(p))


MEMBERS = st.one_of(nested_lincombs(),
                    st.sampled_from(LEAVES).map(opaque_leaf))


class TestOnePairingPath:
    @settings(max_examples=60, deadline=None)
    @given(member=MEMBERS, eps=st.floats(2.0**-10, 1.0),
           x0=st.floats(-1.0, 1.0), t=st.floats(-1.6, 1.6),
           names=st.lists(st.sampled_from(sorted(CATALOG)), min_size=4,
                          max_size=8, unique=True),
           n=st.sampled_from([256, DEFAULT_NODES]))
    def test_pair_is_the_reference_pairing(self, member, eps, x0, t, names,
                                           n):
        """A framed member of a nested combination, or an opaque one whose
        ``derivative`` has no ``dfn``, paired at shifts that put its box in
        x <= 0, across 0 and in x >= 0, at a shift that cancels its own and
        at none; delta^(k) also at a position t radii off the box's center,
        on or off the support."""
        psi = translate(scale(member, eps), x0)
        lo, hi = psi.box
        shifts = [0.0, -x0, -hi - 0.1 * eps, -lo + 0.1 * eps,
                  -0.5 * (lo + hi) + 0.3 * t * psi.radius]
        boxes = [translate(psi, s).box for s in shifts[2:]]
        assert boxes[0][1] <= 0.0 <= boxes[1][0]
        assert boxes[2][0] < 0.0 < boxes[2][1]
        dists = [CATALOG[k] for k in names]
        dists += [DiracDerivative(k, psi.center + t * psi.radius)
                  for k in range(numdiff.MAX_ORDER + 1)]
        for shift in shifts:
            for w in dists:
                want = pair_reference(w, psi, n, shift=shift)
                got = pair(w, psi, n, shift=shift)
                assert type(got) is float
                assert same_float(got, want), (w, shift)

    @pytest.mark.parametrize("order", [1, 2])
    def test_dirac_derivative_rows_are_the_reference_per_member(self, order):
        """delta' and delta'' over a battery row give each member's own
        pairing, not delta's values."""
        path = make_battery("full_path", 1, 2, 3)[1]
        xs = list(np.linspace(-0.3, 0.3, 7)) + [-0.02]
        for eps in (1.0, 0.25, 2.0**-6):
            coeffs = np.array(path.weights(eps, xs))
            got = pair_row(DiracDerivative(order), coeffs, path.terms, eps,
                           xs)
            for k, x in enumerate(xs):
                member = scale(tf_lincomb(coeffs[:, k], path.terms), eps)
                want = pair_reference(DiracDerivative(order), member,
                                      shift=x)
                assert same_float(got[k], want), (eps, x)

    def test_a_dirac_derivative_row_is_not_the_dirac_row(self):
        """At eps = 1/4 and x = -0.02, delta' pairs member 1 of this
        battery to about 35.17, where delta gives about 6.62."""
        path = make_battery("full_path", 1, 2, 3)[1]
        coeffs = np.array(path.weights(0.25, [-0.02]))
        row = [pair_row(DiracDerivative(k), coeffs, path.terms, 0.25,
                        [-0.02])[0] for k in (0, 1)]
        assert row == pytest.approx([6.62, 35.17], abs=0.01)

    def test_a_pullback_row_raises(self):
        """The classical pullback has no row: it pairs through the pulled
        function of each member, which ``pair`` builds."""
        path = make_battery("full_path", 1, 2, 3)[1]
        coeffs = np.array(path.weights(0.5, [-1.0, 0.0]))
        w = PullbackDistribution(get_diffeo("shift-1", WIDE), Heaviside())
        with pytest.raises(TypeError):
            pair_row(w, coeffs, path.terms, 0.5, [-1.0, 0.0])

    def test_a_complex_opaque_density_raises(self):
        psi = scale(LEAVES[0], 0.5)
        with pytest.raises(TypeError):
            pair(SmoothDensity(lambda t: np.exp(1j * t)), psi, 256)

    def test_opaque_density_rows_are_the_reference_per_member(self):
        path = make_battery("full_path", 2, 2, 5)[0]
        xs = list(np.linspace(-1.0, 1.0, 9))
        for name in ("sin", "x4"):
            f = smooth_density(name).f
            w = SmoothDensity(lambda t, f=f: f(t))
            for eps in (1.0, 0.25):
                coeffs = np.array(path.weights(eps, xs))
                got = pair_row(w, coeffs, path.terms, eps, xs, 256)
                for k, x in enumerate(xs):
                    member = scale(tf_lincomb(coeffs[:, k], path.terms), eps)
                    assert same_float(got[k], pair_reference(
                        w, member, 256, shift=x))
