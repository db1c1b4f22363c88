"""One pairing path: ``pair`` is ``pair_row``'s row of one member for every
kind but the pullback.  The scalar pairing it replaced is kept below as the
reference (``pair_reference``), and every pairing but the Heaviside's must
give its floats; the Heaviside's is held to its accuracy instead
(``TestHeavisideByTerms``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfn_lab import numdiff
from gfn_lab.diffeo import get_diffeo
from gfn_lab.distributions import (SMOOTH_CHAINS, DiracDerivative, Heaviside,
                                   PullbackDistribution, SmoothDensity,
                                   pair, pair_row,
                                   pullback_test_function, smooth_density)
from gfn_lab.test_objects import make_battery
from gfn_lab.testfunc import (DEFAULT_NODES, Box, TestFunction,
                              _weighted_sum, build_mollifier, scale,
                              shifted_frame, tf_lincomb, translate, union_box)

from conftest import half_line_simpson, simpson
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
    checks pass on ``WIDE``).  Its Heaviside branches, composite Simpson
    on the base's samples or on [0, hi], are gone: the Heaviside pairs by
    terms (``half_line_reference`` and ``TestHeavisideByTerms``)."""
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

    if w.kind == "dirac" and w.order == 0 and \
            abs(w.position - center) > radius:
        return 0.0
    psi = same if same is not None else translate(psi, shift)

    if w.kind == "dirac":
        sign = -1.0 if w.order % 2 else 1.0
        return sign * psi_derivative_at_reference(psi, w.position, w.order)

    if w.kind == "pullback":
        return pair_reference(w.base, pullback_test_function(w.mu, psi), n)

    raise TypeError(f"no reference for distribution kind {w.kind!r}")


def half_line_reference(w, psi, shift):
    """For the Heaviside or its pullback: the integral over x >= 0 of the
    translate, pulled back for a pullback, the error estimate of
    ``half_line_simpson``, and whether the box lies in x <= 0."""
    chi = translate(psi, shift)
    if w.kind == "pullback":
        chi = pullback_test_function(w.mu, chi)
    return (*half_line_simpson(chi.fn, *chi.box), chi.box[1] <= 0.0)


def is_step(w) -> bool:
    return w.kind == "heaviside" or (w.kind == "pullback"
                                     and is_step(w.base))


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
                got = pair(w, psi, n, shift=shift)
                assert type(got) is float
                if not is_step(w):
                    want = pair_reference(w, psi, n, shift=shift)
                    assert same_float(got, want), (w, shift)
                    continue
                # within the reference's error estimate, the pairing's own
                # and 1e-13 for the rounding of both, the translate's
                # (p - b) / a included.  The pairing's error at n is at
                # most twice its change from n to 2n panels, as the error
                # at 2n is at most half the error at n.
                want, est, left = half_line_reference(w, psi, shift)
                own = 2.0 * abs(got - pair(w, psi, 2 * n, shift=shift))
                assert abs(got - want) <= est + own + 1e-13, (w, shift)
                if left:  # a box in x <= 0
                    assert got == 0.0 and math.copysign(1.0, got) == 1.0

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


# ---------------------------------------------------------------------------
# the Heaviside by terms, and Dirac rows as arrays

U = 2.0**-53
#: Gregory's seventh coefficient, the first that the cut rule leaves off
GAMMA_7 = 33953 / 3628800
#: max over s in [-1, 0] of |prod_{q=-4..3} (s - q)| / 8!: the piece's
#: interpolation error per panel, in units of the eighth difference
_S = np.linspace(-1.0, 0.0, 1025)
INTERP_8 = float(np.max(np.abs(np.prod(_S[:, None] - np.arange(-4, 4),
                                       axis=1)))) / math.factorial(8)

M0 = build_mollifier(0)
M2 = build_mollifier(2, radius=0.9, center=0.1)
NARROW = translate(scale(M2, 0.09), 0.45)  # a term at 0.09 of its leaf
NESTED = translate(scale(tf_lincomb([0.6, 0.4], [M2, translate(M0, -0.2)]),
                         0.5), -0.3)
COMBO = tf_lincomb([0.7, -0.4, 0.5], [M0, NARROW, NESTED])
PULLED = pullback_test_function(get_diffeo("sin-bend", WIDE), M2)  # opaque
CUT_EPS = 2.0**-3  # the offset -tau eps gives back the cut tau exactly


def leaves(tf, coef=1.0, s=0.0, r=1.0):
    """(coef, leaf, s, r) with tf's part coef leaf((xi - s) / r) / r, for
    every leaf of tf's combinations, in the order ``_cut_integral`` takes
    them."""
    if tf._terms is None:
        return [(coef, tf, s, r)]
    out = []
    for c, t in zip(*tf._terms):
        tb, rr, ss = t.frame
        out += leaves(tb, coef * c, s + r * ss, r * rr)
    return out


def node_grid(tf, n=DEFAULT_NODES):
    lo, hi = tf.box
    return np.linspace(lo, hi, n + 1), (hi - lo) / n


def cut_cases():
    """(member, cuts in its coordinates): boxes wholly above and below the
    cut, cuts inside, on a node of a leaf's grid, within 6 nodes of either
    end of a leaf's box, and through the narrow term and its ends."""
    lo, hi = COMBO.box
    xi0, h0 = node_grid(M0)
    xin, hn = node_grid(NARROW)
    n = DEFAULT_NODES
    combo = [lo - 0.25, hi + 0.25, *np.linspace(lo, hi, 11)[1:-1],
             xi0[1000], xi0[2] + 0.37 * h0, xi0[n - 3] + 0.61 * h0,
             xin[3] + 0.3 * hn, xin[n - 2] - 0.7 * hn,
             xin[n // 2] + 0.123 * hn]
    xi2, h2 = node_grid(M2)
    single = [xi2[0] + 0.5 * h2, xi2[7], xi2[n // 3] + 0.25 * h2,
              xi2[n - 5] + 0.5 * h2]
    xip, hp = node_grid(PULLED)
    pulled = [xip[2] + 0.2 * hp, xip[n // 2] + 0.5 * hp, xip[n - 4] - 0.5 * hp]
    return [(COMBO, combo), (M2, single), (PULLED, pulled)]


def cut_reference(member, tau, n=DEFAULT_NODES):
    """Composite Simpson on 2^17 panels of each leaf's box above the cut,
    summed, and a bound on the cut rule's distance from it: per leaf, the
    rounding of the pairwise sums on both sides and of the cut's transform,
    and the leading terms of the rule's truncation, Gregory's seventh and
    the interpolant's eighth-order term, with the samples' differences
    standing in for h^k times the derivative and a factor 4 for their being
    taken beside the cut rather than at it."""
    ref = bound = 0.0
    for coef, leaf, s, r in leaves(member):
        cut = (tau - s) / r
        lo, hi = leaf.box
        if cut >= hi:
            continue
        v = leaf.fn(np.linspace(max(cut, lo), hi, 2**17 + 1))
        part = coef * simpson(v, (hi - max(cut, lo)) / 2**17)
        ref += part
        xi, h = node_grid(leaf, n)
        w = np.concatenate((np.zeros(4), leaf.fn(xi), np.zeros(8)))
        trunc = 0.0
        if cut > lo:
            m = int(np.searchsorted(xi, cut)) + 4
            trunc = 4.0 * h * (GAMMA_7 * abs(np.diff(w[m:m + 8], 7)[0])
                               + INTERP_8 * abs(np.diff(w[m - 4:m + 5], 8)[0]))
        bound += abs(coef) * (
            (n.bit_length() + 17 + 16) * U * h * np.abs(w).sum()
            + 4.0 * U * (1.0 + abs(cut)) * np.abs(w).max() + trunc) \
            + 4.0 * U * abs(part)
    return ref, bound


@pytest.fixture(scope="module")
def cut_table():
    """Each case's cuts, the lab's row over them and its one-member pairs,
    and the references with their bounds, built once."""
    out = []
    for member, cuts in cut_cases():
        xs = [-t * CUT_EPS for t in cuts]
        row = pair_row(Heaviside(), np.ones((1, len(cuts))), (member,),
                       CUT_EPS, xs)
        pairs = [pair(Heaviside(), scale(member, CUT_EPS), shift=x)
                 for x in xs]
        out.append((member, cuts, row, pairs,
                    [cut_reference(member, t) for t in cuts]))
    return out


def dirac_row_reference(w, coeffs, terms, eps, xs):
    """The Dirac branch of ``pair_row`` as it was before it took a row as
    one array, verbatim: member by member on numpy scalars."""
    b = 0.0 + np.array(xs)
    c, r = union_box(terms)
    centers, radius = (c * eps + b).tolist(), r * eps
    exact = w.order > 1 and all(t.dfn is not None for t in terms)
    fns = [t.dfn if exact else t.fn for t in terms]
    fac = eps ** -1 / eps if exact else eps ** -1

    def member(k):
        f, bk = _weighted_sum(coeffs[:, k].tolist(), fns), b[k]
        return lambda p: fac * f((p - bk) / eps)

    out = np.zeros(len(b))
    p, order = w.position, w.order - exact
    sign = -1.0 if w.order % 2 else 1.0
    for k, ck in enumerate(centers):
        if order:
            out[k] = sign * numdiff.richardson_derivative(
                member(k), p, order, numdiff.DEFAULT_STEP[order] * radius,
                levels=2)
        elif not abs(p - ck) > radius:
            out[k] = member(k)(p)
    return out


class TestHeavisideByTerms:
    def test_cut_integrals_are_accurate(self, cut_table):
        """A row's entries are within the bound of ``cut_reference`` and
        1e-14 of composite Simpson on 2^17 panels of each leaf's box."""
        for member, cuts, row, _, refs in cut_table:
            for tau, got, (ref, bound) in zip(cuts, row, refs):
                assert abs(got - ref) <= min(bound, 1e-14), (member, tau)

    def test_a_one_member_pair_is_its_row_entry(self, cut_table):
        for _, _, row, pairs, _ in cut_table:
            assert pairs == row.tolist()

    def test_the_cases_cover_every_kind_of_cut(self, cut_table):
        """Whole boxes, empty ones, and cuts inside a leaf's box: between
        nodes, on a node, and within 6 nodes of either end."""
        kinds = set()
        for member, cuts, _, _, _ in cut_table:
            for coef, leaf, s, r in leaves(member):
                xi, _ = node_grid(leaf)
                for t in cuts:
                    m = np.searchsorted(xi, (t - s) / r)
                    kinds.add("whole" if m == 0 else "empty"
                              if m > DEFAULT_NODES else "node"
                              if xi[m] == (t - s) / r else "near-left"
                              if m <= 6 else "near-right"
                              if m >= DEFAULT_NODES - 6 else "inside")
        assert kinds == {"whole", "empty", "node", "near-left",
                         "near-right", "inside"}

    @pytest.mark.parametrize("K", [1, 5, 40])
    def test_a_straddling_row_evaluates_each_term_once(self, K):
        """K members whose boxes all straddle 0 evaluate each term on its
        own grid once, whatever K (a member-by-member grid on [0, hi]
        evaluated each term K times)."""
        terms = (build_mollifier(1, radius=0.8, center=0.1),
                 build_mollifier(2, radius=1.1, center=-0.05))
        calls = []
        for i, t in enumerate(terms):
            t.fn = lambda p, f=t.fn, i=i: calls.append(i) or f(p)
        xs = np.linspace(-0.2, 0.2, K).tolist()
        c, r = union_box(terms)
        assert all(abs(0.5 * c + x) < 0.5 * r for x in xs)  # straddling
        coeffs = np.vstack([np.linspace(0.3, 0.7, K),
                            np.linspace(0.7, 0.3, K)])
        pair_row(Heaviside(), coeffs, terms, 0.5, xs)
        assert sorted(calls) == [0, 1]


@pytest.fixture(scope="module")
def battery_rows():
    """Full-path battery paths of order 1 and 3, built once."""
    return make_battery("full_path", 1, 2, 3) + make_battery("full_path", 3,
                                                             2, 7)


class TestDiracRowsAsArrays:
    @pytest.mark.parametrize("order", range(4))
    def test_battery_rows_are_the_member_by_member_rows(self, order,
                                                        battery_rows):
        """delta^(k), k = 0..3, at 0 and 0.3 over battery rows whose boxes
        hold the position, miss it and end on it, bit for bit."""
        for path in battery_rows:
            c, r = union_box(path.terms)
            for eps in (1.0, 0.25, 2.0**-6):
                xs = list(np.linspace(-0.4, 0.4, 9)) + [
                    -c * eps - r * eps, 0.3 - c * eps + r * eps]
                coeffs = np.array(path.weights(eps, xs))
                for p in (0.0, 0.3):
                    w = DiracDerivative(order, p)
                    got = pair_row(w, coeffs, path.terms, eps, xs)
                    want = dirac_row_reference(w, coeffs, path.terms, eps,
                                               xs)
                    assert got.tobytes() == want.tobytes(), (eps, p)

    @pytest.mark.parametrize("order", range(4))
    def test_opaque_rows_and_pairs_are_the_member_by_member_values(
            self, order):
        """Terms evaluated by a Newton inverse that stops per row, with no
        ``dfn``, in a row of several members and in one-member pairs."""
        terms = (PULLED, M2)
        xs = [-0.45, -0.1, 0.0, 0.2, 0.35]
        coeffs = np.array([[0.6, -0.2, 1.0, 0.3, 0.5],
                           [0.4, 1.2, 0.0, 0.7, -0.5]])
        for eps in (1.0, 0.3, 2.0**-6):
            for p in (0.0, 0.3):
                w = DiracDerivative(order, p)
                got = pair_row(w, coeffs, terms, eps, xs)
                want = dirac_row_reference(w, coeffs, terms, eps, xs)
                assert got.tobytes() == want.tobytes(), (eps, p)
                for x in xs:
                    one = dirac_row_reference(w, np.array([[1.0]]),
                                              (PULLED,), eps, [x])[0]
                    got = pair(w, scale(PULLED, eps), shift=x)
                    assert np.float64(got).tobytes() == one.tobytes()
