"""One pairing path: ``pair`` is ``pair_row``'s row of one member for every
kind.  The scalar pairing it replaced is kept below as the
reference (``pair_reference``), and every pairing but the Heaviside's must
give its floats; the Heaviside's is held to its accuracy instead
(``TestHeavisideByTerms``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfn_lab import numdiff
from gfn_lab.asymptotics import SweepSpec, sweep
from gfn_lab.basic_space import embed_C, embed_sigma, sub
from gfn_lab.diffeo import get_diffeo
from gfn_lab.distributions import (SMOOTH_CHAINS, DiracDerivative, Heaviside,
                                   SmoothDensity, _series_order, pair,
                                   pair_row, pullback_test_function,
                                   smooth_density)
from gfn_lab.test_objects import make_battery
from gfn_lab.testfunc import (DEFAULT_NODES, Box, TestFunction,
                              _weighted_sum, build_mollifier, moments_upto,
                              scale, shifted_frame, support_grid, tf_lincomb,
                              translate, union_box)

from conftest import half_line_simpson, simpson
from test_shared_evaluation import LEAVES, nested_lincombs

WIDE = Box.interval(-50.0, 50.0)  # no pulled function below leaves it
U = 2.0**-53


def by_terms_reference(form: tuple, tf, a: float, b: float, d: float,
                       n: int):
    """<f, tf((. - b - d) / a) / a> for f of closed ``form``, and a bound on
    the pairing's distance from it: a combination pairs each term tb((. -
    s) / r) / r at scale a r and offset d + a s, and any other function
    pairs on its own grid, from samples it evaluates anew, never reading
    or writing a cache.  A monomial pairs by moments, from running
    products of the samples and the nodes, bound 0: the pairing's floats.
    A sine or cosine pairs by the addition theorem in b (kept from d: b +
    d, rounded, moves a sine near its zeros) over C, S = <cos, sin(a . +
    d), tf> as trapezoid sums in extended precision, within ``trig_bound``
    per term and the rounding of the pairing's sums over the terms."""
    terms = tf if isinstance(tf, tuple) else tf._terms
    if terms is not None:
        total, bound, size = 0.0, 0.0, 0.0
        for c, t in zip(*terms):
            tb, r, s = t.frame
            val, tol = by_terms_reference(form, tb, a * r, b, d + a * s, n)
            total += c * val
            bound, size = bound + abs(c) * tol, size + abs(c * val)
        return total, bound and bound + (len(terms) + 1) * U * size
    xi, wt = support_grid(tf, n)
    v = tf.fn(xi)
    kind, p, q = form  # ("mono", c, k) or ("trig", alpha, beta)
    if kind == "mono":  # p sum_j C(q, j) a^j (b + d)^(q - j) m_j, no pow
        sums = [(v := v * m).sum() for m in [wt] + [xi] * q]
        pa, pb = [1.0], [1.0]
        for _ in range(q):
            pa.append(pa[-1] * a)
            pb.append(pb[-1] * (b + d))
        return p * sum(math.comb(q, j) * pa[j] * pb[q - j] * sums[j]
                       for j in range(q + 1)), 0.0
    arg = a * xi.astype(np.longdouble) + d
    C, S = (np.dot(wt, g(arg) * v) for g in (np.cos, np.sin))
    sb, cb = math.sin(b), math.cos(b)
    value = p * (sb * C + cb * S) + q * (cb * C - sb * S)
    big = max(-tf.box[0], tf.box[1])
    l1 = np.dot(wt, np.abs(v))
    return value, trig_bound(a * big, n, 3.0) * U * l1 + U * abs(value)


def trig_bound(am: float, n: int, ref: float) -> float:
    """A first-order bound, in units of u ||v||_1 with ||v||_1 = sum w |v|,
    on the distance of a term's sine or cosine pairing at AM, M = max |xi|
    on its box, from its trapezoid sum, where ``ref`` bounds a reference's
    own error in the same units.  C0 and S0 together carry the two
    truncations, u / 4 min(1, AM) each, and the series' rounding, e^(AM)
    (J + 2), as ``distributions._by_terms`` states them, and the moments'
    rounding: m_j rounds at most (j + 1 + D) u M^j ||v||_1, D = n.bit_length()
    + 17 bounding the additions of numpy's pairwise sums of n + 1 terms
    (``cut_reference``), so the series' weights A^j / j! sum it to at most
    e^(AM) (AM + 1 + D).  C and S each add 3 e^(AM) in cos d C0 - sin d S0
    and its like; the addition theorem in b adds their errors, |sin b| and
    |cos b| being at most 1, and 4 of its own."""
    e, depth = math.exp(am), n.bit_length() + 17
    series = 0.5 * min(1.0, am) + e * (_series_order(am) + 2)
    return 2.0 * (series + e * (am + 1 + depth) + 3.0 * e) + 4.0 + ref


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
    but for the translate's center and radius, which ``shifted_frame`` no
    longer returns, and its pullback branch, gone with the pullback kind
    (pullbacks are closed forms of the other kinds, ``test_diffeo``'s
    ``TestClosedFormPullback``).  Its Heaviside branches, composite Simpson
    on the base's samples or on [0, hi], are gone: the Heaviside pairs by
    terms (``half_line_reference`` and ``TestHeavisideByTerms``).  Returns
    the value and the bound on the pairing's distance from it, 0 where the
    pairing must give its float."""
    if n is None:
        n = DEFAULT_NODES
    (base, a, b), same = shifted_frame(psi, shift)
    center, radius = ((same.center, same.radius) if same is not None
                      else (base.center * a + b, base.radius * a))

    if w.kind == "smooth":
        if hasattr(w.f, "form"):
            value, bound = by_terms_reference(w.f.form, base, a, b, 0.0, n)
            return float(value), float(bound)
        xi, wt, samples = base.samples_on(base, n)  # shared, read-only
        arg = a * xi
        arg += b
        vals = np.multiply(w.f(arg), samples, out=arg)  # arg is ours
        return float(np.dot(wt, vals)), 0.0

    if w.kind == "dirac" and w.order == 0 and \
            abs(w.position - center) > radius:
        return 0.0, 0.0
    psi = same if same is not None else translate(psi, shift)

    if w.kind == "dirac":
        sign = -1.0 if w.order % 2 else 1.0
        return sign * psi_derivative_at_reference(psi, w.position,
                                                  w.order), 0.0

    raise TypeError(f"no reference for distribution kind {w.kind!r}")


def half_line_reference(psi, shift):
    """For the Heaviside: the integral over x >= 0 of the translate, the
    error estimate of ``half_line_simpson``, and whether the box lies in
    x <= 0."""
    chi = translate(psi, shift)
    return (*half_line_simpson(chi.fn, *chi.box), chi.box[1] <= 0.0)


def same_float(got, want):
    """Equal as floats: only the sign of a zero may differ."""
    return got == want or (math.isnan(got) and math.isnan(want))


def catalog():
    """Every SMOOTH_CHAINS link, closed-form and behind an opaque wrapper,
    the Heaviside and delta^(0..4) at 0."""
    out = {}
    for name, chain in SMOOTH_CHAINS.items():
        for j, f in enumerate(chain):
            out[f"{name}[{j}]"] = SmoothDensity(f)
            out[f"opaque-{name}[{j}]"] = SmoothDensity(lambda t, f=f: f(t))
    out["H"] = Heaviside()
    for k in range(numdiff.MAX_ORDER + 1):
        out[f"delta{k}"] = DiracDerivative(k)
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
                if w.kind != "heaviside":
                    want, bound = pair_reference(w, psi, n, shift=shift)
                    assert same_float(got, want) if not bound else \
                        abs(got - want) <= bound, (w, shift)
                    continue
                # within the reference's error estimate, the pairing's own
                # and 1e-13 for the rounding of both, the translate's
                # (p - b) / a included.  The pairing's error at n is at
                # most twice its change from n to 2n panels, as the error
                # at 2n is at most half the error at n.
                want, est, left = half_line_reference(psi, shift)
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
                want, _ = pair_reference(DiracDerivative(order), member,
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
                        w, member, 256, shift=x)[0])


# ---------------------------------------------------------------------------
# the Heaviside by terms, and Dirac rows as arrays

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


# ---------------------------------------------------------------------------
# sines and cosines from each term's moments

#: terms with M = max |xi| of 1, 1.15 and 1.4
SERIES_TERMS = [M2, build_mollifier(0, radius=1.1, center=-0.05),
                build_mollifier(4, radius=1.2, center=-0.2)]
TRIG_LINKS = SMOOTH_CHAINS["sin"][:4]  # sin, cos, -sin, -cos


def fsum_pairing(f, leaf, eps: float, x: float, n: int) -> float:
    """sum_i w_i v_i f(eps xi_i + x) over the leaf's grid by the standard
    library: ``math.sin`` or ``math.cos`` of each node's argument, rounded
    in double, and ``math.fsum``, rounded once.  Its error is at most (2
    eps M + |x| + 3.5) u ||v||_1: the argument's two roundings, libm's
    ulp and the products' two."""
    _, p, q = f.form
    g, sign = (math.sin if p else math.cos), p + q
    xi, wt = support_grid(leaf, n)
    return sign * math.fsum(w * v * g(eps * t + x) for t, w, v in zip(
        xi.tolist(), wt.tolist(), leaf.fn(xi).tolist()))


class TestTrigSeries:
    @pytest.mark.parametrize("n", [256, DEFAULT_NODES])
    def test_pairs_within_the_bound_of_an_fsum_reference(self, n):
        """Each term, scaled and shifted, pairs every sine and cosine link
        within ``trig_bound`` of ``fsum_pairing``, whose own error it
        counts, with 2 for the rounding of sin x and cos x in the
        pairing's addition theorem."""
        for leaf in SERIES_TERMS:
            xi, wt = support_grid(leaf, n)
            l1 = float(np.dot(wt, np.abs(leaf.fn(xi))))
            big = max(-leaf.box[0], leaf.box[1])
            for eps in (1.0, 0.5, 2.0**-5, 2.0**-14):
                for x in (0.0, 0.7, -1.9):
                    psi = translate(scale(leaf, eps), x)
                    assert psi.frame == (leaf, eps, x)
                    am = eps * big
                    bound = trig_bound(am, n, 2 * am + abs(x) + 5.5) * U * l1
                    for f in TRIG_LINKS:
                        got = pair(SmoothDensity(f), psi, n)
                        want = fsum_pairing(f, leaf, eps, x, n)
                        assert abs(got - want) <= bound, (leaf, eps, x, f)

    @pytest.mark.parametrize("eps", [2.0**-14, 2.0**-18])
    def test_a_small_sine_keeps_its_cubic_term(self, eps):
        """M2's first moment vanishes, so at x = 0 the sine pairs to about
        -A^3 m_3 / 6, A = eps.  The series' truncation is held below u / 4
        of the sine's leading term AM, not of 1: at eps = 2^-18 the latter
        drops the cubic term, and the pairing with it.  Every link is
        within 1e-14 of the integrand's L1 norm, as in
        ``test_every_chain_link_pairs_by_addition_theorems``."""
        m = moments_upto(M2, 3)
        assert abs(m[1]) <= 1e-15 and abs(m[3]) > 0.02  # rounding; a term
        xi, wt = support_grid(M2, DEFAULT_NODES)
        v, arg = M2.fn(xi), eps * xi.astype(np.longdouble)
        for f in TRIG_LINKS:
            integrand = f(arg) * v
            got = pair(SmoothDensity(f), scale(M2, eps))
            assert abs(got - np.dot(wt, integrand)) <= \
                1e-14 * np.dot(wt, np.abs(integrand)), f

    def test_a_term_beyond_the_cap_raises(self):
        """AM above 4 raises, naming A, M and n; just below it, and for a
        monomial at any AM, the term pairs."""
        far = build_mollifier(0, radius=1.0, center=3.5)  # M = 4.5
        with pytest.raises(ValueError, match=r"A = 1\.0 .* M = max \|xi\| "
                                             r"= 4\.5 on n = 256 panels"):
            pair(smooth_density("sin"), far, 256)
        assert math.isfinite(pair(smooth_density("cos"), scale(far, 0.875)))
        assert math.isfinite(pair(smooth_density("x4"), far, 256))

    def test_a_sine_sweep_evaluates_no_trig_on_the_nodes(self, monkeypatch):
        """A sweep of the sine's embedding defect calls ``np.cos`` and
        ``np.sin`` on no array of n + 1 nodes, at its first eps or any
        other: a row costs O(J) per term, from the terms' moments."""
        sizes = []
        for name in ("cos", "sin"):
            monkeypatch.setattr(np, name, lambda t, *args, g=getattr(np, name),
                                **kw: sizes.append(np.size(t))
                                or g(t, *args, **kw))
        om = Box.interval(-2.5, 2.5)
        defect = sub(embed_C(smooth_density("sin"), omega=om),
                     embed_sigma(smooth_density("sin").f, omega=om))
        path = make_battery("full_path", 1, 1, seed=5)[0]
        spec = SweepSpec(i_min=2, i_max=7, K=np.linspace(-1, 1, 5),
                         alphas=(0, 1), fit_window=4)
        tables = sweep(defect, path, spec)
        assert all(np.isfinite(t.values).all() for t in tables)
        assert DEFAULT_NODES + 1 not in sizes
        assert all(("moments", DEFAULT_NODES) in t._cache
                   for t in path.terms)
