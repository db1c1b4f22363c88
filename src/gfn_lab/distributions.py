"""Distributions as linear pairings against test functions.

Variants: smooth densities, Dirac derivatives and the Heaviside step.  The
derivative and the pullback under a diffeomorphism are given in closed
form where one exists; ``pullback_test_function`` is the pulled test
function itself, the reference the closed forms are checked against.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .testfunc import (DEFAULT_NODES, TestFunction, _lincomb_samples,
                       _row_blocks, _weighted_sum, falling_factorial,
                       shifted_frame, union_box)

#: maximum Dirac-derivative order handled by the Richardson stencils
K_MAX = numdiff.MAX_ORDER

_U = 2.0**-53  # the unit roundoff of a double
#: largest AM at which a sine or cosine pairs by its Taylor series over a
#: term's moments (``_by_terms``), A the scale and M = max |xi| on the
#: term's box.  At AM = 4 the series takes J = 32 orders, and its rounding
#: bound e^(AM) (J + 2) u is 1,856 u, below the (n + 1) u of a node sum at
#: DEFAULT_NODES (Higham's gamma_(n+1)), which it passes at AM = 4.71.  The
#: scenarios reach AM = 1.36 at seeds 0-20, and the tests 2.43 (J = 25, a
#: bound of 307 u).
_TRIG_AM_CAP = 4.0


class Distribution:
    """Base: a linear functional on test functions.  The open set of the
    pairs it is evaluated on belongs to the representative that embeds it."""

    kind = "abstract"

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class SmoothDensity(Distribution):
    """Pairing by integration against a smooth density f.

    ``fns`` is the evaluator or a chain (f, f', f'', ...); a chain gives
    the distributional derivative in closed form.
    """

    kind = "smooth"

    def __init__(self, fns):
        if callable(fns):
            fns = (fns,)
        self.fns = tuple(fns)

    @property
    def f(self) -> Callable:
        return self.fns[0]

    def __repr__(self):
        return f"SmoothDensity({_fn_name(self.f)})"


class DiracDerivative(Distribution):
    """delta^(k) at ``position``; pairs to (-1)^k psi^(k)(position)."""

    kind = "dirac"

    def __init__(self, order: int = 0, position: float = 0.0):
        if not 0 <= order <= K_MAX:
            raise ValueError(f"Dirac derivative order must be in 0..{K_MAX}")
        self.order = int(order)
        self.position = float(position)


class Heaviside(Distribution):
    """Unit step at 0 (one-dimensional)."""

    kind = "heaviside"


#: offsets of the samples that the cut rule weights, from the first node
#: m at or past the cut: the interpolant's nodes m-4..m+3 and Gregory's
#: m..m+6
_WINDOW = range(-4, 7)


def _cut_rules():
    """The cut rule's weights on the samples at the ``_WINDOW`` offsets,
    exact in integers, then rounded once: Gregory's left-end correction to
    the trapezoid rule, less the half weight at m that the trapezoid sum
    from m leaves off; and the coefficients of theta^1..theta^8, a row
    each, in the integral over [-theta, 0] of the Lagrange basis
    polynomial of each of the interpolant's nodes m-4..m+3."""
    gamma = [(1, 12), (1, 24), (19, 720), (3, 160), (863, 60480),
             (275, 24192)]  # Gregory's coefficients, as fractions
    den = math.lcm(*(q for _, q in gamma))
    end = [(sum((-1) ** (o + 1) * math.comb(k, o) * p * (den // q)
                for k, (p, q) in enumerate(gamma, 1))
            - (o == 0) * den // 2) / den if o >= 0 else 0.0
           for o in _WINDOW]
    near = range(_WINDOW[0], _WINDOW[0] + 8)
    piece = np.zeros((len(near), len(_WINDOW)))
    for i, o in enumerate(near):
        poly, scale = [1], 1  # the basis is poly(s) / scale, ascending
        for q in near:
            if q != o:  # times (s - q) / (o - q)
                poly = [lo - q * hi for lo, hi in zip([0] + poly, poly + [0])]
                scale *= o - q
        # the integral of s^d over [-theta, 0] is (-1)^d theta^(d+1) / (d+1)
        piece[:, i] = [(-1) ** d * a / (scale * (d + 1))
                       for d, a in enumerate(poly)]
    return np.array(end), piece + 0.0  # a zero over a negative scale is -0.0


_END, _PIECE = _cut_rules()


def _cut_integral(tf, tau: np.ndarray, n: int) -> np.ndarray:
    """The integral of ``tf`` over xi >= tau[k], for each k.

    A combination sums its terms', a term tb((. - s) / r) / r cut at
    (tau - s) / r in its base's coordinates.  Any other function
    integrates on its own grid of n panels, from its cached samples: a box
    above the cut gives its trapezoid mass (kept with its moments), a box
    below it +0.0, evaluating nothing.  A cut inside the box gives the
    trapezoid sum from the first node m at or past it, Gregory's left-end
    correction from the samples at m..m+6 and the piece from the cut to
    node m on the interpolant through nodes m-4..m+3; samples past the box
    are zeros, as the function is.  The trapezoid rule is exact to
    rounding at the flat end of the box (Trefethen-Weideman), so only the
    cut needs a correction.  ``tf`` may be the (coeffs, terms) of a
    combination, with coefficients per cut."""
    terms = tf if isinstance(tf, tuple) else tf._terms
    if terms is not None:
        total = 0.0
        for c, t in zip(*terms):
            tb, r, s = t.frame
            total += c * _cut_integral(tb, (tau - s) / r, n)
        return total
    (lo, hi), out = tf.box, np.zeros(len(tau))  # its grid's end nodes
    whole, cut = tau <= lo, np.flatnonzero((lo < tau) & (tau < hi))
    if whole.any():
        sums = tf._cache.get(("moments", n))
        if sums is None:  # m_0 of moments_upto, as _by_terms sums it
            _, wt, v = tf.samples_on(tf, n)
            sums = tf._cache["moments", n] = [(v * wt).sum()]
        out[whole] = sums[0]
    if len(cut):
        xi, wt, v = tf.samples_on(tf, n)
        m, h = np.searchsorted(xi, tau[cut]), wt[1]  # m: the first node
        theta = (xi[m] - tau[cut]) / h  # at or past the cut; in [0, 1)
        powers = theta[:, None] ** np.arange(1, len(_PIECE) + 1)
        wts = _END + (powers[:, :, None] * _PIECE).sum(axis=1)
        lead, trail = -_WINDOW[0], _WINDOW[-1]
        padded = np.concatenate((np.zeros(lead), v, np.zeros(trail)))
        win = padded[m[:, None] + np.arange(len(_WINDOW))]
        tail = np.array([v[k:].sum() for k in m.tolist()])
        out[cut] = h * (tail + (win * wts).sum(axis=1))
    return out


def _series_order(am: float) -> int:
    """The least J with (am)^(J+1) / (J+1)! <= (u / 4) min(1, am): the
    Taylor remainder of cos and sin over |A xi| <= am after order J, kept
    below a quarter unit of rounding of a sine's leading term A m_1 as
    well as of a cosine's m_0."""
    tol, top, order = 0.25 * _U * min(1.0, am), am, 0
    while top > tol:
        order += 1
        top *= am / (order + 1)
    return order


def _by_terms(form: tuple, tf, a: float, b, d: float, n: int):
    """<f, tf((. - b - d) / a) / a> for f of closed ``form``: a combination
    pairs each term tb((. - s) / r) / r at scale a r and offset d + a s, and
    any other function pairs by an addition theorem on its own grid, from
    its cached raw moments m_j = sum_i w_i v_i xi_i^j (per n, by running
    products, extended when a pairing needs more orders).  b, an array of
    shifts, is kept from d: b + d, rounded, moves a sine near its zeros;
    for a sine or cosine it is (sin b, cos b), which ``pair_row`` takes
    once per row.  ``tf`` may be the (coeffs, terms) of a combination, with
    coefficients per shift: each shift pairs by its operations alone.

    A sine or cosine pairs from C, S = <cos, sin(A . + d), tf>, A = a:
    C = cos d C0 - sin d S0 and S = sin d C0 + cos d S0, with C0 and S0
    the even and odd parts of the Taylor sum sum_j (-1)^(j // 2) A^j m_j /
    j!, to the order J of ``_series_order`` at AM, M = max |xi| on the
    box.  The truncation error is at most (u / 4) min(1, AM) ||v||_1, with
    ||v||_1 = sum_i w_i |v_i|; the series' rounding adds at most e^(AM)
    (J + 2) u ||v||_1 to the moments' own, since its j-th term is at most
    (AM)^j / j! ||v||_1 (Higham, ch. 3-4).  An AM above ``_TRIG_AM_CAP``
    raises ``ValueError``.  No node is evaluated once the moments are
    cached: a sweep row costs O(J) per term, whatever its eps."""
    terms = tf if isinstance(tf, tuple) else tf._terms
    if terms is not None:
        total = 0.0
        for c, t in zip(*terms):
            tb, r, s = t.frame
            total += c * _by_terms(form, tb, a * r, b, d + a * s, n)
        return total
    kind, p, q = form  # ("mono", c, k) or ("trig", alpha, beta)
    order = q  # the moments it reads: m_0..m_order
    if kind == "trig":
        big = max(-tf.box[0], tf.box[1])
        am = a * big  # a frame's scale is positive
        if not am <= _TRIG_AM_CAP:
            raise ValueError(
                f"no sine or cosine pairing at A = {a!r} of a term with "
                f"M = max |xi| = {big!r} on n = {n} panels: AM = {am:.6g} "
                f"exceeds {_TRIG_AM_CAP}, where the series over moments "
                f"loses its rounding bound")
        order = _series_order(am)
    sums = tf._cache.get(("moments", n))
    if sums is None or len(sums) <= order:
        xi, wt, v = tf.samples_on(tf, n)  # moments_upto(tf, order, n)
        sums = [float((v := v * m).sum()) for m in [wt] + [xi] * order]
        tf._cache["moments", n] = sums
    if kind == "mono":  # p sum_j C(q, j) a^j (b + d)^(q - j) m_j, no pow
        pa, pb = [1.0], [1.0]
        for _ in range(q):
            pa.append(pa[-1] * a)
            pb.append(pb[-1] * (b + d))
        return p * sum(math.comb(q, j) * pa[j] * pb[q - j] * sums[j]
                       for j in range(q + 1))
    parts, t = ([], []), 1.0  # t = a^j / j!
    for j in range(order + 1):
        parts[j % 2].append(t * sums[j] if j % 4 < 2 else -t * sums[j])
        t = t * a / (j + 1)
    c0, s0 = math.fsum(parts[0]), math.fsum(parts[1])
    cd, sd = math.cos(d), math.sin(d)
    C, S = cd * c0 - sd * s0, sd * c0 + cd * s0
    sb, cb = b  # p sin(. + b) + q cos(. + b), by the addition theorems
    return sb * (p * C - q * S) + cb * (p * S + q * C)


def pair(w: Distribution, psi: TestFunction, n: Optional[int] = None,
         shift: float = 0.0):
    """The pairing <w, psi(. - shift)>: ``pair_row``'s row of one member,
    the base of the translate's frame (base, a, b), read from
    ``shifted_frame`` without building the translate, at eps = a and
    offset b.  The result is bit for bit that of the translate itself, the
    exact cancellations of ``translate`` included, but for the sign of a
    zero.
    """
    (base, a, b), _ = shifted_frame(psi, shift)
    return float(pair_row(w, np.array([[1.0]]), (base,), a, [b], n)[0])


def pair_row(w: Distribution, coeffs: np.ndarray, terms: tuple, eps: float,
             xs: list, n: Optional[int] = None) -> np.ndarray:
    """<w, psi_k(. - xs[k])> for the members psi_k = S_eps
    tf_lincomb(coeffs[:, k], terms), each k: the lab's one pairing; it
    builds no member, and a kind it cannot pair raises ``TypeError``.

    Member k's translate is eps^-1 sum_j c_j t_j((p - b_k) / eps), with
    b_k = 0.0 + xs[k], on the box c eps + b_k +- r eps, (c, r) the terms'
    ``union_box``.  A density of closed form (a ``form`` on its evaluator,
    as on every ``SMOOTH_CHAINS`` link) pairs by addition theorems on the
    terms, from each term's cached moments (``_by_terms``), a sine or
    cosine with libm's sin and cos of the offsets b_k, taken once per
    call, evaluating no node; an opaque one integrates over the terms'
    union grid xi, sum_i w_i f(eps xi_i + b_k) psi(xi_i) with psi the
    combination's samples, and a complex-valued f raises numpy's casting
    ``TypeError``.  delta^(k) is (-1)^k psi_k^(k)(position): the evaluator
    itself for k = 0, one array over the members whose box holds the
    position (the others pair to +0.0), and for k >= 1 Richardson-
    extrapolated central differences, after one exact derivative level
    when k > 1 and every term has a ``dfn``, on one array of every
    member's values at every stencil point.  A Heaviside is
    sum_j c_jk int_{xi >= tau_k} t_j(xi) dxi with the cut tau_k = -b_k /
    eps in the member's coordinates, and -inf or inf for a box in x >= 0
    or x <= 0, which pairs to +0.0 (``_cut_integral``): each term
    integrates from its own cached samples, so a term narrower than the
    members' box keeps its own resolution, and no member is evaluated.
    """
    n = DEFAULT_NODES if n is None else n
    b = 0.0 + np.array(xs)  # the offsets of the translates' frames
    if w.kind == "smooth" and hasattr(w.f, "form"):
        if w.f.form[0] == "trig":  # libm per shift, once per row
            b = tuple(np.array([*map(g, b)]) for g in (math.sin, math.cos))
        return _by_terms(w.f.form, (coeffs, terms), eps, b, 0.0, n)
    if w.kind == "smooth":
        out = np.empty(len(b))
        for k in _row_blocks(len(b), 4 * (n + 1)):
            xi, wt, rows = _lincomb_samples(coeffs[:, k], terms, n)
            arg = eps * xi + b[k, None]
            vals = np.multiply(w.f(arg), rows, out=arg)  # arg is ours
            out[k] = [np.dot(wt, v) for v in vals]
        return out
    if w.kind not in ("dirac", "heaviside"):
        raise TypeError(f"no pairing of distribution kind {w.kind!r}")
    c, r = union_box(terms)  # the members' box
    center, radius = c * eps + b, r * eps  # the translates'
    if w.kind == "heaviside":  # the cut at 0, -inf or inf off the box
        tau = np.where(center + radius <= 0.0, np.inf,
                       np.where(center - radius >= 0.0, -np.inf,
                                (0.0 - b) / eps))
        return _cut_integral((coeffs, terms), tau, n)
    exact = w.order > 1 and all(t.dfn is not None for t in terms)
    fns = [t.dfn if exact else t.fn for t in terms]  # one exact level first
    fac = eps ** -1 / eps if exact else eps ** -1
    p, order = w.position, w.order - exact
    # values on a trailing axis of one: an evaluator that works by rows of
    # its last axis (a Newton inverse stopping per row) sees each point
    # alone, as on a scalar
    out, c1 = np.zeros(len(b)), coeffs[..., None]
    if not order:  # the members whose box holds the position
        hit = ~(np.abs(p - center) > radius)
        if hit.any():
            out[hit] = fac * _weighted_sum(c1[:, hit], fns)(
                ((p - b[hit]) / eps)[:, None])[:, 0]
        return out
    # every member at every stencil point, a row per point, in the order
    # richardson_derivative reads them
    step, levels = numdiff.DEFAULT_STEP[order] * radius, 2
    pts = [p + o * (step / 2**j) for j in range(levels + 1)
           for o in numdiff._CENTRAL[order][0]]
    at = iter(fac * _weighted_sum(c1, fns)(
        ((np.array(pts)[:, None] - b) / eps)[..., None])[..., 0])
    sign = -1.0 if w.order % 2 else 1.0
    return sign * numdiff.richardson_derivative(lambda _: next(at), p,
                                                order, step, levels)


def derivative(w: Distribution) -> Distribution:
    """Distributional derivative in closed form; a kind without one raises
    ``TypeError``."""
    if w.kind == "dirac":
        return DiracDerivative(w.order + 1, w.position)
    if w.kind == "heaviside":
        return DiracDerivative(0, 0.0)
    if w.kind == "smooth" and len(w.fns) > 1:
        return SmoothDensity(w.fns[1:])
    raise TypeError(f"no closed-form derivative for {w!r}")


def _pullback(mu, w: Distribution, c: float, s: float) -> tuple:
    """mu^* of the weighted translate c w(. - s), <c w(. - s), psi> =
    c <w, psi(. + s)>, in closed form: (v, c', t) with mu^* c w(. - s) =
    c' v(. - t), where <mu^* u, psi> = <u, (psi o mu^{-1}) |det D mu^{-1}|>.

    The identity keeps (w, c, s).  delta at p goes to c |mu'(q)|^-1 delta
    at q = mu^{-1}(p + s); the step at s, under an increasing map, to the
    step at mu^{-1}(s); a density f to the opaque f(mu(.) - s).  A kind
    without a closed form raises ``TypeError``: delta^(k) for k >= 1, and
    the step under a decreasing map.
    """
    if mu.is_identity:
        return w, c, s
    if w.kind == "dirac" and w.order == 0:
        q = mu.inverse(w.position + s)
        return DiracDerivative(0, q), c / abs(mu.d_forward(q)), 0.0
    if w.kind == "heaviside" and mu.d_forward(t := mu.inverse(s)) > 0.0:
        return w, c, t
    if w.kind == "smooth":
        return SmoothDensity(lambda p: w.f(mu.forward(p) - s)), c, 0.0
    raise TypeError(f"no closed-form pullback of {w!r} along {mu.name}")


def pullback_test_function(mu, psi: TestFunction) -> TestFunction:
    """(psi o mu^{-1}) |det D mu^{-1}| as an opaque test function: paired
    with w, the definition of <mu^* w, psi> that ``_pullback``'s closed
    forms are checked against.

    Its box is the exact image of psi's box, the interval between mu(lo)
    and mu(hi) (a one-dimensional diffeomorphism is strictly monotone),
    widened by the rounding margin of ``mu.image_box``.
    """
    if getattr(mu, "is_identity", False):
        return psi
    center, radius = mu.image_box(*psi.box)

    def fn(xi):
        pre = mu.inverse(xi)
        return psi.fn(pre) * np.abs(1.0 / mu.d_forward(pre))

    return TestFunction(center, radius, fn)


# ---------------------------------------------------------------------------
# a small catalog of smooth functions with exact derivative chains


def _fn_name(f) -> str:
    """A name of the evaluator ``f`` that is the same in every process: its
    closed form ("sin", "-cos", "4*x^3"), else its qualified name."""
    kind, p, q = getattr(f, "form", (None, None, None))
    if kind == "trig":
        return ("-" if p + q < 0 else "") + ("sin" if p else "cos")
    if kind == "mono":
        x = "" if q == 0 else "x" if q == 1 else f"x^{q}"
        return f"{p:g}" if not x else x if p == 1.0 else f"{p:g}*{x}"
    return getattr(f, "__qualname__", type(f).__name__)


def _with_form(f, *form):
    """``f`` tagged with its closed form, which ``pair`` reads."""
    f.form = form
    return f


def _monomial(c: float, k: int):
    """Evaluator of c x^k as the left-to-right products (c x) x ... x, with
    no factor c when it is 1; a constant is c + x*0, shaped like x.  For
    finite x these are the operations of Horner's rule on ascending
    coefficients (0, ..., 0, c) without its additions of zero.  x itself
    is returned for x^1; otherwise the first product is the one new
    array, and the remaining factors multiply into it."""
    if k == 0:
        return _with_form(lambda x: c + x * 0, "mono", c, k)
    if c == 1.0 and k == 1:
        return _with_form(lambda x: x, "mono", c, k)
    rest = k - 2 if c == 1.0 else k - 1  # factors after the first product

    def f(x):
        acc = x * x if c == 1.0 else c * x
        for _ in range(rest):
            acc *= x
        return acc

    return _with_form(f, "mono", c, k)


def _monomial_chain(k: int) -> tuple:
    """Derivative chain of x^k: the links k!/(k-j)! x^(k-j), then zero."""
    chain = [_monomial(falling_factorial(k, j), k - j) for j in range(k + 1)]
    chain.append(_with_form(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)), "mono", 0.0, 0))
    return tuple(chain)


def _trig(alpha: float, beta: float):
    """alpha sin + beta cos, (alpha, beta) a signed unit vector."""
    g = np.sin if alpha else np.cos
    f = (lambda x: g(x)) if alpha + beta > 0 else (lambda x: -g(x))
    return _with_form(f, "trig", alpha, beta)


_SIN, _COS, _NSIN, _NCOS = (_trig(1.0, 0.0), _trig(0.0, 1.0),
                            _trig(-1.0, 0.0), _trig(0.0, -1.0))
SMOOTH_CHAINS = {
    "sin": (_SIN, _COS, _NSIN, _NCOS, _SIN),
    "cos": (_COS, _NSIN, _NCOS, _SIN, _COS),
    "one": _monomial_chain(0),
    "x": _monomial_chain(1),
    "x2": _monomial_chain(2),
    "x4": _monomial_chain(4),
}


def smooth_density(name: str) -> SmoothDensity:
    return SmoothDensity(SMOOTH_CHAINS[name])
