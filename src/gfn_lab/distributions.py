"""Distributions as linear pairings against test functions.

Variants: smooth densities, Dirac derivatives and the Heaviside step.  The
classical pullback under a diffeomorphism is provided so embedding
consistency can be checked against it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .testfunc import (DEFAULT_NODES, DomainError, TestFunction,
                       _lincomb_samples, _row_blocks, _weighted_sum,
                       falling_factorial, scale, shifted_frame, tf_lincomb,
                       translate, union_box)

#: maximum Dirac-derivative order handled by the Richardson stencils
K_MAX = numdiff.MAX_ORDER


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


class PullbackDistribution(Distribution):
    """mu* u, the classical pullback acting through the diffeomorphism."""

    kind = "pullback"

    def __init__(self, mu, base: Distribution):
        self.mu = mu
        self.base = base


def _simpson(vals: np.ndarray, h: float):
    n = vals.shape[-1] - 1
    if n % 2:
        raise ValueError("Simpson rule needs an even panel count")
    return h / 3.0 * (vals[..., 0] + vals[..., -1]
                      + 4.0 * vals[..., 1:-1:2].sum(axis=-1)
                      + 2.0 * vals[..., 2:-1:2].sum(axis=-1))


def _psi_derivative_at(psi: TestFunction, a: float, order: int) -> float:
    if order == 0:
        return psi(a)
    # walk down exact derivative closures while they exist; the remaining
    # numeric step then has the lowest possible stencil order
    if order > 1 and psi.dfn is not None:
        return _psi_derivative_at(psi.derivative(), a, order - 1)
    step = numdiff.DEFAULT_STEP[order] * psi.radius
    return float(numdiff.richardson_derivative(
        lambda t: psi(t), a, order=order, base_step=step, levels=2))


def _by_terms(form: tuple, tf, a: float, b, d: float, n: int):
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
            total += c * _by_terms(form, tb, a * r, b, d + a * s, n)
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


def pair(w: Distribution, psi: TestFunction, n: Optional[int] = None,
         shift: float = 0.0):
    """The pairing <w, psi(. - shift)>.

    The result is bit for bit ``pair(w, translate(psi, shift), n)``, the
    exact cancellations of ``translate`` included.  A smooth density reads
    the frame (base, a, b) of the translate from ``shifted_frame`` and
    builds no translated function.  One of closed form (a ``form`` on its
    evaluator, as on every ``SMOOTH_CHAINS`` link) pairs by addition
    theorems on the base's terms (``_by_terms``); an opaque one integrates
    over the support grid xi of the base, against its cached samples,
    <f, psi(. - shift)> = sum_j w_j f(a xi_j + b) base(xi_j).  Densities
    are real: a complex-valued f raises numpy's casting ``TypeError``.  A
    Dirac of order 0 at a point off the translate's support box, and a
    Heaviside whose box lies in x <= 0, pair to +0.0 without building the
    translate: ``TestFunction`` is exactly zero outside that box, so only
    the sign of a zero can differ.  A Heaviside whose box lies in x >= 0 integrates the
    whole translate, which is the integral of the base: composite Simpson
    on the base's cached samples, again without building the translate.
    Every other case pairs with the translate (the function itself when the
    shift cancels).  Dirac derivatives use Richardson-extrapolated central
    differences on the exact evaluator; the Heaviside integrals use
    composite Simpson, since a box that straddles 0 gives an integrand that
    is not flat at the cut point, and only that box builds a fresh grid, on
    [0, hi].
    """
    if n is None:
        n = DEFAULT_NODES
    (base, a, b), center, radius, same = shifted_frame(psi, shift)

    if w.kind == "smooth":
        if hasattr(w.f, "form"):
            return float(_by_terms(w.f.form, base, a, b, 0.0, n))
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
        return sign * _psi_derivative_at(psi, w.position, w.order)

    if w.kind == "heaviside":  # the box straddles 0
        hi = center + radius
        return _simpson(psi.fn(np.linspace(0.0, hi, n + 1)), hi / n)

    if w.kind == "pullback":
        return classical_pullback(w.mu, w.base, psi, n)

    raise TypeError(f"unknown distribution kind {w.kind!r}")


def pair_row(w: Distribution, coeffs: np.ndarray, terms: tuple, eps: float,
             xs: list, n: Optional[int] = None) -> np.ndarray:
    """``pair(w, scale(tf_lincomb(coeffs[:, k], terms), eps), n,
    shift=xs[k])`` for each k, bit for bit, for a closed-form density
    (by terms), delta or the Heaviside.  As in ``pair``: delta is eps^-1
    sum_j c_j t_j((position - x) / eps) on the box; a Heaviside over a box
    in x >= 0 is Simpson on the terms' samples, summed per member, and one
    that straddles 0 is paired alone; the rest are +0.0."""
    n = DEFAULT_NODES if n is None else n
    b = 0.0 + np.array(xs)  # the offsets of the translates' frames
    if w.kind == "smooth":
        return _by_terms(w.f.form, (coeffs, terms), eps, b, 0.0, n)
    c, r = union_box(terms)  # the members' box
    center, radius = c * eps + b, r * eps  # the translates' boxes
    if w.kind == "dirac":
        p = (w.position - b) / eps
        acc = _weighted_sum(coeffs, [t.fn for t in terms])(p)
        return np.where(np.abs(w.position - center) > radius, 0.0,
                        eps ** -1 * acc)
    out, zero = np.zeros(len(b)), center + radius <= 0.0
    inside = ~zero & (center - radius >= 0.0)
    whole = np.flatnonzero(inside)
    for k in _row_blocks(len(whole), 2 * (n + 1)):  # the sum, one product
        rows = _lincomb_samples(coeffs[:, whole[k]], terms, n)[2]
        out[whole[k]] = _simpson(rows, ((c + r) - (c - r)) / n)
    for k in np.flatnonzero(~zero & ~inside):
        out[k] = pair(w, scale(tf_lincomb(coeffs[:, k], terms), eps), n,
                      shift=xs[k])
    return out


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


def pullback_test_function(mu, psi: TestFunction) -> TestFunction:
    """(psi o mu^{-1}) |det D mu^{-1}| as an opaque test function.

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


def classical_pullback(mu, u: Distribution, psi: TestFunction,
                       n: Optional[int] = None):
    """<u, (psi o mu^{-1}) |det D mu^{-1}|>, the classical pullback pairing."""
    src = getattr(mu, "omega_src", None)
    if src is not None and not src.contains_ball(psi.center, psi.radius):
        raise DomainError("test function support leaves the source chart")
    chi = pullback_test_function(mu, psi)
    dst = getattr(mu, "omega_dst", None)
    if dst is not None and chi is not psi and not dst.contains_ball(
            chi.center, chi.radius):
        raise DomainError("transformed support leaves the target chart")
    return pair(u, chi, n)


# ---------------------------------------------------------------------------
# a small catalog of smooth functions with exact derivative chains


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
