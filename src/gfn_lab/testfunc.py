"""Compactly supported smooth test functions and their integral calculus.

The parametric family used for construction is

    phi(xi) = sum_k c_k (xi - c)^k B((xi - c)/r),   B(t) = exp(-1/(1 - t^2))

with B extended by zero outside |t| < 1.  The family evaluates exactly, is
closed under scaling and translation, and its unit-mass / vanishing-moment
members are obtained from one dense linear solve.

All moments are computed by uniform trapezoid quadrature over the support
interval.  Because every function here is infinitely flat at the support
boundary, the trapezoid rule converges super-algebraically, and doubling
the node count gives a cheap, honest error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

#: default quadrature nodes (panels) over a support interval
DEFAULT_NODES = 4096

#: absolute tolerance on each moment integral of a constructed mollifier
TAU_M = 1e-10

#: reject mollifier constructions whose moment matrix is worse than this
COND_LIMIT = 1e12

#: largest vanishing-moment order the lab works with; moment() accepts
#: orders up to twice this
Q_CAP = 8

#: doubles that one block of a row of members holds at once, temporaries
#: included: a longer row is taken in blocks of rows (``_row_blocks``)
ROW_BLOCK_NODES = 2**16


class MollifierError(ValueError):
    """Moment system too ill-conditioned (or otherwise unsolvable)."""


class DomainError(ValueError):
    """A test function's support escapes the configured open set."""


def bump(t: np.ndarray) -> np.ndarray:
    """Unnormalized base bump exp(-1/(1-t^2)) for |t| < 1, else 0."""
    t = np.asarray(t, dtype=float)
    m = np.abs(t) < 1.0
    out = np.zeros_like(t)
    np.divide(-1.0, 1.0 - t * t, out=out, where=m)
    np.exp(out, out=out, where=m)
    return out


def bump_deriv(t: np.ndarray) -> np.ndarray:
    """d/dt of the base bump: B(t) * (-2t) / (1-t^2)^2."""
    t = np.asarray(t, dtype=float)
    m = np.abs(t) < 1.0
    g = 1.0 - t * t
    out = np.zeros_like(t)
    np.divide(-1.0, g, out=out, where=m)
    np.exp(out, out=out, where=m)
    np.multiply(out, -2.0 * t, out=out, where=m)
    np.divide(out, g * g, out=out, where=m)
    return out


@dataclass(frozen=True)
class Box:
    """Open interval (lo, hi), the ambient open set for supports and points.
    Its tests take arrays of points, centers and radii elementwise.  Ends
    that are not finite numbers lo < hi raise ``ValueError``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"an open interval needs finite ends lo < hi, "
                             f"got ({self.lo!r}, {self.hi!r})")

    @staticmethod
    def interval(a: float, b: float) -> "Box":
        return Box(float(a), float(b))

    def contains_point(self, x: float) -> bool:
        return (self.lo < x) & (x < self.hi)

    def contains_ball(self, center: float, radius: float) -> bool:
        return (center - radius > self.lo) & (center + radius < self.hi)


def check_node_count(n: int):
    """Raise unless ``n`` is a usable panel count: a power of two >= 64."""
    if n < 64 or (n & (n - 1)) != 0:
        raise ValueError(f"quadrature node count must be a power of two >= 64, "
                         f"got {n}")


class TestFunction:
    """A smooth function with support inside [center - radius, center + radius].

    ``fn`` is a vectorized evaluator returning exactly zero outside that
    interval.  ``dfn``, when present, is an exact derivative evaluator.  A
    test function carries no name, label or record of how it was built.

    Every test function has an affine frame ``(base, a, b)``: it equals
    ``base((p - b) / a) / a``.  Scaled and translated functions carry the
    frame of what they were built from; every other function, opaque ones
    included, is its own base with frame ``(self, 1, 0)``.  Linear
    combinations also record their coefficients and terms.
    """

    __test__ = False  # pytest: a domain type, not a test case

    # set only on the instances that have them
    _frame: Optional[tuple] = None   # (base, a, b) unless its own base
    _terms: Optional[tuple] = None   # (coeffs, terms) of a lincomb

    def __init__(self, center: float, radius: float,
                 fn: Callable[[np.ndarray], np.ndarray],
                 dfn: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.center = float(center)
        self.radius = float(radius)
        self.fn = fn
        self.dfn = dfn
        self._cache: dict = {}

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self.fn(arr)
        return float(out) if arr.ndim == 0 else out

    @property
    def frame(self) -> tuple:
        """(base, a, b) with self(p) = base((p - b) / a) / a."""
        return self._frame if self._frame is not None else (self, 1.0, 0.0)

    def samples_on(self, owner: "TestFunction", n: int, nodes=None):
        """Trapezoid nodes and weights over the support of ``owner``, and
        this function's values there, read-only; one cached slot, holding
        the latest grid.  ``nodes`` passes that grid's (xi, wt) when the
        caller already holds them.  The closed-form and the Heaviside
        pairings read each term's samples on its own grid.

        A linear combination sums its terms' values on the grid, each term
        caching its own next to the shared nodes, so members built again
        and again from the same terms over the same support evaluate each
        term once.
        """
        grid = (owner.center, owner.radius, n)  # determines the nodes
        slot = self._cache.get("grid")
        if slot is None or slot[0] != grid:
            if self._terms is None:
                xi, wt = nodes or support_grid(owner, n)
                vals = self.fn(xi)
            else:
                xi, wt, vals = _summed_samples(*self._terms, owner, n, nodes)
            vals.flags.writeable = False  # shared from now on
            slot = self._cache["grid"] = (grid, (xi, wt, vals))
        return slot[1]

    def derivative(self) -> "TestFunction":
        """The exact derivative, from the evaluator chain; a function
        without an exact derivative evaluator raises ``TypeError``."""
        if self.dfn is None:
            raise TypeError(f"{self!r} has no exact derivative evaluator")
        return TestFunction(self.center, self.radius, self.dfn)

    @property
    def box(self) -> tuple[float, float]:
        return self.center - self.radius, self.center + self.radius

    def mass(self, n: Optional[int] = None) -> float:
        key = ("mass", n)
        if key not in self._cache:
            self._cache[key] = moment(self, 0, n=n)
        return self._cache[key]

    def __repr__(self):
        return f"TestFunction(center={self.center:g}, radius={self.radius:g})"


# ---------------------------------------------------------------------------
# quadrature over support intervals


def _node_count(n) -> int:
    return DEFAULT_NODES if n is None else int(n)


def support_grid(tf: TestFunction, n=None):
    """Trapezoid nodes and weights over ``n`` panels (default
    ``DEFAULT_NODES``) of the support interval of ``tf``, read-only because
    the sample caches share them."""
    n = _node_count(n)
    lo, hi = tf.box
    pts = np.linspace(lo, hi, n + 1)
    h = (hi - lo) / n
    w = np.full(n + 1, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    pts.flags.writeable = w.flags.writeable = False
    return pts, w


def moment(tf: TestFunction, alpha: int, n=None, return_error: bool = False):
    """Moment integral of xi^alpha against ``tf`` over its support interval,
    the values multiplied by the nodes alpha times.

    With ``return_error`` the node count is doubled once and the difference
    is attached as an error estimate.
    """
    alpha = int(alpha)
    if not 0 <= alpha <= 2 * Q_CAP:
        raise ValueError(f"moment order {alpha} outside 0..{2 * Q_CAP}")

    def integral(m):
        pts, w = support_grid(tf, m)
        vals = tf.fn(pts)
        for _ in range(alpha):
            vals = vals * pts
        return float(np.dot(w, vals))

    n = _node_count(n)
    val = integral(n)
    if not return_error:
        return val
    return val, abs(val - integral(2 * n))


def _grid_rows(centers: np.ndarray, radii: np.ndarray, n=None):
    """``support_grid`` of the boxes centers[k] +- radii[k], a row per box,
    bit for bit: C-contiguous (K, n + 1) arrays of nodes and weights.
    (``linspace`` with array ends gives each row its own ``linspace`` but
    lays the rows out transposed, and a strided row sums and dots with
    other roundings.)"""
    n = _node_count(n)
    lo, hi = centers - radii, centers + radii
    pts = np.ascontiguousarray(np.linspace(lo, hi, n + 1, axis=-1))
    w = np.repeat(((hi - lo) / n)[:, None], n + 1, axis=1)
    w[:, 0] *= 0.5
    w[:, -1] *= 0.5
    return pts, w


def _row_blocks(count: int, width: int) -> list:
    """Slices splitting ``count`` rows into blocks that hold at most
    ``ROW_BLOCK_NODES`` doubles, or one row, where a row holds ``width``
    doubles at once (its arrays and their temporaries)."""
    rows = max(1, ROW_BLOCK_NODES // width)
    return [slice(i, i + rows) for i in range(0, count, rows)]


def _moment_sums(v: np.ndarray, pts: np.ndarray, qmax: int) -> np.ndarray:
    """m_0..m_qmax over the last axis from v = fn w on the nodes ``pts``:
    m_a is the sum of v, which is then multiplied by the nodes for the next
    order, in place.  A row of a C-contiguous stack sums as it would alone."""
    out = [v.sum(axis=-1)]
    for _ in range(qmax):
        v *= pts
        out.append(v.sum(axis=-1))
    return np.stack(out, axis=-1)


def moments_upto(tf: TestFunction, qmax: int, n: Optional[int] = None) -> np.ndarray:
    """All moments m_0..m_qmax from one evaluation on the support grid of
    ``tf`` (``_moment_sums``)."""
    pts, w = support_grid(tf, n)
    return _moment_sums(tf.fn(pts) * w, pts, qmax)


def falling_factorial(beta: int, gamma: int) -> float:
    """beta! / (beta - gamma)!, the coefficient of xi^(beta - gamma) in
    d^gamma xi^beta, for 0 <= gamma <= beta."""
    return math.factorial(beta) / math.factorial(beta - gamma)


# ---------------------------------------------------------------------------
# construction


def _bump_poly(coeffs: np.ndarray, d: np.ndarray, B: np.ndarray):
    """sum_k coeffs[k] d^k by Horner's rule, times B, in a new array."""
    acc = np.zeros_like(B)
    for k in range(len(coeffs) - 1, -1, -1):
        acc *= d
        acc += coeffs[k]
    acc *= B
    return acc


def _parametric_eval(coeffs: np.ndarray, center: float, radius: float):
    c, r = float(center), float(radius)

    def fn(x):
        d = x - c
        return _bump_poly(coeffs, d, bump(d / r))

    def dfn(x):
        d = x - c
        u = d / r
        B = bump(u)
        dB = bump_deriv(u) / r
        poly = np.zeros_like(B)
        dpoly = np.zeros_like(B)
        for k in range(len(coeffs) - 1, -1, -1):
            dpoly *= d
            dpoly += poly
            poly *= d
            poly += coeffs[k]
        dpoly *= B
        poly *= dB
        dpoly += poly
        return dpoly

    return fn, dfn


def build_mollifier(q: int, radius: float = 1.0,
                    center: float = 0.0) -> TestFunction:
    """Unit-mass mollifier with moments 1..q vanishing (about the origin).

    Solves the dense moment system over the bump-monomial basis centered at
    ``center`` with support radius ``radius``.  A nonzero ``center`` yields
    an asymmetric member whose first unconstrained moment is generically
    nonzero.  Raises :class:`MollifierError` when the moment matrix 1-norm
    condition estimate exceeds ``COND_LIMIT``.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    c = float(center)
    r = float(radius)
    n = DEFAULT_NODES
    pts = np.linspace(c - r, c + r, n + 1)
    h = 2 * r / n
    w = np.full(n + 1, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    d = pts - c
    B = bump(d / r)
    basis = np.stack([d ** k * B for k in range(q + 1)])  # (q+1, n+1)
    powers = np.ones((n + 1, q + 1))  # np.vander's running products, and
    for k in range(1, q + 1):         # its layout: xi^a columns
        np.multiply(powers[:, k - 1], pts, out=powers[:, k])
    A = (powers.T * w) @ basis.T
    cond = np.linalg.cond(A, 1)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise MollifierError(
            f"moment matrix for q={q} has condition estimate {cond:.3e}")
    b = np.zeros(q + 1)
    b[0] = 1.0
    coeffs = np.linalg.solve(A, b)
    coeffs += np.linalg.solve(A, b - A @ coeffs)  # one refinement pass
    # unit mass on the member's own grid, through the evaluator's own
    # operations on the bump values above: the solve leaves a mass defect
    # of up to a few 1e-14, which products of embeddings amplify above the
    # decay they are tested for
    coeffs = coeffs / float(np.dot(w, _bump_poly(coeffs, d, B)))
    fn, dfn = _parametric_eval(coeffs, c, r)
    return TestFunction(c, r, fn, dfn=dfn)


def bump_testfunction(radius: float = 1.0, center: float = 0.0) -> TestFunction:
    """The base bump B((xi - center)/radius), not normalized."""
    fn, dfn = _parametric_eval(np.array([1.0]), center, radius)
    return TestFunction(center, radius, fn, dfn=dfn)


def _weighted_sum(coeffs: list, fns: list):
    def f(x):
        acc = coeffs[0] * fns[0](x)
        for c, g in zip(coeffs[1:], fns[1:]):
            acc = acc + c * g(x)
        return acc

    return f


def union_box(tfs: Sequence[TestFunction]) -> tuple[float, float]:
    """(center, radius) of the interval covering the supports of ``tfs``."""
    if len(tfs) == 1:  # its own, which the midpoint of its ends may round
        return tfs[0].center, tfs[0].radius
    lo = min([t.center - t.radius for t in tfs])
    hi = max([t.center + t.radius for t in tfs])
    center = 0.5 * (lo + hi)
    return center, hi - center


def tf_lincomb(coeffs: Sequence[float],
               tfs: Sequence[TestFunction]) -> TestFunction:
    """Linear combination, supported on the interval covering all terms."""
    center, radius = union_box(tfs)
    coeffs = [float(c) for c in coeffs]
    fn = _weighted_sum(coeffs, [t.fn for t in tfs])
    dfn = None
    if all(t.dfn is not None for t in tfs):
        dfn = _weighted_sum(coeffs, [t.dfn for t in tfs])
    out = TestFunction(center, radius, fn, dfn=dfn)
    out._terms = (coeffs, tuple(tfs))
    return out


def _summed_samples(coeffs, terms: tuple, owner: TestFunction, n: int,
                    nodes=None):
    """Nodes, weights and sum_j coeffs[j] terms[j] on ``owner``'s grid, from
    the terms' cached samples (``samples_on``), in a new array; every
    product after the first goes through one buffer."""
    xi, wt, first = terms[0].samples_on(owner, n, nodes)
    vals, buf = coeffs[0] * first, None  # the buffer comes with the 2nd term
    for c, t in zip(coeffs[1:], terms[1:]):
        buf = np.multiply(c, t.samples_on(owner, n, (xi, wt))[2], out=buf)
        vals += buf
    return xi, wt, vals


def _lincomb_samples(coeffs: np.ndarray, terms: tuple, n: int):
    """samples_on of each tf_lincomb(coeffs[:, k], terms), a row per k, in
    a new C-contiguous array that the caller may overwrite."""
    return _summed_samples([c[:, None] for c in coeffs], terms,
                           TestFunction(*union_box(terms), None), n)


# ---------------------------------------------------------------------------
# operators


def _framed(base: TestFunction, a: float, b: float) -> TestFunction:
    """base((p - b) / a) / a, evaluated in one step from the base."""
    fac = a ** -1

    def through(f, c):
        return lambda p: c * f((p - b) / a)

    fn = through(base.fn, fac)
    dfn = None if base.dfn is None else through(base.dfn, fac / a)
    out = TestFunction(base.center * a + b, base.radius * a, fn, dfn=dfn)
    out._frame = (base, a, b)
    return out


def scale(tf: TestFunction, eps: float) -> TestFunction:
    """S_eps tf : xi -> eps^-1 tf(xi/eps); support radius shrinks to eps*r."""
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"scaling parameter must lie in (0, 1], got {eps}")
    if eps == 1.0:
        return tf
    base, a, b = tf.frame
    return _framed(base, a * eps, b * eps)


def translate(tf: TestFunction, x: float) -> TestFunction:
    """tf(. - x): the frame of ``tf`` at offset b + x, so stacked shifts
    fold into one frame level; a zero shift returns ``tf``.  A shift that
    is not finite raises ``ValueError``."""
    shift = float(x)
    if not math.isfinite(shift):
        raise ValueError(f"translation must be finite, got {shift}")
    if shift == 0.0:
        return tf
    base, a, b = tf.frame
    return _framed(base, a, b + shift)
