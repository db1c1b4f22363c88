"""Compactly supported smooth test functions and their integral calculus.

The parametric family used for construction is

    phi(xi) = sum_k c_k (xi - c)^k B((xi - c)/r),   B(t) = exp(-1/(1 - t^2))

with B extended by zero outside |t| < 1 (in two dimensions the bump is
radial and the monomials are tensor products).  The family evaluates
exactly, is closed under scaling and translation, and its unit-mass /
vanishing-moment members are obtained from one dense linear solve.

All moments are computed by uniform trapezoid quadrature over the support
box.  Because every function here is infinitely flat at the support
boundary, the trapezoid rule converges super-algebraically, and doubling
the node count gives a cheap, honest error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from . import numdiff

#: default quadrature nodes (panels) per axis, by dimension
DEFAULT_NODES = {1: 4096, 2: 512}

#: absolute tolerance on each moment integral of a constructed mollifier
TAU_M = 1e-10

#: reject mollifier constructions whose moment matrix is worse than this
COND_LIMIT = 1e12

#: largest vanishing-moment order the lab works with; moment() accepts
#: multi-indices up to twice this
Q_CAP = 8


class MollifierError(ValueError):
    """Moment system too ill-conditioned (or otherwise unsolvable)."""


class DomainError(ValueError):
    """A test function's support escapes the configured open set."""


def bump(t: np.ndarray) -> np.ndarray:
    """Unnormalized base bump exp(-1/(1-t^2)) for |t| < 1, else 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    out[m] = np.exp(-1.0 / (1.0 - tm * tm))
    return out


def bump_deriv(t: np.ndarray) -> np.ndarray:
    """d/dt of the base bump: B(t) * (-2t) / (1-t^2)^2."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    g = 1.0 - tm * tm
    out[m] = np.exp(-1.0 / g) * (-2.0 * tm) / (g * g)
    return out


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box, the ambient open set for supports and points."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def interval(a: float, b: float, s: int = 1) -> "Box":
        lo = np.full(s, float(a))
        hi = np.full(s, float(b))
        return Box(lo, hi)

    def contains_point(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(x > self.lo) and np.all(x < self.hi))

    def contains_ball(self, center, radius: float) -> bool:
        c = np.atleast_1d(np.asarray(center, dtype=float))
        return bool(np.all(c - radius > self.lo) and np.all(c + radius < self.hi))

    def distance_to_boundary(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(min(np.min(x - self.lo), np.min(self.hi - x)))


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform trapezoid panels over a support box, one count per axis."""

    nodes_per_axis: int

    def __post_init__(self):
        n = self.nodes_per_axis
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"node count must be a power of two >= 64, got {n}")


class TestFunction:
    """A smooth function with support inside the closed ball B(center, radius).

    ``fn`` is a vectorized evaluator (arrays of shape (n,) in one dimension,
    (..., s) otherwise) returning exactly zero outside the ball.  ``dfn``,
    when present, is a tuple of exact per-axis derivative evaluators.
    ``coeffs`` records the construction coefficients of internally built
    members; transformed functions are opaque and carry only a support bound.
    """

    __test__ = False  # pytest: a domain type, not a test case

    def __init__(self, s: int, center, radius: float,
                 fn: Callable[[np.ndarray], np.ndarray],
                 dfn: Optional[tuple] = None,
                 coeffs: Optional[np.ndarray] = None,
                 label: str = ""):
        self.s = int(s)
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        self.fn = fn
        self.dfn = dfn
        self.coeffs = coeffs
        self.label = label
        self._trans_base: Optional[TestFunction] = None
        self._trans_shift: Optional[np.ndarray] = None
        self._cache: dict = {}

    def __call__(self, x):
        if self.s == 1:
            arr = np.asarray(x, dtype=float)
            out = self.fn(arr)
            return float(out) if arr.ndim == 0 else out
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        out = self.fn(arr.reshape(-1, self.s))
        return float(out[0]) if single else out

    def derivative(self, axis: int = 0) -> "TestFunction":
        """Exact derivative when the evaluator chain supports it, else a
        Richardson finite-difference closure on the exact evaluator."""
        if self.dfn is not None:
            return TestFunction(self.s, self.center, self.radius,
                                self.dfn[axis], dfn=None,
                                label=f"d{axis}[{self.label}]")
        if self.s == 1:
            dfn = numdiff.derivative_closure(self.fn, 1e-4 * self.radius)
            return TestFunction(1, self.center, self.radius, dfn,
                                label=f"d[{self.label}]")
        h = 1e-4 * self.radius
        e = np.zeros(self.s)
        e[axis] = 1.0
        base = self.fn

        def dfn2(pts):
            return (base(pts + h * e) - base(pts - h * e)) / (2.0 * h)

        return TestFunction(self.s, self.center, self.radius, dfn2,
                            label=f"d{axis}[{self.label}]")

    @property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius

    def sup_abs(self, n: int = 1024) -> float:
        key = ("sup", n)
        if key not in self._cache:
            pts, _ = support_grid(self, n)
            self._cache[key] = float(np.max(np.abs(self.fn(pts))))
        return self._cache[key]

    def mass(self, n: Optional[int] = None) -> float:
        key = ("mass", n)
        if key not in self._cache:
            alpha = 0 if self.s == 1 else (0,) * self.s
            self._cache[key] = moment(self, alpha, n=n)
        return self._cache[key]

    def __repr__(self):
        return (f"TestFunction(s={self.s}, center={self.center}, "
                f"radius={self.radius:g}, label={self.label!r})")


# ---------------------------------------------------------------------------
# quadrature over support boxes


def _node_count(n, s: int) -> int:
    if n is None:
        return DEFAULT_NODES[s]
    if isinstance(n, QuadratureGrid):
        return n.nodes_per_axis
    return int(n)


def support_grid(tf: TestFunction, n=None):
    """Trapezoid nodes and weights over the support box of ``tf``.

    ``n`` may be a panel count or a :class:`QuadratureGrid`.
    """
    n = _node_count(n, tf.s)
    lo, hi = tf.box
    if tf.s == 1:
        pts = np.linspace(lo[0], hi[0], n + 1)
        h = (hi[0] - lo[0]) / n
        w = np.full(n + 1, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return pts, w
    axes, wts = [], []
    for d in range(tf.s):
        pts = np.linspace(lo[d], hi[d], n + 1)
        h = (hi[d] - lo[d]) / n
        w = np.full(n + 1, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        axes.append(pts)
        wts.append(w)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, tf.s)
    wmesh = np.prod(np.stack(np.meshgrid(*wts, indexing="ij"), axis=-1), axis=-1).ravel()
    return mesh, wmesh


def _monomial(pts: np.ndarray, alpha, s: int) -> np.ndarray:
    if s == 1:
        a = int(alpha) if np.ndim(alpha) == 0 else int(alpha[0])
        return pts**a if a else np.ones_like(pts)
    out = np.ones(pts.shape[0])
    for d, a in enumerate(alpha):
        if a:
            out = out * pts[:, d] ** int(a)
    return out


def moment(tf: TestFunction, alpha, n=None, return_error: bool = False):
    """Moment integral of xi^alpha against ``tf`` over its support box.

    With ``return_error`` the node count is doubled once and the difference
    is attached as an error estimate.
    """
    total = int(alpha) if np.ndim(alpha) == 0 else int(sum(alpha))
    if not 0 <= total <= 2 * Q_CAP:
        raise ValueError(f"moment order {total} outside 0..{2 * Q_CAP}")
    n = _node_count(n, tf.s)
    pts, w = support_grid(tf, n)
    vals = tf.fn(pts)
    val = float(np.dot(w, _monomial(pts, alpha, tf.s) * vals))
    if not return_error:
        return val
    pts2, w2 = support_grid(tf, 2 * n)
    val2 = float(np.dot(w2, _monomial(pts2, alpha, tf.s) * tf.fn(pts2)))
    return val, abs(val - val2)


def moments_upto(tf: TestFunction, qmax: int, n: Optional[int] = None) -> np.ndarray:
    """All one-dimensional moments m_0..m_qmax from a single evaluation pass."""
    if tf.s != 1:
        raise ValueError("moments_upto is one-dimensional")
    pts, w = support_grid(tf, n)
    vals = tf.fn(pts) * w
    powers = np.vander(pts, qmax + 1, increasing=True)  # columns xi^0..xi^qmax
    return powers.T @ vals


def derivative_moment(tf: TestFunction, beta, gamma, n: Optional[int] = None) -> float:
    """Integral of xi^beta * d^gamma tf, exactly via integration by parts.

    Equals (-1)^|gamma| * integral of d^gamma(xi^beta) * tf; no numerical
    differentiation is involved.  Returns 0 when the monomial degree is
    exhausted in some axis.
    """
    if tf.s == 1:
        b = int(beta) if np.ndim(beta) == 0 else int(beta[0])
        g = int(gamma) if np.ndim(gamma) == 0 else int(gamma[0])
        beta, gamma = (b,), (g,)
    coef = 1.0
    rem = []
    for b, g in zip(beta, gamma):
        if g > b:
            return 0.0
        coef *= math.factorial(b) / math.factorial(b - g)
        rem.append(b - g)
    sign = -1.0 if sum(gamma) % 2 else 1.0
    alpha = rem[0] if tf.s == 1 else tuple(rem)
    return sign * coef * moment(tf, alpha, n=n)


def multi_indices(s: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """All multi-indices of dimension s with lo <= |alpha| <= hi."""
    out = []
    for alpha in product(range(hi + 1), repeat=s):
        if lo <= sum(alpha) <= hi:
            out.append(alpha)
    return sorted(out, key=lambda a: (sum(a), a))


# ---------------------------------------------------------------------------
# construction


def _parametric_eval(coeffs: np.ndarray, center: float, radius: float):
    c, r = float(center), float(radius)

    def fn(x):
        u = (x - c) / r
        B = bump(u)
        acc = np.zeros_like(B)
        for k in range(len(coeffs) - 1, -1, -1):
            acc = acc * (x - c) + coeffs[k]
        return acc * B

    def dfn(x):
        u = (x - c) / r
        B = bump(u)
        dB = bump_deriv(u) / r
        poly = np.zeros_like(B)
        dpoly = np.zeros_like(B)
        for k in range(len(coeffs) - 1, -1, -1):
            dpoly = dpoly * (x - c) + poly
            poly = poly * (x - c) + coeffs[k]
        return dpoly * B + poly * dB

    return fn, (dfn,)


def build_mollifier(q: int, s: int = 1, radius: float = 1.0, center=0.0,
                    n: Optional[int] = None) -> TestFunction:
    """Unit-mass mollifier with moments 1..q vanishing (about the origin).

    Solves the dense moment system over the bump-monomial basis centered at
    ``center`` with support radius ``radius``.  A nonzero ``center`` yields
    an asymmetric member whose first unconstrained moment is generically
    nonzero.  Raises :class:`MollifierError` when the moment matrix 1-norm
    condition estimate exceeds ``COND_LIMIT``.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    if s == 1:
        c = float(np.atleast_1d(center)[0])
        r = float(radius)
        if n is None:
            n = DEFAULT_NODES[1]
        pts = np.linspace(c - r, c + r, n + 1)
        h = 2 * r / n
        w = np.full(n + 1, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        B = bump((pts - c) / r)
        basis = np.stack([(pts - c) ** k * B for k in range(q + 1)])  # (q+1, n+1)
        powers = np.vander(pts, q + 1, increasing=True).T             # xi^a rows
        A = (powers * w) @ basis.T
        cond = np.linalg.cond(A, 1)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise MollifierError(
                f"moment matrix for q={q} has condition estimate {cond:.3e}")
        b = np.zeros(q + 1)
        b[0] = 1.0
        coeffs = np.linalg.solve(A, b)
        coeffs += np.linalg.solve(A, b - A @ coeffs)  # one refinement pass
        fn, dfn = _parametric_eval(coeffs, c, r)
        return TestFunction(1, c, r, fn, dfn=dfn, coeffs=coeffs,
                            label=f"moll(q={q},r={r:g},c={c:g})")

    if s == 2:
        cen = np.atleast_1d(np.asarray(center, dtype=float))
        if cen.size == 1:
            cen = np.full(2, cen[0])
        r = float(radius)
        conds = [(0, 0)] + multi_indices(2, 1, q)
        basis_idx = multi_indices(2, 0, q)
        if n is None:
            n = DEFAULT_NODES[2]
        probe = TestFunction(2, cen, r, lambda p: np.zeros(p.shape[0]))
        pts, w = support_grid(probe, n)
        rel = pts - cen
        B = bump(np.sqrt(np.sum(rel * rel, axis=1)) / r)
        basis = np.stack([_monomial(rel, k, 2) * B for k in basis_idx])
        A = np.zeros((len(conds), len(basis_idx)))
        for i, a in enumerate(conds):
            A[i] = basis @ (w * _monomial(pts, a, 2))
        cond = np.linalg.cond(A, 1)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise MollifierError(
                f"moment matrix for q={q}, s=2 has condition estimate {cond:.3e}")
        b = np.zeros(len(conds))
        b[0] = 1.0
        coeffs = np.linalg.solve(A, b)
        coeffs += np.linalg.solve(A, b - A @ coeffs)

        def fn(p):
            rel = p - cen
            B = bump(np.sqrt(np.sum(rel * rel, axis=1)) / r)
            acc = np.zeros(p.shape[0])
            for ck, k in zip(coeffs, basis_idx):
                acc += ck * _monomial(rel, k, 2)
            return acc * B

        return TestFunction(2, cen, r, fn, coeffs=coeffs,
                            label=f"moll2(q={q},r={r:g})")

    raise ValueError("only dimensions 1 and 2 are supported")


def bump_testfunction(radius: float = 1.0, center=0.0, normalized: bool = True,
                      s: int = 1) -> TestFunction:
    """The base bump at the given center/radius, unit mass unless disabled."""
    if normalized:
        return build_mollifier(0, s=s, radius=radius, center=center)
    if s != 1:
        raise ValueError("raw bump only provided in one dimension")
    fn, dfn = _parametric_eval(np.array([1.0]), float(np.atleast_1d(center)[0]),
                               radius)
    return TestFunction(1, center, radius, fn, dfn=dfn,
                        coeffs=np.array([1.0]), label="bump")


def tf_lincomb(coeffs: Sequence[float], tfs: Sequence[TestFunction],
               label: str = "") -> TestFunction:
    """Linear combination, supported in the smallest ball covering all terms."""
    s = tfs[0].s
    lo = np.min(np.stack([t.center - t.radius for t in tfs]), axis=0)
    hi = np.max(np.stack([t.center + t.radius for t in tfs]), axis=0)
    center = 0.5 * (lo + hi)
    radius = float(np.max(hi - center))
    coeffs = [float(c) for c in coeffs]
    fns = [t.fn for t in tfs]

    def fn(x):
        acc = coeffs[0] * fns[0](x)
        for c, f in zip(coeffs[1:], fns[1:]):
            acc = acc + c * f(x)
        return acc

    dfn = None
    if all(t.dfn is not None for t in tfs) and s == 1:
        dfs = [t.dfn[0] for t in tfs]

        def dfn0(x):
            acc = coeffs[0] * dfs[0](x)
            for c, f in zip(coeffs[1:], dfs[1:]):
                acc = acc + c * f(x)
            return acc

        dfn = (dfn0,)
    return TestFunction(s, center, radius, fn, dfn=dfn, label=label)


# ---------------------------------------------------------------------------
# operators


def scale(tf: TestFunction, eps: float) -> TestFunction:
    """S_eps tf : xi -> eps^{-s} tf(xi/eps); support radius shrinks to eps*r."""
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"scaling parameter must lie in (0, 1], got {eps}")
    if eps == 1.0:
        return tf
    s = tf.s
    fac = eps ** (-s)
    base = tf.fn

    def fn(x):
        return fac * base(x / eps)

    dfn = None
    if tf.dfn is not None:
        dfns = tf.dfn
        dfac = fac / eps
        dfn = tuple((lambda d: (lambda x: dfac * d(x / eps)))(d) for d in dfns)
    out = TestFunction(s, tf.center * eps, tf.radius * eps, fn, dfn=dfn,
                       label=f"S_{eps:g}[{tf.label}]")
    return out


def translate(tf: TestFunction, x) -> TestFunction:
    """tf(. - x), with exact cancellation of stacked opposite translations."""
    shift = np.atleast_1d(np.asarray(x, dtype=float))
    if np.all(shift == 0.0):
        return tf
    base = tf._trans_base if tf._trans_base is not None else tf
    total = shift if tf._trans_shift is None else tf._trans_shift + shift
    if np.all(total == 0.0):
        return base
    bfn = base.fn
    off = float(total[0]) if base.s == 1 else total

    def fn(p):
        return bfn(p - off)

    dfn = None
    if base.dfn is not None:
        dfn = tuple((lambda d: (lambda p: d(p - off)))(d) for d in base.dfn)
    out = TestFunction(base.s, base.center + total, base.radius, fn, dfn=dfn,
                       label=f"T[{base.label}]")
    out._trans_base = base
    out._trans_shift = total
    return out
