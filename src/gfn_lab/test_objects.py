"""Families of test objects and the moment disciplines that classify them.

Three modes of family:

* ``static``: a single mollifier, ignoring (eps, x): one term of weight 1;
* ``eps_path``: a smooth bounded path eps -> phi(eps), realizing
  asymptotically vanishing moments phi(eps) = phi_q + eps^q rho(eps) chi
  with chi a zero-mass bump;
* ``full_path``: additionally x-modulated, smooth mixes of two mollifiers
  with an x-dependent weight (diffeomorphism-transformed members are
  attached by the caller, which owns the map catalog).

Batteries are finite, seeded samples standing in for universal quantifiers
over test objects; verdicts they support are evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .asymptotics import SweepSeries, _sup_table, fit_order
from .testfunc import (TAU_M, TestFunction, _lincomb_samples, _moment_sums,
                       _node_count, _row_blocks, _weighted_sum,
                       build_mollifier, bump_testfunction, tf_lincomb,
                       union_box)

#: moment magnitudes at or below this are treated as numerically zero when
#: fitting decay orders (quadrature / solve residual plateau)
MOMENT_FLOOR = 1e-13


@dataclass
class TestObjectPath:
    """A (possibly eps- and x-dependent) family of unit-mass test functions
    in coefficient form, as every ``make_battery`` path is: its member at
    (eps, x) combines the fixed ``terms`` with weights
    ``weights(eps, xs)[j][k]`` at x = xs[k] (``tf_lincomb``).  It is
    defined at every (eps, x), and it declares no moment order: a
    ``MomentClass`` carries the order.  A transformed path
    (``diffeo.transform_test_object``) is the other kind of path; both
    kinds read ``_admits``, ``_rows`` and ``_quadrature``.
    """

    __test__ = False  # pytest: a domain type, not a test case

    terms: tuple
    weights: Callable[[float, list], list]
    member_id: str

    @property
    def radius_bound(self) -> float:
        """Uniform support radius bound about the origin: the terms' extent."""
        return max(abs(t.center) + t.radius for t in self.terms)

    def __call__(self, eps: float = 1.0, x: float = 0.0) -> TestFunction:
        column, = zip(*self.weights(float(eps), [float(x)]))
        return tf_lincomb(column, self.terms)

    def _admits(self, eps: float, xs: list) -> list:
        """Whether each point of xs is in the path's domain: all are."""
        return [True] * len(xs)

    def _rows(self, eps: float, xs: list) -> tuple:
        """The members at (eps, x), x in xs, a row at once: their centers
        and radii, and an evaluator of a C-contiguous (K, m) array of nodes
        whose row k is bit for bit self(eps, xs[k]).fn on that row, the
        terms combined with the weights as columns, in ``tf_lincomb``'s
        order."""
        center, radius = union_box(self.terms)
        cols = [np.array(w, dtype=float)[:, None]
                for w in self.weights(eps, list(xs))]
        return (np.full(len(xs), center), np.full(len(xs), radius),
                _weighted_sum(cols, [t.fn for t in self.terms]))

    def _quadrature(self, eps: float, xs: list, n: Optional[int]) -> tuple:
        """A quadrature of the members at (eps, x), x in xs, a row each:
        the nodes in xi, read-only, and the values times the weights, a new
        array the caller may overwrite; they broadcast to a C-contiguous
        (K, m) stack, so the integral of f against member k is the sum of
        row k of values * f(nodes).  Here the trapezoid grid on ``n``
        panels of the terms' union box, with the terms' cached samples
        there (``_lincomb_samples``): bit for bit each member's own
        grid."""
        coeffs = np.array(self.weights(eps, list(xs)))
        nodes, wt, values = _lincomb_samples(coeffs, self.terms,
                                             _node_count(n))
        values *= wt
        return nodes, values


@dataclass(frozen=True)
class MomentClass:
    """Moment discipline: strict A_q or asymptotically vanishing (CM)."""

    kind: str                 # "strict_Aq" | "asympt_CM"
    q: int

    def __post_init__(self):
        if self.kind not in ("strict_Aq", "asympt_CM"):
            raise ValueError(f"unknown moment class kind {self.kind!r}")
        if self.q < 0:
            raise ValueError("q must be >= 0")


def _zero_mass_bump(rng: np.random.Generator) -> TestFunction:
    """Derivative of an off-center bump: exactly zero mass, all low moments
    generically nonzero."""
    rho = 0.5 + 0.4 * rng.random()
    d = (rng.random() - 0.5) * 0.4
    return bump_testfunction(radius=rho, center=d).derivative()


def make_battery(mode: str, q: int, count: int, seed: int,
                 flavor: str = "mixed",
                 build_q: Optional[int] = None) -> list[TestObjectPath]:
    """Deterministic battery of ``count`` test-object paths.

    ``flavor`` applies to full paths: "strict" members are pointwise strict
    A_q mixes, "cm" members carry an extra eps^q zero-mass term, "mixed"
    alternates, and "symmetric" restricts to even members (centers at 0),
    whose odd moments vanish identically; any other flavor raises.

    ``build_q`` imposes vanishing moments beyond the declared order q on
    the member mollifiers; A_{q'} members with q' > q still form a
    strict-A_q battery.  Members carrying an eps^q term get two extra
    vanishing moments on their base by default, so *every* probed moment of
    such a member decays at exactly order q (a clean realization of
    asymptotically vanishing moments, rather than order q on the low
    moments and order 0 beyond the constrained range).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if mode not in ("static", "eps_path", "full_path"):
        raise ValueError(f"unknown battery mode {mode!r}")
    if flavor not in ("strict", "cm", "mixed", "symmetric"):
        raise ValueError(f"unknown battery flavor {flavor!r}")
    qb = q if build_q is None else int(build_q)
    if qb < q:
        raise ValueError("build_q must be at least the declared order")
    symmetric = flavor == "symmetric"
    rng = np.random.default_rng(seed)
    members = []
    for i in range(count):
        # member 0 is the canonical representative (unit radius, centered)
        r = 1.0 if i == 0 else 0.75 + 0.5 * rng.random()
        c = 0.0 if (i == 0 or symmetric) else (rng.random() - 0.5) * 0.4 * r
        mid = f"{mode}-q{q}-s{seed}-m{i:02d}"

        if mode == "static":
            base = build_mollifier(qb, radius=r, center=c)
            members.append(TestObjectPath(
                (base,), lambda e, xs: [[1.0] * len(xs)], mid))
            continue

        chi = _zero_mass_bump(rng)
        amp = 0.05 + 0.15 * rng.random()

        if mode == "eps_path":
            base = build_mollifier(qb + 2, radius=r, center=c)
            members.append(TestObjectPath(
                (base, chi), lambda e, xs, amp=amp: [
                    [1.0] * len(xs), [amp * e**q * (1.0 + e)] * len(xs)], mid))
            continue

        r2 = 0.75 + 0.5 * rng.random()
        c2 = 0.0 if symmetric else (rng.random() - 0.5) * 0.4 * r2
        omega_w = 0.5 + 1.0 * rng.random()
        theta = 2.0 * math.pi * rng.random()
        with_cm = {"strict": False, "symmetric": False,
                   "cm": True}.get(flavor, i % 2 == 1)
        member_q = qb + 2 if with_cm else qb
        terms = (build_mollifier(member_q, radius=r, center=c),
                 build_mollifier(member_q, radius=r2, center=c2))
        if with_cm:
            terms += (chi,)

        def weights(e, xs, om=omega_w, th=theta, amp=amp, cm=with_cm):
            rows = [[], []]  # w and 1 - w; a loop: one x is the common case
            for x in xs:
                w = 0.5 + 0.4 * math.sin(om * x + th)
                rows[0].append(w)
                rows[1].append(1.0 - w)
            return rows + ([[amp * e**q * (1.0 + e)] * len(xs)] if cm else [])

        members.append(TestObjectPath(terms, weights, mid))
    return members


def perturbation_directions(count: int, seed: int) -> list[TestFunction]:
    """Zero-integral directions: differences of unit-mass bumps."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        ra = 0.6 + 0.5 * rng.random()
        rb = 0.6 + 0.5 * rng.random()
        ca = (rng.random() - 0.5) * 0.4
        cb = (rng.random() - 0.5) * 0.4
        a = build_mollifier(0, radius=ra, center=ca)
        b = build_mollifier(0, radius=rb, center=cb)
        out.append(tf_lincomb([1.0, -1.0], [a, b]))
    return out


# ---------------------------------------------------------------------------
# classification


@dataclass
class MomentClassReport:
    kind: str
    q: int
    passed: bool
    orders: dict                 # per moment index: fitted decay order
    max_moment: Optional[float]  # strict check: worst sampled magnitude

    def __bool__(self):
        return self.passed


def _decay_order(eps_grid: np.ndarray, vals: np.ndarray,
                 member_id: str, zero_tol: float) -> float:
    v = np.where(np.abs(vals) <= zero_tol, 0.0, np.abs(vals))
    ser = SweepSeries(member_id, 0, np.asarray(eps_grid, dtype=float), v)
    verdict = fit_order(ser, fit_window=len(v))
    return verdict.slope


def check_moment_class(path: TestObjectPath, cls: MomentClass,
                       eps_grid: Sequence[float], x_grid: Sequence[float],
                       n: Optional[int] = None,
                       zero_tol: float = MOMENT_FLOOR) -> MomentClassReport:
    """Classify a path against a moment discipline.

    strict_Aq: every sampled member has unit mass and |m_1..m_q| <= TAU_M.
    asympt_CM: each moment's sup over x decays with order >= q - 0.3.
    The moments integrate by the path's own quadrature (``_quadrature``),
    on the sweep kernel (``asymptotics._sup_table``): a point outside a
    partial domain raises ``DomainError``, and a NaN moment
    ``FloatingPointError``.  An empty eps or x grid raises ``ValueError``:
    it samples no member; so does an asympt_CM check on fewer than two eps,
    which fit no order.
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    xs = np.asarray(list(x_grid), dtype=float)
    if not (len(eps_grid) and len(xs)):
        raise ValueError("moment class check over an empty eps or x grid")
    if cls.kind == "asympt_CM" and len(eps_grid) < 2:
        raise ValueError("asympt_CM check needs at least two eps values")
    q = cls.q

    def row(eps, j):
        # |m_0..m_q| and |m_0 - 1| at the first j points, from the moments
        # of a row of members (by default moments_upto's, bit for bit),
        # taken in blocks: a quadrature row holds its nodes and weighted
        # values, and about two temporaries of their size while they are
        # made
        ms = np.zeros((0, q + 1))
        for k in _row_blocks(j, 4 * (_node_count(n) + 1)):
            pts, v = path._quadrature(eps, xs[k].tolist(), n)
            ms = np.concatenate([ms, _moment_sums(v, pts, q)])
        return np.vstack([np.abs(ms).T, np.abs(ms[:, 0] - 1.0)]), None

    # sup over x of each, per eps; the sweep kernel raises at the first
    # point outside a partial domain and at a NaN
    *sups, devs = _sup_table(path, eps_grid, xs, row)
    sup_m, mass_dev = np.array(sups).T, float(devs.max())

    if cls.kind == "strict_Aq":
        worst = float(sup_m[:, 1:].max()) if q >= 1 else 0.0
        passed = worst <= TAU_M and mass_dev <= TAU_M
        return MomentClassReport(cls.kind, q, passed, {}, max(worst, mass_dev))

    orders = {}
    ok = True
    for a in range(1, q + 1):
        orders[a] = _decay_order(eps_grid, sup_m[:, a], path.member_id,
                                 zero_tol)
        ok = ok and orders[a] >= q - 0.3
    return MomentClassReport(cls.kind, q, ok, orders, None)
