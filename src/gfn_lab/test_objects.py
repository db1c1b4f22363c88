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

from .asymptotics import SweepSeries, _first_nan, fit_order
from .testfunc import (TAU_M, TestFunction, _grid_rows, _moment_sums,
                       _node_count, _row_blocks, _weighted_sum,
                       build_mollifier, bump_testfunction, tf_lincomb,
                       union_box)

#: moment magnitudes at or below this are treated as numerically zero when
#: fitting decay orders (quadrature / solve residual plateau)
MOMENT_FLOOR = 1e-13


@dataclass
class TestObjectPath:
    """A (possibly eps- and x-dependent) family of unit-mass test functions.

    A path in coefficient form, as every ``make_battery`` path is, has no
    ``fn``: its member at xs[k] combines fixed ``terms`` with weights
    ``weights(eps, xs)[j][k]`` (``tf_lincomb``); any other path's
    ``fn(eps, x)`` builds the member.  Sweeps read coefficient-form paths
    only; any path serves a per-point call and the moment and Z checks.  It declares no moment order: a
    ``MomentClass`` carries the order.  ``rows(eps, xs)`` and
    ``quadrature(eps, xs, n)``, where set, are the path's own
    ``_member_rows`` and ``_quadrature_rows``.
    """

    __test__ = False  # pytest: a domain type, not a test case
    rows = quadrature = None

    fn: Optional[Callable[[float, float], TestFunction]]
    radius_bound: float        # uniform support radius bound about the origin
    member_id: str
    domain: Optional[object] = None   # PartialDomain when only partially defined
    terms: tuple = ()
    weights: Optional[Callable[[float, list], list]] = None

    def __call__(self, eps: float = 1.0, x: float = 0.0) -> TestFunction:
        if self.weights is None:
            return self.fn(float(eps), float(x))
        column, = zip(*self.weights(float(eps), [float(x)]))
        return tf_lincomb(column, self.terms)


def _member_rows(path: TestObjectPath, eps: float, xs: list) -> tuple:
    """The members path(eps, x), x in xs, a row at once: their centers and
    radii, and an evaluator of a C-contiguous (K, m) array of nodes whose
    row k is bit for bit path(eps, xs[k]).fn on that row.  A
    coefficient-form path combines its terms with the weights as columns,
    in ``tf_lincomb``'s order; a path with its own ``rows`` (a transformed
    one) gives them; any other path builds its members one by one here."""
    if path.rows is not None:
        return path.rows(eps, xs)
    if path.weights is not None:
        center, radius = union_box(path.terms)
        cols = [np.array(w, dtype=float)[:, None]
                for w in path.weights(eps, list(xs))]
        return (np.full(len(xs), center), np.full(len(xs), radius),
                _weighted_sum(cols, [t.fn for t in path.terms]))
    members = [path(eps, x) for x in xs]

    def stacked(nodes):
        return np.array([m.fn(row) for m, row in zip(members, nodes)])

    return (np.array([m.center for m in members]),
            np.array([m.radius for m in members]), stacked)


def _quadrature_rows(path: TestObjectPath, eps: float, xs: list,
                     n: Optional[int]) -> tuple:
    """A quadrature of the members path(eps, x), x in xs, a row each: the
    nodes in xi and the values times the weights, new arrays that broadcast
    to a C-contiguous (K, m) stack, so the integral of f against member k
    is the sum of row k of values * f(nodes).  A path with its own
    ``quadrature`` (a transformed one) gives it; any other path gives each
    member's trapezoid grid on ``n`` panels of its box."""
    if path.quadrature is not None:
        return path.quadrature(eps, xs, n)
    centers, radii, fn = _member_rows(path, eps, xs)
    pts, w = _grid_rows(centers, radii, n)
    v = fn(pts)  # a new array: weighted in place
    v *= w
    return pts, v


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
        bound = abs(c) + r
        mid = f"{mode}-q{q}-s{seed}-m{i:02d}"

        if mode == "static":
            base = build_mollifier(qb, radius=r, center=c)
            members.append(TestObjectPath(
                None, bound, mid, terms=(base,),
                weights=lambda e, xs: [[1.0] * len(xs)]))
            continue

        chi = _zero_mass_bump(rng)
        amp = 0.05 + 0.15 * rng.random()
        chi_bound = abs(chi.center) + chi.radius

        if mode == "eps_path":
            base = build_mollifier(qb + 2, radius=r, center=c)
            members.append(TestObjectPath(
                None, max(bound, chi_bound), mid, terms=(base, chi),
                weights=lambda e, xs, amp=amp: [
                    [1.0] * len(xs), [amp * e**q * (1.0 + e)] * len(xs)]))
            continue

        r2 = 0.75 + 0.5 * rng.random()
        c2 = 0.0 if symmetric else (rng.random() - 0.5) * 0.4 * r2
        bound = max(bound, abs(c2) + r2)
        omega_w = 0.5 + 1.0 * rng.random()
        theta = 2.0 * math.pi * rng.random()
        with_cm = {"strict": False, "symmetric": False,
                   "cm": True}.get(flavor, i % 2 == 1)
        member_q = qb + 2 if with_cm else qb
        terms = (build_mollifier(member_q, radius=r, center=c),
                 build_mollifier(member_q, radius=r2, center=c2))
        if with_cm:
            terms += (chi,)
            bound = max(bound, chi_bound)

        def weights(e, xs, om=omega_w, th=theta, amp=amp, cm=with_cm):
            rows = [[], []]  # w and 1 - w; a loop: one x is the common case
            for x in xs:
                w = 0.5 + 0.4 * math.sin(om * x + th)
                rows[0].append(w)
                rows[1].append(1.0 - w)
            return rows + ([[amp * e**q * (1.0 + e)] * len(xs)] if cm else [])

        members.append(TestObjectPath(None, bound, mid, terms=terms,
                                      weights=weights))
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
    An empty eps or x grid raises ``ValueError``: it samples no member; so
    does an asympt_CM check on fewer than two eps, which fit no order.
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    xs = np.asarray(list(x_grid), dtype=float).tolist()
    if not (len(eps_grid) and len(xs)):
        raise ValueError("moment class check over an empty eps or x grid")
    if cls.kind == "asympt_CM" and len(eps_grid) < 2:
        raise ValueError("asympt_CM check needs at least two eps values")
    q = cls.q

    # sup over x of |m_alpha| for every alpha 0..q, per eps, from the
    # moments of a row of members (by default moments_upto's, bit for bit),
    # taken in blocks: a quadrature row holds its nodes and weighted values,
    # and about two temporaries of their size while they are made
    sup_m = np.zeros((len(eps_grid), q + 1))
    mass_dev = 0.0
    for ie, e in enumerate(eps_grid.tolist()):
        ms = []
        for k in _row_blocks(len(xs), 4 * (_node_count(n) + 1)):
            pts, v = _quadrature_rows(path, e, xs[k], n)
            ms.append(_moment_sums(v, pts, q))
        ms = np.concatenate(ms)
        _first_nan(ms, e, xs, path.member_id)
        sup_m[ie] = np.abs(ms).max(axis=0)
        mass_dev = max(mass_dev, *np.abs(ms[:, 0] - 1.0))

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
