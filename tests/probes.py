"""Sweeps probed point by point, by checked calls: the reference that the
sweep kernel's rows must reproduce, tables, errors and messages included;
and paths built member by member, the reference for a path's rows and
quadrature.

A probe builds each member S_eps path(eps, x) and calls the representative
on it, one (eps, x) at a time, so it reads any path; the call evaluates
the representative's row on the one member read from the member's frame.
"""

import dataclasses
import math

import numpy as np

from gfn_lab import asymptotics as asy, numdiff
from gfn_lab.basic_space import d1_derivative
from gfn_lab.test_objects import TestObjectPath
from gfn_lab.testfunc import DomainError, _grid_rows, scale


class MemberPath:
    """A path built member by member: ``fn(eps, x)`` is its member at
    (eps, x), and a row or a quadrature of members builds each of them.
    Checks and transforms read it as they read any path; a sweep, which
    reads coefficient-form paths only, raises ``TypeError`` on it.  With a
    ``domain`` it admits only the points ``domain.contains``."""

    def __init__(self, fn, radius_bound, member_id, domain=None):
        self.fn, self.radius_bound = fn, radius_bound
        self.member_id, self.domain = member_id, domain

    def __call__(self, eps=1.0, x=0.0):
        return self.fn(float(eps), float(x))

    def _admits(self, eps, xs):
        return [self.domain is None or self.domain.contains(eps, x)
                for x in xs]

    def _rows(self, eps, xs):
        """Each member's center and radius, and an evaluator whose row k is
        member k's fn on that row of nodes."""
        members = [self(eps, x) for x in xs]

        def stacked(nodes):
            return np.array([m.fn(row) for m, row in zip(members, nodes)])

        return (np.array([m.center for m in members]),
                np.array([m.radius for m in members]), stacked)

    def _quadrature(self, eps, xs, n):
        """Each member's trapezoid grid on ``n`` panels of its own box, and
        its values there times the weights."""
        centers, radii, fn = self._rows(eps, xs)
        pts, w = _grid_rows(centers, radii, n)
        v = fn(pts)
        v *= w
        return pts, v


def by_members(path):
    """``path`` built member by member (``MemberPath``)."""
    return MemberPath(path, path.radius_bound, path.member_id)


@dataclasses.dataclass
class PartialPath(TestObjectPath):
    """A coefficient-form path that admits only the points
    ``domain.contains``: a sweep reads it, and stops at such a point."""

    domain: object = None

    def _admits(self, eps, xs):
        return [self.domain.contains(eps, x) for x in xs]


def with_domain(path, domain):
    """The coefficient-form ``path`` on the partial domain ``domain``."""
    return PartialPath(path.terms, path.weights, path.member_id, domain)


def probed_magnitude(rep, path, eps, x, alpha):
    """|d^alpha/dx^alpha rep(S_eps path(eps, x), x)| at one point by checked
    calls: rep(member, x); central differences of them at partial_x's
    step, shrunk near the boundary of Omega; or, for a log channel, 0 at
    alpha = 0 (the member at x checked) and log_abs_dx in log2 over the
    checked inner functional at alpha = 1."""
    def member(y):
        return scale(path(eps, y), eps)

    h = eps * asy.H_FACTOR
    if rep.has_log_channel:
        if alpha == 0:
            if rep.omega is not None:
                rep.check_domain(member(x), x)
            return 0.0

        def section(y):
            phi = member(y)
            rep.check_domain(phi, y)
            return rep.inner(phi, y)

        return rep.log_abs_dx(section(x), section(x + h), section(x - h),
                              h) / asy.LN2
    if alpha == 0:
        return abs(rep(member(x), x))
    if rep.omega is not None:
        dist = min(x - rep.omega.lo, rep.omega.hi - x)
        if dist <= 0:
            raise DomainError(f"derivative point x={x} outside Omega")
        hw = numdiff.stencil_halfwidth(alpha)
        if hw * h >= dist:
            h = 0.5 * dist / hw
    return abs(numdiff.central_difference(lambda y: rep(member(y), y), x,
                                          alpha, h))


def _partial_domain(path, eps, x):
    """Raise the sweep's ``DomainError`` if the path rejects (eps, x)."""
    domain = getattr(path, "domain", None)
    if domain is not None and not domain.contains(eps, x):
        raise DomainError(
            f"sweep point (eps={eps:g}, x={x:g}) outside the partial domain "
            f"of {path.member_id!r} (eps0 too large?)")


def _nan(mags, eps, x, who):
    if any(math.isnan(v) for v in mags):
        raise FloatingPointError(
            f"probe returned NaN at (eps={eps:g}, x={x:g}) for {who!r}")


def probed_tables(rep, path, spec):
    """The tables of a sweep probed point by point, per representative a
    list of arrays, one per alpha: at each (eps, x) in order, the partial
    domain, then each representative's checked magnitude, then a NaN among
    them; the sup over K per row.  Raises what that order meets first."""
    reps = rep if isinstance(rep, tuple) else (rep,)
    tables = [[] for _ in reps]
    for alpha in spec.alphas:
        if alpha > 1 and any(r.has_log_channel for r in reps):
            raise ValueError(
                "log-channel sweeps support first x-derivatives only")
        rows = []
        for eps in spec.eps.tolist():
            mags = []
            for x in spec.K.tolist():
                _partial_domain(path, eps, x)
                mags.append([probed_magnitude(r, path, eps, x, alpha)
                             for r in reps])
                _nan(mags[-1], eps, x, path.member_id)
            rows.append([max(col) for col in zip(*mags)])
        for table, values in zip(tables, zip(*rows)):
            table.append(np.array(values))
    return tables


def probed_outcome(rep, path, spec):
    """``sweep_outcome`` of a sweep probed point by point
    (``probed_tables``): the member id, alpha and bytes of every table, or
    the exception it raised with its message."""
    try:
        tables = probed_tables(rep, path, spec)
    except (DomainError, FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)
    return [(path.member_id, alpha, t.tobytes())
            for per_rep in tables for alpha, t in zip(spec.alphas, per_rep)]


def probed_d1_outcome(rep, battery, directions, k_max, spec):
    """``d1_outcome`` of d1_form_test probed point by point: per member, at
    each (eps, x) in order, the partial domain, then d1_derivative per
    direction tuple (for a log channel, the member checked, then
    log_abs_d1 in log2), then a NaN among them; the sup over K per row."""
    dirs = list(directions) if k_max else []
    pairs = [(0, 0), (0, 1)] if len(dirs) >= 2 else [(0, 0)]
    tuples = {0: [()], 1: [(i,) for i in range(len(dirs))], 2: pairs}
    labels, tuples = zip(*[(f"k{k}t{ti}", idx) for k in range(k_max + 1)
                           for ti, idx in enumerate(tuples[k])])

    def magnitude(sphi, x, scaled, idx):
        psis = [scaled[i] for i in idx]
        if not rep.has_log_channel:
            return abs(d1_derivative(rep, sphi, x, psis))
        return rep.log_abs_d1(rep.inner(sphi, x), [
            rep.inner.d1(sphi, psi) for psi in psis]) / asy.LN2 if idx else 0.0

    out = []
    try:
        for path in battery:
            phi0, who, rows = path(1.0, 0.0), path.member_id, []
            for eps in spec.eps.tolist():
                sphi = scale(phi0, eps)
                scaled = [scale(psi, eps) for psi in dirs]
                mags = []
                for x in spec.K.tolist():
                    _partial_domain(path, eps, x)
                    if rep.has_log_channel and rep.omega is not None:
                        rep.check_domain(sphi, x)
                    mags.append([magnitude(sphi, x, scaled, idx)
                                 for idx in tuples])
                    _nan(mags[-1], eps, x, who)
                rows.append([max(col) for col in zip(*mags)])
            out += [(f"{who}|{label}", np.array(col).tobytes())
                    for label, col in zip(labels, zip(*rows))]
    except (DomainError, FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)
    return out
