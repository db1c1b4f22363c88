"""Sweeps probed point by point, by checked calls: the reference that the
sweep kernel's rows must reproduce, tables, errors and messages included.

A probe builds each member S_eps path(eps, x) and calls the representative
on it, one (eps, x) at a time, so it reads any path; the call evaluates
the representative's row on the one member read from the member's frame.
"""

import math

import numpy as np

from gfn_lab import asymptotics as asy, numdiff
from gfn_lab.basic_space import d1_derivative
from gfn_lab.testfunc import DomainError, scale


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
        dist = rep.omega.distance_to_boundary(x)
        if dist <= 0:
            raise DomainError(f"derivative point x={x} outside Omega")
        hw = numdiff.stencil_halfwidth(alpha)
        if hw * h >= dist:
            h = 0.5 * dist / hw
    return abs(numdiff.central_difference(lambda y: rep(member(y), y), x,
                                          alpha, h))


def _partial_domain(path, eps, x):
    """Raise the sweep's ``DomainError`` if the path rejects (eps, x)."""
    if path.domain is not None and not path.domain.contains(eps, x):
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
