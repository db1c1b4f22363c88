"""Diffeomorphisms of open subsets of R and their action on the theory.

Provides the pullback of representatives, the transformed-test-object
construction (whose members are in general only defined on a partial
domain D of (0,1] x Omega), the admissibility bookkeeping for partial
domains, and a small catalog of one-dimensional maps used by scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .asymptotics import _first_nan
from .basic_space import FormalismError, Representative, pullback_pair_transform
from .test_objects import TestObjectPath, _member_rows
from .testfunc import Box, DomainError, TestFunction, _grid_rows

#: smallest eps0 the registration of a compact set searches down to
EPS0_CAP = 2.0**-20

#: samples and safety factor of the sampled sup |mu'| of a transformed path
LIP_SAMPLES = 256
LIP_SAFETY = 1.1

#: xi samples per member when bounding xi-derivatives in check_Z_requirements
Z_XI_SAMPLES = 161

#: a Newton inverse has converged once a step moves the iterates by at most
#: a few ulps of (1 + max |x|); it raises after NEWTON_MAX_ITER steps
NEWTON_STEP_TOL = 4.0 * float(np.finfo(float).eps)
NEWTON_MAX_ITER = 60


def _scalarized(fn):
    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        out = fn(arr)
        return float(out) if arr.ndim == 0 else out

    return wrapped


@dataclass
class Diffeomorphism:
    """One-dimensional diffeomorphism with explicitly supplied inverse data.

    ``forward`` maps the source open set onto the target and ``d_forward``
    is its derivative; ``inverse`` maps back.  No symbolic inversion is
    attempted: catalog entries supply closed forms or a deterministic
    Newton iteration.  The derivative of the inverse is taken from the
    preimage, D mu^{-1}(y) = 1 / mu'(mu^{-1}(y)), so a caller that already
    holds the preimage weights by ``1.0 / d_forward(pre)`` without
    inverting again.

    The evaluators are given on arrays and wrapped to return a float on a
    scalar.  Without ``omega_src``, the source chart is the preimage of
    ``omega_dst``: its two inverted ends, in increasing order.
    """

    name: str
    forward: Callable
    inverse: Callable
    d_forward: Callable
    omega_src: Optional[Box] = None
    omega_dst: Optional[Box] = None
    is_identity: bool = False

    def __post_init__(self):
        self.forward = _scalarized(self.forward)
        self.inverse = _scalarized(self.inverse)
        self.d_forward = _scalarized(self.d_forward)
        if self.omega_src is None and self.omega_dst is not None:
            ends = sorted((self.inverse(self.omega_dst.lo),
                           self.inverse(self.omega_dst.hi)))
            self.omega_src = Box.interval(*ends)

    def det_d_inverse(self, y):
        """det D mu^{-1}(y) = 1 / mu'(mu^{-1}(y)), signed."""
        return 1.0 / self.d_forward(self.inverse(y))

    def inverted(self) -> "Diffeomorphism":
        """The inverse map as a diffeomorphism in its own right."""
        return Diffeomorphism(f"{self.name}-inverse", self.inverse,
                              self.forward, self.det_d_inverse,
                              omega_src=self.omega_dst,
                              omega_dst=self.omega_src,
                              is_identity=self.is_identity)

    def image_box(self, a: float, b: float, x: float = 0.0,
                  eps: float = 1.0) -> tuple[float, float]:
        """(center, radius) of the interval between (mu(a) - x)/eps and
        (mu(b) - x)/eps, the exact image of [a, b] under p -> (mu(p) - x)/eps
        since a diffeomorphism of an interval is strictly monotone.  It is
        widened by NEWTON_STEP_TOL (|x| + |mu(a)| + |mu(b)|) / eps: the ends,
        and an evaluator that inverts eps xi + x, round at a few ulps of
        |x| + |y|.  Non-finite images or an empty interval raise ValueError.
        Arrays a, b and x give the boxes of a row of members, elementwise.
        """
        ya, yb = self.forward(np.array([a, b], dtype=float))
        lo = np.minimum((ya - x) / eps, (yb - x) / eps)
        hi = np.maximum((ya - x) / eps, (yb - x) / eps)
        bad = ~((-np.inf < lo) & (lo < hi) & (hi < np.inf))
        if bad.any():
            k = np.flatnonzero(bad)[0]
            a, b, lo, hi = (np.ravel(v)[k]
                            for v in np.broadcast_arrays(a, b, lo, hi))
            raise ValueError(f"{self.name}: the image of [{a:g}, {b:g}] is "
                             f"the empty or non-finite [{lo:g}, {hi:g}]")
        margin = NEWTON_STEP_TOL * (np.abs(x) + np.abs(ya) + np.abs(yb)) / eps
        return 0.5 * (lo + hi), 0.5 * (hi - lo) + margin


# ---------------------------------------------------------------------------
# catalog


def identity_map(omega: Optional[Box] = None) -> Diffeomorphism:
    return Diffeomorphism("identity", np.asarray, np.asarray, np.ones_like,
                          omega_dst=omega, is_identity=True)


def affine_map(a: float, b: float = 0.0,
               omega_dst: Optional[Box] = None) -> Diffeomorphism:
    if a == 0.0:
        raise ValueError("affine map needs a != 0")
    return Diffeomorphism(f"affine({a:g},{b:g})", lambda x: a * x + b,
                          lambda y: (y - b) / a,
                          lambda x: np.full_like(x, a), omega_dst=omega_dst)


def sin_bend_map(amplitude: float = 0.25,
                 omega_dst: Optional[Box] = None) -> Diffeomorphism:
    """x -> x + amplitude*sin(x); global diffeomorphism for |amplitude| < 1."""
    if not abs(amplitude) < 1.0:
        raise ValueError("amplitude must satisfy |a| < 1")

    def fwd(x):
        return x + amplitude * np.sin(x)

    def inv(y):
        """Newton on each row of y (its last axis; a 1-D y is one row): a
        row stops once its own step passes the test, so a row of a stack
        gets the bits of the call on that row alone."""
        y = np.asarray(y, dtype=float)
        target = y.reshape(-1, y.shape[-1] if y.ndim else 1)
        out = x = target.copy()  # x: the rows still iterating, open_rows
        open_rows = np.arange(len(out))
        step, work = np.empty_like(x), np.empty_like(x)
        for _ in range(NEWTON_MAX_ITER):
            # step = (x + a sin x - y) / (1 + a cos x), x -= step
            np.sin(x, out=step)
            step *= amplitude
            step += x
            step -= target
            np.cos(x, out=work)
            work *= amplitude
            work += 1.0
            step /= work
            x -= step
            # the residual has a rounding floor near eps * |y|, so the test
            # is on the step, not on the residual
            last = np.abs(step, out=work).max(axis=1)
            done = last <= NEWTON_STEP_TOL * (1.0 + np.abs(x, out=work).max(axis=1))
            if x is not out:  # else the rows are in place
                out[open_rows[done]] = x[done]
            if done.all():
                return out.reshape(y.shape)
            if done.any():
                keep = ~done
                x, target, open_rows = x[keep], target[keep], open_rows[keep]
                step, work = step[:len(x)], work[:len(x)]
        raise FloatingPointError(
            f"sin-bend({amplitude:g}) inverse did not converge in "
            f"{NEWTON_MAX_ITER} Newton steps (last step {last[~done][0]:.3g})")

    def dfwd(x):
        return 1.0 + amplitude * np.cos(x)

    return Diffeomorphism(f"sin-bend({amplitude:g})", fwd, inv, dfwd,
                          omega_dst=omega_dst)


def cubic_map(omega_dst: Optional[Box] = None) -> Diffeomorphism:
    """x -> x^3 + x; globally invertible, inverse by Cardano plus polish."""

    def fwd(x):
        return x * x * x + x

    def inv(y):
        y = np.asarray(y, dtype=float)
        disc = np.sqrt(0.25 * y * y + 1.0 / 27.0)
        x = np.cbrt(0.5 * y + disc) + np.cbrt(0.5 * y - disc)
        for _ in range(2):  # Newton polish to machine precision
            x = x - (x * x * x + x - y) / (3.0 * x * x + 1.0)
        return x

    def dfwd(x):
        return 3.0 * x * x + 1.0

    return Diffeomorphism("cubic", fwd, inv, dfwd,
                          omega_dst=omega_dst)


def catalog(omega_dst: Optional[Box] = None) -> dict:
    return {
        "identity": identity_map(omega_dst),
        "affine-2x": affine_map(2.0, 0.0, omega_dst),
        "shift-1": affine_map(1.0, 1.0, omega_dst),
        "sin-bend": sin_bend_map(0.25, omega_dst),
        "cubic": cubic_map(omega_dst),
    }


def get_diffeo(name: str, omega_dst: Optional[Box] = None) -> Diffeomorphism:
    cat = catalog(omega_dst)
    if name not in cat:
        raise KeyError(f"unknown diffeomorphism {name!r}; "
                       f"catalog: {sorted(cat)}")
    return cat[name]


def compose(mu: Diffeomorphism, nu: Diffeomorphism) -> Diffeomorphism:
    """mu o nu (apply nu first)."""
    return Diffeomorphism(
        f"{mu.name}.{nu.name}", lambda x: mu.forward(nu.forward(x)),
        lambda y: nu.inverse(mu.inverse(y)),
        lambda x: mu.d_forward(nu.forward(x)) * nu.d_forward(x),
        omega_dst=mu.omega_dst, is_identity=mu.is_identity and nu.is_identity)


# ---------------------------------------------------------------------------
# action on representatives and on test objects


def pullback_rep(mu: Diffeomorphism, rep: Representative) -> Representative:
    """The action on a representative:

        (mu^ R)(phi~, x~) = R(phi~(mu^{-1}(. + mu x~) - x~)|det D mu^{-1}(. + mu x~)|, mu x~).

    The transformed test function is opaque, supported on the exact image
    of its source box (``Diffeomorphism.image_box``); a log-magnitude
    channel on R is transported along.
    """
    if rep.formalism != "C":
        raise FormalismError("pullback acts on C-formalism representatives")
    return rep.compose_pullback(pullback_pair_transform(mu), mu.omega_src)


class PartialDomain:
    """Admissible subset D of (0,1] x Omega.

    Admissibility is monotone downward in eps (supports shrink), which the
    registration search relies on and spot-checks.
    """

    def __init__(self, contains_fn: Callable[[float, float], bool]):
        self._contains = contains_fn

    def contains(self, eps: float, x: float) -> bool:
        if not 0.0 < eps <= 1.0:
            return False
        return bool(self._contains(float(eps), float(x)))

    def register_compact(self, grid) -> float:
        """Largest eps0 = 2^-m >= EPS0_CAP with (0, eps0] x grid admissible;
        an empty grid, which any eps0 would admit, raises ``ValueError``."""
        grid = np.asarray(grid, dtype=float)
        if not grid.size:
            raise ValueError("eps0 registration over an empty set of points L")
        eps = 1.0
        while eps >= EPS0_CAP:
            if all(self.contains(eps, float(x)) for x in grid):
                # spot-check monotonicity at two smaller scales
                for sub in (0.5 * eps, 0.25 * eps):
                    if not all(self.contains(sub, float(x)) for x in grid):
                        raise DomainError(
                            f"admissibility not monotone below eps={eps:g}")
                return eps
            eps *= 0.5
        raise DomainError(f"no admissible eps0 above {EPS0_CAP:g} for "
                          f"L[{grid.min():g},{grid.max():g}]#{len(grid)}")


def transform_test_object(mu: Diffeomorphism,
                          path: TestObjectPath) -> TestObjectPath:
    """Transformed test object of a source path, on its partial domain.

        phi(eps, x)(xi) = phi~(eps, mu^{-1} x)((mu^{-1}(eps xi + x) - mu^{-1} x)/eps)
                          * |det D mu^{-1}(eps xi + x)|

    A member lives on the exact image of its source member's box under
    s -> (mu(xt + eps s) - x)/eps, xt = mu^{-1} x (``image_box``); the
    uniform radius bound is LIP_SAFETY sup |mu'|, sampled on the source set
    (``mu.omega_src``, else (-3, 3)), times the source's (mean value
    theorem); the partial domain admits only points whose source ball lies
    in that set, so every admitted member keeps the bound.  The path carries
    the partial domain as ``domain``, whose ``register_compact`` gives a
    grid's eps0.  Its ``rows`` evaluate a row of members over the source's
    rows, inverting eps xi + x for all of them in one call.
    """
    src_set = mu.omega_src or Box(-3.0, 3.0)
    dmu = mu.d_forward(np.linspace(src_set.lo, src_set.hi, LIP_SAMPLES))
    rb = LIP_SAFETY * float(np.max(np.abs(dmu))) * path.radius_bound
    if not np.isfinite(rb):
        raise ValueError(f"{mu.name}: derivative not finite on {src_set}")
    pre_of: dict = {}  # x -> mu^{-1} x, shared by members and the domain

    def preimage(x):
        # look mu.inverse up per call: a traced run replaces it on the map
        if x not in pre_of:
            pre_of[x] = mu.inverse(x)
        return pre_of[x]

    def member(eps, x):
        xt = preimage(x)
        src = path(eps, xt)
        a, b = src.box
        center, radius = mu.image_box(xt + eps * a, xt + eps * b, x, eps)

        def fn(xi):
            pre = mu.inverse(eps * xi + x)
            return src.fn((pre - xt) / eps) * np.abs(1.0 / mu.d_forward(pre))

        return TestFunction(center, radius, fn)

    def rows(eps, xs):
        xts = np.array([preimage(x) for x in xs])
        src_c, src_r, src_fn = _member_rows(path, eps, xts.tolist())
        centers, radii = mu.image_box(xts + eps * (src_c - src_r),
                                      xts + eps * (src_c + src_r),
                                      np.array(xs), eps)
        x_col, xt_col = np.array(xs)[:, None], xts[:, None]

        def fn(nodes):
            pre = mu.inverse(eps * nodes + x_col)
            vals = src_fn((pre - xt_col) / eps)  # a new array
            vals *= np.abs(1.0 / mu.d_forward(pre))
            return vals

        return centers, radii, fn

    src_bound = path.radius_bound
    omega_dst = mu.omega_dst

    def admissible(eps, x):
        # the source ball must lie in the set that rb's derivative was
        # sampled on, also when the map names no source set
        return ((omega_dst is None or omega_dst.contains_ball(x, eps * rb))
                and src_set.contains_ball(preimage(x), eps * src_bound))

    out = TestObjectPath(member, rb, member_id=f"{path.member_id}|{mu.name}",
                         domain=PartialDomain(admissible))
    out.rows = rows
    return out


@dataclass
class ZReport:
    """Numerical check of the partial-domain test-object requirements."""

    membership_ok: bool
    radius_ok: bool
    radius_bound: float
    radius_observed: float
    deriv_bounds: dict = field(default_factory=dict)
    passed: bool = False


def check_Z_requirements(path: TestObjectPath, L, eps0: float,
                         beta_max: int = 4, n_eps: int = 6) -> ZReport:
    """Verify, on (0, eps0] x L: membership in the domain, a finite uniform
    support radius bound, and finite sup bounds on xi-derivatives up to
    beta_max (recorded; derivatives by repeated central differences).
    The points of L admitted at an eps are evaluated as one row of members
    (``_member_rows``).  An empty L, ``n_eps < 1`` or ``beta_max < 0``
    raises ``ValueError``: it probes nothing; a NaN sample raises
    ``FloatingPointError``."""
    L = np.asarray(L, dtype=float)
    if not L.size:
        raise ValueError("Z requirements over an empty set of points L")
    if n_eps < 1 or beta_max < 0:
        raise ValueError("Z requirements need n_eps >= 1 and beta_max >= 0")
    eps_grid = eps0 * 2.0 ** -np.arange(n_eps, dtype=float)
    dom = path.domain
    membership_ok = True
    radius_obs = 0.0
    deriv_bounds = {b: 0.0 for b in range(beta_max + 1)}
    for e in eps_grid.tolist():
        xs = [x for x in L.tolist() if dom is None or dom.contains(e, x)]
        membership_ok = membership_ok and len(xs) == L.size
        if not xs:
            continue
        centers, radii, fn = _member_rows(path, e, xs)
        radius_obs = max(radius_obs, *(np.abs(centers) + radii).tolist())
        xi, _ = _grid_rows(centers, radii, Z_XI_SAMPLES - 1)
        h = (xi[:, 1] - xi[:, 0])[:, None]
        cur = fn(xi)
        sups = [np.abs(cur).max(axis=1)]
        for b in range(1, beta_max + 1):
            cur = (cur[:, 2:] - cur[:, :-2]) / (2.0 * h)
            if cur.shape[1] < 3:
                break
            sups.append(np.abs(cur).max(axis=1))
        _first_nan(np.array(sups).T, e, xs, path.member_id)
        for b, sup in enumerate(sups):
            deriv_bounds[b] = max(deriv_bounds[b], *sup.tolist())
    radius_ok = (np.isfinite(path.radius_bound)
                 and radius_obs <= path.radius_bound * (1.0 + 1e-12))
    bounded = all(np.isfinite(v) for v in deriv_bounds.values())
    return ZReport(membership_ok, radius_ok, float(path.radius_bound),
                   radius_obs, deriv_bounds,
                   passed=membership_ok and radius_ok and bounded)
