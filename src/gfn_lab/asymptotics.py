"""The epsilon-sweep engine.

Representatives are probed along scaled test objects on a geometric grid
eps_i = 2^-i; the asymptotic order of sup_{x in K} |d^alpha R(S_eps
phi(eps,x), x)| is estimated by least squares on the log-log table, and a
moderateness or negligibility verdict is rendered from the fitted and local
slopes.  Verdicts are finite-battery evidence, not proofs.

Representatives that would overflow in value space expose a log-magnitude
channel; all tables for them hold log2 magnitudes directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .basic_space import (ExpExpRepresentative, Representative, _check_tangent,
                          _value_at, _x_steps, sub)
from .numdiff import _CENTRAL, MAX_ORDER, central_difference, stencil_halfwidth
from .testfunc import (Q_CAP, DomainError, TestFunction, _lincomb_samples,
                       _row_blocks, scale, support_grid, union_box)

LN2 = math.log(2.0)

#: slope slack accepted when assigning integer orders to fitted slopes
SLOPE_TOL = 0.3

#: values at or below this are treated as identically zero (order +inf)
ZERO_FLOOR = 1e-300

#: x-derivative step relative to eps, tracking the scale of the inserted object
H_FACTOR = 2.0**-7

#: a window whose last local-slope magnitude reaches this multiple of its
#: first (and exceeds 2), increasing strictly, is super-polynomial
SUPERPOLY_RATIO = 3.0


@dataclass
class SweepSpec:
    """Grid and fit parameters for one sweep.

    eps_i = 2^-i for i in i_min..i_max; K is the finite evaluation grid
    standing in for a compact set (sup over K under-approximates the true
    sup); the fit uses the ``fit_window`` smallest-eps rows.
    """

    i_min: int = 2
    i_max: int = 14
    K: np.ndarray = field(default_factory=lambda: np.linspace(-1.0, 1.0, 41))
    alphas: tuple = (0,)
    fit_window: int = 6

    def __post_init__(self):
        if not (2 <= self.i_min < self.i_max <= 20):
            raise ValueError("need 2 <= i_min < i_max <= 20")
        if self.fit_window < 4:
            raise ValueError("fit window must be at least 4")
        if self.i_max - self.i_min + 1 < self.fit_window:
            raise ValueError("sweep shorter than the fit window")
        self.K = np.asarray(self.K, dtype=float)
        if self.K.size == 0 or not np.all(np.isfinite(self.K)):
            raise ValueError("K must hold at least one point, all finite")
        if not self.alphas or not {*self.alphas} <= {*range(MAX_ORDER + 1)}:
            raise ValueError(f"alphas must be orders in 0..{MAX_ORDER}")

    @property
    def eps(self) -> np.ndarray:
        return 2.0 ** -np.arange(self.i_min, self.i_max + 1, dtype=float)


@dataclass
class SweepSeries:
    """One sup-over-K table: values v(eps) for a fixed (member, alpha)."""

    member_id: str
    alpha: int
    eps: np.ndarray
    values: np.ndarray
    is_log: bool = False  # values already hold log2 magnitudes

    def log2_values(self) -> np.ndarray:
        if self.is_log:
            return self.values
        with np.errstate(divide="ignore"):
            return np.log2(np.maximum(self.values, ZERO_FLOOR))


@dataclass
class AsymptoticVerdict:
    """Fitted order, per-step local slopes, residual and classification."""

    member_id: str
    alpha: int
    slope: float
    intercept: float
    local_slopes: np.ndarray
    residual: float
    kind: str  # "power" | "superpoly" | "zero"
    n_zero: int = 0

    def moderate_N(self) -> int:
        if self.kind == "zero":
            return 0
        return max(0, math.ceil(-self.slope - SLOPE_TOL))

    @property
    def is_moderate(self) -> bool:
        return self.kind != "superpoly"


def _first_nan(table: np.ndarray, eps: float, xs: list, who):
    """Raise ``FloatingPointError`` naming the first x whose row of
    ``table`` holds a NaN, if one does: ``max`` would drop it or keep it
    by its position in the row."""
    bad = np.isnan(table).any(axis=1)
    if bad.any():
        raise FloatingPointError(
            f"probe returned NaN at (eps={eps:g}, x={xs[np.argmax(bad)]:g}) "
            f"for {who!r}")


def _sup_table(path, eps: np.ndarray, K: np.ndarray,
               row) -> list[np.ndarray]:
    """The eps x K kernel: sup over x in K of each magnitude, per eps.

    ``row(eps, n)``, n the points of K before the first one outside the
    path's domain (``path._admits``), gives a (rows, j) array of the
    magnitudes at the first j <= n points, scanned here for NaN, and a
    callable that raises for the j-th point, or None if j = n; then the
    n-th point raises.
    """
    who, xs, values = path.member_id, K.tolist(), []
    for e in eps.tolist():
        admitted = path._admits(e, xs)
        n = admitted.index(False) if False in admitted else len(xs)
        mags, fail = row(e, n)
        _first_nan(mags.T, e, xs, who)
        if fail is not None:
            fail()
        if n < len(xs):
            raise DomainError(
                f"sweep point (eps={e:g}, x={xs[n]:g}) outside the partial "
                f"domain of {who!r} (eps0 too large?)")
        values.append(mags.max(axis=1).tolist())
    return [np.asarray(col) for col in zip(*values)]


def _insertion_row(channels: tuple, alpha: int, K: np.ndarray):
    """Row builder for |d^alpha/dx^alpha R(S_eps path(eps, x), x)| over
    channels (R, path): ``row(eps, n)`` gives ``_sup_table`` a row per
    channel of the magnitudes at the first j <= n points of K.

    A channel reads ``rep.row`` (a log channel's ``rep.inner.row``) over a
    coefficient-form path, the path's weights once per set of points, its
    members of offset 0; a path of another kind raises ``TypeError``
    here, before any eps.  At each x a channel's
    representative reads x; the central stencil at ``partial_x``'s step
    (``basic_space._x_steps``), or, for a log channel at
    alpha = 1, x and x +- h.  All these points are checked against
    U(Omega) as arrays, on the box all members of the row share; the first
    x that fails is the j-th point, which raises, channel by channel, what
    a checked call raises there.  Log channels yield log2 magnitudes: 0 at
    alpha = 0, since |R| = 1, and at alpha = 1 ``log_abs_dx`` of the row's
    I values at x and x +- h, in one call.
    """
    if alpha > 1 and any(rep.has_log_channel for rep, _ in channels):
        raise ValueError("log-channel sweeps support first x-derivatives only")
    from .test_objects import TestObjectPath  # it imports this module
    rows = [rep.inner.row if rep.has_log_channel else rep.row
            for rep, _ in channels]
    for rep, path in channels:
        if not isinstance(path, TestObjectPath):
            raise TypeError(f"cannot sweep {rep!r} over {path.member_id!r}: "
                            "a sweep reads rows, over coefficient-form paths")
    xs, hw = K.tolist(), stencil_halfwidth(alpha)

    def row(eps, n):
        h, X, weights = eps * H_FACTOR, K[:n], {}
        shared = {id(p): scale(TestFunction(*union_box(p.terms), None), eps)
                  for _, p in channels}  # the box all members share
        reads, failed, steps = [], np.zeros(n, dtype=bool), np.full(n, h)
        for rep, path in channels:
            om, hs, outside = rep.omega, steps, np.zeros(n, dtype=bool)
            if alpha and not rep.has_log_channel:
                if om is not None:
                    hs, outside = _x_steps(om, X, h, hw)
                pts = [X + o * hs for o in _CENTRAL[alpha][0]]
            else:
                pts = [X, X + h, X - h] if alpha else [X]
            for ys in pts if om is not None else ():
                failed |= outside | ~rep.in_domain(shared[id(path)], ys)
            reads.append((pts, hs, outside))
        j = int(np.argmax(failed)) if failed.any() else n

        out = np.zeros((len(channels), j))
        for i, ((rep, path), row_fn, (pts, hs, _)) in enumerate(
                zip(channels, rows, reads)):
            if not j or rep.has_log_channel and not alpha:
                continue  # nothing to evaluate, or |R| = 1
            ys = np.stack([p[:j] for p in pts], axis=1).ravel()  # x by x
            key, yl = (id(path), ys.tobytes()), ys.tolist()
            if key not in weights:
                weights[key] = np.array(path.weights(eps, yl))
            vals = row_fn((weights[key], path.terms, eps, 0.0), yl)
            if rep.has_log_channel:  # I at x and x +- h
                out[i] = rep.log_abs_dx(*np.reshape(vals, (j, 3)).T, h) / LN2
            else:  # the stencil's rows, in the order central_difference reads
                at = iter(np.asarray(vals).reshape(j, len(pts)).T)
                out[i] = np.abs(central_difference(lambda _: next(at), X[:j],
                                                   alpha, hs[:j]))

        def fail():  # what checked calls raise at the j-th point
            for (rep, path), (pts, _, outside) in zip(channels, reads):
                if outside[j]:
                    raise DomainError(f"derivative point x={xs[j]} outside Omega")
                for y in (float(ys[j]) for ys in pts if rep.omega is not None):
                    rep.check_domain(shared[id(path)], y)

        return out, (fail if j < n else None)

    return row


def _representatives(rep) -> tuple:
    return rep if isinstance(rep, tuple) else (rep,)


def sweep(rep, path, spec: SweepSpec):
    """Dense sup-over-K tables, one per requested derivative order.

    ``rep`` is a representative or a tuple of them probed on the same
    members; a tuple yields a tuple of table lists, one per representative.
    The tables are read from rows (``_insertion_row``): ``path`` must be
    in coefficient form and each representative have a row, else
    ``TypeError``.
    """
    reps = _representatives(rep)
    out = [[] for _ in reps]
    for alpha in spec.alphas:
        tables = _sup_table(path, spec.eps, spec.K, _insertion_row(
            tuple((r, path) for r in reps), alpha, spec.K))
        for series, r, values in zip(out, reps, tables):
            series.append(SweepSeries(path.member_id, alpha, spec.eps, values,
                                      is_log=r.has_log_channel))
    return tuple(out) if isinstance(rep, tuple) else out[0]


def fit_order(series: SweepSeries, fit_window: int) -> AsymptoticVerdict:
    """Least-squares slope of the log-log table over its last ``fit_window``
    rows.

    Zero and underflowing rows count as order +infinity (negligible at
    machine level) and are flagged, as are log entries of -inf; a NaN or
    +inf entry in the window raises ``FloatingPointError``.  Local slopes
    whose magnitudes increase strictly and substantially across the window
    mark super-polynomial behavior.
    """
    eps = series.eps[-fit_window:]
    raw = series.values[-fit_window:]
    for e, v in zip(eps, raw):
        if np.isnan(v) or v == math.inf:
            raise FloatingPointError(
                f"{series.member_id}: entry {v} at eps={e:g} cannot be fitted")
    le = np.log2(eps)
    if series.is_log:
        lv = raw.astype(float)
        nonzero = np.isfinite(lv)
    else:
        nonzero = raw > ZERO_FLOOR
        with np.errstate(divide="ignore"):
            lv = np.where(nonzero, np.log2(np.maximum(raw, ZERO_FLOOR)), -np.inf)
    n_zero = int(np.sum(~nonzero))
    if len(raw) - n_zero < 2:  # nothing left to regress on: machine zero
        return AsymptoticVerdict(series.member_id, series.alpha,
                                 slope=math.inf, intercept=-math.inf,
                                 local_slopes=np.array([]), residual=0.0,
                                 kind="zero", n_zero=n_zero)
    lek, lvk = le[nonzero], lv[nonzero]
    A = np.stack([lek, np.ones_like(lek)], axis=1)
    coef, *_ = np.linalg.lstsq(A, lvk, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((A @ coef - lvk) ** 2)))
    local = (lvk[1:] - lvk[:-1]) / (lek[1:] - lek[:-1])
    mags = np.abs(local)
    superpoly = (len(local) >= 3
                 and bool(np.all(np.diff(mags) > 0))
                 and mags[-1] >= SUPERPOLY_RATIO * mags[0]
                 and mags[-1] > 2.0)
    return AsymptoticVerdict(series.member_id, series.alpha, slope, intercept,
                             local, resid,
                             kind="superpoly" if superpoly else "power",
                             n_zero=n_zero)


# ---------------------------------------------------------------------------
# verdict-level tests


@dataclass
class ModerateReport:
    verdicts: list[AsymptoticVerdict]
    series: list[SweepSeries]
    N: int
    passed: bool


def _moderate_report(verdicts: list, series: list) -> ModerateReport:
    """Moderate unless a verdict is super-polynomial; N is the worst one's."""
    if not verdicts:
        raise ValueError("no verdict to report: the battery is empty")
    Ns = [v.moderate_N() for v in verdicts if v.kind != "zero"]
    return ModerateReport(verdicts, series, max(Ns) if Ns else 0,
                          all(v.is_moderate for v in verdicts))


def test_moderate(rep, battery: Sequence, spec: SweepSpec):
    """Run sweep + fit over the battery; overall N is the worst member's.

    A tuple of representatives is swept on shared members and yields a
    tuple of reports, one per representative.
    """
    reps = _representatives(rep)
    verdicts = [[] for _ in reps]
    series = [[] for _ in reps]
    for path in battery:
        for i, sers in enumerate(sweep(reps, path, spec)):
            for ser in sers:
                series[i].append(ser)
                verdicts[i].append(fit_order(ser, spec.fit_window))
    reports = [_moderate_report(vs, ss) for vs, ss in zip(verdicts, series)]
    return tuple(reports) if isinstance(rep, tuple) else reports[0]


@dataclass
class NegligibleEntry:
    n: int
    witness_q: Optional[int]
    orders: dict


@dataclass
class NegligibleReport:
    entries: dict
    passed: bool


def test_negligible(rep, n_targets: Sequence[int], spec: SweepSpec,
                    battery_factory: Callable[[str, int], Sequence],
                    q_max: int = Q_CAP):
    """Search a witness moment order q for each requested decay order n.

    For each candidate q the sweep must reach order >= n - tol on batteries
    of strict vanishing-moment class *and* of asymptotically-vanishing
    moment class; both are run so the two battery disciplines can be
    compared on equal footing.  Exhausting q_max yields the honest
    verdict "not negligible up to q_max" (witness None).  An empty battery
    (it would witness any order) or no decay order raises ``ValueError``.

    A tuple of representatives is swept on shared members and yields a
    tuple of reports; each representative leaves the q search for n once
    its own witness is found.
    """
    if not len(n_targets):
        raise ValueError("negligibility test over no decay order")
    reps = _representatives(rep)
    entries = [{} for _ in reps]
    for n in n_targets:
        found = [None] * len(reps)
        orders = [{} for _ in reps]
        active = list(range(len(reps)))
        for q in range(n, q_max + 1):
            worst = {i: math.inf for i in active}
            for kind in ("strict", "cm"):
                battery = battery_factory(kind, q)
                if not battery:
                    raise ValueError(f"empty {kind} battery at q = {q}")
                reports = test_moderate(tuple(reps[i] for i in active),
                                        battery, spec)
                for i, report in zip(active, reports):
                    for v in report.verdicts:
                        if v.kind == "superpoly":
                            worst[i] = -math.inf
                        elif v.kind != "zero":
                            worst[i] = min(worst[i], v.slope)
            for i in active:
                orders[i][q] = worst[i]
                if worst[i] >= n - SLOPE_TOL:
                    found[i] = q
            active = [i for i in active if found[i] is None]
            if not active:
                break
        for i in range(len(reps)):
            entries[i][n] = NegligibleEntry(n, found[i], orders[i])
    reports = [NegligibleReport(e, all(x.witness_q is not None
                                       for x in e.values()))
               for e in entries]
    return tuple(reports) if isinstance(rep, tuple) else reports[0]


def d1_form_test(rep: Representative, battery: Sequence,
                 directions: Sequence[TestFunction], k_max: int,
                 spec: SweepSpec) -> ModerateReport:
    """Moderateness test in differential form.

    Sweeps d_1^k (R o S_eps)(phi, x)(psi_1..psi_k) for k <= k_max over the
    static battery, with one or two zero-mass directions (more raise
    ``ValueError``, one with mass ``PreconditionError``), on rows of the
    insertion kernel.  k = 0 is the member's own channel.  A linear R's
    d_1 R(psi) = R(S_eps psi, x) is the channel of psi, a path of constant
    weights over its terms, evaluated once per eps for the whole battery,
    and its d_1^2 is 0; a phi-independent R's d_1^k = v - v is the channel
    of R - R on the path over phi and the psi_j, whose box at eps = 2^-i
    is the one ``d1_derivative`` checks; a log channel's d_1 is
    ``log_abs_d1`` after the member's U(Omega) test, of I and each
    ``inner.d1`` read once per row, since the inner reads phi alone.  Other
    R, and a log channel whose inner has no ``d1``, raise ``ValueError``
    for k_max >= 1.
    """
    if not 0 <= k_max <= 2:
        raise ValueError(f"directional order k_max must lie in 0..2, got {k_max}")
    if k_max and not directions:
        raise ValueError(f"k_max = {k_max} needs at least one direction")
    if len(directions) > 2:
        raise ValueError(f"at most two directions, got {len(directions)}")
    directions = list(directions) if k_max else []
    _check_tangent(directions)
    log, linear, K = rep.has_log_channel, rep.linear, spec.K
    if directions and not (linear or rep.phi_independent or log and hasattr(
            rep.inner, "d1")):
        raise ValueError(f"no d_1 rows: {rep!r} is not linear, phi-independent"
                         " or a log channel with an exact d_1")
    from .test_objects import TestObjectPath  # it imports this module

    def over(coeffs, terms):  # a path of constant weights over the terms
        return TestObjectPath(tuple(terms),
                              lambda e, ys: [[c] * len(ys) for c in coeffs],
                              "d1")

    dir_tuples = {0: [()], 1: [(i,) for i in range(len(directions))],  # indices
                  2: [(0, 0), (0, 1)] if len(directions) >= 2 else [(0, 0)]}
    labels, (_, *tuples) = zip(*[(f"k{k}t{ti}", idx) for k in range(k_max + 1)
                                 for ti, idx in enumerate(dir_tuples[k])])
    dir_rows = {}  # per (eps, j), for every member
    dir_row = _insertion_row(tuple((rep, over(*(psi._terms or ([1.0], [psi]))))
                                   for psi in directions), 0, K)  # own terms

    def row(member_row, phi0, eps, n):  # the member's rows, then R's k >= 1
        out, fail = member_row(eps, n)
        j = out.shape[1]
        if log and tuples and j:  # I and each d_1 I once per row
            sphi = scale(phi0, eps)
            ival = _value_at(rep.inner.row, sphi, float(K[0]))
            dis = [rep.inner.d1(sphi, scale(psi, eps)) for psi in directions]
            more = [rep.log_abs_d1(ival, [dis[i] for i in idx]) / LN2
                    for idx in tuples]
            more = np.broadcast_to(np.array(more)[:, None], (len(tuples), j))
        elif linear:
            if (eps, j) not in dir_rows:
                dir_rows[eps, j] = dir_row(eps, j)
            more, fail = dir_rows[eps, j][0], dir_rows[eps, j][1] or fail
            more = np.pad(more, ((0, len(tuples) - len(directions)), (0, 0)))
        else:
            return out, fail
        return np.vstack([out[:, :more.shape[1]], more]), fail

    verdicts, series = [], []
    for path in battery:
        phi0 = path(1.0, 0.0)
        member_row = _insertion_row(((rep, path), *(  # phi-independent: v - v
            (sub(rep, rep), over([1.0] * (1 + len(idx)),
                                 [phi0, *(directions[i] for i in idx)]))
            for idx in tuples if not (log or linear))), 0, K)
        for label, values in zip(labels, _sup_table(path, spec.eps, K, (
                lambda e, n, r=member_row, p=phi0: row(r, p, e, n)))):
            ser = SweepSeries(f"{path.member_id}|{label}", 0, spec.eps,
                              values, is_log=log)
            series.append(ser)
            verdicts.append(fit_order(ser, spec.fit_window))
    return _moderate_report(verdicts, series)


# ---------------------------------------------------------------------------
# the oscillatory counterexample, run entirely in log space


def squared_mass_inner(quad_n: int):
    """inner(phi, x) = integral of |phi|^2 over phi's support, on
    ``quad_n`` panels, with its row.

    ``inner.row((coeffs, terms, eps, b), ys)`` is the sum over the terms'
    cached samples of a row's members, times eps^-1; ``inner(phi, x)`` is
    that row on the one member read from phi's frame (``_value_at``), which
    integrates on phi's base's grid.  For eps = 2^-i, as in every sweep,
    this is the quadrature on the scaled support bit for bit, since
    scaling by a power of two commutes with rounding.

    ``inner.pulled(mu)`` is ``inner`` pulled back along ``mu``, with its
    row: the integral of |chi|^2, chi the pullback of phi at x
    (``pullback_pair_transform``), which the change of variables xi =
    mu(x + p) - mu(x) turns into the integral of |phi(p)|^2 / |mu'(x + p)|
    over phi's own grid, p = b + eps xi, with no inverse.  A zero or
    non-finite mu' on the support raises ``ValueError``.

    I is quadratic in phi, so its directional derivative is exact:
    ``inner.d1(phi, psi)`` = 2 integral of phi psi, on ``quad_n`` panels of
    the box covering both supports.  Neither reads x.
    """
    n = int(quad_n)

    def along(mu):  # inner pulled back along mu, or itself for None
        def row(member, ys):
            coeffs, terms, eps, b = member
            out = []
            # a block holds the squares; pulled, also the points x + p and
            # mu' there, with its temporaries
            width = (2 if mu is None else 5) * (n + 1)
            for k in _row_blocks(len(ys), width):
                xi, wt, rows = _lincomb_samples(coeffs[:, k], terms, n)
                np.square(np.abs(rows, out=rows), out=rows)
                if mu is not None:
                    at = b + np.array(ys[k])
                    rows /= _abs_slope(mu, at[:, None] + eps * xi)
                out += [float(np.dot(wt, v)) * eps ** -1 for v in rows]
            return out

        def inner(phi: TestFunction, x) -> float:
            return _value_at(row, phi, x)

        inner.row = row
        return inner

    def d1(phi: TestFunction, psi: TestFunction) -> float:
        pts, w = support_grid(TestFunction(*union_box([phi, psi]), None), n)
        return 2.0 * float(np.dot(w, phi.fn(pts) * psi.fn(pts)))

    inner = along(None)
    inner.d1 = d1
    # the identity's mu' is 1: its pullback is the inner itself
    inner.pulled = lambda mu: inner if mu.is_identity else along(mu)
    return inner


def _abs_slope(mu, p: np.ndarray) -> np.ndarray:
    """|mu'(p)|, after raising ``ValueError`` if it is 0 or not finite at
    some point: mu is no diffeomorphism there."""
    d = np.abs(mu.d_forward(p))
    ok = (d > 0.0) & (d < np.inf)
    if not ok.all():
        raise ValueError(f"{mu.name}: mu' is zero or not finite at "
                         f"{np.ravel(p)[np.argmin(ok)]:g}")
    return d


@dataclass
class CounterexampleReport:
    value_deviation: float          # max | |R| - 1 | over probes
    untransformed: ModerateReport   # value-level test on the eps-only battery
    log_series: SweepSeries         # log2 |d/dx pullback R| table
    verdict: AsymptoticVerdict
    slope_ratio: float
    strictly_increasing: bool

    @property
    def passed(self) -> bool:
        return (self.value_deviation == 0.0 and self.untransformed.passed
                and self.untransformed.N == 0
                and self.verdict.kind == "superpoly")


def counterexample_scenario(mu, path, spec: SweepSpec, eps_battery: Sequence,
                            quad_n: int) -> CounterexampleReport:
    """R(phi, x) = exp(i exp(int |phi|^2)) before and after a pullback.

    The untransformed representative has |R| = 1 identically and passes the
    value-level moderateness check on an eps-only (x-independent) battery
    with N = 0.  After pulling back along a nonlinear map, the x-derivative
    magnitude is exp(I_eps) |dI_eps/dx| with I_eps ~ c/eps, so its log table
    has local slopes growing without bound: the super-polynomial verdict.
    All of this runs in log space; the raw value would overflow at once.
    R lives on mu's target set ``mu.omega_dst`` and its pullback on
    ``mu.omega_src``, its preimage, so a probe outside either raises
    ``DomainError``.
    """
    rep = ExpExpRepresentative(squared_mass_inner(quad_n), mu.omega_dst)

    # modulus check by a direct small-I probe; a NaN fails it
    dev = abs(abs(rep(path(1.0, 0.0), 0.0)) - 1.0)

    untrans = test_moderate(rep, eps_battery, replace(spec, alphas=(0,)))

    pulled = rep.compose_pullback(mu)
    ser = replace(sweep(pulled, path, replace(spec, alphas=(1,)))[0],
                  member_id=f"{path.member_id}|{mu.name}")
    verdict = fit_order(ser, spec.fit_window)
    mags = np.abs(verdict.local_slopes)
    ratio = (math.nan if len(mags) < 2 else  # no growth to read: fails
             math.inf if mags[0] == 0 else float(mags[-1] / mags[0]))
    increasing = bool(len(mags) >= 2 and np.all(np.diff(mags) > 0))
    return CounterexampleReport(dev, untrans, ser, verdict, ratio, increasing)


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_rows(path, header: Sequence[str], rows) -> str:
    """CSV with a header row; floats at full precision, None as empty."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) for v in row])
    return path


def _unique_keys(items: Sequence) -> Sequence:
    """``items`` (series or verdicts), after raising ``ValueError`` if two
    share a (member_id, alpha): a table row would not say which it is."""
    keys = [(it.member_id, it.alpha) for it in items]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated (member_id, alpha) among {keys}")
    return items


def write_sweep_csv(path, series_list: Sequence[SweepSeries]):
    """Per-sweep table: epsilon, alpha, member_id, sup_value_or_log,
    local_slope; a repeated (member_id, alpha) raises ``ValueError``."""
    rows = []
    for ser in _unique_keys(series_list):
        lv = ser.log2_values()
        le = np.log2(ser.eps)
        for j, (e, v) in enumerate(zip(ser.eps, ser.values)):
            if j == 0 or not np.isfinite(lv[j]) or not np.isfinite(lv[j - 1]):
                slope = None
            else:
                slope = float((lv[j] - lv[j - 1]) / (le[j] - le[j - 1]))
            rows.append((float(e), ser.alpha, ser.member_id, float(v), slope))
    write_rows(path, ["epsilon", "alpha", "member_id", "sup_value_or_log",
                      "local_slope"], rows)


def emit_plotdata(path, series_list: Sequence[SweepSeries],
                  verdicts: Sequence[AsymptoticVerdict]):
    """log2-eps vs log2-value series with the fitted line coefficients; a
    repeated (member_id, alpha) raises ``ValueError``."""
    vmap = {(v.member_id, v.alpha): v for v in _unique_keys(verdicts)}
    rows = []
    for ser in _unique_keys(series_list):
        v = vmap.get((ser.member_id, ser.alpha))
        for e, val in zip(np.log2(ser.eps), ser.log2_values()):
            rows.append((ser.member_id, ser.alpha, float(e), float(val),
                         v.slope if v else None, v.intercept if v else None))
    write_rows(path, ["member_id", "alpha", "log2_eps", "log2_value",
                      "fit_slope", "fit_intercept"], rows)
