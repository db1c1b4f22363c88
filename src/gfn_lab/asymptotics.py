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
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .basic_space import (ExpExpRepresentative, Representative, d1_derivative,
                          pullback_pair_transform)
from .numdiff import _CENTRAL, MAX_ORDER, central_difference, stencil_halfwidth
from .testfunc import (Q_CAP, DomainError, TestFunction, _grid_rows,
                       _lincomb_samples, _row_blocks, _weighted_sum, scale,
                       support_grid, union_box)

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


def _sup_table(path, spec: SweepSpec, row) -> list[np.ndarray]:
    """The eps x K kernel: sup over x in K of each probed magnitude, per row.

    ``row(eps, n)`` gives the magnitudes at the first n points of K, those
    before the first one outside the path's partial domain (which then
    raises): an array, a row per representative, scanned for NaN; or, in
    ``d1_form_test``, a probe x -> magnitudes, run here point by point.
    Returns one table per representative.
    """
    dom, who = getattr(path, "domain", None), getattr(path, "member_id", path)
    xs, values = spec.K.tolist(), []
    for e in spec.eps.tolist():
        n = next((k for k, x in enumerate(xs)
                  if dom is not None and not dom.contains(e, x)), len(xs))
        mags = row(e, n)
        if not isinstance(mags, np.ndarray):
            probe, mags = mags, []
            for x in xs[:n]:
                mags.append(probe(x))
                if any(map(math.isnan, mags[-1])):
                    _first_nan(np.array(mags[-1:]), e, [x], who)
            mags = np.array(mags).T
        if n < len(xs):
            raise DomainError(
                f"sweep point (eps={e:g}, x={xs[n]:g}) outside the partial "
                f"domain of {who!r} (eps0 too large?)")
        values.append(mags.max(axis=1).tolist())
    return [np.asarray(col) for col in zip(*values)]


def _insertion_row(reps: tuple, path, alpha: int, K: np.ndarray):
    """Row builder for |d^alpha/dx^alpha R(S_eps path(eps, x), x)|:
    ``row(eps, n)`` is a (reps, n) array of the magnitudes at the first n
    points of K, a row per representative in ``reps``.

    At each x a representative reads x; the central stencil at
    ``partial_x``'s step, shrunk near the boundary of its Omega; or, for a
    log channel at alpha = 1, x and x +- h.  All these points are checked
    against U(Omega) as arrays; the points of K before the first failing x
    are evaluated, one row per representative, and scanned for NaN; then
    that x raises what a checked call raises there.  The values come from
    ``rep.row`` (a log channel's ``rep.inner.row``) on a coefficient-form
    path, else from ``rep.eval_fn`` (``rep.inner``) on each member S_eps
    path(eps, y), built once per point.  Log channels yield log2
    magnitudes: 0 at alpha = 0, since |R| = 1, and ``log_abs_dx`` at 1.
    """
    for rep in reps:
        if rep.has_log_channel and alpha not in (0, 1):
            raise ValueError("log-channel sweeps support first x-derivatives only")
    xs, hw, union = K.tolist(), stencil_halfwidth(alpha), None
    if getattr(path, "weights", None) is not None:
        union = TestFunction(*union_box(path.terms), None)

    def row(eps, n):
        h, X, built, weights = eps * H_FACTOR, K[:n], {}, {}
        shared = None if union is None else scale(union, eps)

        def member(y):  # S_eps path(eps, y), built once per point
            if y not in built:
                built[y] = scale(path(eps, y), eps)
            return built[y]

        def supports(ys):  # the supports of the members at ys, as arrays
            if shared is not None:  # the one all members share
                return shared
            ms = [member(y) for y in ys.tolist()]
            return SimpleNamespace(center=np.array([m.center for m in ms]),
                                   radius=np.array([m.radius for m in ms]))

        reads, failed, steps = [], np.zeros(n, dtype=bool), np.full(n, h)
        for rep in reps:
            om, hs, outside = rep.omega, steps, np.zeros(n, dtype=bool)
            if alpha and not rep.has_log_channel:
                if om is not None:  # partial_x's step rule
                    dist = np.minimum(X - om.lo, om.hi - X)
                    hs = np.where(hw * h >= dist, 0.5 * dist / hw, h)
                    outside = dist <= 0
                pts = [X + o * hs for o in _CENTRAL[alpha][0]]
            else:
                pts = [X, X + h, X - h] if alpha else [X]
            for ys in pts if om is not None else ():
                failed |= outside | ~rep.in_domain(supports(ys), ys)
            reads.append((pts, hs, outside))
        j = int(np.argmax(failed)) if failed.any() else n

        out = np.zeros((len(reps), j))
        for i, (rep, (pts, hs, _)) in enumerate(zip(reps, reads)):
            if not j or rep.has_log_channel and not alpha:
                continue  # nothing to evaluate, or |R| = 1
            ys = np.stack([p[:j] for p in pts], axis=1).ravel()  # x by x
            fn = rep.inner if rep.has_log_channel else rep.eval_fn  # R or I
            row_fn = getattr(fn if rep.has_log_channel else rep, "row", None)
            key, yl = ys.tobytes(), ys.tolist()
            if shared is None or row_fn is None:
                vals = [fn(member(y), y) for y in yl]
            else:  # the weights once per set of points
                if key not in weights:
                    weights[key] = np.array(path.weights(eps, yl))
                vals = row_fn((weights[key], path.terms, eps), yl)
            if rep.has_log_channel:  # I at x and x +- h
                section = dict(zip(yl, vals)).__getitem__
                out[i] = [rep.log_abs_dx(section, x, h) / LN2
                          for x in xs[:j]]
            else:  # the stencil's rows, in the order central_difference reads
                at = iter(np.asarray(vals).reshape(j, len(pts)).T)
                out[i] = np.abs(central_difference(lambda _: next(at), X[:j],
                                                   alpha, hs[:j]))
        _first_nan(out.T, eps, xs, getattr(path, "member_id", path))
        for rep, (pts, _, outside) in zip(reps, reads) if j < n else ():
            if outside[j]:
                raise DomainError(f"derivative point x={xs[j]} outside Omega")
            for y in (float(ys[j]) for ys in pts if rep.omega is not None):
                rep.check_domain(member(y) if shared is None else shared, y)
        return out

    return row


def _representatives(rep) -> tuple:
    return rep if isinstance(rep, tuple) else (rep,)


def sweep(rep, path, spec: SweepSpec):
    """Dense sup-over-K tables, one per requested derivative order.

    ``rep`` is a representative or a tuple of them probed on the same
    members; a tuple yields a tuple of table lists, one per representative.
    """
    reps = _representatives(rep)
    out = [[] for _ in reps]
    for alpha in spec.alphas:
        tables = _sup_table(path, spec,
                            _insertion_row(reps, path, alpha, spec.K))
        for series, r, values in zip(out, reps, tables):
            series.append(SweepSeries(getattr(path, "member_id", "member"),
                                      alpha, spec.eps, values,
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
                for path in battery:
                    tables = sweep(tuple(reps[i] for i in active), path, spec)
                    for i, sers in zip(active, tables):
                        for ser in sers:
                            v = fit_order(ser, spec.fit_window)
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
    static battery, with one or two directions from the zero-mass tangent
    battery (more raise ``ValueError``).  k = 0 reduces to the plain
    static-battery sweep.  Each member takes one eps x K table holding
    every direction tuple; a representative that does not depend on x is
    probed once per eps row.  The directions are scaled
    once per eps for the whole battery, and the k >= 1 magnitudes of a
    linear representative, R(S_eps psi, x) and 0, which no member enters,
    are computed by the first member to reach each (eps, x).
    """
    if not 0 <= k_max <= 2:
        raise ValueError(f"directional order k_max must lie in 0..2, got {k_max}")
    if k_max and not directions:
        raise ValueError(f"k_max = {k_max} needs at least one direction")
    if len(directions) > 2:
        raise ValueError(f"at most two directions, got {len(directions)}")
    directions = list(directions) if k_max else []
    # direction tuples as indices into the directions
    dir_tuples = {0: [()], 1: [(i,) for i in range(len(directions))],
                  2: [(0, 0), (0, 1)] if len(directions) >= 2 else [(0, 0)]}
    labels, index_tuples = zip(*[(f"k{k}t{ti}", idx) for k in range(k_max + 1)
                                 for ti, idx in enumerate(dir_tuples[k])])
    scaled_at = {float(e): [scale(psi, float(e)) for psi in directions]
                 for e in spec.eps}
    shared = {}  # (eps, x) -> k >= 1 magnitudes of a linear representative

    def directional_row(phi0):
        def row(eps, n):  # a probe, which _sup_table runs up to the n-th x
            sphi = scale(phi0, eps)
            scaled = scaled_at[eps]

            def magnitude(x, idx):
                return abs(d1_derivative(rep, sphi, x, [scaled[i] for i in idx]))

            def probe(x):
                if rep.has_log_channel:
                    # one pass over the distinct directions serves every tuple
                    ival, logs = (rep.log_abs_d1_terms(sphi, x, scaled)
                                  if scaled else (0.0, []))
                    return [(rep.log_abs_d1_from_terms(
                                ival, [logs[i] for i in idx])
                             if idx else rep.log_abs(sphi, x)) / LN2
                            for idx in index_tuples]
                if not rep.linear:
                    return [magnitude(x, idx) for idx in index_tuples]
                k0 = magnitude(x, ())
                if (eps, x) not in shared:
                    shared[eps, x] = [magnitude(x, idx)
                                      for idx in index_tuples[1:]]
                return [k0] + shared[eps, x]

            if not rep.x_independent:
                return probe
            # every point of the row gives the same bits: probe the first
            # point that passes the domain check, and reuse its magnitudes
            first = []

            def probe_once(x):
                if not first:
                    first.extend(probe(x))
                return first

            return probe_once

        return row

    verdicts, series = [], []
    for path in battery:
        tables = _sup_table(path, spec, directional_row(path(1.0, 0.0)))
        for label, values in zip(labels, tables):
            ser = SweepSeries(f"{path.member_id}|{label}", 0, spec.eps,
                              values, is_log=rep.has_log_channel)
            series.append(ser)
            verdicts.append(fit_order(ser, spec.fit_window))
    return _moderate_report(verdicts, series)


# ---------------------------------------------------------------------------
# the oscillatory counterexample, run entirely in log space


def squared_mass_inner(quad_n: int):
    """inner(phi, x) = integral of |phi|^2 over the support box, on
    ``quad_n`` panels.

    A dyadic rescale of an untranslated function, frame (base, 2^-i, 0), is
    integrated over the base's cached samples and multiplied by 2^i.
    Scaling by a power of two commutes with rounding, so this is the
    quadrature on the scaled support bit for bit; every other frame is
    integrated directly.  ``inner.row((coeffs, terms, eps), ys)`` is that
    branch on a sweep row's members at once, for a sweep's eps = 2^-i.
    """
    n = int(quad_n)

    def inner(phi: TestFunction, x) -> float:
        base, a, b = phi.frame
        if b == 0.0 and a <= 1.0 and math.frexp(a)[0] == 0.5:
            _, wt, v = base.samples_on(base, n)
            return float(np.dot(wt, np.abs(v) ** 2)) * a ** -1
        pts, w = support_grid(phi, n)
        v = phi.fn(pts)
        return float(np.dot(w, np.abs(v) ** 2))

    def row(member, ys):
        coeffs, terms, eps = member
        out = []
        for k in _row_blocks(len(ys), 2 * (n + 1)):  # the sum, one product
            _, wt, rows = _lincomb_samples(coeffs[:, k], terms, n)
            np.square(np.abs(rows, out=rows), out=rows)
            out += [float(np.dot(wt, v)) * eps ** -1 for v in rows]
        return out

    def pulled_row(mu):
        """``row`` of ``inner`` pulled back along ``mu``, as
        ``compose_pullback(pullback_pair_transform(mu), ...)`` evaluates
        it at each (S_eps phi, y), bit for bit: inner(chi, mu(y)) with
        chi = P(. + mu(y)), P = (psi o mu^{-1}) |det D mu^{-1}| and
        psi = S_eps phi(. - y), on chi's own grid (at mu(y) = 0, chi = P
        takes the samples branch, and the bits agree), with every
        member's inverse in one call."""
        if mu.is_identity:  # the translates cancel: chi = S_eps phi
            return row

        def pulled(member, ys):
            coeffs, terms, eps = member
            ys = np.array(ys)
            # a row holds about ten arrays of its nodes at once: the
            # Newton's, and those of the terms' evaluation
            return [v for k in _row_blocks(len(ys), 10 * (n + 1))
                    for v in pulled_block(coeffs[:, k], terms, eps, ys[k])]

        def pulled_block(coeffs, terms, eps, ys):
            c, r = union_box(terms)
            shift = 0.0 + ys  # psi's frame offset; its box, then P's
            lo, hi = (c * eps + shift) - r * eps, (c * eps + shift) + r * eps
            center, radius = mu.image_box(lo, hi)
            b = 0.0 + -mu.forward(ys)  # chi's frame offset over P
            pts, w = _grid_rows(center * 1.0 + b, radius * 1.0, n)
            pre = mu.inverse(pts - b[:, None])  # chi: (xi - b) / 1.0
            del pts
            u = pre - shift[:, None]  # psi: eps^-1 phi((p - shift) / eps)
            u /= eps
            v = _weighted_sum([col[:, None] for col in coeffs],
                              [t.fn for t in terms])(u)
            del u
            v *= eps ** -1
            v *= np.abs(1.0 / mu.d_forward(pre))
            del pre
            np.square(np.abs(v, out=v), out=v)
            return [float(np.dot(wk, vk)) for wk, vk in zip(w, v)]

        return pulled

    inner.x_independent = True
    inner.row = row
    inner.pulled_row = pulled_row
    return inner


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
    """
    rep = ExpExpRepresentative(squared_mass_inner(quad_n))

    # modulus check straight from the log channel, plus direct small-I probes
    probe = path(1.0, 0.0)
    dev = abs(math.exp(rep.log_abs(probe, 0.0)) - 1.0)
    small = abs(rep(probe, 0.0))
    dev = max(dev, abs(small - 1.0))

    untrans = test_moderate(rep, eps_battery, replace(spec, alphas=(0,)))

    pulled = rep.compose_pullback(pullback_pair_transform(mu), None)
    # mu reaches the row directly: the transform evaluates one point
    pulled.inner.row = rep.inner.pulled_row(mu)
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


def write_sweep_csv(path, series_list: Sequence[SweepSeries]):
    """Per-sweep table: epsilon, alpha, member_id, sup_value_or_log, local_slope."""
    rows = []
    for ser in series_list:
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
    """log2-eps vs log2-value series with the fitted line coefficients."""
    vmap = {(v.member_id, v.alpha): v for v in verdicts}
    rows = []
    for ser in series_list:
        v = vmap.get((ser.member_id, ser.alpha))
        for e, val in zip(np.log2(ser.eps), ser.log2_values()):
            rows.append((ser.member_id, ser.alpha, float(e), float(val),
                         v.slope if v else None, v.intercept if v else None))
    write_rows(path, ["member_id", "alpha", "log2_eps", "log2_value",
                      "fit_slope", "fit_intercept"], rows)
