"""Named scenarios: each reproduces one checkable claim end to end and
writes CSV evidence plus a verdict summary.

Every scenario is a function (config, outdir) -> (assertions, files); the
runner turns the assertion conjunction into the exit status.  Outputs are
byte-reproducible for a fixed config and seed; wall-clock information goes
only to the run-log sidecar.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import asymptotics as asy
from .basic_space import (Dj_derivative, ExpExpRepresentative, embed_C,
                          embed_J, embed_sigma, mul, sub, translate_formalism)
from .diffeo import (catalog, check_Z_requirements, compose, get_diffeo,
                     pullback_rep, transform_test_object)
from .distributions import (DiracDerivative, Heaviside, PullbackDistribution,
                            SMOOTH_CHAINS, derivative, smooth_density)
from .test_objects import (MomentClass, check_moment_class, make_battery,
                           perturbation_directions)
from .testfunc import (Q_CAP, Box, build_mollifier, check_node_count, moment,
                       scale)

#: (i_min, i_max, fit window) of each eps sweep a scenario runs, by sweep;
#: eps_min, eps_max and fit_window override every one
SWEEPS = {
    "embed-order": {"moderate": (2, 9, 6), "negligible": (2, 9, 6)},
    "delta-scaling": {"moderate": (2, 14, 6)},
    "association": {"strict": (2, 9, 6), "cm": (2, 8, 5)},
    "counterexample": {"transformed": (4, 14, 11)},
    "d1-form": {"d1": (2, 12, 6), "moderate": (2, 12, 6)},
}

#: q range of a scenario whose range is narrower than 0..Q_CAP:
#: moment-invariance fits moments 1..q, so it needs q >= 1, and builds
#: symmetric A_{max(q, 2q-2)} sources, whose moment system is too
#: ill-conditioned from q = 8 (A_14) on
Q_RANGES = {"moment-invariance": (1, Q_CAP - 1)}


@dataclass
class ScenarioConfig:
    scenario: str
    omega: tuple = (-2.5, 2.5)
    q: Optional[int] = None
    eps_min: Optional[int] = None   # i_min: eps starts at 2^-i_min
    eps_max: Optional[int] = None   # i_max
    fit_window: Optional[int] = None
    battery_count: Optional[int] = None  # members, else each battery's own
    battery_mode: Optional[str] = None  # override a scenario's default mode
    k_points: Optional[int] = None  # points of K, else each scenario's own
    quad_n: Optional[int] = None
    diffeo: Optional[str] = None
    seed: int = 7
    out: str = "out"

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            raise KeyError(f"unknown scenario {self.scenario!r}; "
                           f"choose from {', '.join(SCENARIO_NAMES)}")
        if self.seed is None:
            raise ValueError("a seed is mandatory for reproducible runs")
        if not isinstance(self.out, str):
            raise ValueError(f"out must be a directory name, got {self.out!r}")
        q_lo, q_hi = Q_RANGES.get(self.scenario, (0, Q_CAP))
        for key, lo, hi in (("q", q_lo, q_hi), ("eps_min", 2, 20),
                            ("eps_max", 2, 20), ("fit_window", 4, math.inf),
                            ("k_points", 1, math.inf),
                            ("battery_count", 1, math.inf),
                            ("quad_n", 64, math.inf), ("seed", 0, math.inf)):
            v = getattr(self, key)
            if v is not None and (isinstance(v, bool)  # JSON: 5.5, true
                                  or not isinstance(v, numbers.Integral)):
                raise ValueError(f"{key} must be an integer, got {v!r}")
            if v is not None and not lo <= v <= hi:
                raise ValueError(f"{key} must lie in {lo}..{hi}, got {v}")
        if self.quad_n is not None:
            check_node_count(self.quad_n)
        if None not in (self.eps_min, self.eps_max) and \
                self.eps_min >= self.eps_max:
            raise ValueError("eps_min must be below eps_max")
        try:
            lo, hi = map(float, self.omega)
        except (TypeError, ValueError):
            lo = hi = math.nan
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"omega must be two finite numbers lo < hi, "
                             f"got {self.omega!r}")
        if self.diffeo not in (None, *catalog()):
            raise KeyError(f"unknown diffeomorphism {self.diffeo!r}")
        if self.battery_mode not in (None, "static", "eps_path", "full_path"):
            raise ValueError(f"unknown battery mode {self.battery_mode!r}")
        for which in SWEEPS.get(self.scenario, ()):  # each sweep is valid
            i_min, i_max, window = self.sweep_bounds(which)
            asy.SweepSpec(i_min=i_min, i_max=i_max, fit_window=window)

    @property
    def omega_box(self) -> Box:
        return Box.interval(self.omega[0], self.omega[1])

    def sweep_bounds(self, which: str) -> tuple:
        """(i_min, i_max, fit window) of this scenario's sweep ``which``."""
        i_min, i_max, window = SWEEPS[self.scenario][which]
        return (self.eps_min or i_min, self.eps_max or i_max,
                self.fit_window or window)

    def k_grid(self, n: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        """K: ``k_points`` points on [lo, hi] if set, else the scenario's ``n``."""
        return np.linspace(lo, hi, self.k_points or n)

    @staticmethod
    def from_sources(scenario: str, config_file: Optional[str] = None,
                     overrides: Optional[dict] = None) -> "ScenarioConfig":
        """File keys first, command-line overrides on top.  A file whose
        ``scenario`` key names another scenario raises ``KeyError``."""
        data: dict = {}
        if config_file:
            with open(config_file) as fh:
                data.update(json.load(fh))
        if data.get("scenario", scenario) != scenario:
            raise KeyError(f"config file {config_file!r} is for scenario "
                           f"{data['scenario']!r}, not {scenario!r}")
        for k, v in (overrides or {}).items():
            if v is not None:
                data[k] = v
        data["scenario"] = scenario
        names = {f.name for f in fields(ScenarioConfig)}
        unknown = set(data) - names
        if unknown:
            raise KeyError(f"unknown config keys: {sorted(unknown)}")
        if "omega" in data:
            data["omega"] = tuple(data["omega"])
        return ScenarioConfig(**data)


@dataclass
class Assertion:
    name: str
    observed: str
    threshold: str
    passed: bool


@dataclass
class ScenarioResult:
    scenario: str
    passed: bool
    assertions: list
    files: list


def _a(records: list, name: str, observed, threshold: str, passed: bool):
    obs = f"{observed:.6g}" if isinstance(observed, float) else str(observed)
    records.append(Assertion(name, obs, threshold, bool(passed)))


def _write_summary(outdir: str, scenario: str, assertions: list) -> str:
    return asy.write_rows(
        os.path.join(outdir, f"{scenario}_summary.csv"),
        ["scenario", "assertion", "observed", "threshold", "passed"],
        [(scenario, a.name, a.observed, a.threshold,
          "pass" if a.passed else "FAIL") for a in assertions])


def _spec(cfg: ScenarioConfig, which: str, K: np.ndarray,
          alphas=(0,)) -> asy.SweepSpec:
    i_min, i_max, window = cfg.sweep_bounds(which)
    return asy.SweepSpec(i_min=i_min, i_max=i_max, K=K, alphas=alphas,
                         fit_window=window)


# ---------------------------------------------------------------------------
# scenarios


def _scn_mollifier(cfg: ScenarioConfig, outdir: str):
    qs = [cfg.q] if cfg.q is not None else list(range(1, 7))
    records, rows = [], []
    for q in qs:
        phi = build_mollifier(q)
        mass, mass_err = moment(phi, 0, return_error=True)
        _a(records, f"q{q}-mass", abs(mass - 1.0), "<=1e-12",
           abs(mass - 1.0) <= 1e-12)
        worst, worst_dbl = 0.0, mass_err
        rows.append((q, 0, mass, mass_err))
        for k in range(1, q + 1):
            mk, dbl = moment(phi, k, return_error=True)
            rows.append((q, k, mk, dbl))
            worst = np.maximum(worst, abs(mk))  # keeps a NaN, which fails
            worst_dbl = np.maximum(worst_dbl, dbl)
        if q >= 1:
            _a(records, f"q{q}-moments", worst, "<=1e-10", worst <= 1e-10)
        _a(records, f"q{q}-doubled-grid", worst_dbl, "<=1e-11",
           worst_dbl <= 1e-11)
    files = [asy.write_rows(os.path.join(outdir, "mollifier_moments.csv"),
                         ["q", "k", "moment", "doubling_diff"], rows)]
    return records, files


def _scn_embed_order(cfg: ScenarioConfig, outdir: str):
    om = cfg.omega_box
    qs = [cfg.q] if cfg.q is not None else [1, 2, 3]
    fnames = ("sin", "x4")
    # one defect per function, swept together on shared members: the
    # batteries do not depend on the function
    diffs = tuple(sub(embed_C(smooth_density(fname), omega=om, n=cfg.quad_n),
                      embed_sigma(SMOOTH_CHAINS[fname][0], omega=om))
                  for fname in fnames)
    moderate = {}
    for q in qs:
        spec = _spec(cfg, "moderate", cfg.k_grid(41), alphas=(0,))
        # a swept battery is dropped at once: its members hold cached samples
        moderate[q] = asy.test_moderate(
            diffs, make_battery(cfg.battery_mode or "full_path", q,
                                cfg.battery_count or 8, cfg.seed + q,
                                flavor="strict"), spec)

    def factory(kind: str, q: int):
        flavor = "strict" if kind == "strict" else "cm"
        return make_battery("full_path", q, cfg.battery_count or 3,
                            cfg.seed + 31 + q, flavor=flavor)

    neg_spec = _spec(cfg, "negligible", cfg.k_grid(11), alphas=(0,))
    negligible = asy.test_negligible(diffs, [0, 1, 2, 3], neg_spec, factory)

    records, series_all, verdicts_all = [], [], []
    for i, fname in enumerate(fnames):
        for q in qs:  # both defects sweep the same members: label them
            rep = moderate[q][i]
            series_all += [replace(ser, member_id=f"{fname}|{ser.member_id}")
                           for ser in rep.series]
            verdicts_all += [replace(v, member_id=f"{fname}|{v.member_id}")
                             for v in rep.verdicts]
            worst = min(v.slope for v in rep.verdicts)
            _a(records, f"{fname}-q{q}-order", worst, f">={q + 1 - 0.2}",
               worst >= q + 1 - 0.2)
        for n, entry in negligible[i].entries.items():
            _a(records, f"{fname}-witness-n{n}",
               entry.witness_q if entry.witness_q is not None else "none",
               "witness exists", entry.witness_q is not None)
    p1 = os.path.join(outdir, "embed-order_sweep.csv")
    asy.write_sweep_csv(p1, series_all)
    p2 = os.path.join(outdir, "embed-order_plotdata.csv")
    asy.emit_plotdata(p2, series_all, verdicts_all)
    return records, [p1, p2]


def _scn_delta_scaling(cfg: ScenarioConfig, outdir: str):
    om = cfg.omega_box
    records = []
    bat = make_battery(cfg.battery_mode or "full_path", cfg.q or 0,
                       cfg.battery_count or 8, cfg.seed)
    spec = _spec(cfg, "moderate", cfg.k_grid(41), alphas=(0,))
    rep = asy.test_moderate(embed_C(DiracDerivative(0), omega=om,
                                    n=cfg.quad_n), bat, spec)
    for v in rep.verdicts:
        _a(records, f"{v.member_id}-slope", v.slope, "-1.00+/-0.02",
           abs(v.slope + 1.0) <= 0.02)
    _a(records, "moderate-N", rep.N, "==1", rep.N == 1)
    _a(records, "moderate-passed", rep.passed, "true", rep.passed)
    files = []
    p = os.path.join(outdir, "delta-scaling_sweep.csv")
    asy.write_sweep_csv(p, rep.series)
    files.append(p)
    p = os.path.join(outdir, "delta-scaling_plotdata.csv")
    asy.emit_plotdata(p, rep.series, rep.verdicts)
    files.append(p)
    return records, files


def _scn_association(cfg: ScenarioConfig, outdir: str):
    om = cfg.omega_box
    records, series_all = [], []
    ix = embed_C(smooth_density("x"), omega=om, n=cfg.quad_n)
    ix2 = embed_C(smooth_density("x2"), omega=om, n=cfg.quad_n)
    gap = sub(mul(ix, ix), ix2)

    spec = _spec(cfg, "strict", cfg.k_grid(21), alphas=(0,))
    worst = 0.0
    for path in make_battery("full_path", 2, cfg.battery_count or 8, cfg.seed,
                             flavor="strict"):
        for ser in asy.sweep(gap, path, spec):
            series_all.append(ser)
            worst = max(worst, float(np.max(ser.values)))
    _a(records, "strict-A2-gap", worst, "<=1e-12", worst <= 1e-12)

    qs = [cfg.q] if cfg.q is not None else [1, 2, 3]
    for q in qs:
        spec_cm = _spec(cfg, "cm", cfg.k_grid(21), alphas=(0,))
        rep = asy.test_moderate(gap, make_battery("full_path", q,
                                                  cfg.battery_count or 4,
                                                  cfg.seed + 17 + q,
                                                  flavor="cm"), spec_cm)
        series_all += rep.series
        worst_order = min(v.slope for v in rep.verdicts)
        _a(records, f"cm-q{q}-order", worst_order, f">={q + 2 - 0.2}",
           worst_order >= q + 2 - 0.2)
    p = os.path.join(outdir, "association_sweep.csv")
    asy.write_sweep_csv(p, series_all)
    return records, [p]


def _scn_moment_invariance(cfg: ScenarioConfig, outdir: str):
    om = cfg.omega_box
    records, rows = [], []
    rng = np.random.default_rng(cfg.seed)
    names = [cfg.diffeo] if cfg.diffeo else ["affine-2x", "sin-bend", "cubic"]
    qs = [cfg.q] if cfg.q is not None else [2, 4]
    L = cfg.k_grid(7, -0.7, 0.7)
    quad_n = cfg.quad_n or 2048
    for q in qs:
        # symmetric members built with extra vanishing moments: under a
        # nonlinear map, a transformed moment of order a picks up source
        # moments of every higher order, so plain A_q sources only give
        # decay q+1-a; symmetric A_{2q-2} members (class A_{2q-1}) restore
        # order >= q for every a <= q while still being a strict-A_q battery.
        bat = make_battery("full_path", q, cfg.battery_count or 4,
                           cfg.seed + q, flavor="symmetric",
                           build_q=max(q, 2 * q - 2))
        for path in bat:
            chk = check_moment_class(path, MomentClass("strict_Aq", q),
                                     [0.5, 0.25], x_grid=L[::3], n=quad_n)
            _a(records, f"q{q}-{path.member_id}-source-strict",
               chk.max_moment, "<=1e-10", chk.passed)
        for name in names:
            mu = get_diffeo(name, om)
            for path in bat:
                tr = transform_test_object(mu, path)
                eps0 = tr.domain.register_compact(L)
                i0 = max(2, int(-math.log2(eps0)))
                eps_grid = 2.0 ** -np.arange(i0, i0 + 6, dtype=float)
                # the moments integrate in source coordinates, with no floor
                # that grows like u |x| / eps; but under an affine map each
                # moment is a power of the slope times the source's residual
                # (about 1e-14), which does not decay with eps: magnitudes
                # below 1e-11 count as decayed-to-zero (ROADMAP items 1, 2)
                chk = check_moment_class(tr, MomentClass("asympt_CM", q),
                                         eps_grid, x_grid=L, n=quad_n,
                                         zero_tol=1e-11)
                worst = min(chk.orders.values())
                for a, order in chk.orders.items():
                    rows.append((name, q, tr.member_id, a, order))
                _a(records, f"{name}-q{q}-{path.member_id}-orders", worst,
                   f">={q - 0.3}", chk.passed)
                masses = []
                for _ in range(5):
                    e = float(eps0 * (0.3 + 0.7 * rng.random()))
                    x = float(L[rng.integers(len(L))])
                    if tr.domain.contains(e, x):
                        masses.append(abs(tr(e, x).mass(n=quad_n) - 1.0))
                _a(records, f"{name}-q{q}-{path.member_id}-mass",
                   np.max(masses), "<=1e-9", np.max(masses) <= 1e-9)
                z = check_Z_requirements(tr, L, eps0, beta_max=3, n_eps=4)
                _a(records, f"{name}-q{q}-{path.member_id}-Z",
                   f"radius {z.radius_observed:.3g}", "all clauses",
                   z.passed)
    p = asy.write_rows(os.path.join(outdir, "moment-invariance_orders.csv"),
                    ["diffeo", "q", "member_id", "alpha", "fitted_order"], rows)
    return records, [p]


def _scn_counterexample(cfg: ScenarioConfig, outdir: str):
    om = cfg.omega_box
    records = []
    mu = get_diffeo(cfg.diffeo or "sin-bend", om)
    # x-independent source: every bit of x-dependence in the transformed
    # object is introduced by the (nonlinear) map itself
    src = make_battery("eps_path", 0, 1, cfg.seed)[0]
    eps_bat = make_battery("eps_path", 0, cfg.battery_count or 4, cfg.seed + 1)
    spec = _spec(cfg, "transformed", cfg.k_grid(11), alphas=(1,))
    rep = asy.counterexample_scenario(mu, src, spec, eps_bat,
                                      cfg.quad_n or 1024)
    _a(records, "modulus-one", rep.value_deviation, "==0",
       rep.value_deviation == 0.0)
    _a(records, "untransformed-N", rep.untransformed.N, "==0",
       rep.untransformed.N == 0 and rep.untransformed.passed)
    _a(records, "slopes-increasing", rep.strictly_increasing, "true",
       rep.strictly_increasing)
    _a(records, "slope-ratio", rep.slope_ratio, ">=10", rep.slope_ratio >= 10)
    _a(records, "verdict", rep.verdict.kind, "superpoly",
       rep.verdict.kind == "superpoly")
    p = os.path.join(outdir, "counterexample_sweep.csv")
    asy.write_sweep_csv(p, rep.untransformed.series + [rep.log_series])
    return records, [p]


def _scn_jform_commute(cfg: ScenarioConfig, outdir: str):
    records, rows = [], []
    rng = np.random.default_rng(cfg.seed)
    cases = [("delta", DiracDerivative(0)), ("delta1", DiracDerivative(1)),
             ("heaviside", Heaviside()), ("sin", smooth_density("sin"))]
    for fname, F in cases:
        repJ = embed_J(F, n=cfg.quad_n)
        repdF = embed_J(derivative(F), n=cfg.quad_n)
        worst = 0.0
        for _ in range(20):
            q = int(rng.integers(0, 3))
            r = 0.7 + 0.6 * rng.random()
            c = (rng.random() - 0.5) * 0.3
            phi = scale(build_mollifier(q, radius=r, center=c),
                        0.3 + 0.7 * rng.random())
            x = float((rng.random() - 0.5) * 1.6)
            lhs = Dj_derivative(repJ, phi, x)
            rhs = repdF(phi, x)
            err = abs(lhs - rhs)
            rows.append((fname, x, float(abs(lhs)), float(err)))
            worst = np.maximum(worst, float(err))  # keeps a NaN, which fails
        _a(records, f"commute-{fname}", worst, "<=1e-8", worst <= 1e-8)

    # formalism round trip, bit level
    base = embed_J(DiracDerivative(0))
    rt = translate_formalism(translate_formalism(base))
    worst_rt = 0.0
    for _ in range(100):
        phi = scale(build_mollifier(int(rng.integers(0, 3)),
                                    radius=0.7 + 0.6 * rng.random(),
                                    center=(rng.random() - 0.5) * 0.3),
                    0.3 + 0.7 * rng.random())
        x = float((rng.random() - 0.5) * 1.6)
        worst_rt = np.maximum(worst_rt, abs(rt(phi, x) - base(phi, x)))
    _a(records, "roundtrip-bit-identical", worst_rt, "==0", worst_rt == 0.0)
    p = asy.write_rows(os.path.join(outdir, "jform-commute_probes.csv"),
                    ["distribution", "x", "abs_value", "abs_error"], rows)
    return records, [p]


def _scn_d1_form(cfg: ScenarioConfig, outdir: str):
    om = cfg.omega_box
    records, rows = [], []
    dirs = perturbation_directions(2, cfg.seed + 5)
    static = make_battery("static", 0, cfg.battery_count or 4, cfg.seed + 6)
    full = make_battery("full_path", 0, cfg.battery_count or 4, cfg.seed + 7)
    spec_d1 = _spec(cfg, "d1", cfg.k_grid(21), alphas=(0,))
    spec_mod = _spec(cfg, "moderate", cfg.k_grid(21), alphas=(0, 1))
    catalog = [
        ("iota-delta", embed_C(DiracDerivative(0), omega=om, n=cfg.quad_n)),
        ("iota-H", embed_C(Heaviside(), omega=om, n=cfg.quad_n)),
        ("iota-sin", embed_C(smooth_density("sin"), omega=om, n=cfg.quad_n)),
        ("sigma-sin", embed_sigma(np.sin, omega=om)),
        ("counterexample",
         ExpExpRepresentative(asy.squared_mass_inner(cfg.quad_n or 1024),
                              omega=om)),
    ]
    series = []
    for name, rep in catalog:
        d1rep = asy.d1_form_test(rep, static, dirs, 2, spec_d1)
        modrep = asy.test_moderate(rep, full, spec_mod)
        agree = d1rep.passed == modrep.passed
        rows.append((name, "d1-form", d1rep.passed, d1rep.N))
        rows.append((name, "insertion", modrep.passed, modrep.N))
        series += [replace(ser, member_id=f"{name}|{ser.member_id}")
                   for ser in d1rep.series + modrep.series]
        _a(records, f"{name}-agreement",
           f"d1={d1rep.passed}/mod={modrep.passed}", "equal", agree)
    p = asy.write_rows(os.path.join(outdir, "d1-form_verdicts.csv"),
                    ["representative", "test", "moderate", "N"], rows)
    p_sweep = os.path.join(outdir, "d1-form_sweep.csv")
    asy.write_sweep_csv(p_sweep, series)
    return records, [p, p_sweep]


def _scn_pullback_functor(cfg: ScenarioConfig, outdir: str):
    om = cfg.omega_box
    records, rows = [], []
    rng = np.random.default_rng(cfg.seed)
    delta = DiracDerivative(0)
    R = embed_C(delta, n=cfg.quad_n)
    phi = build_mollifier(2, radius=0.8)

    mu_id = get_diffeo("identity", om)
    pb = pullback_rep(mu_id, R)
    worst = 0.0
    for _ in range(50):
        p = scale(phi, 0.1 + 0.5 * rng.random())
        x = float((rng.random() - 0.5) * 1.6)
        worst = np.maximum(worst, abs(pb(p, x) - R(p, x)))  # keeps a NaN
    _a(records, "identity-bit-identical", worst, "==0", worst == 0.0)

    mu = get_diffeo("affine-2x", om)
    nu = get_diffeo("shift-1", om)
    comp = pullback_rep(compose(mu, nu), R)
    seq = pullback_rep(nu, pullback_rep(mu, R))
    worst = 0.0
    for _ in range(50):
        p = scale(phi, 0.1 + 0.2 * rng.random())
        x = float(-1.0 + 0.7 * rng.random())
        err = abs(comp(p, x) - seq(p, x))
        rows.append(("functoriality", x, float(err)))
        worst = np.maximum(worst, float(err))
    _a(records, "functoriality", worst, "<=1e-9", worst <= 1e-9)

    for name in ("affine-2x", "sin-bend", "cubic"):
        m = get_diffeo(name, om)
        for uname, u in (("delta", DiracDerivative(0)), ("H", Heaviside())):
            lhs = pullback_rep(m, embed_C(u, n=cfg.quad_n))
            rhs = embed_C(PullbackDistribution(m, u), n=cfg.quad_n)
            worst = 0.0
            for _ in range(10):
                p = scale(phi, 0.1 + 0.3 * rng.random())
                x = float((rng.random() - 0.5) * 0.6)
                err = abs(lhs(p, x) - rhs(p, x))
                rows.append((f"embed-{name}-{uname}", x, float(err)))
                worst = np.maximum(worst, float(err))
            _a(records, f"embed-commutes-{name}-{uname}", worst, "<=1e-8",
               worst <= 1e-8)
    p = asy.write_rows(os.path.join(outdir, "pullback-functor_probes.csv"),
                    ["check", "x", "abs_error"], rows)
    return records, [p]


_SCENARIOS: dict = {
    "mollifier": _scn_mollifier,
    "embed-order": _scn_embed_order,
    "delta-scaling": _scn_delta_scaling,
    "association": _scn_association,
    "moment-invariance": _scn_moment_invariance,
    "counterexample": _scn_counterexample,
    "jform-commute": _scn_jform_commute,
    "d1-form": _scn_d1_form,
    "pullback-functor": _scn_pullback_functor,
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run one named scenario; returns the result with emitted file list.

    The summary CSV and all data CSVs are deterministic given the config;
    timestamps are confined to the run-log sidecar.
    """
    fn = _SCENARIOS[cfg.scenario]
    os.makedirs(cfg.out, exist_ok=True)
    t0 = time.time()
    assertions, files = fn(cfg, cfg.out)
    files.append(_write_summary(cfg.out, cfg.scenario, assertions))
    passed = all(a.passed for a in assertions)
    with open(os.path.join(cfg.out, "run_log.txt"), "a") as fh:
        fh.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {cfg.scenario} "
                 f"seed={cfg.seed} passed={passed} elapsed={time.time()-t0:.2f}s\n")
    return ScenarioResult(cfg.scenario, passed, assertions, files)
