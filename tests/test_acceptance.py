"""Acceptance suite.

One test per quantitative target, each at its stated tolerance, printing a
pass/fail line (run with -s to see them inline).  Every target is checked
through the public scenario surface so the CSV evidence is emitted along
the way; where a criterion pins specific numbers, they are re-asserted here
from the scenario's assertion records rather than trusted as a bool.
"""

import os

import numpy as np
import pytest

from gfn_lab.asymptotics import SweepSpec
from gfn_lab.asymptotics import test_moderate as moderate
from gfn_lab.basic_space import embed_C, mul, sub
from gfn_lab.distributions import smooth_density
from gfn_lab.scenarios import ScenarioConfig, run_scenario
from gfn_lab.test_objects import make_battery
from gfn_lab.testfunc import Box

RESULTS = {}


def _run(name, tmpdir, **kw):
    cfg = ScenarioConfig(name, out=os.path.join(tmpdir, name), **kw)
    res = run_scenario(cfg)
    RESULTS[name] = res
    return res


def _report(num, label, ok):
    print(f"ACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _records(res, substr):
    return [a for a in res.assertions if substr in a.name]


@pytest.fixture(scope="module")
def outroot(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance"))


def test_criterion_01_mollifier_construction(outroot):
    """q in 1..6: mass to 1e-12, moments to 1e-10, doubled-grid oracle to
    1e-11."""
    res = _run("mollifier", outroot, seed=7)
    masses = _records(res, "-mass")
    moments = _records(res, "-moments")
    oracles = _records(res, "-doubled-grid")
    ok = (res.passed and len(masses) == 6 and len(moments) == 6
          and len(oracles) == 6)
    _report(1, "mollifier moments q=1..6", ok)


def test_criterion_02_delta_scaling(outroot):
    """Fitted slope -1.00 +/- 0.02 per battery member; verdict N = 1."""
    res = _run("delta-scaling", outroot, seed=7)
    slopes = _records(res, "-slope")
    ok = (res.passed and len(slopes) == 8
          and all(abs(float(a.observed) + 1.0) <= 0.02 for a in slopes))
    _report(2, "delta scaling slope -1, N=1", ok)


def test_criterion_03_embedding_consistency(outroot):
    """iota restricted to smooth functions matches sigma at order q+1,
    with negligibility witnesses for n <= 3."""
    res = _run("embed-order", outroot, seed=7)
    orders = _records(res, "-order")
    witnesses = _records(res, "-witness-")
    ok = (res.passed and len(orders) == 6 and len(witnesses) == 8)
    for a in orders:
        q = int(a.name.split("-q")[1][0])
        ok = ok and float(a.observed) >= q + 1 - 0.2
    _report(3, "iota|smooth = sigma at order q+1", ok)


def test_criterion_04_association_repair(outroot):
    """iota(x)^2 - iota(x^2): below 1e-12 on strict A_2, order q+2 on
    asymptotically vanishing batteries."""
    res = _run("association", outroot, seed=7)
    gap = _records(res, "strict-A2-gap")[0]
    ok = res.passed and float(gap.observed) <= 1e-12
    for a in _records(res, "cm-q"):
        q = int(a.name.split("-q")[1][0])
        ok = ok and float(a.observed) >= q + 2 - 0.2
    _report(4, "embedded product gap", ok)


def test_criterion_04_association_repair_second_seed(outroot):
    """Criterion 04 at a second fixed seed, 0, where the cm-q3 order read
    4.23 while the members carried a mass defect of a few 1e-14: chosen
    because the floor showed there, not because it passes."""
    cfg = ScenarioConfig("association", seed=0,
                         out=os.path.join(outroot, "association-seed0"))
    res = run_scenario(cfg)
    orders = {a.name: float(a.observed) for a in _records(res, "cm-q")}
    ok = (res.passed and len(orders) == 3
          and orders["cm-q3-order"] >= 3 + 2 - 0.2)
    _report(4, "embedded product gap at seed 0", ok)


@pytest.mark.parametrize("seed", [0, 7])
def test_criterion_04_negative_control(seed):
    """The order test has teeth: on a strict-A_1 full-path battery the gap
    iota(x)^2 - iota(x^2) = -eps^2 m_2 decays at order 2 only, so it must
    fail the q + 2 - 0.2 = 2.8 threshold that criterion 04 applies."""
    om = Box.interval(-2.5, 2.5)
    ix = embed_C(smooth_density("x"), omega=om)
    ix2 = embed_C(smooth_density("x2"), omega=om)
    gap = sub(mul(ix, ix), ix2)
    # the battery and grid of the scenario's cm-q1 check, strict members
    bat = make_battery("full_path", 1, 4, seed + 17 + 1, flavor="strict")
    spec = SweepSpec(i_min=2, i_max=8, K=np.linspace(-1.0, 1.0, 21),
                     fit_window=5)
    worst = min(v.slope for v in moderate(gap, bat, spec).verdicts)
    assert abs(worst - 2.0) <= 0.05
    assert not worst >= 1 + 2 - 0.2


def test_criterion_05_moment_invariance(outroot):
    """Transformed strict-A_q paths keep moments 1..q at order q and unit
    mass to 1e-9, for all three catalog maps and q in {2, 4}."""
    res = _run("moment-invariance", outroot, seed=11)
    orders = _records(res, "-orders")
    masses = _records(res, "-mass")
    ok = (res.passed and len(orders) == 3 * 2 * 4
          and all(float(a.observed) <= 1e-9 for a in masses))
    _report(5, "transformed moment decay + mass", ok)


def test_criterion_06_counterexample(outroot):
    """|R| = 1 and N = 0 on the eps-only battery; the pullback along
    x + sin(x)/4 has strictly growing log-slopes (ratio >= 10):
    super-polynomial, not moderate."""
    res = _run("counterexample", outroot, seed=13)
    ratio = float(_records(res, "slope-ratio")[0].observed)
    ok = res.passed and ratio >= 10
    _report(6, "oscillatory counterexample", ok)


def test_criterion_07_jformalism_commutation(outroot):
    """|D_j iota^J(F) - iota^J(dF)| <= 1e-8 over the distribution battery;
    C/J round trip bit-identical."""
    res = _run("jform-commute", outroot, seed=7)
    rt = _records(res, "roundtrip")[0]
    ok = res.passed and float(rt.observed) == 0.0
    for a in _records(res, "commute-"):
        ok = ok and float(a.observed) <= 1e-8
    _report(7, "J-formalism commutation", ok)


def test_criterion_08_functoriality(outroot):
    """Identity pullback bit-identical; composed vs sequential pullbacks to
    1e-9; embedding commutes with the action to 1e-8."""
    res = _run("pullback-functor", outroot, seed=7)
    ident = _records(res, "identity-bit-identical")[0]
    functo = _records(res, "functoriality")[0]
    ok = (res.passed and float(ident.observed) == 0.0
          and float(functo.observed) <= 1e-9)
    for a in _records(res, "embed-commutes-"):
        ok = ok and float(a.observed) <= 1e-8
    _report(8, "pullback functoriality", ok)


def test_criterion_09_test_equivalence(outroot):
    """The differential-form test and the insertion test agree on every
    catalog representative, the counterexample included."""
    res = _run("d1-form", outroot, seed=7)
    agreements = _records(res, "-agreement")
    ok = res.passed and len(agreements) == 5
    ce = [a for a in agreements if "counterexample" in a.name][0]
    ok = ok and "d1=False/mod=False" in ce.observed
    _report(9, "d1-form vs insertion agreement", ok)


def test_criterion_10_determinism(outroot):
    """Identical config and seed give byte-identical CSV outputs."""
    blobs = []
    for tag in ("r1", "r2"):
        out = os.path.join(outroot, f"det-{tag}")
        cfg = ScenarioConfig("delta-scaling", battery_count=2, k_points=11,
                             eps_max=10, seed=5, out=out)
        res = run_scenario(cfg)
        assert res.passed
        blob = {}
        for name in sorted(os.listdir(out)):
            if name != "run_log.txt":
                blob[name] = open(os.path.join(out, name), "rb").read()
        blobs.append(blob)
    ok = blobs[0] == blobs[1] and len(blobs[0]) >= 2
    _report(10, "byte-identical reruns", ok)
