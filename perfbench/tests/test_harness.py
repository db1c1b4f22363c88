"""Self-test of the benchmark harness at a reduced scenario config.

    python -m pytest perfbench/tests -q

Runs the transport workload with q = 2 and 256 quadrature panels, so a
run takes seconds; the verdicts at this config are not the point, the
harness is.
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bench_trace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

REDUCED = {"q": 2, "quad_n": 256}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, trace):
    argv = ["--workload", "transport", "--seed", "7", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, overrides=REDUCED) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _lab_bindings():
    """Every attribute of the lab's modules and of their classes."""
    from gfn_lab import (asymptotics, basic_space, cli, diffeo,
                         distributions, numdiff, scenarios, test_objects,
                         testfunc)
    owners = [asymptotics, basic_space, cli, diffeo, distributions, numdiff,
              scenarios, test_objects, testfunc]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("gfn_lab")]
    return {(id(o), a): v for o in owners for a, v in list(vars(o).items())}


def test_every_end_to_end_metric_prints_with_its_unit(capsys):
    lines, result = _run(capsys, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert any(re.fullmatch(rf"{re.escape(name)}: \S+ {re.escape(unit)}",
                                line) for line in lines), name


def test_traced_run_reports_layers_and_restores_every_binding(capsys):
    run.load_lab()
    before = _lab_bindings()
    lines, result = _run(capsys, trace=1)
    assert result["correct"] is True  # traced digests equal untraced ones
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["diffeo.inverse.calls"]["value"] > 0
    after = _lab_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_instrumentation_wraps_every_binding_site_and_restores_on_error():
    from gfn_lab import asymptotics, basic_space, distributions, testfunc
    from gfn_lab import scenarios
    originals = (testfunc.scale, distributions.pair)
    with pytest.raises(RuntimeError):
        with bench_trace.instrumented(bench_trace.Tracer()) as patches:
            for mod in (testfunc, basic_space, asymptotics, scenarios):
                assert mod.scale.__wrapped__ is originals[0]
            assert basic_space.pair.__wrapped__ is originals[1]
            assert all(not a.startswith("_") or a.endswith("__")
                       for _, a, _ in patches)
            raise RuntimeError("abort the traced block")
    assert all(vars(owner)[attr] is original
               for owner, attr, original in patches)


def test_self_time_excludes_child_spans():
    tracer = bench_trace.Tracer()
    with tracer.span("scenarios.mollifier"):
        tracer.wrap(lambda: tracer.wrap(sum, "child")([1, 2]), "parent")()
    assert tracer.calls["parent"] == tracer.calls["child"] == 1
    assert tracer.self_time["parent"] == pytest.approx(
        tracer.total["parent"] - tracer.total["child"])
    assert tracer.spans[0]["name"] == "scenarios.mollifier"


def test_sampler_leaves_its_samples_out_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(0.01) as timer:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(timer.samples) >= 5 and timer.busy > 0
    assert timer.wall + timer.busy == pytest.approx(0.3, abs=0.02)
    assert timer.seconds() > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_lab(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
