#!/usr/bin/env python3
"""gfn-lab benchmark: three scenario workloads timed end to end, and a
traced run that reports per-module counts and self times.

    python3 perfbench/run.py --workload insertion --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 7        # all three workloads in turn

Run from the root of a checkout; the lab is imported from its ``src``.
``--trace 0`` alternates warm in-process passes with fresh-interpreter CLI
passes, then times fresh-interpreter imports; the passes are timed at a
reference machine speed sampled while they run (perfbench/speed.py).
``--trace 1`` alternates untraced and traced passes in this process and
reports the per-layer metrics.  Every run checks that each scenario's
CSVs are byte-identical across its passes.  Metric names and units come
from BENCHMARK.json.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Notes on the design are in
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: each workload runs these scenarios, at their default config
WORKLOADS = {
    "insertion": ("embed-order", "association", "delta-scaling"),
    "directional": ("d1-form",),
    "transport": ("moment-invariance", "counterexample", "pullback-functor",
                  "jform-commute", "mollifier"),
}

#: fresh-interpreter imports per run; setup_s is their median
SETUP_REPEATS = 15
SETUP_CODE = ("import time; t0 = time.perf_counter(); "
              "import gfn_lab.scenarios, gfn_lab.cli; "
              "print(time.perf_counter() - t0)")

#: a CLI scenario run that takes longer than this counts as raised
CLI_TIMEOUT_S = 60


def lab_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_lab():
    """Import the lab from this checkout's src; exit nonzero without it."""
    if not (SRC / "gfn_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gfn_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gfn_lab.scenarios as scenarios
    if Path(scenarios.__file__).resolve().parent != SRC / "gfn_lab":
        sys.exit(f"perfbench: gfn_lab imported from {scenarios.__file__}, "
                 f"not from {SRC}")
    return scenarios


def csv_digest(outdir: Path) -> str:
    """sha256 over the names and bytes of a scenario's CSVs (the run log,
    which carries timestamps, is not a CSV)."""
    h = hashlib.sha256()
    for path in sorted(outdir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Tally:
    """Scenario outcomes of one run: assertions and raised scenarios
    attempted and failed, and the CSV digests seen per scenario."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}

    def record(self, path: str, scenario: str, outcome):
        """``outcome`` is (n_assertions, n_failed, digest), or None when
        the scenario raised."""
        if outcome is None:
            self.attempted += 1
            self.failed += 1
            digest = None
        else:
            n, bad, digest = outcome
            self.attempted += n
            self.failed += bad
        self.digests.setdefault(scenario, {}).setdefault(path, []).append(digest)

    def deterministic(self) -> bool:
        """Every pass of every path gave the same CSVs for each scenario."""
        return all(len({d for ds in paths.values() for d in ds}) == 1
                   for paths in self.digests.values())


def warm_pass(scenarios, names, seed, outdir: Path, overrides, tally, path,
              span=None, interval=None):
    """Run the scenarios in this process; returns the speed.Sampler that
    timed the pass, sampling every ``interval`` seconds (None: never)."""
    with speed.Sampler(interval) as timer:
        for name in names:
            out = outdir / name
            cfg = scenarios.ScenarioConfig(name, seed=seed, out=str(out),
                                           **overrides)
            try:
                if span is None:
                    res = scenarios.run_scenario(cfg)
                else:
                    with span(f"scenarios.{name}"):
                        res = scenarios.run_scenario(cfg)
            except Exception:  # a raised scenario is a counted failure
                traceback.print_exc()
                tally.record(path, name, None)
                continue
            bad = sum(not a.passed for a in res.assertions)
            tally.record(path, name,
                         (len(res.assertions), bad, csv_digest(out)))
    return timer


def summary_outcome(out: Path, name: str):
    """(assertions, failed, digest) from a CLI run's summary CSV."""
    with open(out / f"{name}_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), sum(r["passed"] != "pass" for r in rows), csv_digest(out)


def cold_pass(names, seed, outdir: Path, overrides, tally):
    """One fresh interpreter per scenario running ``gfn_lab.cli`` as
    ``python -m`` does, sampled by perfbench/speed.py; returns the sum of
    their wall times and that sum at the reference speed.  The seed is
    passed explicitly (see NOTES.md)."""
    total = total_ref = 0.0
    outdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        out = outdir / name
        report = outdir / f"{name}.speed.json"
        cmd = [sys.executable, str(HERE / "speed.py"), str(report),
               "gfn_lab.cli", name, "--seed", str(seed), "--out", str(out),
               "--quiet"]
        if overrides:
            out.mkdir()
            cfg = outdir / f"{name}.json"
            cfg.write_text(json.dumps(overrides))
            cmd += ["--config", str(cfg)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=lab_env(),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - t0
        sampled = (json.loads(report.read_text()) if report.is_file() else
                   {"busy": 0.0, "samples": [speed.kernel()]})
        wall -= sampled["busy"]
        total += wall
        total_ref += speed.at_reference(wall, sampled["samples"])
        # exit status 1 is both a failed assertion and an uncaught
        # exception; only a completed scenario leaves its summary
        if proc is not None and (out / f"{name}_summary.csv").is_file():
            tally.record("cli", name, summary_outcome(out, name))
        else:
            if proc is not None:
                sys.stderr.write(proc.stderr)
            tally.record("cli", name, None)
    return total, total_ref


def setup_times(repeats: int) -> list:
    """Import time of the lab in fresh interpreters, as measured: an
    import is too short to sample the machine's speed during, and a few
    kernel runs around it are noisier than the import itself."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=lab_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def repeat(step, budget: float) -> list:
    """Call ``step(k)`` for k = 0, 1, ... once, then again while a call as
    long as the longest so far still ends within ``budget`` seconds of the
    start; returns the results."""
    results, longest = [], 0.0
    start = time.perf_counter()
    while not results or time.perf_counter() - start + longest <= budget:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        longest = max(longest, time.perf_counter() - t0)
    return results


def measure(workload, seed, seconds, trace, overrides, workdir: Path,
            spec) -> dict:
    """One benchmark run; returns the result object printed last."""
    scenarios = load_lab()
    names = WORKLOADS[workload]
    tally = Tally()
    record = {"workload": workload, "seed": seed, "trace": trace,
              "scenarios": list(names), "overrides": overrides}

    def untraced(k, interval=None):
        return warm_pass(scenarios, names, seed, workdir / f"warm{k}",
                         overrides, tally, "warm", interval=interval)

    # the two kinds of pass alternate, so both sample the whole run
    if not trace:
        warm, cold = map(list, zip(*repeat(lambda k: (
            untraced(k, speed.INTERVAL_S),
            cold_pass(names, seed, workdir / f"cold{k}", overrides, tally)),
            seconds)))
        setup = setup_times(SETUP_REPEATS)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        warm_ref = [t.seconds() for t in warm]
        values = {"pass_s": statistics.median(warm_ref),
                  "cold_pass_s": statistics.median(c[1] for c in cold),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss_mb}
        # the raw wall times are kept beside the reference-speed ones
        record.update(pass_s=warm_ref, pass_walls=[t.wall for t in warm],
                      cold_pass_s=[c[1] for c in cold],
                      cold_walls=[c[0] for c in cold], setup_walls=setup)
        metrics = spec["end_to_end"]
    else:
        import bench_trace
        tracer = bench_trace.Tracer()

        def untraced_then_traced(k):
            wall = untraced(k).wall
            with bench_trace.instrumented(tracer):
                return wall, warm_pass(scenarios, names, seed,
                                       workdir / f"traced{k}", overrides,
                                       tally, "traced", span=tracer.span).wall

        warm, traced = map(list, zip(*repeat(untraced_then_traced, seconds)))
        values = {}
        for m in spec["per_layer"]:
            layer, _, field = m["name"].rpartition(".")
            if m["name"] == "trace.overhead_frac":
                values[m["name"]] = (statistics.median(traced)
                                     / statistics.median(warm) - 1.0)
            else:
                values[m["name"]] = tracer.metric(layer, field) / len(traced)
        record.update(pass_walls=warm, traced_walls=traced,
                      spans=tracer.spans)
        metrics = spec["per_layer"]

    record["digests"] = tally.digests
    record["failed_frac"] = tally.failed / tally.attempted
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    for name in names:
        print(f"digest {name}: {tally.digests[name]['warm'][0]}")
    for m in metrics:
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print(f"failed_frac: {record['failed_frac']:.6g} ratio "
          f"({tally.failed} of {tally.attempted} attempted)")
    return {"correct": tally.deterministic(), "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in metrics}}


def main(argv=None, overrides=None) -> int:
    """Entry point; ``overrides`` are ScenarioConfig fields for a reduced
    run (the harness self-test), empty for the benchmark proper."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="the workload to run; all of them in turn, each in "
                    "its own process, when omitted")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload is None:
        codes = []
        for workload in WORKLOADS:
            print(f"== {workload}", flush=True)
            codes.append(subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode)
        return max(codes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), dict(overrides or {}), workdir,
                         spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # on SIGTERM unwind normally, so a running CLI child is killed and
    # waited for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
