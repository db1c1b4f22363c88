#!/usr/bin/env python3
"""Run every named scenario and collect the verdicts.

Usage:
    python scripts/run_all_scenarios.py [--out DIR] [--seed N | --seeds A-B]

Writes each scenario's CSVs under DIR/<scenario>/ and prints a one-line
verdict per scenario on standard output, ending in the first 16 hex digits
of the sha256 of that scenario's CSVs (names and bytes; the run-log sidecar
is left out).  Wall times go to standard error, so the standard output of
two checkouts at the same seed differs exactly when their CSVs do:

    python scripts/run_all_scenarios.py --out a > a.txt   # one checkout
    python scripts/run_all_scenarios.py --out b > b.txt   # the other
    diff a.txt b.txt

``--seeds A-B`` runs every seed from A to B inclusive, writes under
DIR/seed<S>/<scenario>/ and starts each scenario's lines with ``seed=<S> ``,
so one run per checkout and one diff compare a whole seed range.
The seeds run in one worker process per usable core; each seed's lines are
printed in seed order, so standard output does not depend on the core count.

Exits nonzero if any scenario assertion failed.
"""

import argparse
import hashlib
import multiprocessing
import os
import sys
import time
import traceback
from pathlib import Path

# run from a fresh checkout without installing: import the lab from its src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gfn_lab.scenarios import SCENARIO_NAMES, ScenarioConfig, run_scenario


def csv_digest(files) -> str:
    """sha256 over the names and bytes of the CSVs among ``files``, in name
    order, as perfbench/run.py computes it; the first 16 hex digits."""
    h = hashlib.sha256()
    for path in sorted(f for f in files if f.endswith(".csv")):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()[:16]


def seed_range(text: str) -> range:
    """``A-B`` as the inclusive range of seeds A..B."""
    try:
        a, b = (int(v) for v in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}")
    if b < a:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(a, b + 1)


def run_seed(seed: int, out: str, tag: str, names=SCENARIO_NAMES,
             emit=print) -> list:
    """Run the scenarios ``names`` at ``seed`` under ``out``, passing each
    verdict line, which starts with ``tag``, to ``emit`` as its scenario
    finishes; the failed scenarios."""
    failures = []
    for name in names:
        cfg = ScenarioConfig(name, seed=seed, out=os.path.join(out, name))
        t0 = time.time()
        res = run_scenario(cfg)
        n_ok = sum(a.passed for a in res.assertions)
        emit(f"{tag}{name:20s} {'PASS' if res.passed else 'FAIL':4s} "
             f"{n_ok}/{len(res.assertions)} assertions "
             f"({len(res.files)} files) sha256 {csv_digest(res.files)}")
        print(f"{tag}{name:20s} {time.time() - t0:5.1f}s", file=sys.stderr,
              flush=True)
        if not res.passed:
            failures.append(f"{tag}{name}")
            for a in res.assertions:
                if not a.passed:
                    emit(f"{tag}    FAIL {a.name}: {a.observed} "
                         f"(want {a.threshold})")
    return failures


def run_seed_task(task: tuple) -> tuple:
    """``run_seed(*task)`` in a worker process: its verdict lines, its
    failed scenarios, and the traceback of a scenario that raised (None if
    none did; the lines before it are kept)."""
    lines = []
    try:
        return lines, run_seed(*task, emit=lines.append), None
    except Exception:
        return lines, [], traceback.format_exc()


def run_seeds(seeds, out: str, names=SCENARIO_NAMES) -> list:
    """Run every seed of ``seeds`` under ``out``/seed<S>, one worker process
    per usable core, and print each seed's lines in seed order; the failed
    scenarios.  A scenario that raises ends the run with its traceback, as
    it would in one process."""
    tasks = [(seed, os.path.join(out, f"seed{seed}"), f"seed={seed} ", names)
             for seed in seeds]
    workers = min(len(tasks), len(os.sched_getaffinity(0)))
    failures = []
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        for lines, failed, error in pool.imap(run_seed_task, tasks):
            for line in lines:
                print(line)
            if error is not None:
                sys.exit(error)
            failures += failed
    return failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    which = ap.add_mutually_exclusive_group()
    which.add_argument("--seed", type=int, default=7)
    which.add_argument("--seeds", type=seed_range, metavar="A-B")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)

    if args.seeds is None:
        failures = run_seed(args.seed, args.out, "")
    else:
        failures = run_seeds(args.seeds, args.out)
    if failures:
        print(f"\nfailed scenarios: {', '.join(failures)}")
        return 1
    print("\nall scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
