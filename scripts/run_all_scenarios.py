#!/usr/bin/env python3
"""Run every named scenario and collect the verdicts.

Usage:
    python scripts/run_all_scenarios.py [--out DIR] [--seed N]

Writes each scenario's CSVs under DIR/<scenario>/ and prints a one-line
verdict per scenario on standard output, ending in the first 16 hex digits
of the sha256 of that scenario's CSVs (names and bytes; the run-log sidecar
is left out).  Wall times go to standard error, so the standard output of
two checkouts at the same seed differs exactly when their CSVs do:

    python scripts/run_all_scenarios.py --out a > a.txt   # one checkout
    python scripts/run_all_scenarios.py --out b > b.txt   # the other
    diff a.txt b.txt

Exits nonzero if any scenario assertion failed.
"""

import argparse
import hashlib
import os
import sys
import time
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


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    failures = []
    for name in SCENARIO_NAMES:
        cfg = ScenarioConfig(name, seed=args.seed,
                             out=os.path.join(args.out, name))
        t0 = time.time()
        res = run_scenario(cfg)
        n_ok = sum(a.passed for a in res.assertions)
        print(f"{name:20s} {'PASS' if res.passed else 'FAIL':4s} "
              f"{n_ok}/{len(res.assertions)} assertions "
              f"({len(res.files)} files) sha256 {csv_digest(res.files)}",
              flush=True)
        print(f"{name:20s} {time.time() - t0:5.1f}s", file=sys.stderr)
        if not res.passed:
            failures.append(name)
            for a in res.assertions:
                if not a.passed:
                    print(f"    FAIL {a.name}: {a.observed} (want {a.threshold})")
    if failures:
        print(f"\nfailed scenarios: {', '.join(failures)}")
        return 1
    print("\nall scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
