#!/usr/bin/env python3
"""A/B timer for two checkouts that cancels the host's speed drift.

Usage:
    python scripts/alternate.py OLD NEW [--scenarios a,b] [--seed S]
                                [--rounds N]

OLD and NEW are the roots of two checkouts of the lab.  Each gets one
long-lived worker process that imports the lab from its own ``src`` and
runs the named scenarios (default: every scenario) at the seed, one warm
pass per request, writing their CSVs to a temporary directory.  After one
untimed pass on each side, the rounds alternate passes between the two
workers, swapping which side goes first every round, so a slow stretch of
the host lands on both sides alike.

Prints each round's pass times and the ratio NEW / OLD, then each side's
median, the median per-round ratio, how many rounds each side won, and
each side's failed assertions.  Exits nonzero if any assertion failed.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: the worker: reads one JSON request a line, runs the scenarios, and
#: answers with the pass time and the failed assertions, one JSON a line
WORKER = r"""
import json, os, sys, time
sys.path.insert(0, sys.argv[1])
from gfn_lab.scenarios import ScenarioConfig, run_scenario
out = sys.argv[2]
for line in sys.stdin:
    req = json.loads(line)
    failed, t0 = [], time.perf_counter()
    for name in req["scenarios"]:
        cfg = ScenarioConfig(name, seed=req["seed"],
                             out=os.path.join(out, name))
        failed += [f"{name}:{a.name}" for a in run_scenario(cfg).assertions
                   if not a.passed]
    print(json.dumps({"seconds": time.perf_counter() - t0,
                      "failed": failed}), flush=True)
"""


class Worker:
    """One checkout's long-lived worker process."""

    def __init__(self, root: Path, out: Path):
        src = root / "src"
        if not (src / "gfn_lab").is_dir():
            sys.exit(f"{root}: no src/gfn_lab here")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(src), str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, request: str) -> dict:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"a worker exited (status {self.proc.wait()})")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--scenarios", default=None,
                    help="comma-separated scenario names (default: all)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.path.insert(0, str(args.new / "src"))
    from gfn_lab.scenarios import SCENARIO_NAMES
    names = (list(SCENARIO_NAMES) if args.scenarios is None
             else args.scenarios.split(","))
    unknown = set(names) - set(SCENARIO_NAMES)
    if unknown:
        ap.error(f"unknown scenarios: {', '.join(sorted(unknown))}")
    request = json.dumps({"scenarios": names, "seed": args.seed})

    tmp = Path(tempfile.mkdtemp(prefix="alternate-"))
    sides = {"old": Worker(args.old, tmp / "old"),
             "new": Worker(args.new, tmp / "new")}
    times = {side: [] for side in sides}
    failed = {side: set() for side in sides}
    try:
        for side, worker in sides.items():  # the untimed warm-up pass
            failed[side].update(worker.run(request)["failed"])
        print(f"{'round':>5} {'old s':>9} {'new s':>9} {'new/old':>8}")
        for i in range(args.rounds):
            order = ["old", "new"] if i % 2 == 0 else ["new", "old"]
            for side in order:
                res = sides[side].run(request)
                times[side].append(res["seconds"])
                failed[side].update(res["failed"])
            old, new = times["old"][-1], times["new"][-1]
            print(f"{i + 1:5d} {old:9.4f} {new:9.4f} {new / old:8.4f}",
                  flush=True)
    finally:
        for worker in sides.values():
            worker.close()
        shutil.rmtree(tmp, ignore_errors=True)

    ratios = [n / o for o, n in zip(times["old"], times["new"])]
    won = sum(r < 1.0 for r in ratios)
    for side in sides:
        print(f"{side} median {statistics.median(times[side]):.4f} s, "
              f"failed assertions: {len(failed[side])}"
              + "".join(f"\n    {name}" for name in sorted(failed[side])))
    print(f"median ratio new/old {statistics.median(ratios):.4f}; "
          f"new faster in {won} of {len(ratios)} rounds, "
          f"old in {len(ratios) - won}")
    return 1 if failed["old"] or failed["new"] else 0


if __name__ == "__main__":
    sys.exit(main())
