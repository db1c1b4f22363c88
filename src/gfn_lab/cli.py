"""Command-line scenario runner.

    gfn <scenario> [--config FILE] [--q N] [--eps-min I] [--eps-max I]
                   [--diffeo NAME] [--seed N] [--out DIR] [--count N]
                   [--k-points N] [--quad-n N] [--quiet]

Config files are JSON with keys matching the scenario config fields; flags
override file keys.  Exit status 0 means every scenario assertion passed,
1 that one failed, and 2 bad usage: an invalid setting, also one found
mid-run, such as an ``omega`` that a scenario's points or supports leave.
"""

from __future__ import annotations

import argparse
import sys

from .scenarios import SCENARIO_NAMES, ScenarioConfig, run_scenario
from .testfunc import DomainError


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gfn",
        description="Scenario runner for the generalized-function laboratory")
    ap.add_argument("scenario", help=f"one of: {', '.join(SCENARIO_NAMES)}")
    ap.add_argument("--config", help="JSON config file", default=None)
    ap.add_argument("--q", type=int, default=None,
                    help="moment order (scenario default otherwise)")
    ap.add_argument("--eps-min", dest="eps_min", type=int, default=None,
                    help="smallest i in eps = 2^-i")
    ap.add_argument("--eps-max", dest="eps_max", type=int, default=None,
                    help="largest i in eps = 2^-i")
    ap.add_argument("--diffeo", default=None, help="catalog map name")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--count", dest="battery_count", type=int, default=None,
                    help="members of every battery (each one's own size "
                         "otherwise)")
    ap.add_argument("--k-points", dest="k_points", type=int, default=None)
    ap.add_argument("--quad-n", dest="quad_n", type=int, default=None)
    ap.add_argument("--quiet", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("scenario", "config", "quiet")}
    try:
        cfg = ScenarioConfig.from_sources(args.scenario, args.config, overrides)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"gfn: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_scenario(cfg)
    except DomainError as exc:
        print(f"gfn: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for a in result.assertions:
            tag = "pass" if a.passed else "FAIL"
            print(f"[{tag}] {cfg.scenario}/{a.name}: {a.observed} "
                  f"(want {a.threshold})")
        print(f"{cfg.scenario}: {'PASS' if result.passed else 'FAIL'} "
              f"({len(result.files)} files in {cfg.out})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
