"""Tier-1 guard on the benchmark's traced bindings.

The benchmark's traced run wraps the lab's public functions and methods by
name (perfbench/bench_trace.py), so deleting or renaming a traced name
breaks every traced run.  This runs the benchmark harness's own test of
that instrumentation, imported from perfbench/tests, inside the tier-1
suite.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
for p in (BENCH, BENCH / "tests"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from test_harness import (  # noqa: E402,F401
    test_instrumentation_wraps_every_binding_site_and_restores_on_error)
