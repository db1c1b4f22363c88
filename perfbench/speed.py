"""Machine-speed sampling for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by about ±20% over
tens of seconds, as other tenants load the machine.  A pass of
``directional`` or ``insertion`` takes 10 to 15 s, so that drift, not the
lab, would decide its wall time.  While a timed pass runs, a ``Sampler``
interrupts it every ``INTERVAL_S`` seconds (SIGALRM) and times one run of
``kernel``, a fixed piece of numpy work in the lab's style that is written
here and shares no code with the lab.  The time spent in the handler is
taken out of the pass, and the kernel times say how fast the machine ran
meanwhile.  Their mean leaves out the slowest tenth: a rare stall of the
host that lands on a 4 ms sample would weigh far more there than on the
pass.  A pass is reported at the reference speed:

    seconds = (wall - time in the handler) * REF_KERNEL_S / kernel time

so a lab that does less work reads lower in proportion, while the host's
drift cancels.  Run as a script, it samples a module run in a fresh
interpreter, as ``python -m`` would run it:

    python3 perfbench/speed.py REPORT.json MODULE [ARG ...]

and writes the handler time and the kernel times to REPORT.json, also
when the module exits with an error.
"""

from __future__ import annotations

import json
import runpy
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

#: seconds between two kernel samples during a pass
INTERVAL_S = 0.1
#: share of the slowest kernel samples left out of their mean
TRIM = 0.1
#: nominal seconds of one kernel run: the reference speed times are given at
REF_KERNEL_S = 0.004

#: (grid, bump evaluations) for each array size the kernel covers
_GRIDS = ((np.linspace(-1.0, 1.0, 257), 40),
          (np.linspace(-1.0, 1.0, 2049), 24),
          (np.linspace(-1.0, 1.0, 1 << 15), 1))


def _bump(x, c, r):
    y = (x - c) / r
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


def kernel() -> float:
    """Seconds for a fixed piece of work with the lab's mix, about 1 ms
    of each part: interpreted calls and dict updates, and a shifted bump
    evaluated and summed on small, medium and large grids.  The host's
    drift moves these parts by different amounts, and their sum follows
    the lab's passes more closely than any one of them."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + _mix(i)
    for grid, steps in _GRIDS:
        for k in range(steps):
            v = _bump(grid, 0.05 * (k % 9) - 0.2, 0.7) * (1.0 + grid)
            float((v[1:] + v[:-1]).sum())
    return time.perf_counter() - t0


def _mix(i, b=3):
    return (i * b + 1) & 7


def at_reference(wall: float, samples) -> float:
    """``wall`` seconds, measured while the kernel took ``samples``
    seconds, converted to the reference speed."""
    kept = sorted(samples)[:len(samples) - int(TRIM * len(samples))]
    return wall * REF_KERNEL_S / statistics.fmean(kept)


class Sampler:
    """Times the block it guards and samples the machine's speed.

    ``wall`` is the block's wall time without the time spent sampling.
    ``interval=None`` times the block without interrupting it; the speed
    then comes from one sample taken after the block.  The previous
    SIGALRM handler is restored and the timer disarmed on exit.
    """

    def __init__(self, interval: float | None = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.busy = 0.0
        self.wall = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._t0 - self.busy
        if self.interval:
            signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(kernel())
        return False

    def seconds(self) -> float:
        """The block's wall time at the reference speed."""
        return at_reference(self.wall, self.samples)


def main(argv) -> None:
    report, module, *args = argv
    sampler = Sampler()
    sys.argv = [module, *args]
    try:
        with sampler:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        Path(report).write_text(json.dumps(
            {"busy": sampler.busy, "samples": sampler.samples}))


if __name__ == "__main__":
    main(sys.argv[1:])
