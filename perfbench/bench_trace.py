"""Per-module tracing for the benchmark's traced run.

The traced run wraps the public functions of the gfn_lab modules from the
outside: every name a function is bound to (``from .testfunc import scale``
binds ``scale`` again in each importing module) is replaced by one wrapper,
methods are wrapped on their class, and catalog maps are wrapped where
``scenarios`` looks them up through ``get_diffeo``.  Private ``_`` helpers
are never wrapped.  Every wrapped name is restored when the run ends.

Each wrapped call is a span on one stack.  A span's self time is its
duration minus the time covered by its child spans.  Calls, total and self
time are aggregated per span name; scenario- and sweep-level spans are also
kept whole, with their parent, and written out when the run ends.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: span names kept whole (start, end, parent) besides the aggregates
KEPT_PREFIXES = ("scenarios.", "asymptotics.sweep")

#: distribution kinds whose pairings are reported separately
PAIR_KINDS = ("smooth", "dirac", "heaviside", "pullback")


class Tracer:
    """Span stack with per-name aggregates and extra per-name counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.known: set = set()
        self.spans: list = []
        self._stack: list = []   # one [child_time] cell per open span
        self._kept: list = []    # indices into self.spans of open kept spans
        self._origin = perf_counter()

    def _open(self, name):
        if name.startswith(KEPT_PREFIXES):
            parent = self._kept[-1] if self._kept else None
            self._kept.append(len(self.spans))
            self.spans.append({"name": name, "parent": parent})
        self._stack.append([0.0])
        return perf_counter()

    def _close(self, name, t0):
        t1 = perf_counter()
        dt = t1 - t0
        child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dt
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - child
        if name.startswith(KEPT_PREFIXES):
            span = self.spans[self._kept.pop()]
            span["start"], span["end"] = t0 - self._origin, t1 - self._origin

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) as a span called ``name``."""
        t0 = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, t0)

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        t0 = self._open(name)
        try:
            yield
        finally:
            self._close(name, t0)

    def wrap(self, fn, name, counter=None):
        """Wrapper of ``fn`` recording a span per call.

        ``name`` is a span name or a function of the call's positional
        arguments returning one; ``counter(args, result)`` returns extra
        counts to add under ``<span name>.<key>``.
        """
        if isinstance(name, str):
            self.known.add(name)

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            result = self.call(span_name, fn, args, kwargs)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[f"{span_name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def metric(self, layer: str, field: str) -> float:
        """Aggregate ``field`` of span ``layer``: calls, self_s, total_s,
        wall_s (total time of a benchmark-side span) or an extra counter."""
        if layer not in self.known:
            raise KeyError(f"no traced layer named {layer!r}")
        if field == "calls":
            return self.calls[layer]
        if field == "self_s":
            return self.self_time[layer]
        if field in ("total_s", "wall_s"):
            return self.total[layer]
        return self.counts[f"{layer}.{field}"]


def _size(args, result):
    return {"points": np.size(args[0])}


def _grid_nodes(args, result):
    return {"nodes": len(result[0])}


def _rejected(args, result):
    return {"rejected": 0 if result else 1}


def _sweep_rows(args, result):
    spec = args[2]
    rows = len(spec.eps) * len(spec.alphas)
    return {"rows": rows, "points": rows * len(spec.K)}


def _csv_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the lab's public functions for the duration of the block.

    Yields the list of (owner, attribute, original) patches; every one is
    restored on exit, also when the block raises.
    """
    from gfn_lab import (asymptotics, basic_space, diffeo, distributions,
                         numdiff, scenarios, test_objects, testfunc)

    modules = (testfunc, numdiff, distributions, basic_space, test_objects,
               asymptotics, diffeo, scenarios)
    patches: list = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def bind(fn, replacement):
        """Replace ``fn`` at every module attribute bound to it."""
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                patch(mod, attr, replacement)

    def function(fn, name, counter=None):
        bind(fn, tracer.wrap(fn, name, counter))

    def method(cls, attr, name, counter=None):
        patch(cls, attr, tracer.wrap(vars(cls)[attr], name, counter))

    try:
        tf = testfunc
        function(tf.bump, "testfunc.bump", _size)
        function(tf.support_grid, "testfunc.support_grid", _grid_nodes)
        function(tf.moment, "testfunc.moment")
        function(tf.moments_upto, "testfunc.moments_upto")
        function(tf.scale, "testfunc.scale")
        function(tf.translate, "testfunc.translate")
        function(tf.tf_lincomb, "testfunc.tf_lincomb")
        function(tf.build_mollifier, "testfunc.build_mollifier")

        tracer.known.update(f"distributions.pair.{k}" for k in PAIR_KINDS)
        function(distributions.pair,
                 lambda args: f"distributions.pair.{args[0].kind}")
        function(distributions.pullback_test_function,
                 "distributions.pullback_test_function")

        bs = basic_space
        method(bs.Representative, "__call__", "basic_space.insertion")
        function(bs.partial_x, "basic_space.partial_x")
        function(bs.d1_derivative, "basic_space.d1_derivative")
        method(bs.ExpExpRepresentative, "log_abs_dx", "basic_space.log_abs_dx")
        method(bs.ExpExpRepresentative, "log_abs_d1", "basic_space.log_abs_d1")
        # the factory is cheap; the transforms it returns do the work
        tracer.known.add("basic_space.pullback_transform")
        make_transform = bs.pullback_pair_transform
        bind(make_transform, lambda mu: tracer.wrap(
            make_transform(mu), "basic_space.pullback_transform"))

        method(test_objects.TestObjectPath, "__call__", "test_objects.member")
        function(test_objects.make_battery, "test_objects.make_battery")
        function(test_objects.check_moment_class,
                 "test_objects.check_moment_class")

        asy = asymptotics
        function(asy.sweep, "asymptotics.sweep", _sweep_rows)
        function(asy.fit_order, "asymptotics.fit_order")
        function(asy.d1_form_test, "asymptotics.d1_form_test")
        function(asy.counterexample_scenario,
                 "asymptotics.counterexample_scenario")
        function(asy.write_sweep_csv, "asymptotics.csv", _csv_bytes)
        function(asy.emit_plotdata, "asymptotics.csv", _csv_bytes)

        function(numdiff.richardson_derivative, "numdiff.richardson_derivative")
        function(numdiff.central_difference, "numdiff.central_difference")

        function(diffeo.transform_test_object, "diffeo.transform_test_object")
        function(diffeo.check_Z_requirements, "diffeo.check_Z_requirements")
        method(diffeo.PartialDomain, "contains", "diffeo.domain_contains",
               _rejected)
        tracer.known.update(("diffeo.inverse", "diffeo.det_d_inverse"))
        get_diffeo = scenarios.get_diffeo

        def traced_get_diffeo(*args, **kwargs):
            mu = get_diffeo(*args, **kwargs)
            mu.inverse = tracer.wrap(mu.inverse, "diffeo.inverse", _size)
            mu.det_d_inverse = tracer.wrap(mu.det_d_inverse,
                                           "diffeo.det_d_inverse")
            return mu

        patch(scenarios, "get_diffeo", traced_get_diffeo)
        # the benchmark opens these spans around run_scenario itself
        tracer.known.update(f"scenarios.{n}" for n in scenarios.SCENARIO_NAMES)
        yield patches
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
