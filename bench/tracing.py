"""Span tracer for the traced benchmark run.

The tracer wraps layer-boundary functions of ``detproc`` from outside the
package. A function imported with ``from .core import density_table`` is a
separate binding in every importing module, so each binding that refers to
the original function is replaced; a binding left unwrapped would hide
calls. Spans are kept in memory and reduced to per-layer metrics after the
run.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from detproc.core import ProjectionDensity


def self_times(spans) -> dict:
    """Total self time per span name.

    ``spans`` holds ``(name, start, end, parent)`` tuples, ``parent`` being
    the index of the enclosing span or -1. A span's self time is its
    duration minus the part of ``[start, end]`` covered by the union of its
    child spans.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def _minors(density) -> int:
    """k x k minors the table engine needs: C(p, k) per nonzero-weight active set."""
    p = density.family.p
    if isinstance(density, ProjectionDensity):  # a single active set
        k = len(density.active)
        return math.comb(p, k) if k else 0
    sq = density.spectrum.values ** 2
    forced_in = int((1.0 - sq == 0.0).sum())  # weight 0 unless in the set
    forced_out = int((sq == 0.0).sum())  # weight 0 unless left out
    free = sq.size - forced_in - forced_out
    return sum(math.comb(free, k - forced_in) * math.comb(p, k)
               for k in range(max(forced_in, 1), min(p, sq.size) + 1))


def _count_table(result, args):
    return {"core.density_table.configs": 1 << result.ground.p,
            "core.density_table.minors": _minors(args[0])}


def _count_matrices(result, args):
    return {"core.abs_det_many.matrices": math.prod(np.shape(args[0])[:-2])}


# (span name, defining module, attribute, counter(result, positional args))
FUNCTIONS = [
    ("core.density_table", "detproc.core", "density_table", _count_table),
    ("core.abs_det_many", "detproc.core", "abs_det_many", _count_matrices),
    ("core.haar_orthonormal", "detproc.core", "haar_orthonormal", None),
    ("sampling.sample_dpp", "detproc.sampling", "sample_dpp",
     lambda r, a: {"sampling.sample_dpp.draws": len(r)}),
    ("sampling.sample_table", "detproc.sampling", "sample_table",
     lambda r, a: {"sampling.sample_table.draws": len(r)}),
    ("hellinger.hellinger", "detproc.hellinger", "hellinger", None),
    ("hellinger.check_bound_projection", "detproc.hellinger",
     "check_bound_projection", None),
    ("hellinger.check_bound_mixture", "detproc.hellinger",
     "check_bound_mixture", None),
    ("hellinger.check_bound_dpp", "detproc.hellinger", "check_bound_dpp", None),
    ("hellinger.wedge_coords", "detproc.hellinger", "wedge_coords", None),
    ("estimator.build_candidates", "detproc.estimator", "build_candidates",
     lambda r, a: {"estimator.candidates": len(r)}),
    ("estimator.sphere_net", "detproc.estimator", "sphere_net", None),
    ("estimator.nearest_orthonormal", "detproc.estimator",
     "nearest_orthonormal", None),
    ("estimator.select", "detproc.estimator", "select",
     lambda r, a: {"estimator.select.pairs": len(a[0]) * (len(a[0]) - 1) // 2}),
    ("experiments.run_risk_curve", "detproc.experiments", "run_risk_curve", None),
    ("experiments.run_bounds_sweep", "detproc.experiments", "run_bounds_sweep",
     None),
    ("cli.write", "detproc.experiments", "write_rows_csv",
     lambda r, a: {"cli.write.rows": len(a[2])}),
    ("cli.write", "detproc.core", "write_table_csv",
     lambda r, a: {"cli.write.rows": len(a[0].probs)}),
]

# (span name, defining module, class, method, counter)
METHODS = [
    ("rng.SeededRng", "detproc.rng", "SeededRng", "__init__", None),
    ("cli.write", "detproc.sampling", "SampleSet", "write_csv",
     lambda r, a: {"cli.write.rows": len(a[0])}),
]


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                counters.update(count(result, args))
            return result

        return traced

    def install(self):
        """Wrap every binding of the FUNCTIONS and METHODS entries.

        A name missing from its defining module raises, so a renamed
        function fails the traced run instead of reading as zero calls.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "detproc" or key.startswith("detproc.")]
        for name, module_name, attr, count in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, module_name, cls_name, attr, count in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, count))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def counts(self) -> dict:
        """Calls per span name (as ``<name>.calls``) plus the counters."""
        calls = Counter(span[0] for span in self.spans)
        out = {f"{name}.calls": n for name, n in calls.items()}
        out.update(self.counters)
        return out


def _ratio(a, b) -> float:
    """a / b, reported as 0 when the layer did no work (b == 0)."""
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced command, keyed as in BENCHMARK.json."""
    selfs = defaultdict(float, self_times(tracer.spans))
    counts = defaultdict(int, tracer.counts())
    m = {}
    for layer in ("core.density_table", "core.abs_det_many",
                  "core.haar_orthonormal", "rng.SeededRng",
                  "hellinger.hellinger", "hellinger.check_bound_projection",
                  "hellinger.check_bound_mixture", "hellinger.check_bound_dpp",
                  "hellinger.wedge_coords", "estimator.build_candidates",
                  "estimator.select"):
        m[f"{layer}.calls"] = counts[f"{layer}.calls"]
        m[f"{layer}.self_s"] = selfs[layer]
    m["core.density_table.configs"] = counts["core.density_table.configs"]
    m["core.density_table.minors"] = counts["core.density_table.minors"]
    m["core.abs_det_many.matrices"] = counts["core.abs_det_many.matrices"]
    m["core.abs_det_many.batch_ratio"] = _ratio(
        counts["core.abs_det_many.matrices"], counts["core.abs_det_many.calls"])
    for layer in ("sampling.sample_dpp", "sampling.sample_table"):
        m[f"{layer}.draws"] = counts[f"{layer}.draws"]
        m[f"{layer}.self_s"] = selfs[layer]
    m["sampling.sample_dpp.us_per_draw"] = 1e6 * _ratio(
        selfs["sampling.sample_dpp"], counts["sampling.sample_dpp.draws"])
    m["estimator.sphere_net.self_s"] = selfs["estimator.sphere_net"]
    m["estimator.nearest_orthonormal.calls"] = counts[
        "estimator.nearest_orthonormal.calls"]
    m["estimator.nearest_orthonormal.self_s"] = selfs[
        "estimator.nearest_orthonormal"]
    m["estimator.candidates"] = counts["estimator.candidates"]
    m["estimator.candidate_yield"] = _ratio(
        counts["estimator.candidates"],
        counts["estimator.nearest_orthonormal.calls"])
    m["estimator.select.pairs"] = counts["estimator.select.pairs"]
    m["estimator.select.ns_per_pair"] = 1e9 * _ratio(
        selfs["estimator.select"], counts["estimator.select.pairs"])
    m["experiments.run_risk_curve.self_s"] = selfs["experiments.run_risk_curve"]
    m["experiments.run_bounds_sweep.self_s"] = selfs[
        "experiments.run_bounds_sweep"]
    m["cli.write.self_s"] = selfs["cli.write"]
    m["cli.write.rows"] = counts["cli.write.rows"]
    m["trace.wall_s"] = traced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.remainder_s"] = traced_wall_s - sum(selfs.values())
    return m
