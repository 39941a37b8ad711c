"""Spans and counters recorded around the calls between groupdeconv modules.

The tracer patches, for the length of a ``with`` block, the names that one
module of the package imports from another (``experiments.evaluate_grid``,
``bandwidth.invert_prefixes``, ``cli.load_sample`` ...) with wrappers that
open a span, call through, close the span and update the layer's counters.
Nothing under ``src/`` changes.  A name that a later version of the package
no longer has is skipped; its time then shows up as self time of the caller
and in ``trace.coverage_frac``.

A span is (name, start_ns, end_ns, parent index); parents come from the call
stack.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOT_SPAN = "cli.main"
OUTPUTS_SPAN = "cli.outputs"

# (module, attribute, span name).  The span name is the layer that does the
# work; the module is where the caller looks the name up.
PATCHES = (
    ("groupdeconv.cli", "load_sample", "samples.load_sample"),
    ("groupdeconv.cli", "adaptive_cutoff", "bandwidth.adaptive_cutoff"),
    ("groupdeconv.cli", "evaluate_grid", "charfn.evaluate_grid"),
    ("groupdeconv.cli", "distinguished_root", "rootlog.distinguished_root"),
    ("groupdeconv.cli", "invert", "inversion.invert"),
    ("groupdeconv.cli", "run_grid", "experiments.run_grid"),
    ("groupdeconv.experiments", "run_replication", "experiments.run_replication"),
    ("groupdeconv.experiments", "generate_grouped", "samples.generate_grouped"),
    ("groupdeconv.experiments", "evaluate_grid", "charfn.evaluate_grid"),
    ("groupdeconv.experiments", "_adaptive_from_scan", "bandwidth.adaptive_cutoff"),
    ("groupdeconv.experiments", "feasible_root", "rootlog.feasible_root"),
    ("groupdeconv.experiments", "oracle_risks", "bandwidth.oracle_risks"),
    ("groupdeconv.bandwidth", "ecf_at", "charfn.ecf_at"),
    ("groupdeconv.bandwidth", "evaluate_grid", "charfn.evaluate_grid"),
    ("groupdeconv.bandwidth", "feasible_root", "rootlog.feasible_root"),
    ("groupdeconv.bandwidth", "invert_prefixes", "inversion.invert_prefixes"),
    ("groupdeconv.bandwidth", "l2_distance", "inversion.l2_distance"),
)
# Result writers, patched on their classes.
OUTPUT_METHODS = (
    ("groupdeconv.inversion", "DensityEstimate", "to_csv"),
    ("groupdeconv.inversion", "DensityEstimate", "to_json"),
    ("groupdeconv.experiments", "RiskReport", "to_csv"),
    ("groupdeconv.experiments", "RiskReport", "to_text"),
)
# Spans whose allocation peak the tracemalloc pass records.
ALLOC_SPANS = ("charfn.evaluate_grid", "inversion.invert_prefixes")
COMPLEX_BYTES = 16


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_evaluate_grid(counts, args, kwargs, result):
    counts["charfn.evaluate_grid.modes"] += _arg(args, kwargs, 1, "grid").n_half + 1


def _count_adaptive(counts, args, kwargs, result):
    counts["bandwidth.cutoffs"] += 1
    counts["bandwidth.threshold_hits"] += bool(result.threshold_hit)


def _count_oracle_risks(counts, args, kwargs, result):
    counts["bandwidth.oracle_risks.candidates"] += len(result[0])


def _count_feasible_root(counts, args, kwargs, result):
    counts["rootlog.floor_truncations"] += result[1] is not None


def _count_invert_prefixes(counts, args, kwargs, result):
    root = _arg(args, kwargs, 0, "root")
    ms = _arg(args, kwargs, 1, "ms")
    xgrid = _arg(args, kwargs, 2, "xgrid")
    modes = max(root.grid.index_of(m) for m in ms) + 1
    counts["inversion.invert_prefixes.cells"] += xgrid.count * modes


def _count_load_sample(counts, args, kwargs, result):
    counts["samples.load_sample.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTERS = {
    "charfn.evaluate_grid": _count_evaluate_grid,
    "bandwidth.adaptive_cutoff": _count_adaptive,
    "bandwidth.oracle_risks": _count_oracle_risks,
    "rootlog.feasible_root": _count_feasible_root,
    "inversion.invert_prefixes": _count_invert_prefixes,
    "samples.load_sample": _count_load_sample,
}
# Errors a counter may meet if a later version changes a signature or a
# result type; the count is then left out rather than failing the run.
COUNTER_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self, track_alloc: bool = False):
        self.spans = []  # [name, start_ns, end_ns, parent]
        self.counts = Counter()
        self.alloc_peak = Counter()  # bytes, max over calls, per span name
        self.patched = []
        self.counter_errors = Counter()
        self._stack = []
        self._track_alloc = track_alloc

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.counts[f"{name}.calls"] += 1
        if self._track_alloc and name in ALLOC_SPANS:
            self.spans.append([name, 0, 0, parent, tracemalloc.get_traced_memory()[0]])
            tracemalloc.reset_peak()
        else:
            self.spans.append([name, 0, 0, parent])
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        self._stack.pop()
        if len(span) == 5:
            used = tracemalloc.get_traced_memory()[1] - span.pop()
            self.alloc_peak[span[0]] = max(self.alloc_peak[span[0]], used)

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except COUNTER_ERRORS:
                    self.counter_errors[name] += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrapper in for the block, and restore the originals."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self.wrap(getattr(module, attr), name))
                    self.patched.append(f"{module_name}.{attr}")
            for module_name, cls_name, method in OUTPUT_METHODS:
                cls = getattr(importlib.import_module(module_name), cls_name, None)
                if cls is not None and method in vars(cls):
                    saved.append((cls, method, vars(cls)[method]))
                    setattr(cls, method, self.wrap(vars(cls)[method], OUTPUTS_SPAN))
                    self.patched.append(f"{module_name}.{cls_name}.{method}")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times_ns(spans) -> Counter:
    """Per span name: duration minus the time its child spans cover."""
    own = Counter()
    for name, start, end, _parent in spans:
        own[name] += end - start
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[spans[parent][0]] -= end - start
    return own


def nesting_errors(spans) -> list:
    """Spans that do not lie inside their parent's interval."""
    bad = []
    for idx, (name, start, end, parent) in enumerate(spans):
        if end < start:
            bad.append(f"span {idx} {name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end, _ = spans[parent]
            if not (p_start <= start and end <= p_end):
                bad.append(f"span {idx} {name} is not inside its parent {parent} {p_name}")
    return bad


# name -> unit, in the order they are reported
LAYER_METRICS = {
    "samples.generate_grouped.ms": "ms",
    "samples.load_sample.ms": "ms",
    "samples.load_sample.mb_per_s": "MB/s",
    "charfn.evaluate_grid.ms": "ms",
    "charfn.evaluate_grid.calls": "count",
    "charfn.evaluate_grid.modes": "count",
    "charfn.evaluate_grid.peak_alloc_mb": "MB",
    "charfn.ecf_at.ms": "ms",
    "charfn.ecf_at.calls": "count",
    "bandwidth.adaptive_cutoff.ms": "ms",
    "bandwidth.oracle_risks.ms": "ms",
    "bandwidth.oracle_risks.candidates": "count",
    "bandwidth.threshold_hit_frac": "ratio",
    "rootlog.feasible_root.ms": "ms",
    "rootlog.distinguished_root.ms": "ms",
    "rootlog.floor_truncations": "count",
    "inversion.invert_prefixes.ms": "ms",
    "inversion.invert_prefixes.cells": "count",
    "inversion.invert_prefixes.mb_computed": "MB",
    "inversion.invert_prefixes.peak_alloc_mb": "MB",
    "inversion.invert.ms": "ms",
    "inversion.l2_distance.ms": "ms",
    "inversion.l2_distance.calls": "count",
    "experiments.run_replication.ms": "ms",
    "experiments.run_replication.ms_p50": "ms",
    "experiments.run_replication.ms_p95": "ms",
    "experiments.run_grid.ms": "ms",
    "cli.outputs.ms": "ms",
    "cli.main.ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}
SELF_TIME_SPANS = (
    "samples.generate_grouped", "samples.load_sample", "charfn.evaluate_grid",
    "charfn.ecf_at", "bandwidth.adaptive_cutoff", "bandwidth.oracle_risks",
    "rootlog.feasible_root", "rootlog.distinguished_root", "inversion.invert_prefixes",
    "inversion.invert", "inversion.l2_distance", "experiments.run_replication",
    "experiments.run_grid",
    OUTPUTS_SPAN, ROOT_SPAN,
)
PER_UNIT_COUNTS = (
    "charfn.evaluate_grid.calls", "charfn.evaluate_grid.modes", "charfn.ecf_at.calls",
    "bandwidth.oracle_risks.candidates", "rootlog.floor_truncations",
    "inversion.invert_prefixes.cells", "inversion.l2_distance.calls",
)


def layer_metrics(tracer: Tracer, units: int, traced_s: list, untraced_s: list) -> dict:
    """Per-layer figures per unit of work (replication or estimate call).

    Time metrics are self time summed over the traced calls and divided by
    the units those calls completed, so they add up to a unit's wall time.
    """
    own = self_times_ns(tracer.spans)
    counts = tracer.counts
    out = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.ms"] = own[name] / 1e6 / units
    for name in PER_UNIT_COUNTS:
        out[name] = counts[name] / units
    out["inversion.invert_prefixes.mb_computed"] = (
        counts["inversion.invert_prefixes.cells"] * COMPLEX_BYTES / 1e6 / units
    )
    load_ns = sum(e - s for n, s, e, _ in tracer.spans if n == "samples.load_sample")
    out["samples.load_sample.mb_per_s"] = (
        counts["samples.load_sample.bytes"] / 1e6 / (load_ns / 1e9) if load_ns else 0.0
    )
    cutoffs = counts["bandwidth.cutoffs"]
    out["bandwidth.threshold_hit_frac"] = counts["bandwidth.threshold_hits"] / cutoffs if cutoffs else 0.0
    reps_ms = [(e - s) / 1e6 for n, s, e, _ in tracer.spans if n == "experiments.run_replication"]
    out["experiments.run_replication.ms_p50"] = float(np.percentile(reps_ms, 50)) if reps_ms else 0.0
    out["experiments.run_replication.ms_p95"] = float(np.percentile(reps_ms, 95)) if reps_ms else 0.0
    root_ns = sum(e - s for n, s, e, _ in tracer.spans if n == ROOT_SPAN)
    out["trace.coverage_frac"] = 1.0 - own[ROOT_SPAN] / root_ns if root_ns else 0.0
    out["trace.overhead_frac"] = float(np.median(traced_s) / np.median(untraced_s) - 1.0)
    return {name: out[name] for name in LAYER_METRICS if name in out}


def alloc_metrics(tracer: Tracer) -> dict:
    return {
        f"{name}.peak_alloc_mb": tracer.alloc_peak[name] / 1e6 for name in ALLOC_SPANS
    }
