"""In-memory span tracing of gossipgn's layers, applied from outside the package.

Each instrumented function is replaced, for the duration of one traced call,
by a wrapper that records a span (name, start, end, parent span). A function
is wrapped in the namespace where it is *called*: ``from .core import
solve_normal`` binds a second name in ``gossipgn.ggn``, so patching only
``gossipgn.core.solve_normal`` would miss every call made from ``ggn``.

Nothing under ``src/`` is modified; the originals are restored on exit.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). Several bindings may share one span name.
SPAN_TARGETS = [
    ("gossipgn.psse.measurements", "full_measurement_vector", "psse.model_eval"),
    ("gossipgn.psse.measurements", "full_measurement_jacobian", "psse.model_eval"),
    ("gossipgn.experiments", "mse_metrics", "psse.mse_metrics"),
    ("gossipgn.experiments", "load_case", "psse.case_parse"),
    ("gossipgn.experiments", "newton_power_flow", "psse.power_flow"),
    ("gossipgn.core", "normal_system", "core.normal_system"),
    ("gossipgn.core", "solve_normal", "core.solve_normal"),
    ("gossipgn.ggn", "solve_normal", "core.solve_normal"),
    ("gossipgn.core", "stationarity_residual", "core.stationarity"),
    ("gossipgn.experiments", "stationarity_residual", "core.stationarity"),
    ("gossipgn.experiments", "estimate_constants", "core.estimate_constants"),
    ("gossipgn.experiments", "centralized_gn_solve", "core.reference_solve"),
    ("gossipgn.ggn", "local_init_info", "ggn.local_init_info"),
    ("gossipgn.ggn", "surrogate_descent", "ggn.surrogate_solve"),
    ("gossipgn.ggn", "descent_discrepancy", "ggn.descent_discrepancy"),
    ("gossipgn.experiments", "ggn_run", "ggn.ggn_run"),
    ("gossipgn.experiments", "diffusion_baseline_run", "ggn.diffusion_run"),
    ("gossipgn.ggn", "gossip_round", "gossip.round"),
    ("gossipgn.ggn", "sample_ure_round", "gossip.sample_ure"),
    ("gossipgn.experiments", "build_certificate", "analysis.build_certificate"),
    ("gossipgn.experiments", "certificate_for_run", "experiments.certificate_for_run"),
    ("gossipgn.experiments", "write_metrics_csv", "experiments.write_metrics_csv"),
    ("gossipgn.experiments", "mean_rows", "experiments.mean_rows"),
    ("gossipgn.experiments", "run_experiment", "experiments.run"),
]

# Calls counted without a span: the measurement-model evaluations that miss
# the GridModel cache and compute f or J from scratch.
COUNT_TARGETS = [
    ("gossipgn.psse.measurements", "power_injections", "psse.model_eval.computed"),
    ("gossipgn.psse.measurements", "complex_injection_derivatives", "psse.model_eval.computed"),
]

# SiteModel closures are built per snapshot; the sites returned by this
# function get their eval_residual/eval_jacobian wrapped as psse.site_eval.
SITE_BUILDER = ("gossipgn.experiments", "build_nlls_sites")
SITE_SPAN = "psse.site_eval"


class Tracer:
    """Spans and counters of one traced call, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(tracer, bound_args, result)."""
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self.clock(), math.nan, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if after is not None:
                after(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def span_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of its interval covered by
    its direct children (the union of their intervals, clipped to the parent).
    """
    children = defaultdict(list)
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    table: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[idx], key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - covered
    return table


# ---------------------------------------------------------------------------
# hooks that derive counts from a wrapped call's arguments and result


def _after_estimate_constants(tracer, arguments, result):
    extra = arguments.get("extra_points")
    n_points = arguments["n_samples"] + (len(extra) if extra is not None else 0)
    tracer.counts["core.estimate_constants.pairs"] += math.comb(n_points, 2)


def _after_gossip_round(tracer, arguments, result):
    weights = arguments["weights"]
    n_agents, width = np.shape(arguments["payloads"])
    tracer.counts["gossip.round.bytes_computed"] += 8 * (n_agents * n_agents + 2 * n_agents * width)
    if not np.array_equal(weights.entries, np.eye(n_agents)):
        tracer.counts["gossip.effective_rounds"] += 1


def _after_ggn_run(tracer, arguments, result):
    tracer.counts["ggn.updates"] += int(result.n_updates)
    tracer.counts["ggn.exchanges"] += int(np.sum(result.exchange_counts))
    if result.discrepancies is not None:
        tracer.counts["ggn.singular_fallbacks"] += int(np.isnan(result.discrepancies).sum())


AFTER_HOOKS = {
    "core.estimate_constants": _after_estimate_constants,
    "gossip.round": _after_gossip_round,
    "ggn.ggn_run": _after_ggn_run,
}


@contextmanager
def instrumented(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []

    def patch(module_name, attr, replacement_for):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, replacement_for(original))

    def wrap_sites(build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            return [
                dataclasses.replace(
                    site,
                    eval_residual=tracer.span(SITE_SPAN, site.eval_residual),
                    eval_jacobian=tracer.span(SITE_SPAN, site.eval_jacobian),
                )
                for site in build(*args, **kwargs)
            ]

        return wrapper

    try:
        for module_name, attr, name in SPAN_TARGETS:
            patch(module_name, attr, lambda fn, name=name: tracer.span(name, fn, AFTER_HOOKS.get(name)))
        for module_name, attr, name in COUNT_TARGETS:
            patch(module_name, attr, lambda fn, name=name: tracer.counter(name, fn))
        patch(*SITE_BUILDER, wrap_sites)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
