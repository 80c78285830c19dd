"""Span tracer for the benchmark's traced run.

It wraps priorlab's public entry points from outside, with no edit under
`src/`: each name is replaced where its caller looks it up (a module
global imported by name, or a method on a class), and every original is
put back by `Tracer.uninstall`.  A private helper gets no span of its
own; its time shows up as the self time of the nearest wrapped caller.

Spans are aggregated as they close (inclusive time, self time, calls), so
memory stays constant however many calls are wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

# (object path, attribute, span name).  A module attribute is wrapped in
# every module that imported the name, since each binding is looked up
# separately.  A class attribute wraps the method for every caller.
SPANS = (
    ("priorlab.cli", "enumerate_concepts", "concepts.enumerate_concepts"),
    ("priorlab.ratelab", "enumerate_concepts", "concepts.enumerate_concepts"),
    ("priorlab.cli", "parity_family", "priors.parity_family"),
    ("priorlab.ratelab", "parity_family", "priors.parity_family"),
    ("priorlab.cli", "smooth_prior", "priors.smooth_prior"),
    ("priorlab.priors", "smooth_prior", "priors.smooth_prior"),
    ("priorlab.cli", "holder_check", "priors.holder_check"),
    ("priorlab.cli", "cover_priors", "priors.cover_priors"),
    ("priorlab.cli", "random_prior", "priors.random_prior"),
    ("priorlab.cli", "reference_prior", "priors.reference_prior"),
    ("priorlab.cli", "density_table", "priors.density_table"),
    ("priorlab.estimators", "exact_outcome_dist", "outcomes.exact_outcome_dist"),
    ("priorlab.outcomes", "exact_outcome_dist", "outcomes.exact_outcome_dist"),
    ("priorlab.cli", "verify_lemma_chain", "outcomes.verify"),
    ("priorlab.cli", "verify_tree_inequality", "outcomes.verify"),
    ("priorlab.cli", "verify_sqrt_bound", "outcomes.verify"),
    ("priorlab.cli", "check_sauer", "outcomes.check_sauer"),
    ("priorlab.ratelab", "sample_arrays", "sampling.sample_arrays"),
    ("priorlab.sampling", "stream", "sampling.stream"),
    ("priorlab.ratelab", "stream", "sampling.stream"),
    ("priorlab.elicitation", "stream", "sampling.stream"),
    ("priorlab.cli", "stream", "sampling.stream"),
    ("priorlab.estimators.SkeletonEstimator", "__init__", "estimators.build"),
    ("priorlab.estimators.DirectEstimator", "__init__", "estimators.build"),
    ("priorlab.estimators.SkeletonEstimator", "select_from_counts", "estimators.select"),
    ("priorlab.ratelab", "reduce_to_signs", "estimators.reduce_to_signs"),
    ("priorlab.ratelab", "exact_bayes_error", "estimators.coin_error"),
    ("priorlab.ratelab", "build_setup", "ratelab.build_setup"),
    ("priorlab.cli", "run_upper_experiment", "ratelab.upper"),
    ("priorlab.cli", "run_baseline_comparison", "ratelab.baseline"),
    ("priorlab.cli", "run_lower_experiment", "ratelab.lower"),
    ("priorlab.ratelab", "counts_from_arrays_fast", "ratelab.count"),
    ("priorlab.cli", "coin_bound_table", "ratelab.coin_bound_table"),
    ("priorlab.cli", "write_csv", "ratelab.write_csv"),
    ("priorlab.cli", "presence_family", "elicitation.presence_family"),
    ("priorlab.elicitation", "presence_family", "elicitation.presence_family"),
    ("priorlab.elicitation.FamilyOutcomeModel", "__init__", "elicitation.model_build"),
    ("priorlab.cli", "calibrate_schedule", "elicitation.calibrate"),
    ("priorlab.elicitation.FamilyOutcomeModel", "observation_indicators", "elicitation.indicator"),
    ("priorlab.elicitation.SequentialSelector", "selected", "elicitation.selector"),
    ("priorlab.cli", "estimate_Q", "elicitation.estimate_q"),
    ("priorlab.cli", "run_algorithm1", "elicitation.serve"),
    ("priorlab.elicitation", "method_A", "elicitation.method_a"),
    ("priorlab.elicitation", "method_A_prime", "elicitation.method_a_prime"),
)

# Private cell runners: counted, never timed (their time stays with the
# experiment that maps them).
COUNTED = (
    ("priorlab.ratelab", "_upper_cell", "ratelab.cells"),
    ("priorlab.ratelab", "_baseline_cell", "ratelab.cells"),
    ("priorlab.ratelab", "_lower_cell", "ratelab.cells"),
)

# Subcommands of the `checks` workload; each gets its traced dispatch time.
CHECK_SUBCOMMANDS = tuple(sub for sub, _ in WORKLOADS["checks"].runs)

# Per-layer metric -> (source, unit).  Sources: "<span>:total", "<span>:self",
# "<span>:calls", "count:<counter>", or a name filled in by the benchmark.
# "computed" units are derived from array shapes, not measured.
LAYER_METRICS = {
    "concepts.enumerate_concepts_s": ("concepts.enumerate_concepts:total", "s"),
    "priors.parity_family_s": ("priors.parity_family:total", "s"),
    "priors.smooth_prior_s": ("priors.smooth_prior:total", "s"),
    "priors.holder_check_s": ("priors.holder_check:total", "s"),
    "priors.cover_priors_s": ("priors.cover_priors:total", "s"),
    "priors.random_prior_s": ("priors.random_prior:total", "s"),
    "priors.reference_prior_s": ("priors.reference_prior:total", "s"),
    "priors.density_table_s": ("priors.density_table:total", "s"),
    "outcomes.exact_outcome_dist_s": ("outcomes.exact_outcome_dist:total", "s"),
    "outcomes.exact_outcome_dist_calls": ("outcomes.exact_outcome_dist:calls", "count"),
    "outcomes.verify_s": ("outcomes.verify:total", "s"),
    "outcomes.check_sauer_s": ("outcomes.check_sauer:total", "s"),
    "sampling.sample_arrays_s": ("sampling.sample_arrays:total", "s"),
    "sampling.sample_arrays_calls": ("sampling.sample_arrays:calls", "count"),
    "sampling.tasks_sampled": ("count:sampling.tasks_sampled", "tasks"),
    "sampling.stream_s": ("sampling.stream:total", "s"),
    "sampling.stream_calls": ("sampling.stream:calls", "count"),
    # estimator construction minus the outcome laws it computes: the
    # Yatracos sets and their member masses
    "estimators.yatracos_build_s": ("estimators.build:self", "s"),
    "estimators.yatracos_pairs": ("count:estimators.yatracos_pairs", "count"),
    "estimators.support_size": ("count:estimators.support_size", "count"),
    "estimators.yatracos_bytes": ("count:estimators.yatracos_bytes", "bytes-computed"),
    "estimators.select_s": ("estimators.select:total", "s"),
    "estimators.select_calls": ("estimators.select:calls", "count"),
    "estimators.select_ops_per_call": ("count:estimators.select_ops_per_call", "ops-computed"),
    "estimators.reduce_to_signs_s": ("estimators.reduce_to_signs:total", "s"),
    "estimators.coin_error_s": ("estimators.coin_error:total", "s"),
    "ratelab.build_setup_s": ("ratelab.build_setup:total", "s"),
    "ratelab.cells": ("count:ratelab.cells", "count"),
    "ratelab.upper_s": ("ratelab.upper:total", "s"),
    "ratelab.upper_self_s": ("ratelab.upper:self", "s"),
    "ratelab.baseline_s": ("ratelab.baseline:total", "s"),
    "ratelab.baseline_self_s": ("ratelab.baseline:self", "s"),
    "ratelab.count_s": ("ratelab.count:total", "s"),
    "ratelab.count_calls": ("ratelab.count:calls", "count"),
    "ratelab.lower_s": ("ratelab.lower:total", "s"),
    "ratelab.coin_bound_table_s": ("ratelab.coin_bound_table:total", "s"),
    "ratelab.write_csv_s": ("ratelab.write_csv:total", "s"),
    "ratelab.csv_bytes": ("count:ratelab.csv_bytes", "bytes"),
    "elicitation.presence_family_s": ("elicitation.presence_family:total", "s"),
    "elicitation.model_build_s": ("elicitation.model_build:total", "s"),
    "elicitation.calibrate_s": ("elicitation.calibrate:total", "s"),
    "elicitation.calibrate_self_s": ("elicitation.calibrate:self", "s"),
    "elicitation.indicator_s": ("elicitation.indicator:total", "s"),
    "elicitation.indicator_calls": ("elicitation.indicator:calls", "count"),
    "elicitation.selector_s": ("elicitation.selector:total", "s"),
    "elicitation.selector_calls": ("elicitation.selector:calls", "count"),
    "elicitation.estimate_q_s": ("elicitation.estimate_q:total", "s"),
    "elicitation.serve_s": ("elicitation.serve:total", "s"),
    "elicitation.serve_self_s": ("elicitation.serve:self", "s"),
    "elicitation.method_a_s": ("elicitation.method_a:total", "s"),
    "elicitation.method_a_calls": ("elicitation.method_a:calls", "count"),
    "elicitation.method_a_prime_calls": ("elicitation.method_a_prime:calls", "count"),
    "elicitation.customers": ("count:elicitation.customers", "count"),
    "elicitation.fallbacks": ("count:elicitation.fallbacks", "count"),
    **{f"cli.subcommand_s.{s}": ("benchmark", "s") for s in CHECK_SUBCOMMANDS},
    "trace.overhead_s": ("benchmark", "s"),
    "trace.coverage": ("benchmark", "ratio"),
}


def _resolve(path: str):
    """Import `a.b.Class` or `a.b`: the longest importable module prefix,
    then attribute lookups for the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(path)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _on_sample_arrays(tracer, args, kwargs, result):
    tracer.count("sampling.tasks_sampled", _arg(args, kwargs, 3, "T"))


def _on_estimator_built(tracer, args, kwargs, result):
    est = args[0]
    if not hasattr(est, "support"):
        return  # the direct-access baseline: concept space, no outcome support
    n, s = est.cover.size, len(est.support)
    pairs = n * (n - 1)
    # A: pairs x support bools, PA: members x pairs and M: members x support
    # float64; selection is A @ counts plus one pass over PA
    nbytes = pairs * s + 8 * n * pairs + 8 * n * s
    if nbytes >= tracer.counters.get("estimators.yatracos_bytes", 0):
        tracer.counters["estimators.yatracos_pairs"] = pairs
        tracer.counters["estimators.support_size"] = s
        tracer.counters["estimators.yatracos_bytes"] = nbytes
        tracer.counters["estimators.select_ops_per_call"] = pairs * s + n * pairs


def _on_write_csv(tracer, args, kwargs, result):
    tracer.count("ratelab.csv_bytes", Path(_arg(args, kwargs, 0, "path")).stat().st_size)


def _on_serve(tracer, args, kwargs, result):
    tracer.count("elicitation.customers", len(result.rows))
    tracer.count("elicitation.fallbacks", result.fallbacks)


HOOKS = {
    "sampling.sample_arrays": _on_sample_arrays,
    "estimators.build": _on_estimator_built,
    "ratelab.write_csv": _on_write_csv,
    "elicitation.serve": _on_serve,
}


class _Agg:
    __slots__ = ("total", "child", "calls")

    def __init__(self):
        self.total = 0.0
        self.child = 0.0
        self.calls = 0


class Tracer:
    """Installs span and counter wrappers; `top_level_s` sums the spans that
    close with no wrapped caller while `in_window` is set."""

    def __init__(self):
        self.aggs: dict[str, _Agg] = {}
        self.counters: dict[str, int] = {}
        self.top_level_s = 0.0
        self.in_window = False
        self.missing: list[str] = []
        self._stack: list[list] = []  # [start, child time] per open span
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def _span(self, name: str, fn, hook):
        agg = self.aggs.setdefault(name, _Agg())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                agg.total += dur
                agg.child += frame[1]
                agg.calls += 1
                if stack:
                    stack[-1][1] += dur
                elif self.in_window:
                    self.top_level_s += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, path: str, attr: str, make) -> None:
        try:
            owner = _resolve(path)
            original = owner.__dict__[attr]
        except (ModuleNotFoundError, AttributeError, KeyError):
            self.missing.append(f"{path}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        for path, attr, name in SPANS:
            self._patch(path, attr, lambda fn, n=name: self._span(n, fn, HOOKS.get(n)))
        for path, attr, name in COUNTED:
            self._patch(path, attr, lambda fn, n=name: self._counter(n, fn))
        if self.missing:
            print("trace: not found, left unwrapped: " + ", ".join(self.missing), file=sys.stderr)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def values(self) -> dict[str, float]:
        """Every LAYER_METRICS entry this tracer measures (the "benchmark"
        entries are left to the caller); an unused layer reads 0."""
        out = {}
        for metric, (source, _) in LAYER_METRICS.items():
            if source == "benchmark":
                continue
            if source.startswith("count:"):
                out[metric] = self.counters.get(source[6:], 0)
                continue
            span, field = source.split(":")
            agg = self.aggs.get(span) or _Agg()
            out[metric] = {
                "total": agg.total,
                "self": agg.total - agg.child,
                "calls": agg.calls,
            }[field]
        return out
