"""Layer trace for the scanfisher benchmark, installed from outside the package.

Spans and counters are recorded around the package's public functions at the
module attributes their callers go through (``scanfisher.evaluate.fit_model``
and so on), so no file of the package is edited. Every hook is one row of
``HOOKS``. A hook whose target no longer exists is skipped, and the metrics
that need it are reported missing instead of crashing the run; so are the
counters of a hook whose target's arguments or result no longer fit.

Logging from ``scanfisher.*`` is routed to counters (``<module>.warnings``)
in traced and untraced runs alike, so runs print nothing through Python's
last-resort handler.
"""

import functools
import importlib
import inspect
import logging
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


class LogCounter(logging.Handler):
    """Counts records per scanfisher module: ``scanfisher.fit`` -> ``fit.warnings``."""

    def __init__(self, counters: Counter):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record: logging.LogRecord) -> None:
        module = record.name.split(".")[1] if "." in record.name else record.name
        self.counters[f"{module}.warnings"] += 1


def route_logging(counters: Counter) -> None:
    logger = logging.getLogger("scanfisher")
    logger.setLevel(logging.WARNING)
    logger.propagate = False
    logger.addHandler(LogCounter(counters))


# --- counters taken from a hooked call's bound arguments and result ---------

def _extracted(c, args, result):
    c["events.scanpaths"] += 1
    c["events.events"] += len(result)


def _fitted(c, args, result):
    c["fit.fit_model_calls"] += 1
    c["fit.events_fitted"] += args["events"].n


def _lbfgs(c, args, result):
    c["fit.lbfgs_iterations"] += int(result.nit)
    c["fit.lbfgs_nonconverged"] += int(not result.success)


def _scored(c, args, result):
    c["fisher.instances_scored"] += len(args["instances"])


def _gram(c, args, result):
    c["fisher.gram_entries"] += int(result.size)
    c["fisher.gram_bytes"] += int(result.nbytes)


def _loglik(c, args, result):
    c["model.loglik_calls"] += 1


def _solved(c, args, result):
    c["svm.solves"] += 1
    c["svm.smo_iterations"] += int(result.n_iterations)
    c["svm.max_iter_exits"] += int(result.kkt_violation >= args["tol"])
    eps = getattr(sys.modules["scanfisher.svm"], "SUPPORT_EPS", 1e-12)
    c["svm.unbounded_solves"] += int(not (result.alpha >= result.C - eps).any())


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str                       # may be dotted: "SvmModel.decision_values"
    span: str | None                # layer span recorded around the call, or None
    observe: Callable | None = None
    counters: tuple[str, ...] = ()  # what `observe` writes


HOOKS = (
    Hook("scanfisher.evaluate", "compute_features", "corpus.features"),
    Hook("scanfisher.evaluate", "extract_events", "events.extract", _extracted,
         ("events.scanpaths", "events.events")),
    Hook("scanfisher.evaluate", "fit_model", "fit.fit_model", _fitted,
         ("fit.fit_model_calls", "fit.events_fitted")),
    Hook("scanfisher.fit", "minimize", None, _lbfgs,
         ("fit.lbfgs_iterations", "fit.lbfgs_nonconverged")),
    Hook("scanfisher.evaluate", "score_matrix", "fisher.score", _scored,
         ("fisher.instances_scored",)),
    Hook("scanfisher.evaluate", "empirical_information", "fisher.metric"),
    Hook("scanfisher.evaluate", "default_ridge", "fisher.metric"),
    Hook("scanfisher.evaluate", "fisher_metric", "fisher.metric"),
    Hook("scanfisher.evaluate", "gram_matrix", "fisher.gram", _gram,
         ("fisher.gram_entries", "fisher.gram_bytes")),
    Hook("scanfisher.evaluate", "batch_loglik", "model.loglik", _loglik,
         ("model.loglik_calls",)),
    Hook("scanfisher.evaluate", "train_multiclass", "svm.train_multiclass"),
    # binary comprehension calls solve_dual directly; one-vs-rest goes through svm
    Hook("scanfisher.evaluate", "solve_dual", "svm.solve_dual", _solved,
         ("svm.solves", "svm.smo_iterations", "svm.max_iter_exits", "svm.unbounded_solves")),
    Hook("scanfisher.svm", "solve_dual", "svm.solve_dual", _solved,
         ("svm.solves", "svm.smo_iterations", "svm.max_iter_exits", "svm.unbounded_solves")),
    Hook("scanfisher.evaluate", "prefix_decision_curve", "svm.predict"),
    # binary comprehension predicts through the model directly
    Hook("scanfisher.svm", "SvmModel.decision_values", "svm.predict"),
)

LOG_COUNTERS = ("fit.warnings", "svm.warnings", "events.warnings")


class Missing(Exception):
    """A metric's span or counter has no installed hook, or no data to divide by."""


class Trace:
    def __init__(self, counters: Counter):
        self.counters = counters
        self.spans: list = []    # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.installed_spans: set[str] = set()
        self.installed_counters: set[str] = set(LOG_COUNTERS)
        self.missing_hooks: list[str] = []

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            target = f"{hook.module}.{hook.attr}"
            *path, name = hook.attr.split(".")
            try:
                owner = importlib.import_module(hook.module)
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing_hooks.append(target)
                continue
            setattr(owner, name, self._wrap(fn, hook))
            if hook.span:
                self.installed_spans.add(hook.span)
            self.installed_counters.update(hook.counters)

    def _wrap(self, fn, hook: Hook):
        signature = inspect.signature(fn) if hook.observe else None
        spans, stack, counters = self.spans, self._stack, self.counters
        installed_counters = self.installed_counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook.span is None:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    spans[index] = (hook.span, start, end, parent)
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook.observe(counters, bound.arguments, result)
                except (TypeError, KeyError, AttributeError):
                    # the target's arguments or result changed shape: report its
                    # counters missing rather than wrong
                    installed_counters.difference_update(hook.counters)
            return result

        return traced

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per layer span name, and the total of top-level spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(self.installed_spans, 0.0)
        top = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[index]
            if parent < 0:
                top += end - start
        return out, top

    def layer_metrics(self, wall_s: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of one traced experiment, plus the names that are missing."""
        self_s, top = self.self_times()
        reader = _Reader(self, self_s, wall_s - top)
        values, missing = {}, []
        for name, (_, formula) in LAYER_METRICS.items():
            try:
                values[name] = formula(reader)
            except (Missing, ZeroDivisionError):
                missing.append(name)
        return values, missing


@dataclass
class _Reader:
    trace: Trace
    self_s: dict[str, float]
    outside_spans_s: float  # traced wall time outside every top-level span

    def span(self, name: str) -> float:
        if name not in self.trace.installed_spans:
            raise Missing(name)
        return self.self_s[name]

    def count(self, name: str) -> int:
        if name not in self.trace.installed_counters:
            raise Missing(name)
        return self.trace.counters[name]


def _span(name):
    return lambda r: r.span(name)


def _count(name):
    return lambda r: r.count(name)


# name -> (unit, formula). trace.overhead_s needs the untraced runs and is
# added by run.py.
LAYER_METRICS = {
    "svm.solve_dual_s": ("s", _span("svm.solve_dual")),
    "svm.solves": ("count", _count("svm.solves")),
    "svm.smo_iterations": ("count", _count("svm.smo_iterations")),
    "svm.us_per_smo_iteration": (
        "us", lambda r: 1e6 * r.span("svm.solve_dual") / r.count("svm.smo_iterations")),
    "svm.max_iter_exits": ("count", _count("svm.max_iter_exits")),
    "svm.unbounded_share": (
        "share", lambda r: r.count("svm.unbounded_solves") / r.count("svm.solves")),
    "svm.train_multiclass_s": ("s", _span("svm.train_multiclass")),
    "svm.predict_s": ("s", _span("svm.predict")),
    "fit.fit_model_s": ("s", _span("fit.fit_model")),
    "fit.fit_model_calls": ("count", _count("fit.fit_model_calls")),
    "fit.events_fitted": ("count", _count("fit.events_fitted")),
    "fit.lbfgs_iterations": ("count", _count("fit.lbfgs_iterations")),
    "fit.lbfgs_nonconverged": ("count", _count("fit.lbfgs_nonconverged")),
    "fit.us_per_lbfgs_iteration": (
        "us", lambda r: 1e6 * r.span("fit.fit_model") / r.count("fit.lbfgs_iterations")),
    "fisher.score_s": ("s", _span("fisher.score")),
    "fisher.instances_scored": ("count", _count("fisher.instances_scored")),
    "fisher.us_per_instance": (
        "us", lambda r: 1e6 * r.span("fisher.score") / r.count("fisher.instances_scored")),
    "fisher.metric_s": ("s", _span("fisher.metric")),
    "fisher.gram_s": ("s", _span("fisher.gram")),
    "fisher.gram_entries": ("count", _count("fisher.gram_entries")),
    "fisher.gram_bytes": ("bytes", _count("fisher.gram_bytes")),
    "model.loglik_s": ("s", _span("model.loglik")),
    "model.loglik_calls": ("count", _count("model.loglik_calls")),
    "corpus.features_s": ("s", _span("corpus.features")),
    "events.extract_s": ("s", _span("events.extract")),
    "events.scanpaths": ("count", _count("events.scanpaths")),
    "events.events": ("count", _count("events.events")),
    "evaluate.self_s": ("s", lambda r: r.outside_spans_s),
    "fit.warnings": ("count", _count("fit.warnings")),
    "svm.warnings": ("count", _count("svm.warnings")),
    "events.warnings": ("count", _count("events.warnings")),
}
