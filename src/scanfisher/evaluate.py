"""Experiment protocols: LOTO identification, comprehension splits, statistics.

Leave-one-text-out cross-validation holds out every scanpath of one text per
fold.  Inside each fold a nested CV over the training texts tunes the fit
regularizer, the SVM box constraint, and the metric ridge by grid search, and
greedily eliminates feature components while doing so improves the inner
accuracy; an inner split tests only the readers its training texts have
lines of.  Normalization statistics, tuning, and elimination only ever see
training data; this is asserted programmatically.

Each experiment extracts every scanpath once into an `EventTable` with raw
word features.  A fold context is its normalization statistics plus index
sets into that table; `EventTable.gather` normalizes the rows it takes, which
gives the same floats as normalizing every word first.

Every classifier goes through one tuner, `_tune`, and one fold runner,
`_run_fold`.  Every outer fold and inner split is a `SplitPlan`, and a
classifier is a lazy scan of its grid that hands every context's
per-prefix predictions at each point to a visitor: `train_multiclass` SVMs
predict the arg-max class of the prefix decision curves (identification) or
the sign of a test group's mean decision under the positive label's model
(comprehension), and the generative baseline the reader of highest
cumulative log-likelihood.  All are scored by the same per-prefix accuracy.

Each training set is fitted once per experiment.  Contexts whose plans train
on the same texts and readers (in nested LOTO, fold i's inner split that
holds out text j and fold j's that holds out text i) share their statistics,
training lines and fits: Fisher-stage fits are kept by lambda and feature
subset, and the generative baseline's per-reader models by lambda.  The cache
lives in a dict the experiment call makes; a shared fit has the same inputs,
so reuse is exact.  The baseline scores every test line under each reader's
model in one `batch_loglik` pass.

The folds of an experiment run in lockstep.  Each (fold, classifier) run is
a generator that yields the fits it lacks as `_FitRequest`s and goes on once
they are in the context's `fits`; `_run_fold`, `_tune` and the scans pass
requests up with ``yield from``.  `_lockstep` advances every run until it
asks for fits or finishes, and serves each step's requests, one per (fits
dict, key), with one pooled `fit_model` call, one segment per model and each
at its own lambda.  Pooled groups share no values, so every model is the one
a fit of its training set alone gives, bit for bit.
"""

import logging
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import FrequencyTable, NormStats, Text, apply_stats, compute_features, feature_layout, norm_stats
from .events import EventBatch, Scanpath, extract_events
from .fisher import (
    default_ridge,
    empirical_information,
    fisher_metric,
    gram_matrix,
    score_matrix,
)
from .fit import fit_model
from .model import batch_loglik
# solve_dual only for perfbench/layertrace.py's hook, which test_benchmark_worker_prints_a_traced_result requires
from .svm import KernelProblem, MulticlassSvm, prefix_decision_curve, solve_dual, train_multiclass
from .synth import SynthDataset

logger = logging.getLogger(__name__)


class EvalError(ValueError):
    pass


class LeakageError(RuntimeError):
    """Test data reached a training-side computation."""


# ---------------------------------------------------------------------------
# statistics

def _average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank range.

    These are `scipy.stats.rankdata(values, method="average")`'s ranks,
    without the cost of importing `scipy.stats`.
    """
    _, inverse, counts = np.unique(np.asarray(values, dtype=float), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    n: int


WILCOXON_EXACT_MAX_N = 12


def wilcoxon_signed_rank(x, y) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test for paired samples.

    Zero differences are dropped; ties share average ranks.  The exact null
    distribution (all 2^n sign assignments) is used for n <= 12, the normal
    approximation with tie and continuity corrections above.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d = d[d != 0.0]
    n = len(d)
    if n < 5:
        raise EvalError(f"need at least 5 non-zero differences, got {n}")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= WILCOXON_EXACT_MAX_N:
        masks = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        sums = masks @ ranks
        p_le = float(np.mean(sums <= w_plus))
        p_ge = float(np.mean(sums >= w_plus))
        p = min(1.0, 2.0 * min(p_le, p_ge))
    else:
        mean = n * (n + 1) / 4.0
        _, counts = np.unique(np.abs(d), return_counts=True)
        tie_term = float(np.sum(counts ** 3 - counts)) / 48.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        if var <= 0:
            raise EvalError("zero variance in signed-rank statistic")
        z = (w_plus - mean - 0.5 * np.sign(w_plus - mean)) / math.sqrt(var)
        p = float(math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(statistic=w_plus, p_value=p, n=n)


def auc_score(labels, values) -> float:
    """Rank-statistic AUC of `values` for separating the two label classes."""
    labels = np.asarray(labels)
    values = np.asarray(values, dtype=float)
    classes = sorted(set(labels.tolist()))
    if len(classes) != 2:
        raise EvalError(f"AUC requires exactly 2 classes, got {classes!r}")
    pos = labels == classes[1]
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    ranks = _average_ranks(values)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# datasets and splits

@dataclass
class ReadingDataset:
    texts: dict[str, Text]
    freq: FrequencyTable
    scanpaths: list[Scanpath]

    @classmethod
    def from_synth(cls, synth: SynthDataset) -> "ReadingDataset":
        return cls(
            texts={t.text_id: t for t in synth.texts},
            freq=synth.freq,
            scanpaths=list(synth.scanpaths),
        )

    def text_ids(self) -> list[str]:
        return sorted(self.texts)

    def reader_ids(self) -> list[str]:
        return sorted({sp.reader_id for sp in self.scanpaths})


def shuffle_reader_labels(dataset: ReadingDataset, seed: int) -> ReadingDataset:
    """Permute reader labels within each text (a bijection per text).

    Keeps one scanpath group per (label, text) pair while destroying the
    association between labels and the generating readers; a control that
    should push identification accuracy to chance.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    readers = dataset.reader_ids()
    mapping: dict[tuple[str, str], str] = {}
    for text_id in dataset.text_ids():
        permuted = [readers[i] for i in rng.permutation(len(readers))]
        for old, new in zip(readers, permuted):
            mapping[(old, text_id)] = new
    shuffled = []
    for sp in dataset.scanpaths:
        new_reader = mapping[(sp.reader_id, sp.text_id)]
        shuffled.append(replace(sp, reader_id=new_reader, label=new_reader))
    return ReadingDataset(texts=dataset.texts, freq=dataset.freq, scanpaths=shuffled)


@dataclass(frozen=True)
class SplitPlan:
    fold_id: str
    train_texts: frozenset[str]
    test_texts: frozenset[str]
    train_readers: frozenset[str] | None = None
    test_readers: frozenset[str] | None = None

    def __post_init__(self):
        if self.train_texts & self.test_texts:
            raise EvalError(f"fold {self.fold_id}: train and test texts overlap")
        if self.train_readers is not None and self.test_readers is not None:
            if self.train_readers & self.test_readers:
                raise EvalError(f"fold {self.fold_id}: train and test readers overlap")


def loto_folds(text_ids: Sequence[str]) -> list[SplitPlan]:
    """One fold per text: train on the rest, test on the held-out text."""
    text_ids = sorted(text_ids)
    if len(text_ids) < 2:
        raise EvalError("leave-one-text-out needs at least 2 texts")
    return [
        SplitPlan(
            fold_id=held_out,
            train_texts=frozenset(t for t in text_ids if t != held_out),
            test_texts=frozenset([held_out]),
        )
        for held_out in text_ids
    ]


def comprehension_splits(reader_ids: Sequence[str], text_ids: Sequence[str]) -> list[SplitPlan]:
    """Four reader- and text-disjoint splits from crossed 50/50 halves."""
    readers = sorted(reader_ids)
    texts = sorted(text_ids)
    if len(readers) < 2 or len(texts) < 2:
        raise EvalError("comprehension splits need >= 2 readers and >= 2 texts")
    r_a, r_b = readers[:len(readers) // 2], readers[len(readers) // 2:]
    t_a, t_b = texts[:len(texts) // 2], texts[len(texts) // 2:]
    combos = [
        ("s0", r_a, t_a, r_b, t_b),
        ("s1", r_a, t_b, r_b, t_a),
        ("s2", r_b, t_a, r_a, t_b),
        ("s3", r_b, t_b, r_a, t_a),
    ]
    return [
        SplitPlan(
            fold_id=name,
            train_texts=frozenset(tt),
            test_texts=frozenset(st),
            train_readers=frozenset(tr),
            test_readers=frozenset(sr),
        )
        for name, tr, tt, sr, st in combos
    ]


# ---------------------------------------------------------------------------
# pipeline configuration and reporting

@dataclass(frozen=True)
class PipelineConfig:
    """Tuning grids and switches; `inner_folds` and `run_generative_baseline` are identification settings."""

    lambda_grid: tuple[float, ...] = (0.0, 1e-4, 1e-2, 1.0)
    c_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    ridge_scales: tuple[float, ...] = (1e-8, 1e-6, 1e-4)
    inner_folds: int = 2
    feature_elimination: bool = True
    run_generative_baseline: bool = True

    def __post_init__(self):
        # NaN fails every comparison, so it is rejected too
        for name, in_range, bound in (
            ("lambda_grid", lambda v: v >= 0, ">= 0"),
            ("c_grid", lambda v: v > 0, "> 0"),
            ("ridge_scales", lambda v: v >= 0, ">= 0"),
        ):
            values = getattr(self, name)
            if not len(values):
                raise EvalError(f"{name} must not be empty")
            bad = [v for v in values if not in_range(v)]
            if bad:
                raise EvalError(f"{name} values must be {bound}, got {bad}")
        if not self.inner_folds >= 0:
            raise EvalError(f"inner_folds must be >= 0, got {self.inner_folds!r}")


@dataclass
class FoldResult:
    fold_id: str
    accuracy: float
    accuracy_by_lines: list[float]
    n_test_groups: int
    chosen: dict
    baseline_accuracy: float | None = None
    baseline_by_lines: list[float] | None = None
    auc: float | None = None
    majority_accuracy: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalReport:
    mode: str
    folds: list[FoldResult]
    mean_accuracy: float
    stderr_accuracy: float
    accuracy_vs_lines: list[float]
    baseline_mean_accuracy: float | None = None
    baseline_vs_lines: list[float] | None = None
    mean_auc: float | None = None
    stderr_auc: float | None = None
    majority_mean_accuracy: float | None = None
    pairwise_p: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _stderr(values: Sequence[float]) -> float:
    arr = np.asarray(values, dtype=float)
    if len(arr) < 2:
        return 0.0
    return float(arr.std(ddof=1) / math.sqrt(len(arr)))


def _aggregate_curves(curves: Sequence[Sequence[float]]) -> list[float]:
    """Mean across folds per prefix length, extending short curves."""
    if not curves:
        return []
    width = max(len(c) for c in curves)
    padded = np.array([list(c) + [c[-1]] * (width - len(c)) for c in curves])
    return padded.mean(axis=0).tolist()


# ---------------------------------------------------------------------------
# the event table and fold contexts

@dataclass
class EventTable:
    """Every scanpath of a dataset, extracted once, with raw word features.

    Lines are the scanpaths sorted by (text, reader, line); line i owns rows
    offsets[i]:offsets[i + 1] of `events`, whose features follow `layout`.
    """

    scanpaths: list[Scanpath]
    labels: list
    layout: tuple[str, ...]
    events: EventBatch
    offsets: np.ndarray

    def lines(self, texts, readers=None) -> np.ndarray:
        """The lines of `texts`, read by `readers` if given, in table order."""
        return np.array([
            i for i, sp in enumerate(self.scanpaths)
            if sp.text_id in texts and (readers is None or sp.reader_id in readers)
        ], dtype=int)

    def gather(self, lines, stats: NormStats, features: Sequence[str] | None = None) -> tuple[EventBatch, np.ndarray]:
        """The events of `lines` in that order, and each line's event count.

        Feature columns follow `stats.layout`, normalized by `stats`, and are
        restricted to the names in `features` if given; every name of
        `stats.layout` must be in `layout`.
        """
        lines = np.asarray(lines, dtype=int)
        lengths = np.diff(self.offsets)[lines]
        rows = np.repeat(self.offsets[lines] - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        cols = np.ix_(rows, [self.layout.index(name) for name in stats.layout])
        e = self.events
        batch = EventBatch(e.u[rows], e.amp[rows], e.dur[rows],
                           apply_stats(e.w_launch[cols], stats), apply_stats(e.w_land[cols], stats))
        if features is not None:
            batch = batch.select_features([j for j, name in enumerate(stats.layout) if name in features])
        return batch, lengths


def event_table(dataset: ReadingDataset, layout: Sequence[str], label_of=lambda sp: sp.label) -> EventTable:
    """Extract every scanpath of `dataset` once, with raw features over `layout`.

    `label_of` maps a scanpath to its line's class label.
    """
    if not dataset.scanpaths:
        raise EvalError("the dataset has no scanpaths to extract events from")
    texts = [dataset.texts[t] for t in dataset.text_ids()]
    featmap = {f.text_id: f for f in compute_features(texts, dataset.freq, NormStats.raw(layout))[0]}
    scanpaths = sorted(dataset.scanpaths, key=lambda s: (s.text_id, s.reader_id, s.line_id))
    batches = [extract_events(sp, dataset.texts[sp.text_id], featmap[sp.text_id]) for sp in scanpaths]
    return EventTable(scanpaths, [label_of(sp) for sp in scanpaths], tuple(layout),
                      EventBatch.concat(batches), np.cumsum([0] + [b.n for b in batches]))


@dataclass
class _Context:
    """A fold's leak-free statistics plus its index sets into the event table.

    `fits` holds the models fitted on the training lines, keyed by
    ("fisher", lam, features) or ("baseline", lam).
    """

    fold_id: str
    table: EventTable
    stats: NormStats
    train: np.ndarray                  # training lines, in table order
    groups: dict[tuple, np.ndarray]    # (label, text_id) -> test lines, by line id
    fits: dict                         # shared with every context that trains on the same lines


def _assert_no_leakage(stats: NormStats, test_text_ids: frozenset[str]) -> None:
    overlap = stats.source_text_ids & test_text_ids
    if overlap:
        raise LeakageError(
            f"normalization statistics were computed on test texts {sorted(overlap)}"
        )


def _build_context(dataset: ReadingDataset, table: EventTable, plan: SplitPlan,
                   shared: dict | None = None) -> _Context:
    """Statistics of the plan's training texts; its test lines grouped by (label, text), each by line id.

    Contexts built with the same `shared` dict whose plans train on the same
    texts and readers share their statistics, training lines and fits.
    """
    shared = {} if shared is None else shared
    key = (plan.train_texts, plan.train_readers)
    if key not in shared:
        shared[key] = (norm_stats([dataset.texts[t] for t in sorted(plan.train_texts)], dataset.freq),
                       table.lines(plan.train_texts, plan.train_readers), {})
    stats, train, fits = shared[key]
    _assert_no_leakage(stats, plan.test_texts)
    test = table.lines(plan.test_texts, plan.test_readers)
    groups: dict[tuple, list[int]] = {}
    for i in sorted(test, key=lambda i: table.scanpaths[i].line_id):
        groups.setdefault((table.labels[i], table.scanpaths[i].text_id), []).append(i)
    return _Context(
        fold_id=plan.fold_id,
        table=table,
        stats=stats,
        train=train,
        groups={key: np.array(groups[key]) for key in sorted(groups)},
        fits=fits,
    )


def _by_group(ctx: _Context, rows: np.ndarray) -> dict[tuple, np.ndarray]:
    """Rows of the test lines, in group order, split into one block per test group."""
    bounds = np.cumsum([len(lines) for lines in ctx.groups.values()])[:-1]
    return dict(zip(ctx.groups, np.split(rows, bounds)))


@dataclass(frozen=True)
class _FitRequest:
    """A fit a run waits for: `fits[key]` becomes the list of models, at `lam`, of the training sets in `batch`.

    The batch holds the training sets one after another, `sizes[s]` events each.
    """

    fits: dict
    key: tuple
    batch: EventBatch
    sizes: list[int]
    lam: float


def _serve(requests: list[_FitRequest]) -> None:
    """Fit the requests, one pooled `fit_model` call per feature count, and keep each result in its `fits`.

    Requests differ in feature count where contexts' layouts differ (a flag
    only some training texts carry) or feature subsets do (elimination).
    """
    by_width: dict[int, list[_FitRequest]] = {}
    for r in requests:
        by_width.setdefault(r.batch.num_features, []).append(r)
    for pooled in by_width.values():
        models = [outcome.params for outcome in fit_model(EventBatch.concat([r.batch for r in pooled]),
                                                          [r.lam for r in pooled for _ in r.sizes],
                                                          [n for r in pooled for n in r.sizes])]
        start = 0
        for r in pooled:
            r.fits[r.key] = models[start:start + len(r.sizes)]
            start += len(r.sizes)


def _lockstep(runs: list) -> list:
    """Run generators side by side and return what each returns.

    A run yields lists of `_FitRequest`s and is resumed once they are
    served.  Each step advances every unfinished run until it yields or
    returns, then serves the step's requests, the first of each (fits dict,
    key), with one `_serve` call.
    """
    results = [None] * len(runs)
    waiting = list(range(len(runs)))
    while waiting:
        requests, still = {}, []
        for i in waiting:
            try:
                for request in runs[i].send(None):
                    requests.setdefault((id(request.fits), request.key), request)
                still.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        if requests:
            _serve(list(requests.values()))
        waiting = still
    return results


@dataclass
class _FisherStage:
    ctx: _Context
    s_train: np.ndarray
    s_test: np.ndarray     # the test lines' scores, in group order
    labels: list


def _fit_stages(contexts: list[_Context], lam: float, features: Sequence[str]):
    """Fit, then score each context's training lines and test groups, on `features`.

    Features outside a context's layout (flags none of its training texts
    carry) are left out.  The fit is made once per lambda and feature subset,
    and kept in the context's `fits`.  A generator for `_lockstep`: it yields
    the fits its contexts lack as one list of requests, then returns one
    `_FisherStage` per context.
    """
    key = ("fisher", lam, tuple(features))
    trains = [ctx.table.gather(ctx.train, ctx.stats, features) for ctx in contexts]
    missing = [_FitRequest(ctx.fits, key, train, [train.n], lam)
               for ctx, (train, _) in zip(contexts, trains) if key not in ctx.fits]
    if missing:
        yield missing
    stages = []
    for ctx, (train, train_lengths) in zip(contexts, trains):
        [params] = ctx.fits[key]
        s_train = score_matrix(train.split(train_lengths), params)
        test, test_lengths = ctx.table.gather(np.concatenate(list(ctx.groups.values())), ctx.stats, features)
        s_test = score_matrix(test.split(test_lengths), params)
        stages.append(_FisherStage(ctx=ctx, s_train=s_train, s_test=s_test,
                                   labels=[ctx.table.labels[i] for i in ctx.train]))
    return stages


@dataclass
class _KernelStage:
    problem: KernelProblem     # the training Gram, checked once for every C and class
    group_rows: dict[tuple, np.ndarray]


def _kernel_stage(stage: _FisherStage, ridge_scale: float) -> _KernelStage:
    info = empirical_information(stage.s_train)
    metric = fisher_metric(info, default_ridge(info, ridge_scale))
    return _KernelStage(
        problem=KernelProblem(gram_matrix(metric, stage.s_train)),
        group_rows=_by_group(stage.ctx, gram_matrix(metric, stage.s_train, other=stage.s_test)),
    )


def _decide_groups(model, kernels: _KernelStage, decide) -> tuple[dict[tuple, list], dict[tuple, object]]:
    """Per test group, the predicted label for every line prefix 1..L, and the decisions behind them.

    `decide(model, rows)` maps a group's kernel rows to its decisions and that
    list of predictions; the last prediction is the whole-group one.
    """
    curves, decisions = {}, {}
    for key, rows in kernels.group_rows.items():
        decisions[key], curves[key] = decide(model, rows)
    return curves, decisions


def _accuracy_from_curves(curves: dict[tuple, list]) -> tuple[float, list[float]]:
    """Full-lines accuracy and the accuracy-by-prefix curve over groups."""
    width = max(len(preds) for preds in curves.values())
    by_lines = []
    for ell in range(1, width + 1):
        hits = [
            preds[min(ell, len(preds)) - 1] == key[0]
            for key, preds in curves.items()
        ]
        by_lines.append(float(np.mean(hits)))
    return by_lines[-1], by_lines


@dataclass
class _Tuned:
    lam: float
    ridge_scale: float
    C: float
    keep: tuple[int, ...]
    inner_accuracy: float | None

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "ridge_scale": self.ridge_scale,
            "C": self.C,
            "kept_features": list(self.keep),
            "inner_accuracy": self.inner_accuracy,
        }


def _svm_scan(decide):
    """A Fisher-kernel SVM as a scan for `_tune`.

    A context's `MulticlassSvm` comes from `train_multiclass`, handed the
    context's model at the largest C trained so far (or None) so that solves
    whose answer is already known are reused; `decide(model, rows)` is as
    `_decide_groups` takes it.  Each lambda fits every context once and each
    ridge scale builds its kernels once; C values follow in grid order.
    """
    def decided(stage, kernels, models, C):
        if C not in models:
            models[C] = train_multiclass(kernels.problem, stage.labels, C, models[max(models)] if models else None)
        return _decide_groups(models[C], kernels, decide)

    def scan(contexts, config, features, visit):
        for lam in config.lambda_grid:
            stages = yield from _fit_stages(contexts, lam, features)
            for ridge_scale in config.ridge_scales:
                trained = [(stage, _kernel_stage(stage, ridge_scale), {}) for stage in stages]
                for C in config.c_grid:
                    if visit((lam, ridge_scale, C), [decided(*context, C) for context in trained]):
                        return
    return scan


def _tune(contexts: list[_Context], config: PipelineConfig, layout: Sequence[str], scan):
    """Grid search over a classifier's scan with greedy feature elimination.

    `scan(contexts, config, features, visit)` is a generator for `_lockstep`
    that calls `visit(point, decided)` at each (lambda, ridge scale, C)
    point in turn, with every context's (curves, decisions) there, and stops
    when `visit` returns true; a point scores the mean of the contexts'
    accuracies.  `_tune` is such a generator too, and returns the `_Tuned`.
    Deterministic: grid points are scanned in grid order, feature drops in
    index order, and only a strictly better accuracy replaces the incumbent.
    So nothing can replace an incumbent of accuracy 1.0: the grid scan stops
    at the first grid point where every context reaches it (no later C is
    trained), elimination does not start from it, and an elimination round
    ends at the first candidate that reaches it.  The bias is never dropped.
    Feature subsets are index tuples into `layout`, the outer fold's layout.
    Without inner contexts the first grid point is taken, with accuracy None.
    When every point of the grid the choice comes from ties, a warning names
    the inner splits and the points.
    """
    keep = tuple(range(len(layout)))
    if not contexts:
        return _Tuned(lam=config.lambda_grid[0], ridge_scale=config.ridge_scales[0],
                      C=config.c_grid[0], keep=keep, inner_accuracy=None)

    def grid(keep):
        """The first most accurate point on the features `keep`, and every point scanned.

        Points are (accuracy, lambda, ridge scale, C).
        """
        scored = []

        def visit(point, decided):
            scored.append((float(np.mean([_accuracy_from_curves(curves)[0] for curves, _ in decided])), *point))
            return scored[-1][0] >= 1.0

        yield from scan(contexts, config, [layout[i] for i in keep], visit)
        return max(scored, key=lambda point: point[0]), scored

    (acc, lam, ridge_scale, C), scored = yield from grid(keep)
    while config.feature_elimination and len(keep) > 1 and acc < 1.0:
        winner = None
        for drop in keep[1:]:
            cand = tuple(i for i in keep if i != drop)
            top, points = yield from grid(cand)
            if winner is None or top[0] > winner[0][0]:
                winner = (top, points, cand)
            if top[0] >= 1.0:
                break
        if winner[0][0] <= acc:
            break
        (acc, lam, ridge_scale, C), scored, keep = winner
        logger.debug("eliminated features down to %s (inner acc %.3f)", keep, acc)
    if len(scored) > 1 and all(point[0] == acc for point in scored):
        logger.warning("inner tuning on %s ties at accuracy %.3f at every grid point, so it takes the first; "
                       "tied (lambda, ridge scale, C): %s", ", ".join(ctx.fold_id for ctx in contexts), acc,
                       ", ".join(f"({p[1]:g}, {p[2]:g}, {p[3]:g})" for p in scored))
    return _Tuned(lam=lam, ridge_scale=ridge_scale, C=C, keep=keep, inner_accuracy=acc)


# ---------------------------------------------------------------------------
# generative baseline

def _baseline_curves(contexts: list[_Context], lam: float):
    """Per context and test group, the reader whose model gives each line prefix the highest log-likelihood.

    A context's training readers are fitted by one request, one segment per
    reader, made once per lambda and kept in its `fits`; each model scores
    all test lines in one `batch_loglik` pass.  Ties break toward the lowest
    reader id.  A generator for `_lockstep`, as `_fit_stages` is; it returns
    one dict of curves per context.
    """
    key = ("baseline", lam)
    readers = [sorted({ctx.table.labels[i] for i in ctx.train}) for ctx in contexts]
    missing = []
    for ctx, names in zip(contexts, readers):
        if key not in ctx.fits:
            lines = [[i for i in ctx.train if ctx.table.labels[i] == reader] for reader in names]
            events_per_line = np.diff(ctx.table.offsets)
            batch, _ = ctx.table.gather(np.concatenate(lines), ctx.stats)
            missing.append(_FitRequest(ctx.fits, key, batch, [int(events_per_line[part].sum()) for part in lines],
                                       lam))
    if missing:
        yield missing
    curves = []
    for ctx, names in zip(contexts, readers):
        models = ctx.fits[key]
        batch, lengths = ctx.table.gather(np.concatenate(list(ctx.groups.values())), ctx.stats)
        per_line = np.column_stack([batch_loglik(batch, model, lengths) for model in models])
        curves.append({
            gkey: [names[int(row.argmax())] for row in np.cumsum(rows, axis=0)]
            for gkey, rows in _by_group(ctx, per_line).items()
        })
    return curves


def _baseline_scan(contexts: list[_Context], config: PipelineConfig, features, visit):
    """The generative baseline as a scan for `_tune`: one point per lambda.

    It models every feature, so it is tuned without elimination and ignores
    `features`; it has no kernel and no C, so each point carries the first
    ridge scale and C, and no decisions beyond its curves.
    """
    for lam in config.lambda_grid:
        curves = yield from _baseline_curves(contexts, lam)
        if visit((lam, config.ridge_scales[0], config.c_grid[0]), [(c, None) for c in curves]):
            return


# ---------------------------------------------------------------------------
# the fold runner

def _run_fold(dataset: ReadingDataset, table: EventTable, config: PipelineConfig, fold: SplitPlan,
              inner: list[SplitPlan], scan, shared: dict):
    """Tune a classifier's `scan` on the `inner` splits, then decide the fold's test groups.

    The fold is decided by the same scan, run on its context over the chosen
    point alone.  `shared` is the experiment's `_build_context` dict, so that
    contexts that train on the same lines share their fits.  A generator for
    `_lockstep`; it returns the fold's result, its context, and each test
    group's decisions.
    """
    inner_contexts = [_build_context(dataset, table, plan, shared) for plan in inner]
    ctx = _build_context(dataset, table, fold, shared)
    tuned = yield from _tune(inner_contexts, config, ctx.stats.layout, scan)
    chosen = replace(config, lambda_grid=(tuned.lam,), ridge_scales=(tuned.ridge_scale,), c_grid=(tuned.C,))
    outer = []
    yield from scan([ctx], chosen, [ctx.stats.layout[i] for i in tuned.keep],
                    lambda point, decided: outer.extend(decided))
    [(curves, decisions)] = outer
    accuracy, by_lines = _accuracy_from_curves(curves)
    result = FoldResult(fold_id=fold.fold_id, accuracy=accuracy, accuracy_by_lines=by_lines,
                        n_test_groups=len(curves), chosen=tuned.to_dict())
    return result, ctx, decisions


# ---------------------------------------------------------------------------
# leave-one-text-out identification

def _inner_holdouts(table: EventTable, fold: SplitPlan, k: int) -> list[SplitPlan]:
    """Up to `k` inner splits, each holding out one evenly spaced training text of `fold`.

    A split tests only readers its training texts have lines of: a warning
    names the split and the readers it leaves out, and a split left with no
    test lines is dropped.
    """
    train_texts = sorted(fold.train_texts)
    if k >= len(train_texts):
        k = len(train_texts) - 1
    if k < 1:
        return []
    plans = []
    for i in np.unique(np.round(np.linspace(0, len(train_texts) - 1, k)).astype(int)):
        plan = SplitPlan(fold_id=f"{fold.fold_id}/{train_texts[i]}",
                         train_texts=fold.train_texts - {train_texts[i]},
                         test_texts=frozenset([train_texts[i]]))
        trained = {table.scanpaths[j].reader_id for j in table.lines(plan.train_texts)}
        untrained = {table.scanpaths[j].reader_id for j in table.lines(plan.test_texts)} - trained
        if untrained:
            logger.warning("inner split %s does not test readers %s: its training texts have no lines of them",
                           plan.fold_id, sorted(untrained))
            plan = replace(plan, test_readers=frozenset(trained))
        if len(table.lines(plan.test_texts, plan.test_readers)):
            plans.append(plan)
    return plans


def _identify(mc: MulticlassSvm, rows: np.ndarray) -> tuple[np.ndarray, list]:
    """A test group's prefix decision curve, and the class it predicts after each prefix.

    Ties break toward the lowest class id: argmax takes the first maximum and
    `mc.classes` is sorted.
    """
    curve = prefix_decision_curve(mc, rows)
    return curve, [mc.classes[int(row.argmax())] for row in curve]


def loto_cv(dataset: ReadingDataset, config: PipelineConfig | None = None) -> EvalReport:
    """Leave-one-text-out reader identification with nested tuning."""
    config = config or PipelineConfig()
    unread = sorted(set(dataset.text_ids()) - {sp.text_id for sp in dataset.scanpaths})
    if unread:
        raise EvalError(f"texts {unread} have no scanpaths to test on")
    if len(dataset.reader_ids()) < 2:
        raise EvalError(f"identification needs at least 2 readers, got {dataset.reader_ids()}")
    table = event_table(dataset, feature_layout(list(dataset.texts.values())), lambda sp: sp.reader_id)

    folds, runs, shared = loto_folds(dataset.text_ids()), [], {}
    for fold in folds:
        trained = {table.scanpaths[i].reader_id for i in table.lines(fold.train_texts)}
        missing = set(dataset.reader_ids()) - trained
        if missing:
            raise EvalError(f"fold {fold.fold_id}: readers {sorted(missing)} absent from training data")
        inner = _inner_holdouts(table, fold, config.inner_folds)
        runs.append(_run_fold(dataset, table, config, fold, inner, _svm_scan(_identify), shared))
        if config.run_generative_baseline:
            # one lambda leaves the baseline nothing to tune, so it fits no inner model
            runs.append(_run_fold(dataset, table, replace(config, feature_elimination=False), fold,
                                  inner if len(config.lambda_grid) > 1 else [], _baseline_scan, shared))
    outcomes = iter(_lockstep(runs))
    results = []
    for _ in folds:
        result, _, _ = next(outcomes)
        if config.run_generative_baseline:
            base, _, _ = next(outcomes)
            result.baseline_accuracy, result.baseline_by_lines = base.accuracy, base.accuracy_by_lines
        results.append(result)

    accs = [r.accuracy for r in results]
    report = EvalReport(
        mode="identification",
        folds=results,
        mean_accuracy=float(np.mean(accs)),
        stderr_accuracy=_stderr(accs),
        accuracy_vs_lines=_aggregate_curves([r.accuracy_by_lines for r in results]),
    )
    if config.run_generative_baseline:
        base_accs = [r.baseline_accuracy for r in results]
        report.baseline_mean_accuracy = float(np.mean(base_accs))
        report.baseline_vs_lines = _aggregate_curves([r.baseline_by_lines for r in results])
        try:
            test = wilcoxon_signed_rank(accs, base_accs)
            report.pairwise_p["fisher_svm_vs_generative"] = test.p_value
        except EvalError:
            report.pairwise_p["fisher_svm_vs_generative"] = None
    return report


# ---------------------------------------------------------------------------
# binary comprehension evaluation

def _comprehension_inner_plans(table: EventTable, split: SplitPlan) -> list[SplitPlan]:
    """Split s0 of the training readers and texts, if it tests some lines and trains on both labels.

    Otherwise `split` is not tuned, and a warning names it and the reason.
    """
    readers, texts = len(split.train_readers), len(split.train_texts)
    if readers < 2 or texts < 2:
        reason = f"an inner split needs 2 training readers and 2 training texts, and it has {readers} and {texts}"
    else:
        inner = replace(comprehension_splits(split.train_readers, split.train_texts)[0],
                        fold_id=f"{split.fold_id}/s0")
        if not len(table.lines(inner.test_texts, inner.test_readers)):
            reason = "its inner split has no test lines"
        elif len({table.labels[i] for i in table.lines(inner.train_texts, inner.train_readers)}) < 2:
            reason = "the training lines of its inner split carry one label"
        else:
            return [inner]
    logger.warning("split %s is not tuned and takes the first grid values: %s", split.fold_id, reason)
    return []


def binary_comprehension_eval(dataset: ReadingDataset, config: PipelineConfig | None = None) -> EvalReport:
    """Binary label prediction over 4 reader- and text-disjoint 50/50 splits."""
    config = config or PipelineConfig()
    labels = {sp.label for sp in dataset.scanpaths}
    if len(labels) != 2 or None in labels:
        raise EvalError(f"comprehension mode needs exactly 2 scanpath labels, got {sorted(map(str, labels))}")
    try:
        classes = sorted(labels)
    except TypeError:
        raise EvalError(f"comprehension labels {' and '.join(sorted(map(repr, labels)))} "
                        "cannot be ordered: their types differ") from None
    negative, positive = classes
    splits = comprehension_splits(dataset.reader_ids(), dataset.text_ids())
    table = event_table(dataset, feature_layout(list(dataset.texts.values())))
    for split in splits:
        for role, readers, texts in (("training", split.train_readers, split.train_texts),
                                     ("test", split.test_readers, split.test_texts)):
            if not len(table.lines(texts, readers)):
                raise EvalError(
                    f"split {split.fold_id}: the {role} block of readers {sorted(readers)} "
                    f"x texts {sorted(texts)} has no scanpaths"
                )

    def decide(mc, rows):
        # a group predicts by the sign of its lines' mean decision under the
        # positive label's model (the one train_multiclass solves), as one prefix
        decision = float(mc.models[1].decision_values(rows).mean())
        return decision, [positive if decision >= 0 else negative]

    runs, shared = [], {}
    for split in splits:
        if len({table.labels[i] for i in table.lines(split.train_texts, split.train_readers)}) < 2:
            raise EvalError(f"fold {split.fold_id}: single-class training split")
        runs.append(_run_fold(dataset, table, config, split, _comprehension_inner_plans(table, split),
                              _svm_scan(decide), shared))
    results = []
    for result, ctx, decisions in _lockstep(runs):
        group_labels = [key[0] for key in decisions]
        if len(set(group_labels)) == 2:
            result.auc = auc_score(group_labels, list(decisions.values()))
        train_group_labels = list({
            (table.scanpaths[i].reader_id, table.scanpaths[i].text_id): table.labels[i] for i in ctx.train
        }.values())
        # ties go to the first class
        majority = classes[int(np.argmax([train_group_labels.count(c) for c in classes]))]
        result.majority_accuracy = float(np.mean([lbl == majority for lbl in group_labels]))
        results.append(result)

    accs = [r.accuracy for r in results]
    aucs = [r.auc for r in results if r.auc is not None]
    return EvalReport(
        mode="comprehension",
        folds=results,
        mean_accuracy=float(np.mean(accs)),
        stderr_accuracy=_stderr(accs),
        accuracy_vs_lines=_aggregate_curves([[r.accuracy] for r in results]),
        mean_auc=float(np.mean(aucs)) if aucs else None,
        stderr_auc=_stderr(aucs) if aucs else None,
        majority_mean_accuracy=float(np.mean([r.majority_accuracy for r in results])),
    )


# ---------------------------------------------------------------------------
# report serialization

def write_report_json(path, report: EvalReport, provenance: dict | None = None) -> None:
    payload = report.to_dict()
    if provenance is not None:
        payload["_provenance"] = provenance
    from .util import write_json

    write_json(path, payload)


def write_report_csv(path, report: EvalReport, provenance_comment: str | None = None) -> None:
    """One row per fold x lines-used, for external plotting."""
    lines = []
    if provenance_comment:
        lines.append(f"# {provenance_comment}")
    lines.append("fold,lines_used,accuracy,baseline_accuracy,auc")
    for fold in report.folds:
        for ell, acc in enumerate(fold.accuracy_by_lines, start=1):
            base = ""
            if fold.baseline_by_lines is not None:
                base = repr(fold.baseline_by_lines[min(ell, len(fold.baseline_by_lines)) - 1])
            auc = repr(fold.auc) if fold.auc is not None else ""
            lines.append(f"{fold.fold_id},{ell},{acc!r},{base},{auc}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def summarize_report(payload: dict) -> str:
    """Human-readable summary of a report JSON payload."""
    out = [f"mode: {payload['mode']}"]
    out.append(
        f"accuracy: {payload['mean_accuracy']:.4f} +/- {payload['stderr_accuracy']:.4f}"
        f" over {len(payload['folds'])} folds"
    )
    if payload.get("baseline_mean_accuracy") is not None:
        out.append(f"generative baseline: {payload['baseline_mean_accuracy']:.4f}")
    if payload.get("mean_auc") is not None:
        out.append(f"auc: {payload['mean_auc']:.4f} +/- {payload['stderr_auc']:.4f}")
    if payload.get("majority_mean_accuracy") is not None:
        out.append(f"majority baseline: {payload['majority_mean_accuracy']:.4f}")
    curve = payload.get("accuracy_vs_lines") or []
    if len(curve) > 1:
        rendered = " ".join(f"{v:.3f}" for v in curve)
        out.append(f"accuracy vs lines read: {rendered}")
    for name, p in (payload.get("pairwise_p") or {}).items():
        out.append(f"wilcoxon {name}: p={p}" if p is not None else f"wilcoxon {name}: n/a")
    return "\n".join(out)
