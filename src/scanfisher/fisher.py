"""Fisher scores, the empirical Fisher information, and the Fisher kernel.

The Fisher score of an event batch is the gradient of its unregularized
log-likelihood at fitted parameters, laid out per saccade type u = 1..5 as

    [d/d pi_u (1), d/d alpha_u (M), d/d beta_u (M), d/d gamma_u (M), d/d delta_u (M)]

for a total dimension D = 5 * (1 + 4M).  Block formulas, with W the feature
rows of the type's events, x the amplitudes (launch features) or durations
(landing features), and psi the digamma function:

    pi:     K_u / pi_u
    shape:  W^T ( e ⊙ (ln x - psi(e) - W b) )   with e = exp(W a)
    scale:  W^T ( x ⊙ exp(-W b) - e )

Scores are computed by one segmented kernel: the instances' events are
pooled with each event's owning instance recorded, every type's terms are
evaluated once over all of that type's pooled events, and the per-event
rows [W ⊙ shape, W ⊙ scale] are summed per instance with np.add.reduceat.
score_matrix is that kernel; fisher_score is the one-instance case and
score_contributions the case of one event per instance.  Sums run in event
order rather than through a matrix product, so results can differ from a
per-instance W^T v in the last digits.

The Fisher kernel between two scores is g_i^T (I + ridge*Id)^{-1} g_j with
I = (1/N) sum g g^T, applied through a Cholesky factor and triangular solves.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import digamma

from .events import NUM_SACCADE_TYPES, EventBatch
from .model import ModelError, ModelParams, link_many


class MetricError(ValueError):
    """Fisher information metric could not be factorized."""


def score_dimension(num_features: int) -> int:
    return NUM_SACCADE_TYPES * (1 + 4 * num_features)


def score_layout(num_features: int) -> list[str]:
    """Component names of the Fisher score vector, for reports and debugging."""
    names = []
    for u in range(1, NUM_SACCADE_TYPES + 1):
        names.append(f"u{u}.pi")
        for block in ("alpha", "beta", "gamma", "delta"):
            names.extend(f"u{u}.{block}{m}" for m in range(num_features))
    return names


def _block_terms(x, W, shape_w, scale_w):
    e = link_many(W, shape_w)
    r = W @ scale_w
    shape_term = e * (np.log(x) - digamma(e) - r)
    scale_term = x * np.exp(-r) - e
    return shape_term, scale_term


def _segment_scores(batch: EventBatch, owner: np.ndarray, n: int, params: ModelParams) -> np.ndarray:
    """Fisher scores of n event segments, (n, D); row s sums the events owned by s.

    `owner` gives each event's segment in 0..n-1 and must be non-decreasing,
    so every type's events of one segment are contiguous after masking.
    """
    m = params.num_features
    width = 1 + 4 * m
    out = np.zeros((n, score_dimension(m)))
    for u in range(1, NUM_SACCADE_TYPES + 1):
        base = (u - 1) * width
        idx = np.flatnonzero(batch.u == u)
        owners = owner[idx]
        out[:, base] = np.bincount(owners, minlength=n) / params.pi[u - 1]
        if idx.size == 0:
            continue
        w_l = batch.w_launch[idx]
        w_d = batch.w_land[idx]
        amp_shape, amp_scale = _block_terms(batch.amp[idx], w_l, params.alpha[u - 1], params.beta[u - 1])
        dur_shape, dur_scale = _block_terms(batch.dur[idx], w_d, params.gamma[u - 1], params.delta[u - 1])
        block = np.concatenate(
            [w_l * amp_shape[:, None], w_l * amp_scale[:, None],
             w_d * dur_shape[:, None], w_d * dur_scale[:, None]],
            axis=1,
        )
        starts = np.flatnonzero(np.concatenate(([True], owners[1:] != owners[:-1])))
        out[owners[starts], base + 1:base + width] = np.add.reduceat(block, starts, axis=0)
    return out


def _checked_batch(batch: EventBatch, index: int, params: ModelParams) -> EventBatch:
    if batch.num_features != params.num_features:
        raise ModelError(
            f"instance {index} carries M={batch.num_features} features "
            f"but the model has M={params.num_features}"
        )
    return batch


def score_matrix(instances: Sequence[EventBatch], params: ModelParams) -> np.ndarray:
    """Fisher scores of a sequence of event batches, (N, D), in one pass per type."""
    batches = [_checked_batch(inst, i, params) for i, inst in enumerate(instances)]
    if not batches:
        return np.zeros((0, score_dimension(params.num_features)))
    owner = np.repeat(np.arange(len(batches)), [b.n for b in batches])
    return _segment_scores(EventBatch.concat(batches), owner, len(batches), params)


def fisher_score(events: EventBatch, params: ModelParams) -> np.ndarray:
    """Gradient of the unregularized log-likelihood at `params`.

    An empty event batch yields the zero vector of dimension D.
    """
    return score_matrix([events], params)[0]


def score_contributions(events: EventBatch, params: ModelParams) -> np.ndarray:
    """Per-event Fisher score rows, (N, D); their sum equals fisher_score."""
    batch = _checked_batch(events, 0, params)
    return _segment_scores(batch, np.arange(batch.n), batch.n, params)


@dataclass(frozen=True)
class FisherMetric:
    """Empirical Fisher information I plus ridge, with its Cholesky factor."""

    information: np.ndarray
    ridge: float
    chol: np.ndarray

    def whiten(self, scores: np.ndarray) -> np.ndarray:
        """Map scores g to z = L^{-1} g so that kernel values are plain dots."""
        scores = np.atleast_2d(np.asarray(scores, dtype=float))
        return solve_triangular(self.chol, scores.T, lower=True).T


def default_ridge(information: np.ndarray, scale: float = 1e-6) -> float:
    """Ridge heuristic: scale * trace(I) / D (N < D makes I singular), at least 1e-12.

    A negative or NaN scale raises MetricError.
    """
    if not scale >= 0:
        raise MetricError(f"ridge scale must be >= 0, got {scale!r}")
    d = information.shape[0]
    return max(scale * float(np.trace(information)) / d, 1e-12)


def empirical_information(scores: np.ndarray) -> np.ndarray:
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n = scores.shape[0]
    if n < 1:
        raise MetricError("empirical Fisher information needs at least one score row")
    info = scores.T @ scores / n
    return 0.5 * (info + info.T)


def fisher_metric(scores: np.ndarray, ridge: float) -> FisherMetric:
    """Build the metric I + ridge*Id from score rows and factorize it."""
    info = empirical_information(scores)
    if ridge < 0:
        raise MetricError("ridge must be >= 0")
    regularized = info + ridge * np.eye(info.shape[0])
    try:
        chol = np.linalg.cholesky(regularized)
    except np.linalg.LinAlgError:
        raise MetricError(
            f"Fisher information is not positive definite at ridge={ridge!r}; "
            "increase the ridge"
        ) from None
    return FisherMetric(information=info, ridge=float(ridge), chol=chol)


def gram_matrix(metric: FisherMetric, scores: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix between score rows; symmetric when `other` is None."""
    z = metric.whiten(scores)
    if other is None:
        gram = z @ z.T
        return 0.5 * (gram + gram.T)
    return metric.whiten(other) @ z.T


def write_scores(path, scores: np.ndarray) -> None:
    """Dense text export: header 'D N', then one row of D reals per instance."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n, d = scores.shape
    lines = [f"{d} {n}"]
    lines.extend(" ".join(f"{v:.17g}" for v in row) for row in scores)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_scores(path) -> np.ndarray:
    """Read a `write_scores` file; a malformed one raises ValueError naming path and line."""
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    header = raw[0].split() if raw else []
    if len(header) != 2 or not all(tok.isdigit() for tok in header):
        raise ValueError(f"{path}:1: expected the header 'D N' of two non-negative integers")
    d, n = (int(tok) for tok in header)
    if len(raw) - 1 != n:
        raise ValueError(f"{path}: the header promises {n} rows, the file has {len(raw) - 1}")
    scores = np.empty((n, d))
    for row, line in enumerate(raw[1:]):
        tokens = line.split()
        try:
            if len(tokens) != d:
                raise ValueError(f"expected {d} values, got {len(tokens)}")
            scores[row] = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ValueError(f"{path}:{row + 2}: {exc}") from None
    return scores
