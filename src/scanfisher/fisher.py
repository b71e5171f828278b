"""Fisher scores, the empirical Fisher information, and the Fisher kernel.

The Fisher score of an event batch is the gradient of its unregularized
log-likelihood at fitted parameters, laid out per saccade type u = 1..5 as

    [d/d pi_u (1), d/d alpha_u (M), d/d beta_u (M), d/d gamma_u (M), d/d delta_u (M)]

for a total dimension D = 5 * (1 + 4M).  Block formulas, with W the feature
rows of the type's events, x the amplitudes (launch features) or durations
(landing features), psi the digamma function and clamp the limit of a linear
predictor to [ln 1e-8, ln 1e8]:

    pi:     K_u / pi_u
    shape:  W^T ( e ⊙ (ln x - psi(e) - r) )   with e = exp(clamp(W a)), r = clamp(W b)
    scale:  W^T ( x ⊙ exp(-r) - e )

The terms come from `scanfisher.model.gamma_terms`, so these blocks are the
negated lambda = 0 gradient of the fit's objective, at the link bounds too.
`score_matrix` evaluates every type's terms once over all instances' pooled
events and sums the rows [W ⊙ shape, W ⊙ scale] per instance in event order
(np.add.reduceat), so results can differ from a per-instance W^T v in the
last digits.

The Fisher kernel between two scores is g_i^T (I + ridge*Id)^{-1} g_j with
I = (1/N) sum g g^T, applied through a Cholesky factor and triangular solves.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .events import NUM_SACCADE_TYPES, EventBatch
from .model import ModelError, ModelParams, type_terms


class MetricError(ValueError):
    """Fisher information metric could not be factorized."""


class ScoreFileError(ValueError):
    """A score file that `read_scores` cannot read."""


def score_dimension(num_features: int) -> int:
    return NUM_SACCADE_TYPES * (1 + 4 * num_features)


def score_matrix(instances: Sequence[EventBatch], params: ModelParams) -> np.ndarray:
    """Fisher scores of a sequence of event batches, (N, D), in one pass per type.

    Row s is the score of instance s; an empty instance scores the zero vector.
    """
    m = params.num_features
    for i, inst in enumerate(instances):
        if inst.num_features != m:
            raise ModelError(f"instance {i} carries M={inst.num_features} features but the model has M={m}")
    n = len(instances)
    out = np.zeros((n, score_dimension(m)))
    if not n:
        return out
    batch = EventBatch.concat(instances)
    owner = np.repeat(np.arange(n), [inst.n for inst in instances])   # each event's instance
    width = 1 + 4 * m
    for u in range(1, NUM_SACCADE_TYPES + 1):
        base = (u - 1) * width
        idx = np.flatnonzero(batch.u == u)
        owners = owner[idx]
        out[:, base] = np.bincount(owners, minlength=n) / params.pi[u - 1]
        if idx.size == 0:
            continue
        (_, amp_shape, amp_scale), (_, dur_shape, dur_scale) = type_terms(batch, params, u, idx, order=1)
        w_l, w_d = batch.w_launch[idx], batch.w_land[idx]
        block = np.concatenate(
            [w_l * amp_shape[:, None], w_l * amp_scale[:, None],
             w_d * dur_shape[:, None], w_d * dur_scale[:, None]],
            axis=1,
        )
        # owners is non-decreasing, so each instance's events of type u are contiguous
        starts = np.flatnonzero(np.concatenate(([True], owners[1:] != owners[:-1])))
        out[owners[starts], base + 1:base + width] = np.add.reduceat(block, starts, axis=0)
    return out


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


def _check_finite(information: np.ndarray) -> None:
    if not np.isfinite(information).all():
        raise MetricError("the Fisher information is not finite: a score is non-finite or too large")


def default_ridge(information: np.ndarray, scale: float = 1e-6) -> float:
    """Ridge heuristic: scale * trace(I) / D (N < D makes I singular), at least 1e-12.

    A negative or NaN scale, an information of no components (D = 0) and a
    non-finite information raise MetricError.
    """
    if not scale >= 0:
        raise MetricError(f"ridge scale must be >= 0, got {scale!r}")
    d = information.shape[0]
    if d == 0:
        raise MetricError("the Fisher information has no components (D = 0)")
    _check_finite(information)
    return max(scale * float(np.trace(information)) / d, 1e-12)


def empirical_information(scores: np.ndarray) -> np.ndarray:
    """Mean outer product of the score rows.

    Scores so large that their products overflow give non-finite entries,
    without a floating-point warning; `default_ridge` and `fisher_metric`
    reject them.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n = scores.shape[0]
    if n < 1:
        raise MetricError("empirical Fisher information needs at least one score row")
    with np.errstate(over="ignore", invalid="ignore"):
        info = scores.T @ scores / n
        return 0.5 * (info + info.T)


def fisher_metric(info: np.ndarray, ridge: float) -> FisherMetric:
    """Build the metric I + ridge*Id from the information I and factorize it; non-finite input raises MetricError."""
    if not 0 <= ridge < np.inf:
        raise MetricError(f"ridge must be finite and >= 0, got {ridge!r}")
    _check_finite(info)
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
    """Read a `write_scores` file; a malformed file or a non-finite value raises ScoreFileError naming path and line."""
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    header = raw[0].split() if raw else []
    if len(header) != 2 or not all(tok.isdigit() for tok in header):
        raise ScoreFileError(f"{path}:1: expected the header 'D N' of two non-negative integers")
    d, n = (int(tok) for tok in header)
    if d == 0:
        raise ScoreFileError(f"{path}:1: a score has at least one component, the header gives D = 0")
    if len(raw) - 1 != n:
        raise ScoreFileError(f"{path}: the header promises {n} rows, the file has {len(raw) - 1}")
    scores = np.empty((n, d))
    for row, line in enumerate(raw[1:]):
        tokens = line.split()
        try:
            if len(tokens) != d:
                raise ValueError(f"expected {d} values, got {len(tokens)}")
            scores[row] = [float(tok) for tok in tokens]
            if not np.isfinite(scores[row]).all():
                raise ValueError("non-finite value")
        except ValueError as exc:
            raise ScoreFileError(f"{path}:{row + 2}: {exc}") from None
    return scores
