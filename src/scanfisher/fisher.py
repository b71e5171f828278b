"""Fisher scores, the empirical Fisher information, and the Fisher kernel.

The Fisher score of an event collection is the gradient of its unregularized
log-likelihood at fitted parameters, laid out per saccade type u = 1..5 as

    [d/d pi_u (1), d/d alpha_u (M), d/d beta_u (M), d/d gamma_u (M), d/d delta_u (M)]

for a total dimension D = 5 * (1 + 4M).  Block formulas, with W the feature
rows of the type's events, x the amplitudes (launch features) or durations
(landing features), and psi the digamma function:

    pi:     K_u / pi_u
    shape:  W^T ( e ⊙ (ln x - psi(e) - W b) )   with e = exp(W a)
    scale:  W^T ( x ⊙ exp(-W b) - e )

The kernel between two scores is g_i^T (I + ridge*Id)^{-1} g_j with
I = (1/N) sum g g^T, applied through a Cholesky factor and triangular solves.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import digamma

from .events import NUM_SACCADE_TYPES, as_batch
from .model import ModelParams, link_many


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


def fisher_score(events, params: ModelParams) -> np.ndarray:
    """Gradient of the unregularized log-likelihood at `params`.

    An empty event collection yields the zero vector of dimension D.
    """
    batch = as_batch(events, num_features=params.num_features)
    m = params.num_features
    out = np.zeros(score_dimension(m))
    width = 1 + 4 * m
    for u in range(1, NUM_SACCADE_TYPES + 1):
        base = (u - 1) * width
        mask = batch.u == u
        k_u = int(mask.sum())
        out[base] = k_u / params.pi[u - 1]
        if k_u == 0:
            continue
        w_l = batch.w_launch[mask]
        w_d = batch.w_land[mask]
        amp_shape, amp_scale = _block_terms(batch.amp[mask], w_l, params.alpha[u - 1], params.beta[u - 1])
        dur_shape, dur_scale = _block_terms(batch.dur[mask], w_d, params.gamma[u - 1], params.delta[u - 1])
        out[base + 1:base + 1 + m] = w_l.T @ amp_shape
        out[base + 1 + m:base + 1 + 2 * m] = w_l.T @ amp_scale
        out[base + 1 + 2 * m:base + 1 + 3 * m] = w_d.T @ dur_shape
        out[base + 1 + 3 * m:base + 1 + 4 * m] = w_d.T @ dur_scale
    return out


def score_contributions(events, params: ModelParams) -> np.ndarray:
    """Per-event Fisher score rows, (N, D); their sum equals fisher_score."""
    batch = as_batch(events, num_features=params.num_features)
    m = params.num_features
    width = 1 + 4 * m
    out = np.zeros((batch.n, score_dimension(m)))
    for u in range(1, NUM_SACCADE_TYPES + 1):
        mask = batch.u == u
        if not mask.any():
            continue
        base = (u - 1) * width
        idx = np.flatnonzero(mask)
        w_l = batch.w_launch[idx]
        w_d = batch.w_land[idx]
        amp_shape, amp_scale = _block_terms(batch.amp[idx], w_l, params.alpha[u - 1], params.beta[u - 1])
        dur_shape, dur_scale = _block_terms(batch.dur[idx], w_d, params.gamma[u - 1], params.delta[u - 1])
        out[idx, base] = 1.0 / params.pi[u - 1]
        out[np.ix_(idx, range(base + 1, base + 1 + m))] = w_l * amp_shape[:, None]
        out[np.ix_(idx, range(base + 1 + m, base + 1 + 2 * m))] = w_l * amp_scale[:, None]
        out[np.ix_(idx, range(base + 1 + 2 * m, base + 1 + 3 * m))] = w_d * dur_shape[:, None]
        out[np.ix_(idx, range(base + 1 + 3 * m, base + 1 + 4 * m))] = w_d * dur_scale[:, None]
    return out


def score_matrix(instances: Sequence, params: ModelParams) -> np.ndarray:
    """Stack fisher_score over a sequence of event collections, (N, D)."""
    return np.array([fisher_score(inst, params) for inst in instances])


@dataclass(frozen=True)
class FisherMetric:
    """Empirical Fisher information I plus ridge, with its Cholesky factor."""

    information: np.ndarray
    ridge: float
    chol: np.ndarray

    @property
    def dim(self) -> int:
        return self.information.shape[0]

    def whiten(self, scores: np.ndarray) -> np.ndarray:
        """Map scores g to z = L^{-1} g so that kernel values are plain dots."""
        scores = np.atleast_2d(np.asarray(scores, dtype=float))
        return solve_triangular(self.chol, scores.T, lower=True).T


def default_ridge(information: np.ndarray, scale: float = 1e-6) -> float:
    """Ridge heuristic: scale * trace(I) / D (N < D makes I singular)."""
    d = information.shape[0]
    return scale * float(np.trace(information)) / d


def empirical_information(scores: np.ndarray) -> np.ndarray:
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n = scores.shape[0]
    if n < 1:
        raise ValueError("need at least one score")
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


def kernel(g_i: np.ndarray, g_j: np.ndarray, metric: FisherMetric) -> float:
    """Fisher kernel value g_i^T (I + ridge*Id)^{-1} g_j via triangular solves."""
    z = metric.whiten(np.stack([g_i, g_j]))
    return float(z[0] @ z[1])


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
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    if not raw:
        raise ValueError(f"{path}: empty scores file")
    d, n = (int(tok) for tok in raw[0].split())
    rows = [np.array(line.split(), dtype=float) for line in raw[1:n + 1]]
    scores = np.array(rows)
    if scores.shape != (n, d):
        raise ValueError(f"{path}: expected {n} rows of {d} values, got {scores.shape}")
    return scores
