"""Reference per-instance Fisher score, scalar kernel and score helpers, kept for tests.

`reference_fisher_score` is the straightforward per-instance score that the
segmented kernel of `scanfisher.fisher` replaced: one masked pass per saccade
type over one instance's events, with the block terms as they were written
before `scanfisher.model.gamma_terms` (the shape link's value clamped after
``exp``, the scale's predictor W b unclamped).  The kernel must match it to
rounding inside the link bounds.  `kernel` is the Fisher kernel value of one
pair of scores; every entry of `scanfisher.fisher.gram_matrix` must match it.
`fisher_score`, `score_contributions` and `score_layout` are the one-instance,
one-event-per-instance and component-name views of `score_matrix`.
"""

import numpy as np
from scipy.special import digamma

from scanfisher.events import NUM_SACCADE_TYPES, EventBatch
from scanfisher.fisher import FisherMetric, score_dimension, score_matrix
from scanfisher.model import ModelParams
from model_reference import link_many


def fisher_score(events: EventBatch, params: ModelParams) -> np.ndarray:
    """Gradient of the unregularized log-likelihood at `params`; zero for no events."""
    return score_matrix([events], params)[0]


def score_contributions(events: EventBatch, params: ModelParams) -> np.ndarray:
    """Per-event Fisher score rows, (N, D); their sum equals fisher_score."""
    return score_matrix(events.split(np.ones(events.n, dtype=int)), params)


def score_layout(num_features: int) -> list[str]:
    """Component names of the Fisher score vector."""
    names = []
    for u in range(1, NUM_SACCADE_TYPES + 1):
        names.append(f"u{u}.pi")
        for block in ("alpha", "beta", "gamma", "delta"):
            names.extend(f"u{u}.{block}{m}" for m in range(num_features))
    return names


def block_terms(x, W, shape_w, scale_w):
    """Per-event shape and scale terms of one type's events."""
    e = link_many(W, shape_w)
    r = W @ scale_w
    shape_term = e * (np.log(x) - digamma(e) - r)
    scale_term = x * np.exp(-r) - e
    return shape_term, scale_term


def reference_fisher_score(batch: EventBatch, params: ModelParams) -> np.ndarray:
    """Gradient of the unregularized log-likelihood at `params`.

    An empty event batch yields the zero vector of dimension D.
    """
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
        amp_shape, amp_scale = block_terms(batch.amp[mask], w_l, params.alpha[u - 1], params.beta[u - 1])
        dur_shape, dur_scale = block_terms(batch.dur[mask], w_d, params.gamma[u - 1], params.delta[u - 1])
        out[base + 1:base + 1 + m] = w_l.T @ amp_shape
        out[base + 1 + m:base + 1 + 2 * m] = w_l.T @ amp_scale
        out[base + 1 + 2 * m:base + 1 + 3 * m] = w_d.T @ dur_shape
        out[base + 1 + 3 * m:base + 1 + 4 * m] = w_d.T @ dur_scale
    return out


def kernel(g_i: np.ndarray, g_j: np.ndarray, metric: FisherMetric) -> float:
    """Fisher kernel value g_i^T (I + ridge*Id)^{-1} g_j via triangular solves."""
    z = metric.whiten(np.stack([g_i, g_j]))
    return float(z[0] @ z[1])
