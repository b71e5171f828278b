"""Reference per-instance Fisher score and scalar kernel, kept as test oracles.

`reference_fisher_score` is the straightforward per-instance score that the
segmented kernel of `scanfisher.fisher` replaced: one masked pass per saccade
type over one instance's events.  The kernel must match it to rounding.
`kernel` is the Fisher kernel value of one pair of scores; every entry of
`scanfisher.fisher.gram_matrix` must match it.
"""

import numpy as np

from scanfisher.events import NUM_SACCADE_TYPES, EventBatch
from scanfisher.fisher import FisherMetric, _block_terms, score_dimension
from scanfisher.model import ModelParams


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
        amp_shape, amp_scale = _block_terms(batch.amp[mask], w_l, params.alpha[u - 1], params.beta[u - 1])
        dur_shape, dur_scale = _block_terms(batch.dur[mask], w_d, params.gamma[u - 1], params.delta[u - 1])
        out[base + 1:base + 1 + m] = w_l.T @ amp_shape
        out[base + 1 + m:base + 1 + 2 * m] = w_l.T @ amp_scale
        out[base + 1 + 2 * m:base + 1 + 3 * m] = w_d.T @ dur_shape
        out[base + 1 + 3 * m:base + 1 + 4 * m] = w_d.T @ dur_scale
    return out


def kernel(g_i: np.ndarray, g_j: np.ndarray, metric: FisherMetric) -> float:
    """Fisher kernel value g_i^T (I + ridge*Id)^{-1} g_j via triangular solves."""
    z = metric.whiten(np.stack([g_i, g_j]))
    return float(z[0] @ z[1])
