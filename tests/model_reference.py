"""Scalar log-likelihood and generative classifier, kept as test oracles.

`link` and `link_many` are the exponential link as the package computed it
before every shape and scale came from `gamma_terms`' predictor clamp: the
exponent capped at 709, then the value clamped to [1e-8, 1e8] after
``exp``.  Inside the link bounds they equal ``np.exp`` of the predictor.
`gamma_logpdf` and `event_loglik` score one event (one row of an
`EventBatch`) at a time with the scalar `link`; the vectorized
`batch_loglik` must match their sum.  `loglik_parts_of_batch` is
`scanfisher.model.loglik_parts` as it was before it scored segments and
before it took its terms from `gamma_terms`: one call per batch, each term
summed with ``np.sum``, densities from `log_gamma_density` with the link
value clamped after ``exp``.  `generative_classify` picks
the class whose model gives a whole event batch the highest log-likelihood; the generative baseline's full-group
prediction must equal it.
"""

import math
from typing import Mapping

import numpy as np
from scipy.special import gammaln

from scanfisher.evaluate import EvalError
from scanfisher.events import NUM_SACCADE_TYPES, EventBatch
from scanfisher.model import LINK_MAX, LINK_MIN, ModelError, ModelParams, batch_loglik


def link(weights: np.ndarray, w: np.ndarray) -> float:
    """exp(weights . w), clamped to [1e-8, 1e8] to keep densities finite."""
    return float(np.clip(np.exp(min(weights @ w, 709.0)), LINK_MIN, LINK_MAX))


def link_many(W: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise clamped exponential link for a feature matrix W (N, M)."""
    return np.clip(np.exp(np.minimum(W @ weights, 709.0)), LINK_MIN, LINK_MAX)


def gamma_logpdf(x: float, shape: float, scale: float) -> float:
    """Log density of the gamma distribution with the shape/scale convention."""
    if not x > 0:
        raise ModelError(f"gamma_logpdf requires x > 0, got {x!r}")
    if not (shape > 0 and scale > 0):
        raise ModelError(f"gamma parameters must be positive, got shape={shape}, scale={scale}")
    return (shape - 1.0) * math.log(x) - x / scale - float(gammaln(shape)) - shape * math.log(scale)


def log_gamma_density(x: np.ndarray, shape: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Element-wise gamma log density with the shape/scale convention."""
    return (shape - 1.0) * np.log(x) - x / scale - gammaln(shape) - shape * np.log(scale)


def event_loglik(batch: EventBatch, t: int, params: ModelParams) -> float:
    """Log-likelihood contribution of event `t` of `batch`."""
    u = int(batch.u[t])
    w_launch, w_land = batch.w_launch[t], batch.w_land[t]
    lp = math.log(params.pi[u - 1])
    lp += gamma_logpdf(
        float(batch.amp[t]),
        link(params.alpha[u - 1], w_launch),
        link(params.beta[u - 1], w_launch),
    )
    lp += gamma_logpdf(
        float(batch.dur[t]),
        link(params.gamma[u - 1], w_land),
        link(params.delta[u - 1], w_land),
    )
    return lp


def generative_classify(events: EventBatch, class_params: Mapping) -> object:
    """argmax_y of the event-sum log-likelihood; ties break to the lowest id."""
    keys = sorted(class_params)
    if not keys:
        raise EvalError("no class models given")
    lls = np.array([batch_loglik(events, class_params[k]) for k in keys])
    return keys[int(lls.argmax())]


def loglik_parts_of_batch(batch: EventBatch, params: ModelParams) -> tuple[float, float, float]:
    """(type, amplitude, duration) log-likelihood terms of an event batch."""
    counts = batch.type_counts()
    type_term = float(np.sum(counts[counts > 0] * np.log(params.pi[counts > 0])))
    amp_term = 0.0
    dur_term = 0.0
    for u in range(1, NUM_SACCADE_TYPES + 1):
        mask = batch.u == u
        if not mask.any():
            continue
        w_l = batch.w_launch[mask]
        w_d = batch.w_land[mask]
        amp_term += float(
            log_gamma_density(
                batch.amp[mask],
                link_many(w_l, params.alpha[u - 1]),
                link_many(w_l, params.beta[u - 1]),
            ).sum()
        )
        dur_term += float(
            log_gamma_density(
                batch.dur[mask],
                link_many(w_d, params.gamma[u - 1]),
                link_many(w_d, params.delta[u - 1]),
            ).sum()
        )
    return type_term, amp_term, dur_term
