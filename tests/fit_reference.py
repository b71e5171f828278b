"""Fit objectives kept as test oracles.

`objective_before_minimum` is `scanfisher.fit._objective` as it was written
with ``np.clip`` and one ``exp`` per weight block; the faster one must give
the same bits.  The per-type wrappers over `scanfisher.fit._objective` take
the shape and scale weights of one saccade type separately and an event
batch, so gradient checks can address the amplitude and duration objectives
by name.
"""

import numpy as np
from scipy.special import digamma, gammaln

from scanfisher.events import EventBatch
from scanfisher.fit import _objective
from scanfisher.model import _LOG_LINK_MAX, _LOG_LINK_MIN


def objective_before_minimum(theta: np.ndarray, x: np.ndarray, W: np.ndarray, lam: float):
    """Negative regularized gamma log-likelihood and its gradient.

    theta = [shape weights (M), scale weights (M)].  The linear predictors are
    clamped to the link bounds; the analytic gradient uses the clamped values,
    which only deviates from the true gradient at the (non-operating) bounds.
    """
    m = W.shape[1]
    a, b = theta[:m], theta[m:]
    eta_shape = np.clip(W @ a, _LOG_LINK_MIN, _LOG_LINK_MAX)
    eta_scale = np.clip(W @ b, _LOG_LINK_MIN, _LOG_LINK_MAX)
    shape = np.exp(eta_shape)
    log_x = np.log(x)
    x_over_scale = x * np.exp(-eta_scale)
    loglik = float(np.sum((shape - 1.0) * log_x - x_over_scale - gammaln(shape) - shape * eta_scale))
    reg_shape = np.exp(np.clip(a, None, 500.0))
    reg_scale = np.exp(np.clip(b, None, 500.0))
    value = -loglik + lam * float(reg_shape.sum() + reg_scale.sum())
    grad_shape = -(W.T @ (shape * (log_x - digamma(shape) - eta_scale))) + lam * reg_shape
    grad_scale = -(W.T @ (x_over_scale - shape)) + lam * reg_scale
    return value, np.concatenate([grad_shape, grad_scale])


def neg_loglik_and_grad_amplitude(alpha_u, beta_u, batch: EventBatch, lam: float):
    """Regularized negative log-likelihood of type-u amplitudes, with gradient."""
    theta = np.concatenate([np.asarray(alpha_u, float), np.asarray(beta_u, float)])
    return _objective(theta, batch.amp, batch.w_launch, lam)


def neg_loglik_and_grad_duration(gamma_u, delta_u, batch: EventBatch, lam: float):
    """Mirror of the amplitude objective for durations and landing features."""
    theta = np.concatenate([np.asarray(gamma_u, float), np.asarray(delta_u, float)])
    return _objective(theta, batch.dur, batch.w_land, lam)
