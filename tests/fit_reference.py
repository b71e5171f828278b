"""Fit objectives kept as test oracles.

`_objective` is one group's fit objective and gradient, evaluated alone: the
evaluator `scanfisher.fit` refits with (`_Objectives`, which evaluates many
groups' points at once) must give its bits.  `objective_before_minimum` is
`_objective` as it was written with ``np.clip`` and one ``exp`` per weight
block; the faster one must give the same bits.  The per-type wrappers over
`_objective` take the shape and scale weights of one saccade type separately
and an event batch, so gradient checks can address the amplitude and
duration objectives by name.  `_fit_group` is the whole-group L-BFGS-B fit
from the moment start, the fitter `scanfisher.fit` refits with when Newton
cannot finish a group.  `pooled_terms_before_product` is the Newton pass's
`_pooled_terms` as it was written with ``polygamma(1, .)`` and per-event
products summed by ``np.add.reduceat``; the faster one must give its value
bit for bit and its gradient and Hessian to rounding.
"""

import logging

import numpy as np
from scipy.optimize import minimize
from scipy.special import digamma, gammaln, polygamma

from scanfisher.events import EventBatch
from scanfisher.fit import FitConfig, GroupFit, _bias_only, _moment_init, _Pool
from scanfisher.model import _LOG_LINK_MAX, _LOG_LINK_MIN, _clamp, gamma_terms

logger = logging.getLogger(__name__)


def _objective(theta: np.ndarray, x: np.ndarray, W: np.ndarray, lam: float):
    """Negative regularized gamma log-likelihood and its gradient.

    theta = [shape weights (M), scale weights (M)].  The per-event terms are
    `gamma_terms` of the linear predictors W a and W b.
    """
    m = W.shape[1]
    loglik, shape_term, scale_term = gamma_terms(x, np.log(x), W @ theta[:m], W @ theta[m:], order=1)
    reg = np.exp(np.minimum(theta, 500.0))
    reg_shape, reg_scale = reg[:m], reg[m:]
    value = -float(np.sum(loglik)) + lam * float(reg_shape.sum() + reg_scale.sum())
    grad_shape = -(W.T @ shape_term) + lam * reg_shape
    grad_scale = -(W.T @ scale_term) + lam * reg_scale
    return value, np.concatenate([grad_shape, grad_scale])


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


def pooled_terms_before_product(pool: _Pool, theta: np.ndarray, mask: np.ndarray, lam,
                                derivatives: bool = True):
    """Objective (G,) of every pooled group, then gradient (G, 2M) and Hessian (G, 2M, 2M).

    Row g of `theta` holds group g's [shape weights, scale weights]; `mask`
    is 0 on the padded weights of bias-only groups, whose Hessian rows are
    the identity there; `lam` is one weight for every group or one per
    group.  The trigamma is ``polygamma(1, shape)``, and every
    sum over a group's events is ``np.add.reduceat`` of per-event products.
    """
    m = pool.W.shape[1]
    per_event = theta[pool.gid]
    eta_shape = np.einsum("ij,ij->i", pool.W, per_event[:, :m])
    eta_scale = np.einsum("ij,ij->i", pool.W, per_event[:, m:])
    lam = np.reshape(lam, (-1, 1))
    reg = mask * np.exp(np.minimum(theta, 500.0))
    if not derivatives:
        return lam[:, 0] * reg.sum(axis=1) - np.add.reduceat(gamma_terms(pool.x, pool.log_x, eta_shape, eta_scale),
                                                       pool.starts)
    loglik, shape_term, scale_term = gamma_terms(pool.x, pool.log_x, eta_shape, eta_scale, order=1)
    shape = np.exp(_clamp(eta_shape))
    curvature = (shape * shape * polygamma(1, shape) - shape_term, shape, pool.x * np.exp(-_clamp(eta_scale)))
    value = lam[:, 0] * reg.sum(axis=1) - np.add.reduceat(loglik, pool.starts)
    per_event_grad = np.hstack([pool.W * shape_term[:, None], pool.W * scale_term[:, None]])
    grad = lam * reg - np.add.reduceat(per_event_grad, pool.starts)
    shape_shape, cross, scale_scale = (
        np.add.reduceat(pool.W[:, :, None] * (pool.W * c[:, None])[:, None, :], pool.starts)
        for c in curvature
    )
    hessian = np.empty((len(theta), 2 * m, 2 * m))
    hessian[:, :m, :m] = shape_shape
    hessian[:, :m, m:] = hessian[:, m:, :m] = cross
    hessian[:, m:, m:] = scale_scale
    diagonal = np.arange(2 * m)
    hessian[:, diagonal, diagonal] += lam * reg + (1.0 - mask)
    return value, grad, hessian


def neg_loglik_and_grad_amplitude(alpha_u, beta_u, batch: EventBatch, lam: float):
    """Regularized negative log-likelihood of type-u amplitudes, with gradient."""
    theta = np.concatenate([np.asarray(alpha_u, float), np.asarray(beta_u, float)])
    return _objective(theta, batch.amp, batch.w_launch, lam)


def neg_loglik_and_grad_duration(gamma_u, delta_u, batch: EventBatch, lam: float):
    """Mirror of the amplitude objective for durations and landing features."""
    theta = np.concatenate([np.asarray(gamma_u, float), np.asarray(delta_u, float)])
    return _objective(theta, batch.dur, batch.w_land, lam)


def _warn_bias_only(kind: str, u: int, n: int, m_full: int) -> None:
    logger.warning(
        "only %d %s events of type %d (< 2M=%d); falling back to bias-only fit",
        n, kind, u, 2 * m_full,
    )


def _fit_group(
    kind: str,
    u: int,
    x: np.ndarray,
    W: np.ndarray,
    config: FitConfig,
    collect_trace: bool = False,
) -> tuple[np.ndarray, np.ndarray, GroupFit]:
    """L-BFGS-B fit of one group from the moment start (the Newton loop's fallback)."""
    m_full = W.shape[1]
    n = len(x)
    shape_w = np.zeros(m_full)
    scale_w = np.zeros(m_full)
    if n == 0:
        logger.warning("no %s events of type %d; keeping zero weights", kind, u)
        info = GroupFit(kind, u, 0, True, 0.0, 0.0, 0, 0.0, True)
        return shape_w, scale_w, info

    bias_only = _bias_only(n, m_full)
    if bias_only:
        _warn_bias_only(kind, u, n, m_full)
    W_used = W[:, :1] if bias_only else W
    m = W_used.shape[1]

    theta0 = _moment_init(x, m)
    f0, _ = _objective(theta0, x, W_used, config.lam)
    trace = [f0]
    callback = None
    if collect_trace:
        callback = lambda xk: trace.append(_objective(xk, x, W_used, config.lam)[0])

    def fun(theta):
        return _objective(theta, x, W_used, config.lam)

    result = minimize(
        fun,
        theta0,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": config.max_iter, "gtol": config.tol, "ftol": 1e-12},
    )
    if not result.success:
        logger.warning(
            "L-BFGS did not converge for %s events of type %d (n_events=%d, nit=%d): %s",
            kind, u, n, result.nit, result.message,
        )
    theta = result.x
    shape_w[0] = theta[0]
    scale_w[0] = theta[m]
    if not bias_only:
        shape_w[:] = theta[:m]
        scale_w[:] = theta[m:]
    info = GroupFit(
        kind=kind,
        u=u,
        n_events=n,
        bias_only=bias_only,
        initial_objective=f0,
        final_objective=float(result.fun),
        n_iterations=int(result.nit),
        grad_norm=float(np.max(np.abs(result.jac))),
        converged=bool(result.success),
        objective_trace=trace,
        solver="lbfgs",
    )
    return shape_w, scale_w, info
