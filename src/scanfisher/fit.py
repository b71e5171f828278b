"""Regularized maximum-likelihood fitting of the scanpath model.

The criterion factorizes: the type proportions pi have a closed form, and
each saccade type's amplitude weights (alpha_u, beta_u) and duration weights
(gamma_u, delta_u) are fitted by independent smooth 2M-dimensional
minimizations of

    -sum ln Gamma_pdf(x | exp(W a), exp(W b)) + lambda * sum_m exp(a_m) + exp(b_m)

solved with a quasi-Newton method (L-BFGS-B with analytic gradients).
Either of scipy's two tests ends a fit: the projected-gradient infinity norm
drops below the configured tolerance, or the relative objective reduction of
one step drops below ``ftol = 1e-12``.  In practice the second test ends
most fits, at a final gradient norm well above the tolerance.
"""

import logging
from dataclasses import dataclass, field
import numpy as np
from scipy.optimize import minimize
from scipy.special import digamma, gammaln

from .events import NUM_SACCADE_TYPES, EventBatch
from .model import ModelParams, _LOG_LINK_MAX, _LOG_LINK_MIN

logger = logging.getLogger(__name__)

PI_SMOOTHING = 1e-6


class FitError(ValueError):
    """Fitting preconditions violated (e.g. no events at all)."""


@dataclass(frozen=True)
class FitConfig:
    """Fit settings.

    `tol` is L-BFGS-B's projected-gradient tolerance (scipy's ``gtol``).  It
    is one of two stopping tests: a fit also ends when one step reduces the
    objective by less than ``1e-12`` relative, whatever the gradient norm.
    """

    lam: float = 1e-2
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if self.lam < 0:
            raise FitError("lambda must be >= 0")
        if self.tol <= 0:
            raise FitError("tolerance must be > 0")
        if self.max_iter < 1:
            raise FitError("max_iter must be >= 1")


def fit_pi(events: EventBatch) -> np.ndarray:
    """Multinomial MLE over saccade types with zero-count smoothing."""
    if events.n == 0:
        raise FitError("cannot fit pi from an empty event set")
    pi = events.type_counts() / events.n
    pi[pi == 0.0] = PI_SMOOTHING
    return pi / pi.sum()


def _objective(theta: np.ndarray, x: np.ndarray, W: np.ndarray, lam: float):
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


def _moment_init(x: np.ndarray, m: int) -> np.ndarray:
    """Bias weights from method-of-moments, all feature weights zero."""
    mean = float(x.mean())
    var = float(x.var())
    var = max(var, 1e-12 * max(mean * mean, 1e-12))
    shape = float(np.clip(mean * mean / var, 1e-3, 1e6))
    scale = mean / shape
    theta = np.zeros(2 * m)
    theta[0] = np.log(shape)
    theta[m] = np.log(scale)
    return theta


@dataclass
class GroupFit:
    """Diagnostics of one per-type optimization.

    `converged` is scipy's ``success`` flag: false when L-BFGS-B hit
    `max_iter` or its line search failed.  It does not check that
    `grad_norm` <= `FitConfig.tol`; a fit ended by the relative-reduction
    test counts as converged.
    """

    kind: str           # "amplitude" or "duration"
    u: int
    n_events: int
    bias_only: bool
    initial_objective: float
    final_objective: float
    n_iterations: int
    grad_norm: float
    converged: bool
    objective_trace: list[float] = field(default_factory=list)


@dataclass
class FitOutcome:
    params: ModelParams
    groups: list[GroupFit]


def _fit_group(
    kind: str,
    u: int,
    x: np.ndarray,
    W: np.ndarray,
    config: FitConfig,
    collect_trace: bool = False,
) -> tuple[np.ndarray, np.ndarray, GroupFit]:
    m_full = W.shape[1]
    n = len(x)
    shape_w = np.zeros(m_full)
    scale_w = np.zeros(m_full)
    if n == 0:
        logger.warning("no %s events of type %d; keeping zero weights", kind, u)
        info = GroupFit(kind, u, 0, True, 0.0, 0.0, 0, 0.0, True)
        return shape_w, scale_w, info

    bias_only = n < 2 * m_full
    if bias_only and m_full > 1:
        logger.warning(
            "only %d %s events of type %d (< 2M=%d); falling back to bias-only fit",
            n, kind, u, 2 * m_full,
        )
        W_used = W[:, :1]
    else:
        bias_only = False
        W_used = W
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
    )
    return shape_w, scale_w, info


def fit_model_detailed(
    batch: EventBatch,
    config: FitConfig,
    collect_trace: bool = True,
) -> FitOutcome:
    """Fit pi and all per-type gamma GLMs; returns parameters plus diagnostics.

    `collect_trace=False` skips the per-iteration objective recomputation
    used for fit logs, roughly halving the cost of each subproblem.
    """
    if batch.n == 0:
        raise FitError("cannot fit a model from an empty event set")

    m = batch.num_features
    alpha = np.zeros((NUM_SACCADE_TYPES, m))
    beta = np.zeros((NUM_SACCADE_TYPES, m))
    gamma = np.zeros((NUM_SACCADE_TYPES, m))
    delta = np.zeros((NUM_SACCADE_TYPES, m))
    blocks = {
        "amplitude": (batch.amp, batch.w_launch, alpha, beta),
        "duration": (batch.dur, batch.w_land, gamma, delta),
    }
    groups = []
    for u in range(1, NUM_SACCADE_TYPES + 1):
        mask = batch.u == u
        for kind, (x, W, shape_block, scale_block) in blocks.items():
            shape_block[u - 1], scale_block[u - 1], info = _fit_group(
                kind, u, x[mask], W[mask], config, collect_trace
            )
            groups.append(info)
    params = ModelParams(pi=fit_pi(batch), alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    return FitOutcome(params=params, groups=groups)


def fit_model(events: EventBatch, config: FitConfig) -> ModelParams:
    """Regularized maximum-likelihood parameters for an event batch."""
    return fit_model_detailed(events, config, collect_trace=False).params
