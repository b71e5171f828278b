"""Regularized maximum-likelihood fitting of the scanpath model.

The criterion factorizes: the type proportions pi have a closed form, and
each saccade type's amplitude weights (alpha_u, beta_u) and duration weights
(gamma_u, delta_u) are fitted by independent smooth 2M-dimensional
minimizations of

    -sum ln Gamma_pdf(x | exp(clamp(W a)), exp(clamp(W b))) + lambda * sum_m exp(a_m) + exp(b_m)

where clamp limits a linear predictor to [ln 1e-8, ln 1e8].  The per-event
terms and their derivatives in the predictors come from
`scanfisher.model.gamma_terms`, the function the Fisher score and the
log-likelihood use too; the gradient is taken at the clamped predictors.

All ten (kind, u) groups of a batch are solved by one damped Newton loop
over their pooled events; `fit_model` given segment sizes fits several
training sets of one batch (every fit the folds of an experiment ask for at
one step, the generative baseline's readers among them) in the same loop,
ten groups each, each training set at its own lambda.  Each iteration
evaluates the per-event objective, gradient and closed-form Hessian terms
(trigamma in the shape block) once, sums the objective per group with
`np.add.reduceat`, takes each group's gradient and Hessian from one product
W_g^T [shape term, scale term, W_g c_1, W_g c_2, W_g c_3] over its own
events, solves the stacked 2M x 2M systems in one call and backtracks each
group's step until the Armijo condition holds.
A group stops when its gradient infinity norm is at most `FitConfig.tol` or
its Newton decrement g^T H^-1 g is at most 1e-12 * max(|f|, 1).

The objective is not convex, and small groups can have several local
minima.  From an iterate whose Hessian is not positive definite, second-order
steps (those of the expected information too) can leave the basin that
L-BFGS-B from the same start settles in.  So such a group, like any group
Newton cannot finish (no Armijo decrease, a non-finite value or `max_iter`
steps), is refitted by L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci.
Comput. 1995) with analytic gradients, from the same moment start restricted
to the weights the group uses, and that result is used as it is.  One
`minimize` call refits all such groups of a fit, one L-BFGS-B run each, in
lockstep: each round, one `gamma_terms` pass evaluates the points every
running run asks for (`_Objectives`).  `minimize` drives scipy's L-BFGS-B
routine (`setulb`) directly, as ``scipy.optimize.minimize(method="L-BFGS-B")``
does but without its function wrappers, and each run equals that call on
its own group bit for bit.  A run stops on the projected-gradient test
(|g| <= `tol`) or on the relative-reduction test (``ftol = 1e-12``).  Every
group, empty, bias-only, Newton or L-BFGS-B, is set up and recorded in one
loop (`_fit_segments`).  No value is shared between groups, and lambda
enters only elementwise products, as one value per group, so each group's
fit, and each segment's model, is the one it would get alone.
"""

import logging
from dataclasses import dataclass, field
import numpy as np
from scipy.optimize import OptimizeResult

from .events import NUM_SACCADE_TYPES, EventBatch
from .model import ModelParams, gamma_terms

_NEEDS_SCIPY = ("scanfisher.fit drives scipy's L-BFGS-B routine through its reverse-communication "
                "form setulb(..., ln_task), which scipy>=1.15 provides")
try:
    from scipy.optimize import _lbfgsb
    from scipy.optimize._lbfgsb_py import status_messages as _STATUS, task_messages as _TASK
except ImportError as exc:
    raise ImportError(_NEEDS_SCIPY) from exc

logger = logging.getLogger(__name__)

PI_SMOOTHING = 1e-6
_ARMIJO = 1e-4          # sufficient-decrease constant of the backtracking search
_MAX_HALVINGS = 40      # step halvings before the search gives up
_DECREMENT_RTOL = 1e-12  # Newton decrement stop, relative to max(|f|, 1)
_PD_RTOL = 1e-12        # a Hessian is positive definite if min eig > this * max eig
# L-BFGS-B settings: scipy's defaults but for the relative-reduction stop
_MAXCOR = 10            # stored correction pairs
_MAXLS = 20             # line-search steps per iteration
_MAXFUN = 15000         # objective evaluations
_FACTR = 1e-12 / np.finfo(float).eps   # ftol = 1e-12, in units of the machine epsilon
# setulb's task codes
_FG, _NEW_X, _CONVERGENCE, _STOP = 3, 1, 4, 5
_ITERATION_LIMIT, _EVALUATION_LIMIT = 504, 502


class FitError(ValueError):
    """Fitting preconditions violated (e.g. no events at all)."""


@dataclass(frozen=True)
class FitConfig:
    """Fit settings.

    `tol` bounds the gradient infinity norm at which a Newton group stops; a
    group also stops when its Newton decrement is at most 1e-12 * max(|f|, 1).
    `max_iter` caps the Newton steps of a group and, separately, the L-BFGS-B
    iterations of a fallback fit (`minimize`), where `tol` bounds the
    projected gradient as scipy's ``gtol`` does and a relative reduction
    below ``1e-12`` (``ftol``) also ends the fit.
    """

    lam: float = 1e-2
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        # NaN fails every comparison, so it is rejected too
        if not self.lam >= 0:
            raise FitError(f"lam must be >= 0, got {self.lam!r}")
        if not self.tol > 0:
            raise FitError(f"tol must be > 0, got {self.tol!r}")
        if self.max_iter < 1:
            raise FitError(f"max_iter must be >= 1, got {self.max_iter!r}")


def fit_pi(events: EventBatch) -> np.ndarray:
    """Multinomial MLE over saccade types with zero-count smoothing."""
    if events.n == 0:
        raise FitError("cannot fit pi from an empty event set")
    pi = events.type_counts() / events.n
    pi[pi == 0.0] = PI_SMOOTHING
    return pi / pi.sum()


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

    `solver` is "newton" for a group the pooled Newton loop finished,
    "lbfgs" for one refitted by L-BFGS-B and "none" for an empty group.
    `objective_trace` holds the objective at the start and at each iterate.
    For a Newton group `converged` means the stopping rule was met (|g| <=
    `tol` or the Newton decrement test); for an L-BFGS-B group it is the
    ``success`` flag of its `minimize` run (scipy's), which a run ended by
    the relative-reduction test also sets.
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
    solver: str = "none"


@dataclass
class FitOutcome:
    params: ModelParams
    groups: list[GroupFit]


def _bias_only(n, m_full: int):
    """A group of fewer than 2M events fits only its bias weights (when M > 1); `n` may be an array."""
    return (n < 2 * m_full) & (m_full > 1)


def _setulb_state(n: int):
    """`setulb`'s bound arrays (no bounds) and work arrays for `n` variables, in its argument order."""
    m = _MAXCOR
    return (np.zeros(n), np.zeros(n), np.zeros(n, np.int32),          # lower, upper, bound kinds
            np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m),          # wa
            np.zeros(3 * n, np.int32), np.zeros(2, np.int32),          # iwa, task
            np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29),  # lsave, isave, dsave
            np.zeros(2, np.int32))                                     # ln_task


def _check_setulb(setulb) -> None:
    """Raise ImportError unless `setulb` has the reverse-communication form `minimize` drives."""
    lower, upper, nbd, wa, iwa, task, lsave, isave, dsave, ln_task = _setulb_state(1)
    try:
        setulb(_MAXCOR, np.zeros(1), lower, upper, nbd, 0.0, np.zeros(1), _FACTR, 1.0,
               wa, iwa, task, lsave, isave, dsave, _MAXLS, ln_task)
    except (TypeError, ValueError) as exc:
        raise ImportError(_NEEDS_SCIPY) from exc
    if task[0] != _FG:
        raise ImportError(f"{_NEEDS_SCIPY}; its start returned task {task.tolist()}")


_check_setulb(_lbfgsb.setulb)


def _lbfgsb_run(x0: np.ndarray, tol: float, max_iter: int):
    """One L-BFGS-B run from `x0`, as a generator.

    It yields each point to evaluate, is sent that point's objective and
    gradient, and returns its result; `minimize` drives it.
    """
    x = np.array(x0, dtype=np.float64)
    at = x.copy()           # the point of the last evaluation
    f_at, g_at = yield at
    nfev, nit, trace = 1, 0, [f_at]
    lower, upper, nbd, wa, iwa, task, lsave, isave, dsave, ln_task = _setulb_state(x.size)
    f, g = 0.0, np.zeros(x.size)
    while True:
        g = g.astype(np.float64)
        _lbfgsb.setulb(_MAXCOR, x, lower, upper, nbd, f, g, _FACTR, tol, wa, iwa, task, lsave, isave,
                       dsave, _MAXLS, ln_task)
        if task[0] == _FG:
            if not (x == at).all():     # np.array_equal of two same-shape arrays
                at = x.copy()
                f_at, g_at = yield at
                nfev += 1
            f, g = f_at, g_at
        elif task[0] == _NEW_X:
            nit += 1
            trace.append(f)
            if nit >= max_iter:
                task[:] = _STOP, _ITERATION_LIMIT
            elif nfev > _MAXFUN:
                task[:] = _STOP, _EVALUATION_LIMIT
        else:
            break
    message = _STATUS[task[0]] + ": " + _TASK[task[1]]
    return OptimizeResult(x=x, fun=f, jac=g, nit=nit, nfev=nfev, success=bool(task[0] == _CONVERGENCE),
                          message=message, trace=trace)


def minimize(fun, starts, tol: float, max_iter: int) -> OptimizeResult:
    """L-BFGS-B from each of `starts`, the runs in lockstep.

    Each run loops over scipy's L-BFGS-B routine `setulb` and equals
    ``scipy.optimize.minimize(f, start, jac=True, method="L-BFGS-B",
    options={"maxiter": max_iter, "gtol": tol, "ftol": 1e-12})`` on its own
    objective f bit for bit: it mirrors scipy 1.17's ``_minimize_lbfgsb``
    without its function wrappers (the fit's tests check it against the
    installed scipy).  As there, a run evaluates its start first, then only
    points that differ from its last one, always on a copy; it copies the
    gradient before every routine call, and checks the iteration limit, then
    the evaluation limit (15000), at each new iterate.

    Each round, every running run calls the routine until it asks for a new
    point or stops, and one call ``fun(indices, points)`` evaluates all the
    points asked for, returning an (objective, gradient) pair per point;
    `indices` are the asking runs' positions in `starts`.  `fun` must not
    modify the points.  The result's `runs` holds a scipy-shaped result per
    start (`x`, `fun`, `jac`, `nit`, `nfev`, `success`, `message`, and
    `trace`: the objective at the start and at each iterate); its `nit` and
    `nfev` are their totals, and its `success` is true only if every run
    succeeded.
    """
    runs = [_lbfgsb_run(x0, tol, max_iter) for x0 in starts]
    results = [None] * len(runs)
    asking = list(range(len(runs)))
    points = [next(run) for run in runs]
    while asking:
        evaluated = fun(asking, points)
        still, points = [], []
        for i, value_and_gradient in zip(asking, evaluated):
            try:
                points.append(runs[i].send(value_and_gradient))
                still.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        asking = still
    return OptimizeResult(runs=results, nit=sum(r.nit for r in results), nfev=sum(r.nfev for r in results),
                          success=all(r.success for r in results))


class _Objectives:
    """The fit objectives of several groups, whose points `minimize` evaluates a round at a time.

    Problem i is a group's events `x` and feature rows `W`, the weights it
    uses, and `lam` is one regularizer weight for all problems or one per
    problem; problem i's objective is the negative regularized gamma
    log-likelihood

        -sum gamma_terms(x, ln x, W a, W b) + lam_i * sum_m exp(min(a_m, 500)) + exp(min(b_m, 500))

    of theta = [a, b], with the gradient taken at the clamped predictors.  A
    call evaluates a round's points with one `gamma_terms` pass over their
    events.  The matrix products and log-likelihood sums stay per problem,
    and each regularizer sum runs over the problem's own terms followed by
    zeros, so each value and gradient has the bits of that problem evaluated
    alone (the fit's tests check this against `_objective` in
    `tests/fit_reference.py`).
    """

    def __init__(self, problems, lam):
        self.lam = np.broadcast_to(np.asarray(lam, dtype=float), (len(problems),))
        self.x = [x for x, _ in problems]
        self.log_x = [np.log(x) for x in self.x]
        self.W = [W for _, W in problems]
        self.width = max(W.shape[1] for W in self.W)
        self._indices = self._layout = None

    def _layout_of(self, indices):
        """What a round over the problems `indices` needs apart from the points.

        Their feature rows, pooled events and ln x, the (start, end) of each
        one's events and of its weights in the round, the positions of its
        weights in zero-padded (2, width) row pairs, one pair each, and its
        lambda, once and once per weight.
        """
        Ws = [self.W[i] for i in indices]
        widths = [W.shape[1] for W in Ws]
        event_ends = np.cumsum([len(self.x[i]) for i in indices]).tolist()
        weight_ends = (2 * np.cumsum(widths)).tolist()
        padded_at = np.concatenate([2 * self.width * k + np.r_[:m, self.width:self.width + m]
                                    for k, m in enumerate(widths)])
        lam = self.lam[indices]
        return (Ws, np.concatenate([self.x[i] for i in indices]), np.concatenate([self.log_x[i] for i in indices]),
                list(zip([0] + event_ends[:-1], event_ends)), list(zip([0] + weight_ends[:-1], weight_ends)),
                padded_at, lam, np.repeat(lam, 2 * np.array(widths)))

    def __call__(self, indices, points):
        if indices != self._indices:   # the asking runs change only when one stops
            self._indices, self._layout = list(indices), self._layout_of(indices)
        Ws, x, log_x, events, weights, padded_at, lam, lam_per_weight = self._layout
        eta_shape, eta_scale = [], []
        for W, theta in zip(Ws, points):
            m = W.shape[1]
            eta_shape.append(W @ theta[:m])
            eta_scale.append(W @ theta[m:])
        loglik, shape_term, scale_term = gamma_terms(x, log_x, np.concatenate(eta_shape),
                                                     np.concatenate(eta_scale), order=1)
        loglik_sums, data_grad = [], []
        for W, (start, end) in zip(Ws, events):
            loglik_sums.append(np.add.reduce(loglik[start:end]))
            data_grad.append(W.T @ shape_term[start:end])
            data_grad.append(W.T @ scale_term[start:end])
        reg = np.exp(np.minimum(np.concatenate(points), 500.0))
        grad = -np.concatenate(data_grad) + lam_per_weight * reg
        padded = np.zeros((len(Ws), 2, self.width))
        padded.reshape(-1)[padded_at] = reg
        reg_sums = padded.sum(axis=2)
        values = -np.array(loglik_sums) + lam * (reg_sums[:, 0] + reg_sums[:, 1])
        return [(value, grad[start:end]) for value, (start, end) in zip(values.tolist(), weights)]


@dataclass
class _Pool:
    """Events of several groups, concatenated group by group.

    A bias-only group's feature columns are zero, so its padded weights get
    no data gradient; `_pooled_terms` masks their regularizer too.
    """

    x: np.ndarray       # (N,)
    log_x: np.ndarray   # (N,) log x, taken once when the pool is built
    W: np.ndarray       # (N, M)
    sizes: np.ndarray   # (G,) events per group

    def __post_init__(self):
        self.gid = np.repeat(np.arange(len(self.sizes)), self.sizes)  # each event's group
        self.starts = np.cumsum(self.sizes) - self.sizes                # each group's first event

    @staticmethod
    def of(xs: list[np.ndarray], Ws: list[np.ndarray]) -> "_Pool":
        x = np.concatenate(xs)
        return _Pool(x, np.log(x), np.concatenate(Ws, axis=0), np.array([len(part) for part in xs]))

    def take(self, keep: np.ndarray) -> "_Pool":
        """The pool of the groups where the boolean `keep` is true, in order."""
        if keep.all():
            return self
        events = keep[self.gid]
        return _Pool(self.x[events], self.log_x[events], self.W[events], self.sizes[keep])


def _pooled_terms(pool: _Pool, theta: np.ndarray, mask: np.ndarray, lam, derivatives: bool = True):
    """Objective (G,) of every pooled group, then gradient (G, 2M) and Hessian (G, 2M, 2M).

    Row g of `theta` holds group g's [shape weights, scale weights]; `mask`
    is 0 on the padded weights of bias-only groups, whose Hessian rows are
    the identity there.  `lam` is one regularizer weight for every group or
    one per group.  The per-event terms are `gamma_terms`, as in `_Objectives`.
    Each group's data gradient and Hessian come from one product of its own
    events' rows, so no group's values depend on another's.
    """
    m = pool.W.shape[1]
    per_event = theta[pool.gid]
    terms = gamma_terms(pool.x, pool.log_x, np.einsum("ij,ij->i", pool.W, per_event[:, :m]),
                        np.einsum("ij,ij->i", pool.W, per_event[:, m:]), order=2 if derivatives else 0)
    lam = np.reshape(lam, (-1, 1))
    reg = mask * np.exp(np.minimum(theta, 500.0))
    value = lam[:, 0] * reg.sum(axis=1) - np.add.reduceat(terms[0] if derivatives else terms, pool.starts)
    if not derivatives:
        return value
    _, shape_term, scale_term, curvature = terms
    # per event [shape_term, scale_term, w c_1, w c_2, w c_3], with c the second derivatives of
    # its term by (eta_shape, eta_scale): W_g^T times group g's rows is [its data gradient |
    # shape-shape block | cross block | scale-scale block]
    block = np.empty((len(pool.x), 2 + 3 * m))
    block[:, 0] = shape_term
    block[:, 1] = scale_term
    for j, c in enumerate(curvature):
        np.multiply(pool.W, c[:, None], out=block[:, 2 + j * m:2 + (j + 1) * m])
    products = np.empty((len(theta), m, 2 + 3 * m))
    for g, (start, end) in enumerate(zip(pool.starts.tolist(), (pool.starts + pool.sizes).tolist())):
        np.matmul(pool.W[start:end].T, block[start:end], out=products[g])
    grad = lam * reg - np.concatenate([products[:, :, 0], products[:, :, 1]], axis=1)
    hessian = np.concatenate([products[:, :, 2:2 + 2 * m], products[:, :, 2 + m:]], axis=1)
    diagonal = np.arange(2 * m)
    hessian[:, diagonal, diagonal] += lam * reg + (1.0 - mask)
    return value, grad, hessian


def _positive_definite(hessian: np.ndarray) -> np.ndarray:
    eig = np.linalg.eigvalsh(hessian)
    return eig[:, 0] > _PD_RTOL * np.abs(eig).max(axis=1)


@dataclass
class _NewtonResult:
    theta: np.ndarray         # (G, 2M)
    value: np.ndarray         # (G,)
    grad_norm: np.ndarray     # (G,)
    iterations: np.ndarray    # (G,) accepted steps
    failure: list             # None where the stopping rule was met, else the reason
    traces: list              # accepted objectives per group


def _newton(pool: _Pool, theta: np.ndarray, mask: np.ndarray, lam: np.ndarray, tol: float,
            max_iter: int) -> _NewtonResult:
    """Damped Newton on every pooled group from `theta`, each at its `lam`, until each stops or fails.

    Each pass evaluates every still-active group once with derivatives; the
    backtracking trials evaluate only the objective of the groups still
    searching.
    """
    n_groups = len(theta)
    theta = theta.copy()
    value = np.zeros(n_groups)
    grad_norm = np.full(n_groups, np.inf)
    iterations = np.zeros(n_groups, dtype=np.int64)
    failure = [None] * n_groups
    traces = None
    active = np.arange(n_groups)
    with np.errstate(over="ignore", invalid="ignore"):
        while active.size:
            f, g, hessian = _pooled_terms(pool, theta[active], mask[active], lam[active])
            value[active] = f
            grad_norm[active] = np.abs(g).max(axis=1)
            if traces is None:
                traces = [[float(f0)] for f0 in f]
            finite = np.isfinite(f) & np.isfinite(g).all(axis=1) & np.isfinite(hessian).all(axis=(1, 2))
            solvable = finite.copy()
            solvable[finite] = _positive_definite(hessian[finite])
            step = np.zeros_like(g)
            step[solvable] = np.linalg.solve(hessian[solvable], -g[solvable][..., None])[..., 0]
            step *= mask[active]
            decrement = -(g * step).sum(axis=1)
            converged = solvable & (
                (grad_norm[active] <= tol)
                | (decrement <= _DECREMENT_RTOL * np.maximum(np.abs(f), 1.0))
            )
            at_limit = iterations[active] >= max_iter
            for i, group in enumerate(active):
                if not finite[i]:
                    failure[group] = "non-finite objective, gradient or Hessian"
                elif not solvable[i]:
                    failure[group] = "Hessian not positive definite"
                elif at_limit[i] and not converged[i]:
                    failure[group] = f"{max_iter} Newton steps reached"
            going = solvable & ~converged & ~at_limit
            if not going.any():
                break
            pool, active = pool.take(going), active[going]
            step, slope = step[going], -decrement[going]

            # per-group Armijo backtracking on the objective alone
            search_pool, searching = pool, np.arange(active.size)
            t = np.ones(active.size)
            for _ in range(_MAX_HALVINGS + 1):
                rows = active[searching]
                trial = theta[rows] + t[searching, None] * step[searching]
                f_new = _pooled_terms(search_pool, trial, mask[rows], lam[rows], derivatives=False)
                ok = f_new <= value[rows] + _ARMIJO * t[searching] * slope[searching]
                theta[rows[ok]] = trial[ok]
                iterations[rows[ok]] += 1
                for group, f_acc in zip(rows[ok], f_new[ok]):
                    traces[group].append(float(f_acc))
                if ok.all():
                    break
                search_pool, searching = search_pool.take(~ok), searching[~ok]
                t[searching] *= 0.5
            else:
                for group in active[searching]:
                    failure[group] = "no Armijo decrease along the Newton step"
                going = np.ones(active.size, dtype=bool)
                going[searching] = False
                pool, active = pool.take(going), active[going]
    return _NewtonResult(theta, value, grad_norm, iterations, failure, traces)


def _fit_segments(batch: EventBatch, sizes, configs: list[FitConfig]) -> list[FitOutcome]:
    """One model per segment of `batch`: its events are the segments' events, `sizes[s]` each, in order.

    Segment s is fitted at `configs[s].lam`; the configs must agree on `tol`
    and `max_iter`.  The ten (kind, u) groups of every segment are solved by
    one `_newton` call, and every fallback by one `minimize` call, whose runs
    do not interact, so each segment's model and diagnostics are those it
    gets when fitted alone.
    Empty groups keep zero weights.
    """
    if sum(sizes) != batch.n:
        raise FitError(f"segment sizes sum to {sum(sizes)}, but the batch has {batch.n} events")
    if len(configs) != len(sizes):
        raise FitError(f"{len(configs)} fit configs for {len(sizes)} segments")
    stops = sorted({(c.tol, c.max_iter) for c in configs})
    if len(stops) > 1:
        raise FitError(f"the segments' fit configs must share tol and max_iter, got (tol, max_iter) = {stops}")
    segments = batch.split(sizes)
    if not segments or any(seg.n == 0 for seg in segments):
        raise FitError("cannot fit a model from an empty event set")
    tol, max_iter = configs[0].tol, configs[0].max_iter

    m = batch.num_features
    groups = []   # (kind, u, x, W), segment by segment, each in the order of its diagnostics
    for seg in segments:
        for u in range(1, NUM_SACCADE_TYPES + 1):
            in_type = seg.u == u
            groups.append(("amplitude", u, seg.amp[in_type], seg.w_launch[in_type]))
            groups.append(("duration", u, seg.dur[in_type], seg.w_land[in_type]))

    n_events = np.array([len(x) for _, _, x, _ in groups])
    lam = np.repeat([c.lam for c in configs], 2 * NUM_SACCADE_TYPES)   # the lambda of each group
    pooled = np.flatnonzero(n_events)
    bias_only = _bias_only(n_events, m)
    feature_mask = np.ones((len(groups), m))
    feature_mask[bias_only, 1:] = 0.0
    mask = np.hstack([feature_mask, feature_mask])   # the weights each group uses
    pool = _Pool.of([groups[i][2] for i in pooled], [groups[i][3] * feature_mask[i] for i in pooled])
    theta0 = np.array([_moment_init(groups[i][2], m) for i in pooled])
    result = _newton(pool, theta0, mask[pooled], lam[pooled], tol, max_iter)

    row_of = dict(zip(pooled, range(len(pooled))))
    refits = {}   # group -> (the weights it uses, its L-BFGS-B run)
    failed = [i for i in pooled if result.failure[row_of[i]] is not None]
    if failed:
        # refit from the same start, on the weights each group uses
        used = [np.flatnonzero(mask[i]) for i in failed]
        problems = [(groups[i][2], groups[i][3][:, :len(cols) // 2]) for i, cols in zip(failed, used)]
        starts = [theta0[row_of[i], cols] for i, cols in zip(failed, used)]
        runs = minimize(_Objectives(problems, lam[failed]), starts, tol, max_iter).runs
        refits = dict(zip(failed, zip(used, runs)))
    fits = []     # ([shape weights, scale weights], GroupFit) per group
    for i, (kind, u, _, _) in enumerate(groups):
        if not n_events[i]:
            logger.warning("no %s events of type %d; keeping zero weights", kind, u)
            fits.append((np.zeros(2 * m), GroupFit(kind, u, 0, True, 0.0, 0.0, 0, 0.0, True)))
            continue
        k = row_of[i]
        failure = result.failure[k]
        if failure is not None:
            logger.warning(
                "Newton stopped on %s events of type %d (n_events=%d, newton_steps=%d, |g|=%.3g): "
                "%s; refitting with L-BFGS-B",
                kind, u, n_events[i], result.iterations[k], result.grad_norm[k], failure,
            )
        if bias_only[i]:
            logger.warning("only %d %s events of type %d (< 2M=%d); falling back to bias-only fit",
                           n_events[i], kind, u, 2 * m)
        theta, trace, final, steps, grad_norm = (result.theta[k], result.traces[k], result.value[k],
                                                 result.iterations[k], result.grad_norm[k])
        converged, solver = True, "newton"
        if failure is not None:
            used, refit = refits[i]
            if not refit.success:
                logger.warning(
                    "L-BFGS did not converge for %s events of type %d (n_events=%d, nit=%d): %s",
                    kind, u, n_events[i], refit.nit, refit.message,
                )
            theta = np.zeros(2 * m)
            theta[used] = refit.x
            trace, final, steps, grad_norm = refit.trace, refit.fun, refit.nit, np.abs(refit.jac).max()
            converged, solver = bool(refit.success), "lbfgs"
        fits.append((theta, GroupFit(
            kind=kind, u=u, n_events=int(n_events[i]), bias_only=bool(bias_only[i]),
            initial_objective=trace[0], final_objective=float(final), n_iterations=int(steps),
            grad_norm=float(grad_norm), converged=converged, objective_trace=trace, solver=solver,
        )))

    outcomes = []
    per_segment = 2 * NUM_SACCADE_TYPES
    for s, seg in enumerate(segments):
        mine = fits[s * per_segment:(s + 1) * per_segment]
        amplitude, duration = mine[0::2], mine[1::2]
        params = ModelParams(
            pi=fit_pi(seg),
            alpha=[f[0][:m] for f in amplitude], beta=[f[0][m:] for f in amplitude],
            gamma=[f[0][:m] for f in duration], delta=[f[0][m:] for f in duration],
        )
        outcomes.append(FitOutcome(params=params, groups=[f[1] for f in mine]))
    return outcomes


def fit_model_detailed(batch: EventBatch, config: FitConfig) -> FitOutcome:
    """Fit pi and all per-type gamma GLMs; returns parameters plus diagnostics."""
    return _fit_segments(batch, [batch.n], [config])[0]


def fit_model(events: EventBatch, config: FitConfig | list[FitConfig], sizes=None):
    """Regularized maximum-likelihood parameters for an event batch.

    Given `sizes`, the batch holds several training sets one after another,
    `sizes[s]` events each, and the result is the list of their models, all
    fitted in one pooled Newton call; each equals, bit for bit, the model
    `fit_model` gives that training set alone.  `config` is one `FitConfig`
    for every training set or, with `sizes`, a list of one per training
    set; such a list may vary `lam` but not `tol` or `max_iter`.
    """
    segment_sizes = [events.n] if sizes is None else sizes
    configs = [config] * len(segment_sizes) if isinstance(config, FitConfig) else list(config)
    outcomes = _fit_segments(events, segment_sizes, configs)
    if sizes is None:
        return outcomes[0].params
    return [outcome.params for outcome in outcomes]
