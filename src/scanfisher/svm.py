"""Dual soft-margin SVM on a precomputed kernel.

`solve_dual` minimizes the standard dual

    min_a  1/2 sum_ij a_i a_j Q_ij - sum a_i,   Q_ij = y_i y_j K_ij
    s.t.   0 <= a_i <= C,  sum a_i y_i = 0

by Mehrotra predictor-corrector interior-point steps (Fine & Scheinberg,
JMLR 2001), each factoring Q + diag(z/a + w/(C - a)) once by Cholesky, with
z and w the multipliers of a >= 0 and a <= C.  At a relative duality gap of
1e-6 it crosses over to the exact optimum (`_polish`), else resumes to a gap
100x tighter, a fixed number of times: zeros and C are then exact.
`train_multiclass`, the one trainer above it for identification and
comprehension alike, reduces to one-vs-rest over a shared Gram matrix (two
classes take one solve); `prefix_decision_curve` averages per-line
decision values over line prefixes, and its last row is the whole-text
decision.  Along a grid of C values a solve need not be repeated
(`SvmModel.reused_at`, `train_multiclass(previous=...)`).  A solve's `tol`
does not move the polished optimum; it only marks the model `converged`.
"""

import logging
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

logger = logging.getLogger(__name__)

SUPPORT_EPS = 1e-12
_GAP = 1e-6           # relative duality gap of the first crossover
_TIGHTER = 3          # crossovers retried, each at a gap 100x tighter
_TO_BOUNDARY = 0.99   # share of the longest step that keeps the iterate interior
_PSD_SLACK = 1e-8     # most negative Gram eigenvalue allowed, relative to 1 + max |K_ii|
_ROUNDING = 1e-9      # KKT slack of a polished point, relative to its gradient's scale


class SvmError(ValueError):
    """Invalid kernel problem or solver failure."""


@dataclass
class KernelProblem:
    gram: np.ndarray
    labels: np.ndarray
    C: float

    def __post_init__(self):
        self.gram = np.asarray(self.gram, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        n = self.gram.shape[0]
        if self.gram.shape != (n, n):
            raise SvmError(f"gram must be square, got {self.gram.shape}")
        if self.labels.shape != (n,):
            raise SvmError("labels length must match gram size")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise SvmError("labels must be -1 or +1")
        if not self.C > 0:
            raise SvmError("C must be > 0")
        if not np.isfinite(self.gram).all():
            raise SvmError("gram matrix contains non-finite values")
        scale = 1.0 + float(np.abs(self.gram).max(initial=0.0))
        if float(np.abs(self.gram - self.gram.T).max(initial=0.0)) > 1e-8 * scale:
            raise SvmError("gram matrix is not symmetric")

    @property
    def n(self) -> int:
        return self.gram.shape[0]


@dataclass
class SvmModel:
    alpha: np.ndarray          # (N,) dual coefficients in [0, C]
    y: np.ndarray              # (N,) training labels
    bias: float
    C: float
    support: np.ndarray        # indices with alpha > SUPPORT_EPS
    kkt_violation: float       # final max violation (m - M)
    n_iterations: int
    converged: bool = False    # violation < the solve's tol; False unless solve_dual made the model

    def decision_values(self, k_rows: np.ndarray) -> np.ndarray:
        """sum_i alpha_i y_i k_row[i] + b for each row of test-vs-train kernel values."""
        k_rows = np.atleast_2d(np.asarray(k_rows, dtype=float))
        if k_rows.shape[1] != self.alpha.shape[0]:
            raise SvmError(f"kernel row length {k_rows.shape[1]} != training size {self.alpha.shape[0]}")
        sv = self.support
        return k_rows[:, sv] @ (self.alpha[sv] * self.y[sv]) + self.bias

    def reused_at(self, C: float) -> "SvmModel | None":
        """This model as the solution at another C, or None.

        A converged solve with every alpha below its own C, and below the
        new C, meets the KKT conditions at the new C as it stands: the index
        sets and the free set are the same, so are m(alpha) - M(alpha) and
        the bias.  The result shares this model's arrays.  A model read from
        a file is not converged and is never reused.
        """
        if self.converged and (self.alpha < min(C, self.C)).all():
            return replace(self, C=C)
        return None

    def to_dict(self) -> dict:
        sv = self.support
        return {
            "alphas": self.alpha[sv].tolist(),
            "support": sv.tolist(),
            "y_support": self.y[sv].tolist(),
            "bias": self.bias,
            "C": self.C,
            "n_train": int(len(self.alpha)),
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "SvmModel":
        n = int(obj["n_train"])
        alpha = np.zeros(n)
        y = np.zeros(n)
        support = np.asarray(obj["support"], dtype=int)
        alpha[support] = np.asarray(obj["alphas"], dtype=float)
        y[support] = np.asarray(obj["y_support"], dtype=float)
        return cls(
            alpha=alpha,
            y=y,
            bias=float(obj["bias"]),
            C=float(obj["C"]),
            support=support,
            kkt_violation=float("nan"),
            n_iterations=0,
        )


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """The largest t <= 1 with x + t dx >= 0."""
    neg = dx < 0
    return min(1.0, float((x[neg] / -dx[neg]).min(initial=np.inf)))


def _kkt(Q: np.ndarray, y: np.ndarray, C: float, alpha: np.ndarray) -> tuple[float, float]:
    """The violation m(alpha) - M(alpha) (at least 0) and the bias of `alpha`.

    F = -y * grad with grad = Q alpha - 1.  m is the largest F over I_up (y=+1
    and alpha < C, or y=-1 and alpha > 0), M the smallest over I_low (y=+1
    and alpha > 0, or y=-1 and alpha < C); alpha is optimal iff m <= M.  The
    bias averages F over the free alphas, else it is the midpoint of [m, M],
    or its finite end when one index set is empty (a one-label problem).
    """
    F = y * (1.0 - Q @ alpha)
    up = np.where(y > 0, alpha < C, alpha > 0)
    low = np.where(y > 0, alpha > 0, alpha < C)
    m = float(F[up].max(initial=-np.inf))
    M = float(F[low].min(initial=np.inf))
    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(F[free].mean())
    else:
        bias = float(np.mean([v for v in (m, M) if math.isfinite(v)] or [0.0]))
    return max(m - M, 0.0), bias


def _snapped(C: float, scale: float, alpha, s, z, w) -> np.ndarray:
    """The iterate's alpha, at 0 where z > scale alpha, else at C where w > scale (C - alpha), else free.

    A multiplier is a gradient entry, of the Gram's order `scale`
    (1 + max |K_ii|), and an alpha is not, so alpha and C - alpha are
    scaled before they are compared with z and w.
    """
    return np.where(z > scale * alpha, 0.0, np.where(w > scale * s, C, alpha))


def _polish(Q: np.ndarray, y: np.ndarray, C: float, scale: float, alpha, s, z, w) -> np.ndarray | None:
    """The exact optimum on the active set the iterate's complementarity pairs give, or None.

    With the bounded alphas B snapped (`_snapped`), the free alphas F solve
    [Q_FF y_F; y_F^T 0] [alpha_F; b] = [1 - Q_FB alpha_B; -y_B^T alpha_B].
    The point is kept only if it is a KKT point up to rounding: free alphas
    in [0, C], y^T alpha = 0 and m(alpha) - M(alpha) within `_ROUNDING` of
    the gradient's scale.  A singular reduced system rejects the point.
    """
    x = _snapped(C, scale, alpha, s, z, w)
    F = np.flatnonzero((z <= scale * alpha) & (w <= scale * s))
    x[F] = 0.0
    k = F.size
    if k:
        A = np.zeros((k + 1, k + 1))
        A[:k, :k] = Q[np.ix_(F, F)]
        A[:k, k] = A[k, :k] = y[F]
        try:
            solution = np.linalg.solve(A, np.append(1.0 - Q[F] @ x, -(y @ x)))
        except np.linalg.LinAlgError:
            return None
        x[F] = solution[:k]
        if not ((x[F] >= 0) & (x[F] <= C)).all():
            return None
    if abs(y @ x) > _ROUNDING * (1.0 + x.sum()):
        return None
    if _kkt(Q, y, C, x)[0] > _ROUNDING * (1.0 + float((np.abs(Q) @ x).max(initial=0.0))):
        return None
    return x


def solve_dual(
    problem: KernelProblem,
    tol: float = 1e-3,
    max_iter: int = 100,
) -> SvmModel:
    """The dual's optimum by interior-point steps and an exact crossover (see the module docstring).

    `n_iterations` counts interior-point steps, at most `max_iter`, and
    `kkt_violation` is m(alpha) - M(alpha) of the returned alpha; the model
    is `converged` if that violation is < tol.  When the steps stop (at
    `max_iter`, on a failed factorization or after the last retry) and no
    crossover is accepted, the iterate snapped to its active set is returned
    with a warning.  A Gram with an eigenvalue below -`_PSD_SLACK`
    (1 + max |K_ii|), and a tol that is not > 0, raise SvmError.
    """
    if not tol > 0:
        raise SvmError(f"tol must be > 0, got {tol!r}")
    K = problem.gram
    y = problem.labels
    C = problem.C
    n = problem.n
    scale = 1.0 + float(np.abs(np.diag(K)).max(initial=0.0))
    shifted = K + _PSD_SLACK * scale * np.eye(n)
    if dpotrf(shifted, lower=1, overwrite_a=1)[1]:
        raise SvmError("gram matrix is not positive semidefinite; increase the Fisher metric ridge")
    Q = y[:, None] * K * y
    if abs(y.sum()) == n:
        # one label: y^T alpha = 0 leaves alpha = 0 as the only feasible point
        return _model(problem, Q, np.zeros(n), 0, tol)

    # primal alpha and s = C - alpha, multipliers z >= 0 of alpha >= 0 and
    # w >= 0 of s >= 0, and the bias b (the multiplier of y^T alpha = 0);
    # the start is dual feasible, Q alpha - 1 + b y - z + w = 0, with alpha
    # no larger than a margin support vector's at the Gram's scale
    alpha = np.full(n, min(0.5 * C, 1.0 / scale))
    s = C - alpha
    grad = Q @ alpha - 1.0
    z = np.maximum(grad, 0.0) + 1.0
    w = np.maximum(-grad, 0.0) + 1.0
    b = 0.0
    it = 0
    for attempt in range(_TIGHTER + 1):
        target = _GAP * 0.01 ** attempt
        while True:
            grad = Q @ alpha - 1.0
            r_dual = grad + b * y - z + w
            r_primal = float(y @ alpha)
            comp = float(alpha @ z + s @ w)
            gap = max(
                comp / (1.0 + abs(0.5 * float(alpha @ (grad - 1.0)))),
                float(np.abs(r_dual).max()) / (1.0 + float(np.abs(grad).max())),
                abs(r_primal) / (1.0 + C),
            )
            if gap <= target or it >= max_iter:
                break
            # (Q + D) da + y db = r and y^T da = -r_primal with D = z/alpha + w/s,
            # solved through H^-1 y and H^-1 r from one Cholesky factor of H;
            # a factorization that fails ends the steps at this iterate
            H = Q.copy()
            H.flat[::n + 1] += z / alpha + w / s
            factor, info = dpotrf(H, lower=1, overwrite_a=1, clean=0)
            if info:
                break
            solved, _ = dpotrs(factor, np.column_stack([y, -(grad + b * y)]), lower=1)
            h_y = solved[:, 0]
            y_h_y = float(y @ h_y)

            def direction(h_r, rz, rw):
                db = (float(y @ h_r) + r_primal) / y_h_y
                da = h_r - db * h_y
                return da, db, (rz - z * da) / alpha, (rw + w * da) / s

            # predictor (affine scaling), then Mehrotra's centering corrector
            da, db, dz, dw = direction(solved[:, 1], -alpha * z, -s * w)
            points = np.concatenate([alpha, s, z, w])
            t = _max_step(points, np.concatenate([da, -da, dz, dw]))
            mu = comp / (2 * n)
            mu_aff = float((alpha + t * da) @ (z + t * dz) + (s - t * da) @ (w + t * dw)) / (2 * n)
            sigma_mu = (mu_aff / mu) ** 3 * mu
            rz = sigma_mu - alpha * z - da * dz
            rw = sigma_mu - s * w + da * dw
            h_r, _ = dpotrs(factor, -r_dual + rz / alpha - rw / s, lower=1)
            da, db, dz, dw = direction(h_r, rz, rw)
            t = _TO_BOUNDARY * _max_step(points, np.concatenate([da, -da, dz, dw]))
            alpha = alpha + t * da
            s = s - t * da
            z = z + t * dz
            w = w + t * dw
            b += t * db
            it += 1
        polished = _polish(Q, y, C, scale, alpha, s, z, w)
        if polished is not None:
            return _model(problem, Q, polished, it, tol)
        if gap > target:
            break
    model = _model(problem, Q, _snapped(C, scale, alpha, s, z, w), it, tol)
    logger.warning(
        "interior-point SVM solver %s (N=%d, C=%g): no crossover passed the KKT check; relative gap %.3g, "
        "KKT violation %.3g (tol %.3g)", f"stopped at max_iter={max_iter}" if it >= max_iter else
        "returned an unpolished iterate", n, C, gap, model.kkt_violation, tol,
    )
    return model


def _model(problem: KernelProblem, Q: np.ndarray, alpha: np.ndarray, iterations: int, tol: float) -> SvmModel:
    violation, bias = _kkt(Q, problem.labels, problem.C, alpha)
    return SvmModel(
        alpha=alpha,
        y=problem.labels,
        bias=bias,
        C=problem.C,
        support=np.flatnonzero(alpha > SUPPORT_EPS),
        kkt_violation=violation,
        n_iterations=iterations,
        converged=violation < tol,
    )


@dataclass
class MulticlassSvm:
    """One-vs-rest model set over a shared Gram matrix."""

    classes: list
    models: list[SvmModel]
    C: float

    def decision_matrix(self, k_rows: np.ndarray) -> np.ndarray:
        """(n_instances, n_classes) decision values."""
        k_rows = np.atleast_2d(np.asarray(k_rows, dtype=float))
        return np.column_stack([m.decision_values(k_rows) for m in self.models])

    def to_dict(self, references: Mapping[str, str] | None = None) -> dict:
        return {
            "classes": list(self.classes),
            "C": self.C,
            "models": [m.to_dict() for m in self.models],
            "references": dict(references or {}),
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "MulticlassSvm":
        return cls(
            classes=list(obj["classes"]),
            models=[SvmModel.from_dict(m) for m in obj["models"]],
            C=float(obj["C"]),
        )


def train_multiclass(
    gram: np.ndarray,
    labels: Sequence,
    C: float,
    previous: MulticlassSvm | None = None,
) -> MulticlassSvm:
    """Train one binary SVM per class (class vs. rest) on a shared Gram matrix.

    With two classes only the last class is solved: the first class's problem
    is the same dual with every label negated, so its model is the mirror
    (labels and bias negated, alpha shared) and decides by the negated values.
    `previous` is a set trained on the same gram and labels at another C.
    Each class whose model carries over to C (:meth:`SvmModel.reused_at`)
    is taken from it without a new solve.
    """
    labels = list(labels)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise SvmError(f"need at least 2 classes, got {classes!r}")
    if previous is not None and previous.classes != classes:
        raise SvmError(f"previous classes {previous.classes!r} != {classes!r}")
    label_arr = np.array(labels, dtype=object)
    mirrored = len(classes) == 2
    models = []
    for k in range(int(mirrored), len(classes)):
        model = previous.models[k].reused_at(C) if previous is not None else None
        if model is None:
            y = np.where(label_arr == classes[k], 1.0, -1.0)
            model = solve_dual(KernelProblem(gram=gram, labels=y, C=C))
        models.append(model)
    if mirrored:
        models.insert(0, replace(models[0], y=-models[0].y, bias=-models[0].bias))
    return MulticlassSvm(classes=classes, models=models, C=C)


def prefix_decision_curve(model: MulticlassSvm, k_rows: np.ndarray) -> np.ndarray:
    """(L, n_classes) averaged decisions using line prefixes 1..L."""
    values = model.decision_matrix(k_rows)
    cum = np.cumsum(values, axis=0)
    counts = np.arange(1, values.shape[0] + 1)[:, None]
    return cum / counts
