"""Dual soft-margin SVM on a precomputed kernel.

The solver maximizes the standard dual

    max_a  sum a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t.   0 <= a_i <= C,  sum a_i y_i = 0

by SMO-style pairwise updates on the maximal violating pair, with the
second-order (WSS2) choice of its partner, stopping when the largest KKT
violation falls below `tol`.  One-vs-rest reduction handles multiclass reader
identification over a single shared Gram matrix; `prefix_decision_curve`
averages per-line decision values over line prefixes, and its last row is the
whole-text decision.

Along a grid of C values a solve need not be repeated: when no value the
solve at C1 compared against C1 reached it, the solve at any C2 > C1 takes
the same branches and returns the same model bit for bit, with C2 in its `C`
field (`SvmModel.reused_at`, `train_multiclass(previous=...)`).
"""

import logging
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

_TAU = 1e-12
SUPPORT_EPS = 1e-12


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
    objective_trace: list[float] | None = None
    box_reach: float = math.inf  # largest value the solve compared against C

    def decision_values(self, k_rows: np.ndarray) -> np.ndarray:
        """sum_i alpha_i y_i k_row[i] + b for each row of test-vs-train kernel values."""
        k_rows = np.atleast_2d(np.asarray(k_rows, dtype=float))
        if k_rows.shape[1] != self.alpha.shape[0]:
            raise SvmError(f"kernel row length {k_rows.shape[1]} != training size {self.alpha.shape[0]}")
        sv = self.support
        return k_rows[:, sv] @ (self.alpha[sv] * self.y[sv]) + self.bias

    def reused_at(self, C: float) -> "SvmModel | None":
        """This model as `solve_dual` returns it at a larger C, or None.

        The problem, `tol` and `max_iter` must be those of the solve that
        gave this model; only C changes.

        If no value the solve compared against its C reached it, and every
        alpha ended below C - SUPPORT_EPS, then each branch of the solve and
        the free set the bias averages over come out the same for any larger
        C: the result is equal bit for bit except for its `C` field, and it
        shares this model's arrays.  A solve stopped at max_iter, or a model
        read from a file, has an infinite reach and is never reused.
        """
        if C > self.C and self.box_reach < self.C and (self.alpha < self.C - SUPPORT_EPS).all():
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


def _dual_objective(alpha: np.ndarray, grad: np.ndarray) -> float:
    # grad = Q alpha - 1, so alpha^T Q alpha = alpha . (grad + 1)
    return float(alpha.sum() - 0.5 * (alpha @ (grad + 1.0)))


def solve_dual(
    problem: KernelProblem,
    tol: float = 1e-3,
    max_iter: int | None = None,
    record_objective: bool = False,
) -> SvmModel:
    """SMO solver for the dual problem on a precomputed kernel.

    Selection follows the maximal-violating-pair rule; convergence is declared
    when the violation gap m(alpha) - M(alpha) < tol, which bounds every KKT
    violation by tol once the bias is set from the free support vectors.
    A tol that is not > 0 could never be met and raises SvmError.
    """
    if not tol > 0:
        raise SvmError(f"tol must be > 0, got {tol!r}")
    K = problem.gram
    y = problem.labels
    C = problem.C
    n = problem.n
    if max_iter is None:
        max_iter = max(100_000, 200 * n)

    # Per-solve tables: cols[i] is K[:, i] (K need only be symmetric to 1e-8,
    # so rows are not columns), and quad[i] is the curvature along every pair
    # (i, j), floored at _TAU.  A row that is not PSD raises only once it is
    # selected, as a per-step check would.
    cols = np.ascontiguousarray(K.T)
    diag = np.diag(K).copy()
    diag_abs_max = float(np.abs(diag).max(initial=0.0))
    quad = diag[:, None] + diag - 2.0 * cols
    not_psd = (quad.min(axis=1) < -1e-8 * (np.abs(diag) + diag_abs_max + 1.0)).tolist()
    np.maximum(quad, _TAU, out=quad)

    # State: F = -y * grad with grad = Q alpha - 1.  As y = +-1, updating F in
    # place rounds to the same values as recomputing -y * grad from an updated
    # grad (an exact zero may flip sign, which no comparison or sum can see).
    F = y.copy()
    alpha = [0.0] * n
    y_list = y.tolist()
    # I_up: y=+1 and alpha < C, or y=-1 and alpha > 0; I_low: y=+1 and
    # alpha > 0, or y=-1 and alpha < C.  Kept as lists and as penalties added
    # to F before argmax/min: 0 inside the set, -inf/+inf outside it.
    up = [y_k > 0 for y_k in y_list]
    low = [not u for u in up]
    n_up = sum(up)
    n_low = n - n_up
    up_pen = np.where(up, 0.0, -np.inf)
    low_pen = np.where(low, 0.0, np.inf)
    masked, gain, step, step_j = np.empty((4, n))
    blocked = np.empty(n, dtype=bool)
    trace: list[float] | None = [] if record_objective else None

    # box_reach (for SvmModel.reused_at): the largest value compared against
    # C: every alpha in the index-set tests, clip candidates, same-label totals
    reach = 0.0
    it = 0
    m_val = M_val = 0.0
    while True:
        if not n_up or not n_low:
            m_val = M_val = 0.0
            break
        i = int(np.add(F, up_pen, out=masked).argmax())
        m_val = F.item(i)
        M_val = float(np.add(F, low_pen, out=masked).min())
        if m_val - M_val < tol:
            break
        if it >= max_iter:
            logger.warning(
                "SMO stopped at max_iter=%d with violation %.3g (tol %.3g; N=%d, C=%g)",
                max_iter, m_val - M_val, tol, n, C,
            )
            reach = math.inf
            break

        # second-order selection of j: maximal analytic gain among violators
        if not_psd[i]:
            raise SvmError(
                "gram matrix is not positive semidefinite along a working pair; "
                "increase the Fisher metric ridge"
            )
        np.greater_equal(masked, m_val, out=blocked)  # outside I_low, or F >= m
        np.subtract(m_val, F, out=gain)
        np.multiply(gain, gain, out=gain)
        np.divide(gain, quad[i], out=gain)
        gain[blocked] = -np.inf
        j = int(gain.argmax())
        if not math.isfinite(gain.item(j)):
            break

        q = quad.item(i, j)
        y_i, y_j = y_list[i], y_list[j]
        grad_i, grad_j = -y_i * m_val, -y_j * F.item(j)
        old_i, old_j = alpha[i], alpha[j]
        if y_i != y_j:
            delta = (-grad_i - grad_j) / q
            diff = old_i - old_j
            ai = old_i + delta
            aj = old_j + delta
            if diff > 0:
                if aj < 0:
                    aj = 0.0
                    ai = diff
            else:
                if ai < 0:
                    ai = 0.0
                    aj = -diff
            if diff > 0:
                if ai > C:
                    ai = C
                    aj = C - diff
            else:
                if aj > C:
                    aj = C
                    ai = C + diff
        else:
            delta = (grad_i - grad_j) / q
            total = old_i + old_j
            reach = max(reach, total)
            ai = old_i - delta
            aj = old_j + delta
            if total > C:
                if ai > C:
                    ai = C
                    aj = total - C
                if aj > C:
                    aj = C
                    ai = total - C
            else:
                if aj < 0:
                    aj = 0.0
                    ai = total
                if ai < 0:
                    ai = 0.0
                    aj = total
        alpha[i], alpha[j] = ai, aj
        reach = max(reach, ai, aj)
        for k, a_k, y_k in ((i, ai, y_i), (j, aj, y_j)):
            now_up = a_k < C if y_k > 0 else a_k > 0
            now_low = a_k > 0 if y_k > 0 else a_k < C
            if now_up != up[k]:
                up[k] = now_up
                up_pen[k] = 0.0 if now_up else -np.inf
                n_up += 1 if now_up else -1
            if now_low != low[k]:
                low[k] = now_low
                low_pen[k] = 0.0 if now_low else np.inf
                n_low += 1 if now_low else -1
        # grad_k += Q_ki d_i + Q_kj d_j with Q_kl = y_k y_l K_kl, so
        # F_k -= K_ki d_i y_i + K_kj d_j y_j
        np.multiply(cols[i], (ai - old_i) * y_i, out=step)
        np.multiply(cols[j], (aj - old_j) * y_j, out=step_j)
        step += step_j
        F -= step
        if trace is not None:
            trace.append(_dual_objective(np.array(alpha), -y * F))
        it += 1

    # bias: average over free support vectors, else midpoint of the bounds
    alpha = np.array(alpha, dtype=float)
    free = (alpha > SUPPORT_EPS) & (alpha < C - SUPPORT_EPS)
    if free.any():
        bias = float(F[free].mean())
    else:
        bias = 0.5 * (m_val + M_val)

    support = np.flatnonzero(alpha > SUPPORT_EPS)
    return SvmModel(
        alpha=alpha,
        y=y,
        bias=bias,
        C=C,
        support=support,
        kkt_violation=max(m_val - M_val, 0.0),
        n_iterations=it,
        objective_trace=trace,
        box_reach=reach,
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
    tol: float = 1e-3,
    previous: MulticlassSvm | None = None,
) -> MulticlassSvm:
    """Train one binary SVM per class (class vs. rest) on a shared Gram matrix.

    `previous` is a set trained on the same gram and labels with the same
    `tol` at a smaller C.  Each class whose model carries over to C
    (:meth:`SvmModel.reused_at`) is taken from it without a new solve.
    """
    labels = list(labels)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise SvmError(f"need at least 2 classes, got {classes!r}")
    if previous is not None and previous.classes != classes:
        raise SvmError(f"previous classes {previous.classes!r} != {classes!r}")
    label_arr = np.array(labels, dtype=object)
    models = []
    for k, cls in enumerate(classes):
        model = previous.models[k].reused_at(C) if previous is not None else None
        if model is None:
            y = np.where(label_arr == cls, 1.0, -1.0)
            model = solve_dual(KernelProblem(gram=gram, labels=y, C=C), tol=tol)
        models.append(model)
    return MulticlassSvm(classes=classes, models=models, C=C)


def prefix_decision_curve(model: MulticlassSvm, k_rows: np.ndarray) -> np.ndarray:
    """(L, n_classes) averaged decisions using line prefixes 1..L."""
    values = model.decision_matrix(k_rows)
    cum = np.cumsum(values, axis=0)
    counts = np.arange(1, values.shape[0] + 1)[:, None]
    return cum / counts
