"""SMO solvers and scalar decision value, kept as test oracles.

`smo_solve_dual` is the SMO that `scanfisher.svm.solve_dual` replaced: SMO
on the maximal violating pair with a second-order partner, on per-solve
tables.  Run at a tight `tol` it is the tolerance oracle the interior-point
solver's alpha, bias and decisions must match.  `reference_solve_dual` is the
straightforward per-step SMO that recomputes -y * grad, both index sets, the
pair curvatures and the PSD check on every step; `smo_solve_dual` must match
it bit for bit.  `reference_decision_value` is the scalar decision function
for one kernel row.  `kkt_violations` and `max_kkt_violation` measure how far
a solved model is from the dual's optimality conditions.
"""

import logging
import math

import numpy as np

from scanfisher.svm import SUPPORT_EPS, SvmError, SvmModel

logger = logging.getLogger("scanfisher.svm")

_TAU = 1e-12  # pair curvatures are floored here


def reference_decision_value(model: SvmModel, k_row: np.ndarray) -> float:
    """sum_i alpha_i y_i k_row[i] + b for one test instance's kernel row."""
    k_row = np.asarray(k_row, dtype=float)
    if k_row.shape != model.alpha.shape:
        raise SvmError(f"kernel row length {k_row.shape} != training size {model.alpha.shape}")
    sv = model.support
    return float((model.alpha[sv] * model.y[sv]) @ k_row[sv] + model.bias)


def reference_solve_dual(
    gram: np.ndarray,
    labels: np.ndarray,
    C: float,
    tol: float = 1e-3,
    max_iter: int | None = None,
) -> SvmModel:
    """SMO solver for the dual problem on a precomputed kernel.

    Selection follows the maximal-violating-pair rule; convergence is declared
    when the violation gap m(alpha) - M(alpha) < tol, which bounds every KKT
    violation by tol once the bias is set from the free support vectors.
    """
    K = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = K.shape[0]
    if max_iter is None:
        max_iter = max(100_000, 200 * n)

    alpha = np.zeros(n)
    grad = -np.ones(n)  # d/da of 1/2 a^T Q a - sum a at a = 0
    diag = np.diag(K).copy()
    diag_abs_max = float(np.abs(diag).max(initial=0.0))
    pos = y > 0
    neg = ~pos

    it = 0
    m_val = M_val = 0.0
    while True:
        minus_y_grad = -y * grad
        up = (pos & (alpha < C)) | (neg & (alpha > 0))
        low = (pos & (alpha > 0)) | (neg & (alpha < C))
        if not up.any() or not low.any():
            m_val = M_val = 0.0
            break
        i = int(np.flatnonzero(up)[np.argmax(minus_y_grad[up])])
        m_val = float(minus_y_grad[i])
        M_val = float(minus_y_grad[low].min())
        if m_val - M_val < tol:
            break
        if it >= max_iter:
            logger.warning(
                "SMO stopped at max_iter=%d with violation %.3g (tol %.3g)",
                max_iter, m_val - M_val, tol,
            )
            break

        # second-order selection of j: maximal analytic gain among violators
        quad_all = diag[i] + diag - 2.0 * K[:, i]
        if float(quad_all.min()) < -1e-8 * (abs(diag[i]) + diag_abs_max + 1.0):
            raise SvmError(
                "gram matrix is not positive semidefinite along a working pair; "
                "increase the Fisher metric ridge"
            )
        np.maximum(quad_all, _TAU, out=quad_all)
        gain = m_val - minus_y_grad
        np.multiply(gain, gain, out=gain)
        gain /= quad_all
        gain[~low | (minus_y_grad >= m_val)] = -np.inf
        j = int(np.argmax(gain))
        if not np.isfinite(gain[j]):
            break

        quad = float(quad_all[j])
        old_i, old_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
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
            delta = (grad[i] - grad[j]) / quad
            total = old_i + old_j
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
        d_i = ai - old_i
        d_j = aj - old_j
        # grad_k += Q_ki d_i + Q_kj d_j with Q_kl = y_k y_l K_kl
        grad += y * (d_i * y[i] * K[:, i] + d_j * y[j] * K[:, j])
        it += 1

    # bias: average over free support vectors, else midpoint of the bounds
    free = (alpha > SUPPORT_EPS) & (alpha < C - SUPPORT_EPS)
    minus_y_grad = -y * grad
    if free.any():
        bias = float(minus_y_grad[free].mean())
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
    )


def smo_solve_dual(
    gram: np.ndarray,
    labels: np.ndarray,
    C: float,
    tol: float = 1e-3,
    max_iter: int | None = None,
) -> SvmModel:
    """SMO on per-solve tables, equal bit for bit to `reference_solve_dual`.

    Selection follows the maximal-violating-pair rule; convergence is declared
    when the violation gap m(alpha) - M(alpha) < tol, which bounds every KKT
    violation by tol once the bias is set from the free support vectors.
    """
    K = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = K.shape[0]
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
    )


def kkt_violations(model: SvmModel, gram: np.ndarray, labels: np.ndarray, tol_alpha: float = SUPPORT_EPS) -> np.ndarray:
    """Per-instance violation of the KKT optimality conditions of the dual on `gram` and `labels`."""
    f = model.decision_values(gram)
    margin = labels * f
    v = np.zeros(len(labels))
    at_zero = model.alpha <= tol_alpha
    at_c = model.alpha >= model.C - tol_alpha
    free = ~at_zero & ~at_c
    v[at_zero] = np.maximum(0.0, 1.0 - margin[at_zero])
    v[at_c] = np.maximum(0.0, margin[at_c] - 1.0)
    v[free] = np.abs(margin[free] - 1.0)
    return v


def max_kkt_violation(model: SvmModel, gram: np.ndarray, labels: np.ndarray) -> float:
    return float(kkt_violations(model, gram, labels).max(initial=0.0))
