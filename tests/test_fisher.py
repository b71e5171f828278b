import math
import re
import warnings

import numpy as np
import pytest
from fisher_reference import fisher_score, kernel, reference_fisher_score, score_contributions, score_layout
from fit_reference import _objective
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from scanfisher.events import EventBatch
from scanfisher.fisher import (
    MetricError,
    default_ridge,
    empirical_information,
    fisher_metric,
    gram_matrix,
    read_scores,
    score_dimension,
    score_matrix,
    write_scores,
)
from scanfisher.model import ModelError, ModelParams, loglik_parts, sample_events
from scanfisher.svm import KernelProblem, solve_dual


def _euler_mascheroni():
    # independent oracle: harmonic partial sum with asymptotic correction
    n = 10_000
    return sum(1.0 / k for k in range(1, n + 1)) - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


def _random_params(rng, m):
    pi = rng.dirichlet(np.ones(5) * 4)
    def block(mu):
        w = rng.normal(0, 0.25, (5, m))
        w[:, 0] += mu
        return w
    return ModelParams(pi=pi, alpha=block(1.2), beta=block(0.3), gamma=block(1.5), delta=block(3.5))


def _random_batch(rng, params, n, m):
    W_l = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))]) if m > 1 else np.ones((n, 1))
    W_d = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))]) if m > 1 else np.ones((n, 1))
    return sample_events(params, W_l, W_d, rng)


# ---------------------------------------------------------------------------
# fisher_score


def test_score_empty_events_is_zero_vector():
    params = _random_params(np.random.default_rng(0), 3)
    g = fisher_score(_typed_batch(np.random.default_rng(1), [], 3), params)
    assert g.shape == (score_dimension(3),)
    np.testing.assert_array_equal(g, 0.0)


def test_score_layout_names():
    names = score_layout(2)
    assert len(names) == score_dimension(2) == 5 * (1 + 8)
    assert names[0] == "u1.pi"
    assert names[1] == "u1.alpha0"
    assert names[9] == "u2.pi"


def test_score_single_event_hand_values():
    """Unit event at zero weights: pi-entry 1/pi_u, alpha-entry -psi(1), beta 0."""
    m = 1
    params = ModelParams(
        pi=np.full(5, 0.2),
        alpha=np.zeros((5, m)), beta=np.zeros((5, m)),
        gamma=np.zeros((5, m)), delta=np.zeros((5, m)),
    )
    e = EventBatch(u=np.array([3]), amp=np.ones(1), dur=np.ones(1),
                   w_launch=np.ones((1, 1)), w_land=np.ones((1, 1)))
    g = fisher_score(e, params)
    width = 1 + 4 * m
    base = 2 * width  # type 3 block
    psi_1 = -_euler_mascheroni()
    assert g[base] == pytest.approx(5.0)                     # K_u / pi_u
    assert g[base + 1] == pytest.approx(-psi_1, abs=1e-10)   # ln 1 - psi(1) - 0
    assert g[base + 2] == pytest.approx(0.0, abs=1e-12)      # 1*exp(0) - exp(0)
    assert g[base + 3] == pytest.approx(-psi_1, abs=1e-10)
    assert g[base + 4] == pytest.approx(0.0, abs=1e-12)
    # other type blocks only carry their pi entries
    mask = np.ones_like(g, dtype=bool)
    for u in range(5):
        mask[u * width] = False
    for idx in range(base + 1, base + 5):
        mask[idx] = False
    np.testing.assert_array_equal(g[mask], 0.0)


def _loglik_flat_oracle(vec, batch, m):
    """Independent log-likelihood of a flat parameter vector (test-side)."""
    width = 1 + 4 * m
    total = 0.0
    for t in range(batch.n):
        u = int(batch.u[t])
        base = (u - 1) * width
        piu = vec[base]
        a = vec[base + 1:base + 1 + m]
        b = vec[base + 1 + m:base + 1 + 2 * m]
        g = vec[base + 1 + 2 * m:base + 1 + 3 * m]
        dl = vec[base + 1 + 3 * m:base + 1 + 4 * m]
        wl = batch.w_launch[t]
        wd = batch.w_land[t]

        def logpdf(x, shape, scale):
            return (shape - 1) * math.log(x) - x / scale - float(gammaln(shape)) - shape * math.log(scale)

        total += math.log(piu)
        total += logpdf(batch.amp[t], math.exp(a @ wl), math.exp(b @ wl))
        total += logpdf(batch.dur[t], math.exp(g @ wd), math.exp(dl @ wd))
    return total


def _flatten(params, m):
    width = 1 + 4 * m
    vec = np.zeros(5 * width)
    for u in range(5):
        base = u * width
        vec[base] = params.pi[u]
        vec[base + 1:base + 1 + m] = params.alpha[u]
        vec[base + 1 + m:base + 1 + 2 * m] = params.beta[u]
        vec[base + 1 + 2 * m:base + 1 + 3 * m] = params.gamma[u]
        vec[base + 1 + 3 * m:base + 1 + 4 * m] = params.delta[u]
    return vec


def test_score_matches_finite_differences():
    rng = np.random.default_rng(13)
    for m in (1, 3):
        for _ in range(3):
            params = _random_params(rng, m)
            batch = _random_batch(rng, params, 40, m)
            vec = _flatten(params, m)
            g = fisher_score(batch, params)
            h = 1e-5
            fd = np.zeros_like(vec)
            for i in range(len(vec)):
                vp = vec.copy()
                vp[i] += h
                vm = vec.copy()
                vm[i] -= h
                fd[i] = (_loglik_flat_oracle(vp, batch, m) - _loglik_flat_oracle(vm, batch, m)) / (2 * h)
            rel = np.abs(g - fd) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
            assert rel.max() < 1e-6


def test_score_additivity():
    rng = np.random.default_rng(14)
    params = _random_params(rng, 2)
    b1 = _random_batch(rng, params, 25, 2)
    b2 = _random_batch(rng, params, 35, 2)
    merged = EventBatch.concat([b1, b2])
    np.testing.assert_allclose(
        fisher_score(merged, params),
        fisher_score(b1, params) + fisher_score(b2, params),
        rtol=1e-10, atol=1e-10,
    )


def test_score_contributions_sum_to_score():
    rng = np.random.default_rng(15)
    params = _random_params(rng, 3)
    batch = _random_batch(rng, params, 50, 3)
    contrib = score_contributions(batch, params)
    assert contrib.shape == (50, score_dimension(3))
    np.testing.assert_allclose(contrib.sum(axis=0), fisher_score(batch, params), rtol=1e-9, atol=1e-9)


def _typed_batch(rng, types, m):
    """Events of the given types with random features, amplitudes and durations."""
    n = len(types)
    def features():
        return np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))])
    return EventBatch(
        u=np.array(types, dtype=np.int64),
        amp=rng.gamma(2.0, 3.0, n) + 0.5,
        dur=rng.gamma(5.0, 40.0, n),
        w_launch=features(),
        w_land=features(),
    )


@given(
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    instance_types=st.lists(st.lists(st.integers(1, 5), max_size=9), max_size=12),
)
@settings(max_examples=80, deadline=None)
@example(m=2, seed=0, instance_types=[])                        # zero instances
@example(m=2, seed=1, instance_types=[[], [], []])              # only empty instances
@example(m=3, seed=2, instance_types=[[3], [], [5], [1]])       # single events, gaps
@example(m=1, seed=3, instance_types=[[4, 4, 4, 4], [2, 2]])    # one type per instance
@example(m=3, seed=4, instance_types=[[1, 3, 3], [], [5, 2, 5, 4, 1], [2]])
def test_segmented_scores_match_per_instance_reference(m, seed, instance_types):
    rng = np.random.default_rng(seed)
    params = _random_params(rng, m)
    batches = [_typed_batch(rng, types, m) for types in instance_types]
    d = score_dimension(m)
    ref = np.array([reference_fisher_score(b, params) for b in batches]).reshape(len(batches), d)
    atol = 1e-12 * np.abs(ref).max(initial=0.0)

    got = score_matrix(batches, params)
    assert got.shape == (len(batches), d)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=atol)
    for batch, row in zip(batches, ref):
        np.testing.assert_allclose(fisher_score(batch, params), row, rtol=1e-12, atol=atol)
        contrib = score_contributions(batch, params)
        assert contrib.shape == (batch.n, d)
        np.testing.assert_allclose(contrib.sum(axis=0), row, rtol=1e-12, atol=atol)


def test_scores_beyond_the_link_bounds_are_the_fit_objective_gradient():
    # linear predictors far past both link bounds, the scale's past exp's
    # overflow at -709: scores stay finite, and each type's blocks and
    # log-likelihood terms are those of the lambda = 0 fit objective, negated
    rng = np.random.default_rng(22)
    m = 3
    batch = _typed_batch(rng, rng.integers(1, 6, 300).tolist(), m)
    params = ModelParams(pi=np.full(5, 0.2), alpha=rng.normal(0, 40.0, (5, m)), beta=rng.normal(0, 800.0, (5, m)),
                         gamma=rng.normal(0, 40.0, (5, m)), delta=rng.normal(0, 800.0, (5, m)))
    groups = [(batch.amp, batch.w_launch, params.alpha, params.beta, 1),
              (batch.dur, batch.w_land, params.gamma, params.delta, 1 + 2 * m)]
    for _, W, shape_w, scale_w, _ in groups:
        for weights in (shape_w, scale_w):
            eta = W @ weights.T
            assert eta.max() > 20.0 and eta.min() < -20.0
        assert (W @ scale_w.T).min() < -709.0

    score = score_matrix([batch], params)[0]
    assert np.isfinite(score).all()
    terms = loglik_parts(batch, params)[1:]
    width = 1 + 4 * m
    for term, (x, W, shape_w, scale_w, offset) in zip(terms, groups):
        total = 0.0
        for u in range(1, 6):
            mask = batch.u == u
            value, grad = _objective(np.concatenate([shape_w[u - 1], scale_w[u - 1]]), x[mask], W[mask], 0.0)
            total -= value
            block = score[(u - 1) * width + offset:(u - 1) * width + offset + 2 * m]
            np.testing.assert_allclose(block, -grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max())
        assert np.isfinite(term) and term == pytest.approx(total, rel=1e-12, abs=0.0)


def test_feature_count_mismatch_names_instance_and_both_counts():
    rng = np.random.default_rng(21)
    params = _random_params(rng, 2)
    good = _typed_batch(rng, [1, 3], 2)
    bad = _typed_batch(rng, [2, 4, 5], 3)
    with pytest.raises(ModelError, match=r"instance 1 carries M=3 features but the model has M=2"):
        score_matrix([good, bad, good], params)
    with pytest.raises(ModelError, match=r"instance 0 carries M=3 features but the model has M=2"):
        fisher_score(bad, params)
    empty = _typed_batch(rng, [], 1)
    with pytest.raises(ModelError, match=r"instance 2 carries M=1 features but the model has M=2"):
        score_matrix([good, good, empty], params)


# ---------------------------------------------------------------------------
# metric and kernel


def test_metric_rank_one():
    g = np.zeros(4)
    g[0] = 1.0
    metric = fisher_metric(empirical_information(g[None, :]), ridge=0.1)
    expected = np.diag([1.1, 0.1, 0.1, 0.1])
    np.testing.assert_allclose(metric.information + 0.1 * np.eye(4), expected, atol=1e-15)


def test_information_is_psd_and_matches_double_loop():
    rng = np.random.default_rng(16)
    scores = rng.normal(0, 2, (12, 6))
    info = empirical_information(scores)
    oracle = np.zeros((6, 6))
    for row in scores:
        oracle += np.outer(row, row)
    oracle /= len(scores)
    np.testing.assert_allclose(info, oracle, atol=1e-12)
    for _ in range(20):
        x = rng.normal(0, 1, 6)
        assert x @ info @ x >= -1e-12


def test_metric_failure_suggests_ridge():
    with pytest.raises(MetricError, match="ridge"):
        fisher_metric(np.zeros((4, 4)), ridge=0.0)


def test_empirical_information_rejects_zero_score_rows():
    # MetricError, not a bare ValueError; it stays a ValueError subclass
    for scores in (np.zeros((0, 4)), np.zeros((0, 0))):
        with pytest.raises(MetricError, match="at least one score row"):
            empirical_information(scores)
    assert issubclass(MetricError, ValueError)


@pytest.mark.parametrize("bad_score, ridge, message", [
    (None, math.nan, "ridge must be finite and >= 0, got nan"),
    (None, math.inf, "ridge must be finite and >= 0, got inf"),
    (None, -1e-6, "ridge must be finite and >= 0, got -1e-06"),
    (math.nan, 1e-6, "the Fisher information is not finite: a score is non-finite or too large"),
    (math.inf, 1e-6, "the Fisher information is not finite: a score is non-finite or too large"),
    (1e200, 1e-6, "the Fisher information is not finite: a score is non-finite or too large"),
])
def test_metric_rejects_non_finite_scores_and_ridges(bad_score, ridge, message):
    # without the checks the Cholesky factor comes back NaN and nothing is raised
    scores = np.random.default_rng(21).normal(0, 1, (6, 4))
    if bad_score is not None:
        scores[2, 1] = bad_score
    with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
        fisher_metric(empirical_information(scores), ridge)


@pytest.mark.parametrize("rows", [[[1e200, 1.0]], [[1e200, 1e200], [1e200, -1e200]], [[math.inf, 1.0]]])
def test_default_ridge_reports_a_non_finite_information_as_such(rows):
    # the ridge it computed from such an information used to be inf or NaN,
    # which fisher_metric then reported as a bad ridge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        info = empirical_information(np.array(rows))
    assert not np.isfinite(info).all()
    with pytest.raises(MetricError, match="^the Fisher information is not finite: a score is non-finite or too large$"):
        default_ridge(info, 1e-6)


def test_kernel_with_identity_metric_is_dot_product():
    rng = np.random.default_rng(17)
    metric = fisher_metric(np.zeros((4, 4)), ridge=1.0)  # I = 0, ridge 1 -> identity
    for _ in range(10):
        a = rng.normal(0, 1, 4)
        b = rng.normal(0, 1, 4)
        assert kernel(a, b, metric) == pytest.approx(a @ b, rel=1e-12)
        assert kernel(a, a, metric) >= 0


def test_gram_entries_match_pairwise_kernel_oracle():
    rng = np.random.default_rng(21)
    scores = rng.normal(0, 2, (12, 6))
    other = rng.normal(0, 2, (3, 6))
    info = empirical_information(scores)
    metric = fisher_metric(info, default_ridge(info, 1e-3))
    for left, gram in ((scores, gram_matrix(metric, scores)),
                       (other, gram_matrix(metric, scores, other=other))):
        oracle = [[kernel(a, b, metric) for b in scores] for a in left]
        np.testing.assert_allclose(gram, oracle, rtol=1e-10, atol=1e-10)


def test_default_ridge_scales_trace_with_floor():
    info = np.diag([2.0, 4.0, 6.0])
    assert default_ridge(info, 1e-3) == pytest.approx(1e-3 * 12.0 / 3)
    assert default_ridge(np.zeros((3, 3)), 1e-3) == 1e-12
    assert default_ridge(info, 0.0) == 1e-12
    for scale in (-1.0, float("nan")):
        with pytest.raises(MetricError, match="ridge scale must be >= 0"):
            default_ridge(info, scale)
    # scores of no components (a score file with header "0 N") give a 0 x 0 information
    with pytest.raises(MetricError, match=re.escape("the Fisher information has no components (D = 0)")):
        default_ridge(empirical_information(np.zeros((3, 0))), 1e-6)


def test_kernel_matches_dense_inverse_oracle():
    rng = np.random.default_rng(18)
    scores = rng.normal(0, 3, (20, 10))
    info = empirical_information(scores)
    ridge = 1e-4 * np.trace(info) / 10
    metric = fisher_metric(info, ridge)
    gram = gram_matrix(metric, scores)
    inv = np.linalg.inv(info + ridge * np.eye(10))
    oracle = scores @ inv @ scores.T
    assert np.abs(gram - oracle).max() / np.abs(oracle).max() < 1e-8
    # cross-kernel rows agree too
    other = rng.normal(0, 3, (4, 10))
    rows = gram_matrix(metric, scores, other=other)
    np.testing.assert_allclose(rows, other @ inv @ scores.T, rtol=1e-8, atol=1e-8)


def _kernel_regime(seed, n, d, scale):
    """Random scores of columns scaled 1 to 100, with the pipeline's information, ridge and metric."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(n, d)) * np.logspace(0, 2, d)
    info = empirical_information(scores)
    ridge = default_ridge(info, scale)
    return rng, scores, info, ridge, fisher_metric(info, ridge)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scale", [1e-6, 1e-4])
def test_whitened_scores_are_sphered_up_to_the_ridge(seed, scale):
    # N > D: Z^T Z / N has the eigenvalues of Id - r (I + r Id)^{-1}, so its
    # distance from Id is r / (lambda_min(I) + r); the training Gram over N
    # is as far from the projector onto the span of the training scores
    n, d = 60, 12
    _, scores, info, ridge, metric = _kernel_regime(seed, n, d, scale)
    lam = np.linalg.eigvalsh(info)
    bound = ridge / (lam[0] + ridge)
    z = metric.whiten(scores)
    sphered = z.T @ z / n
    np.testing.assert_allclose(np.linalg.eigvalsh(sphered), lam / (lam + ridge), rtol=0, atol=1e-12)
    assert np.linalg.norm(sphered - np.eye(d), 2) == pytest.approx(bound, rel=1e-8)
    projector = scores @ np.linalg.solve(scores.T @ scores, scores.T)
    gram = gram_matrix(metric, scores)
    assert np.linalg.norm(gram / n - projector, 2) == pytest.approx(bound, rel=1e-8)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scale", [1e-6, 1e-4])
def test_test_rows_are_the_least_squares_projection_up_to_the_ridge(seed, scale):
    # N > D: a test row is N s_test (S^T S)^{-1} S^T within r / (lambda_min(I) + r)
    # of its norm, since the ridge shrinks each eigendirection of I by at most that
    n, d = 60, 12
    rng, scores, info, ridge, metric = _kernel_regime(seed, n, d, scale)
    bound = ridge / (np.linalg.eigvalsh(info)[0] + ridge)
    other = rng.normal(size=(7, d)) * np.logspace(0, 2, d)
    rows = gram_matrix(metric, scores, other=other)
    reference = n * other @ np.linalg.solve(scores.T @ scores, scores.T)
    error = np.linalg.norm(rows - reference, axis=1) / np.linalg.norm(reference, axis=1)
    assert error.max() <= bound * (1 + 1e-8)
    assert error.min() > 0.01 * bound   # the ridge does move every row


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scale", [1e-6, 1e-4])
def test_training_gram_is_n_times_identity_when_lines_are_fewer_than_components(seed, scale):
    # N < D: the training Gram is N U diag(lambda / (lambda + r)) U^T over the N
    # nonzero eigenvalues lambda of I, so its distance from N Id_N is
    # N r / (lambda+_min(I) + r)
    n, d = 8, 20
    _, scores, info, ridge, metric = _kernel_regime(seed, n, d, scale)
    bound = n * ridge / (np.linalg.eigvalsh(info)[-n] + ridge)
    gram = gram_matrix(metric, scores)
    assert np.linalg.norm(gram - n * np.eye(n), 2) == pytest.approx(bound, rel=1e-7)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scale", [1e-6, 1e-4])
def test_kernel_is_invariant_under_a_reparametrization_up_to_the_ridge(seed, scale):
    # scores S A of the parameters reparametrized by an invertible A give the
    # information A^T I A, and S A (A^T I A)^{-1} A^T S^T = S I^{-1} S^T: the
    # kernel does not depend on the parametrization; each ridge moves its
    # kernel over N, and its test rows relative to their norm, by at most
    # r / (lambda_min(I) + r) from the shared projection
    n, d = 60, 12
    rng, scores, info, ridge, metric = _kernel_regime(seed, n, d, scale)
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    A = q1 @ np.diag(np.logspace(0, 1, d)) @ q2
    assert np.linalg.cond(A) == pytest.approx(10.0, rel=1e-9)
    other = rng.normal(size=(7, d)) * np.logspace(0, 2, d)
    info_a = empirical_information(scores @ A)
    ridge_a = default_ridge(info_a, scale)
    metric_a = fisher_metric(info_a, ridge_a)
    bound = ridge / (np.linalg.eigvalsh(info)[0] + ridge) + ridge_a / (np.linalg.eigvalsh(info_a)[0] + ridge_a)

    gram, gram_a = gram_matrix(metric, scores), gram_matrix(metric_a, scores @ A)
    assert np.linalg.norm(gram - gram_a, 2) / n <= bound * (1 + 1e-8)
    rows, rows_a = gram_matrix(metric, scores, other=other), gram_matrix(metric_a, scores @ A, other=other @ A)
    assert (np.linalg.norm(rows - rows_a, axis=1) / np.linalg.norm(rows, axis=1)).max() <= bound * (1 + 1e-6)
    # without a ridge the two kernels are one, to rounding in I's condition number
    exact, exact_a = fisher_metric(info, 0.0), fisher_metric(info_a, 0.0)
    tol = 1e-16 * np.linalg.cond(info_a)
    np.testing.assert_allclose(gram_matrix(exact_a, scores @ A), gram_matrix(exact, scores),
                               rtol=0, atol=tol * n)
    np.testing.assert_allclose(gram_matrix(exact_a, scores @ A, other=other @ A),
                               gram_matrix(exact, scores, other=other), rtol=0, atol=tol * np.abs(rows).max())


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scale", [1e-6, 1e-4])
def test_dual_has_the_closed_form_of_a_scaled_identity_gram_above_its_c_threshold(seed, scale):
    # N < D: K = N (Id + F) with ||F|| = eps = ||K / N - Id||.  At K = N Id the
    # dual's optimum is alpha0 = (1 - y (n+ - n-) / N) / N, bias b0 = (n+ - n-) / N,
    # with every alpha free once C >= 2 max(n+, n-) / N^2 <= 2 / N; there the
    # optimum solves (P Q P) alpha = P 1 on y-perp, so ||alpha - alpha0|| <=
    # eps / (1 - eps) ||alpha0||, |b - b0| = |y^T F alpha| <= sqrt(N) eps ||alpha||,
    # and it does not depend on C
    n, d = 8, 20
    rng, scores, _, _, metric = _kernel_regime(seed, n, d, scale)
    gram = gram_matrix(metric, scores)
    rows = gram_matrix(metric, scores, other=rng.normal(size=(5, d)) * np.logspace(0, 2, d))
    eps = np.linalg.norm(gram / n - np.eye(n), 2)
    assert eps < 0.01
    y = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
    n_pos, n_neg = int((y > 0).sum()), int((y < 0).sum())
    alpha0 = (1.0 - y * (n_pos - n_neg) / n) / n
    b0 = (n_pos - n_neg) / n
    threshold = 2 * max(n_pos, n_neg) / n ** 2
    problem = KernelProblem(gram)
    models = [solve_dual(problem, y, C) for C in (1.5 * threshold, 2.0 / n, 1.0, 100.0)]
    for model in models:
        assert model.converged and (model.alpha < model.C).all()
        assert np.linalg.norm(model.alpha - alpha0) <= eps / (1 - eps) * np.linalg.norm(alpha0) + 1e-12
        assert abs(model.bias - b0) <= math.sqrt(n) * eps * np.linalg.norm(model.alpha) + 1e-12
        decisions0 = rows @ (alpha0 * y) + b0
        bound = np.linalg.norm(rows, axis=1) * np.linalg.norm(model.alpha - alpha0) + abs(model.bias - b0)
        assert (np.abs(model.decision_values(rows) - decisions0) <= bound + 1e-12).all()
        np.testing.assert_allclose(model.alpha, models[-1].alpha, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.decision_values(rows), models[-1].decision_values(rows),
                                   rtol=1e-12, atol=1e-12)
    # below the threshold the larger class-balance alphas sit at C
    below = solve_dual(problem, y, 0.5 * threshold)
    assert np.isclose(below.alpha, below.C, rtol=0, atol=1e-12).any()


def test_gram_symmetric_psd():
    rng = np.random.default_rng(19)
    params = _random_params(rng, 2)
    batches = [_random_batch(rng, params, 10, 2) for _ in range(30)]
    scores = score_matrix(batches, params)
    info = empirical_information(scores)
    metric = fisher_metric(info, max(1e-6 * np.trace(info) / info.shape[0], 1e-12))
    gram = gram_matrix(metric, scores)
    np.testing.assert_allclose(gram, gram.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-8 * np.trace(gram)


def test_scores_file_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    scores = rng.normal(0, 123.0, (7, 5))
    path = tmp_path / "scores.txt"
    write_scores(path, scores)
    first_line = path.read_text().splitlines()[0]
    assert first_line == "5 7"
    np.testing.assert_array_equal(read_scores(path), scores)


@pytest.mark.parametrize("content, message", [
    ("", ":1: expected the header 'D N'"),
    ("3\n1 2 3\n", ":1: expected the header 'D N'"),
    ("3 x\n1 2 3\n", ":1: expected the header 'D N'"),
    ("3 -1\n", ":1: expected the header 'D N'"),
    ("0 2\n\n\n", ":1: a score has at least one component, the header gives D = 0"),
    ("3 2\n1 2 3\n1 2\n", ":3: expected 3 values, got 2"),
    ("3 2\n1 2 3\n1 2 3 4\n", ":3: expected 3 values, got 4"),
    ("3 1\n1 two 3\n", ":2: could not convert string to float: 'two'"),
    ("3 2\n1 2 3\n1 nan 3\n", ":3: non-finite value"),
    ("3 1\n1 2 -inf\n", ":2: non-finite value"),
    ("3 1\n1 2 3\n4 5 6\n", "the header promises 1 rows, the file has 2"),
    ("3 2\n1 2 3\n", "the header promises 2 rows, the file has 1"),
])
def test_read_scores_names_what_is_wrong(tmp_path, content, message):
    path = tmp_path / "scores.txt"
    path.write_text(content)
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        read_scores(path)
    assert str(err.value).startswith(str(path))
