import collections
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.special import polygamma

import scanfisher.fit as fit_module
from scanfisher.events import EventBatch
from scanfisher.fit import (
    FitError,
    _moment_init,
    _pooled_terms,
    fit_model,
    fit_pi,
)
from scanfisher.model import ModelParams, _trigamma, sample_events
from scanfisher.synth import default_base_params
from fit_reference import (
    _fit_group,
    _objective,
    neg_loglik_and_grad_amplitude,
    neg_loglik_and_grad_duration,
    objective_before_minimum,
    pool_of,
    pooled_terms_before_product,
)


def _of_types(types):
    """Events of the given types with |a| = d = 1 and bias-only features."""
    n = len(types)
    return EventBatch(
        u=np.asarray(types, dtype=np.int64), amp=np.ones(n), dur=np.ones(n),
        w_launch=np.ones((n, 1)), w_land=np.ones((n, 1)),
    )


def _typed_batch(rng, n, m, u=3):
    """Events of a single type with random features and gamma draws."""
    W = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))]) if m > 1 else np.ones((n, 1))
    return EventBatch(
        u=np.full(n, u, dtype=np.int64),
        amp=rng.gamma(4.0, 1.5, n),
        dur=rng.gamma(5.0, 40.0, n),
        w_launch=W,
        w_land=W.copy(),
    )


# ---------------------------------------------------------------------------
# fit_pi


def test_fit_pi_uniform_counts():
    np.testing.assert_allclose(fit_pi(_of_types(range(1, 6))), np.full(5, 0.2))


def test_fit_pi_zero_count_smoothing():
    pi = fit_pi(_of_types([3] * 10))
    eps = 1e-6
    expected = np.array([eps, eps, 1.0, eps, eps])
    expected /= expected.sum()
    np.testing.assert_allclose(pi, expected, rtol=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_fit_pi_empty_errors():
    with pytest.raises(FitError):
        fit_pi(_of_types([]))


def test_fit_pi_recovers_multinomial():
    rng = np.random.default_rng(0)
    truth = np.array([0.1, 0.2, 0.4, 0.05, 0.25])
    n = 10_000
    counts = rng.multinomial(n, truth)
    pi = fit_pi(_of_types(np.repeat(np.arange(1, 6), counts)))
    for u in range(5):
        se = math.sqrt(truth[u] * (1 - truth[u]) / n)
        assert abs(pi[u] - truth[u]) <= 3 * se


def test_fit_pi_permutation_equivariant():
    rng = np.random.default_rng(1)
    us = rng.integers(1, 6, size=200)
    pi = fit_pi(_of_types(us))
    # relabel types through a permutation: pi permutes the same way
    perm = np.array([2, 0, 4, 1, 3])
    pi_perm = fit_pi(_of_types(perm[us - 1] + 1))
    np.testing.assert_allclose(pi_perm[perm], pi, rtol=1e-12)


# ---------------------------------------------------------------------------
# objectives


def _fd_gradient(fn, theta, h=1e-5):
    out = np.zeros_like(theta)
    for i in range(len(theta)):
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        out[i] = (fn(tp) - fn(tm)) / (2 * h)
    return out


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["amplitude", "duration"])
def test_objective_gradients_match_finite_differences(kind, lam):
    rng = np.random.default_rng(17)
    m = 3
    batch = _typed_batch(rng, 40, m)
    for _ in range(10):
        theta = rng.normal(0, 0.4, 2 * m)
        if kind == "amplitude":
            f, g = neg_loglik_and_grad_amplitude(theta[:m], theta[m:], batch, lam)
            fn = lambda th: neg_loglik_and_grad_amplitude(th[:m], th[m:], batch, lam)[0]
        else:
            f, g = neg_loglik_and_grad_duration(theta[:m], theta[m:], batch, lam)
            fn = lambda th: neg_loglik_and_grad_duration(th[:m], th[m:], batch, lam)[0]
        fd = _fd_gradient(fn, theta)
        rel = np.abs(g - fd) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
        assert rel.max() < 1e-6


def test_regularizer_contribution_at_zero_weights():
    rng = np.random.default_rng(2)
    m = 4
    batch = _typed_batch(rng, 25, m)
    zeros = np.zeros(m)
    f0, g0 = neg_loglik_and_grad_amplitude(zeros, zeros, batch, 0.0)
    f1, g1 = neg_loglik_and_grad_amplitude(zeros, zeros, batch, 1.0)
    assert f1 - f0 == pytest.approx(2 * m, abs=1e-9)
    np.testing.assert_allclose(g1 - g0, np.ones(2 * m), atol=1e-12)


def test_single_event_gradient_hand_value():
    """M=1, |a|=1, zero weights: d/d alpha = psi(1), d/d beta = 0."""
    # Euler-Mascheroni through an independent partial-sum oracle
    n = 10_000
    gamma_e = sum(1.0 / k for k in range(1, n + 1)) - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)
    batch = EventBatch(
        u=np.array([3]), amp=np.array([1.0]), dur=np.array([1.0]),
        w_launch=np.ones((1, 1)), w_land=np.ones((1, 1)),
    )
    lam = 0.25
    _, grad = neg_loglik_and_grad_amplitude(np.zeros(1), np.zeros(1), batch, lam)
    psi_1 = -gamma_e
    assert grad[0] == pytest.approx(psi_1 + lam, abs=1e-9)
    assert grad[1] == pytest.approx(0.0 + lam, abs=1e-12)


def test_duration_objective_equals_amplitude_on_same_data():
    rng = np.random.default_rng(3)
    m = 2
    batch = _typed_batch(rng, 30, m)
    batch.dur = batch.amp.copy()  # identical observations and features
    theta = rng.normal(0, 0.3, 2 * m)
    fa, ga = neg_loglik_and_grad_amplitude(theta[:m], theta[m:], batch, 0.05)
    fd_, gd = neg_loglik_and_grad_duration(theta[:m], theta[m:], batch, 0.05)
    assert fa == pytest.approx(fd_, rel=1e-12)
    np.testing.assert_allclose(ga, gd, rtol=1e-12)


# ---------------------------------------------------------------------------
# fit_model


def _mixed_batch(rng, n, m, params=None):
    params = params or default_base_params(m)
    W_l = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))])
    W_d = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))])
    return sample_events(params, W_l, W_d, rng)


def test_fit_model_descends_from_initialization():
    rng = np.random.default_rng(4)
    batch = _mixed_batch(rng, 600, 3)
    [outcome] = fit_model(batch, 0.01)
    for group in outcome.groups:
        if group.n_events:
            assert group.final_objective <= group.initial_objective + 1e-9
            assert group.objective_trace[0] == group.initial_objective
            diffs = np.diff(group.objective_trace)
            assert (diffs <= 1e-6 * np.abs(group.objective_trace[:-1]) + 1e-8).all()


def test_fit_model_deterministic():
    rng = np.random.default_rng(5)
    batch = _mixed_batch(rng, 400, 2)
    a = fit_model(batch, 0.01)[0].params
    b = fit_model(batch, 0.01)[0].params
    np.testing.assert_array_equal(a.alpha, b.alpha)
    np.testing.assert_array_equal(a.delta, b.delta)
    np.testing.assert_array_equal(a.pi, b.pi)


def test_fit_model_per_type_independence():
    """Reordering other types' events leaves a type's fitted weights unchanged."""
    rng = np.random.default_rng(6)
    batch = _mixed_batch(rng, 500, 2)
    fitted = fit_model(batch, 0.01)[0].params

    order = np.arange(batch.n)
    other = order[batch.u != 3]
    moved = np.concatenate([order[batch.u == 3], other[::-1]])
    shuffled = EventBatch(
        u=batch.u[moved], amp=batch.amp[moved], dur=batch.dur[moved],
        w_launch=batch.w_launch[moved], w_land=batch.w_land[moved],
    )
    # type-3 events kept in their original relative order
    refit = fit_model(shuffled, 0.01)[0].params
    np.testing.assert_array_equal(refit.alpha[2], fitted.alpha[2])
    np.testing.assert_array_equal(refit.beta[2], fitted.beta[2])


def test_fit_model_bias_only_fallback(caplog):
    rng = np.random.default_rng(7)
    m = 3
    batch = _mixed_batch(rng, 300, m)
    # keep only 2 events of type 5 (< 2M) by dropping the rest
    keep = np.flatnonzero(batch.u != 5).tolist() + np.flatnonzero(batch.u == 5)[:2].tolist()
    keep = np.array(sorted(keep))
    small = EventBatch(
        u=batch.u[keep], amp=batch.amp[keep], dur=batch.dur[keep],
        w_launch=batch.w_launch[keep], w_land=batch.w_land[keep],
    )
    with caplog.at_level(logging.WARNING):
        params = fit_model(small, 0.01)[0].params
    assert "bias-only" in caplog.text
    # non-bias weights of the starved type stay zero
    np.testing.assert_array_equal(params.alpha[4, 1:], 0.0)
    np.testing.assert_array_equal(params.delta[4, 1:], 0.0)


def test_fit_model_reports_lbfgs_non_convergence(caplog, monkeypatch):
    rng = np.random.default_rng(10)
    batch = _mixed_batch(rng, 300, 2)
    with caplog.at_level(logging.WARNING, logger="scanfisher.fit"), monkeypatch.context() as patched:
        patched.setattr(fit_module, "_MAX_ITER", 1)
        [outcome] = fit_model(batch, 0.01)
    stopped = [g for g in outcome.groups if not g.converged]
    assert stopped
    messages = [r.getMessage() for r in caplog.records if "did not converge" in r.getMessage()]
    assert len(messages) == len(stopped)
    for group, message in zip(stopped, messages):
        assert group.n_iterations == 1
        assert (f"{group.kind} events of type {group.u} "
                f"(n_events={group.n_events}, nit=1)") in message
        assert "ITERATIONS REACHED LIMIT" in message.upper()
    assert all(g.converged for g in fit_model(batch, 0.01)[0].groups)


def test_fit_model_large_lambda_still_descends():
    rng = np.random.default_rng(8)
    batch = _mixed_batch(rng, 300, 2)
    [outcome] = fit_model(batch, 1e6)
    for group in outcome.groups:
        if group.n_events:
            assert group.final_objective <= group.initial_objective + 1e-6


def test_fit_model_small_recovery():
    """Bias-only fit on one type recovers method-of-moments scale parameters."""
    rng = np.random.default_rng(9)
    true_shape, true_scale = 4.0, 2.5
    n = 4000
    batch = EventBatch(
        u=np.full(n, 2, dtype=np.int64),
        amp=rng.gamma(true_shape, true_scale, n),
        dur=rng.gamma(5.0, 40.0, n),
        w_launch=np.ones((n, 1)),
        w_land=np.ones((n, 1)),
    )
    params = fit_model(batch, 0.0)[0].params
    assert math.exp(params.alpha[1, 0]) == pytest.approx(true_shape, rel=0.1)
    assert math.exp(params.beta[1, 0]) == pytest.approx(true_scale, rel=0.1)


def test_fit_config_validation():
    # lambda is the fit's one setting
    batch = _mixed_batch(np.random.default_rng(4), 100, 2)
    with pytest.raises(FitError, match=r"^lam must be >= 0, got -1\.0$"):
        fit_model(batch, -1.0)


@pytest.mark.parametrize("field, bound", [("lam", ">= 0")])
def test_fit_config_rejects_nan(field, bound):
    # NaN fails every comparison, so it needs its own check
    batch = _mixed_batch(np.random.default_rng(4), 100, 2)
    with pytest.raises(FitError, match=f"^{field} must be {bound}, got nan$"):
        fit_model(batch, math.nan)


def test_fit_model_empty_errors():
    with pytest.raises(FitError):
        fit_model(_of_types([]), 1e-2)


# ---------------------------------------------------------------------------
# pooled Newton fit against the per-group L-BFGS-B oracle


def _sized_batch(rng, m, sizes):
    """Events with `sizes[u - 1]` draws of type u from the default base model."""
    params = default_base_params(m)
    parts = []
    for u, n in enumerate(sizes, start=1):
        W_l = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))])
        W_d = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))])
        parts.append(EventBatch(
            u=np.full(n, u, dtype=np.int64),
            amp=rng.gamma(np.exp(W_l @ params.alpha[u - 1]), np.exp(W_l @ params.beta[u - 1])),
            dur=rng.gamma(np.exp(W_d @ params.gamma[u - 1]), np.exp(W_d @ params.delta[u - 1])),
            w_launch=W_l,
            w_land=W_d,
        ))
    return EventBatch.concat(parts)


def _group_data(batch, kind, u):
    in_type = batch.u == u
    if kind == "amplitude":
        return batch.amp[in_type], batch.w_launch[in_type]
    return batch.dur[in_type], batch.w_land[in_type]


def _weights(params, kind, u):
    if kind == "amplitude":
        return params.alpha[u - 1], params.beta[u - 1]
    return params.gamma[u - 1], params.delta[u - 1]


def _fd_hessian(x, W, lam, theta, h=1e-5):
    cols = []
    for i in range(len(theta)):
        step = np.zeros_like(theta)
        step[i] = h
        cols.append((_objective(theta + step, x, W, lam)[1] - _objective(theta - step, x, W, lam)[1]) / (2 * h))
    hess = np.array(cols)
    return 0.5 * (hess + hess.T)


ORACLE_CASES = [
    # (M, sizes per type: full groups from 2M up to 600, a bias-only group, an empty one)
    (1, (2, 600, 1, 37, 0)),
    (2, (4, 3, 600, 90, 0)),
    (4, (8, 7, 3, 600, 150)),
]


@pytest.mark.parametrize("lam", [0.0, 1e-2, 1.0])
@pytest.mark.parametrize("m,sizes", ORACLE_CASES)
def test_newton_groups_match_lbfgs_oracle(m, sizes, lam):
    rng = np.random.default_rng(100 * m + int(1e3 * lam))
    batch = _sized_batch(rng, m, sizes)
    [outcome] = fit_model(batch, lam)
    newton = 0
    for group in outcome.groups:
        x, W = _group_data(batch, group.kind, group.u)
        ref_shape, ref_scale, ref = _fit_group(group.kind, group.u, x, W, lam)
        shape_w, scale_w = _weights(outcome.params, group.kind, group.u)
        assert group.n_events == ref.n_events
        assert group.bias_only == ref.bias_only
        if group.solver != "newton":
            # empty groups and fallbacks are the oracle's own result
            np.testing.assert_array_equal(shape_w, ref_shape)
            np.testing.assert_array_equal(scale_w, ref_scale)
            continue
        newton += 1
        assert group.converged
        used = W[:, :1] if group.bias_only else W
        k = used.shape[1]
        theta = np.concatenate([shape_w[:k], scale_w[:k]])
        assert not shape_w[k:].any() and not scale_w[k:].any()
        f, g = _objective(theta, x, used, lam)
        assert group.final_objective == pytest.approx(f, rel=1e-12, abs=1e-12)
        # the stopping rule: |g| <= tol, or a Newton decrement <= 1e-12 max(|f|, 1)
        assert f <= ref.final_objective + 1e-9 * max(1.0, abs(f))
        if np.abs(g).max() > fit_module._TOL * (1 + 1e-6):
            assert g @ np.linalg.solve(_fd_hessian(x, used, lam, theta), g) <= 1e-11 * max(abs(f), 1.0)
        # scipy's success flag also covers relative-reduction stops far from a
        # stationary point (|g| = 1.2 on the 8-event duration group at M=4)
        if ref.converged and ref.grad_norm <= 1e-2:
            np.testing.assert_allclose(shape_w, ref_shape, rtol=0, atol=1e-4)
            np.testing.assert_allclose(scale_w, ref_scale, rtol=0, atol=1e-4)
    assert newton >= 4


def test_group_with_indefinite_hessian_keeps_the_lbfgs_basin(caplog):
    # 8 events for 8 weights: from the moment start the Hessian is not
    # positive definite, and Newton steps taken with the expected information
    # there end at a strict local minimum f = 1.445, in another basin than
    # L-BFGS-B's f = -0.787 (|g| = 0.11 after 90 iterations)
    rng = np.random.default_rng(410)
    batch = _sized_batch(rng, 4, (8, 7, 3, 600, 150))
    with caplog.at_level(logging.WARNING, logger="scanfisher.fit"):
        [outcome] = fit_model(batch, 1e-2)
    group = outcome.groups[0]
    x, W = _group_data(batch, "amplitude", 1)
    ref_shape, ref_scale, ref = _fit_group("amplitude", 1, x, W, 1e-2, collect_trace=True)
    assert group.solver == "lbfgs" and group == ref
    assert ref.final_objective == pytest.approx(-0.787, abs=1e-3)
    np.testing.assert_array_equal(outcome.params.alpha[0], ref_shape)
    np.testing.assert_array_equal(outcome.params.beta[0], ref_scale)
    assert ("Newton stopped on amplitude events of type 1 (n_events=8, newton_steps=0, |g|="
            in caplog.text)
    assert "Hessian not positive definite; refitting with L-BFGS-B" in caplog.text


def test_fallback_trace_costs_no_objective_evaluations(monkeypatch):
    """The L-BFGS-B trace is read from scipy's iterates, not recomputed at each one."""
    rng = np.random.default_rng(410)
    batch = _sized_batch(rng, 4, (8, 7, 3, 600, 150))
    lam = 1e-2
    evaluated = []

    class Counted(fit_module._Objectives):
        def __call__(self, indices, points):
            evaluated.extend(points)
            return super().__call__(indices, points)

    monkeypatch.setattr(fit_module, "_Objectives", Counted)
    [outcome] = fit_model(batch, lam)
    traced = outcome.groups[0]
    assert traced.solver == "lbfgs" and traced.n_iterations > 50
    assert len(traced.objective_trace) == traced.n_iterations + 1
    assert traced.objective_trace[-1] == traced.final_objective
    # each start is evaluated once: each fallback costs the evaluations
    # scipy's L-BFGS-B makes on its problem, one per point it asks for
    scipy_evaluations = 0
    for group in outcome.groups:
        if group.solver == "lbfgs":
            x, W = _group_data(batch, group.kind, group.u)
            W_used = W[:, :1] if group.bias_only else W
            scipy_evaluations += scipy_minimize(
                lambda theta: _objective(theta, x, W_used, lam), _moment_init(x, W_used.shape[1]),
                jac=True, method="L-BFGS-B",
                options={"maxiter": fit_module._MAX_ITER, "gtol": fit_module._TOL, "ftol": 1e-12},
            ).nfev
    assert len(evaluated) == scipy_evaluations


def _assert_same_run(ours, ref):
    np.testing.assert_array_equal(ours.x, ref.x)
    np.testing.assert_array_equal(ours.jac, ref.jac)
    assert (ours.fun, ours.nit, ours.nfev, ours.success, ours.message) \
        == (ref.fun, ref.nit, ref.nfev, ref.success, ref.message)


def _problems(rng, count, m):
    """`count` fit problems (x, W) with M = m, a third of them bias-only views W[:, :1] when m > 1."""
    problems = []
    for _ in range(count):
        n = int(rng.integers(2, 40))
        W = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))])
        if m > 1 and rng.random() < 1 / 3:
            W = W[:, :1]
        problems.append((rng.gamma(rng.uniform(0.5, 5.0), 1.5, n), W))
    return problems


def test_minimize_equals_scipy_lbfgsb_on_every_exit():
    """Each run of `fit.minimize` gives scipy's L-BFGS-B result bit for bit, whichever test ends it."""
    rng = np.random.default_rng(5)
    problems, starts = [], []
    for trial in range(150):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 40))
        W = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))])
        x = rng.gamma(rng.uniform(0.5, 5.0), 1.5, n)
        problems.append((x, W, (0.0, 1e-2, 1.0)[trial % 3]))
        starts.append(_moment_init(x, m) + rng.normal(0, 0.3, 2 * m))

    exits = collections.Counter()
    for max_iter, batch in ((3, range(0, 150, 10)), (500, [t for t in range(150) if t % 10])):

        def fun(indices, points):
            return [_objective(theta, *problems[batch[i]]) for i, theta in zip(indices, points)]

        result = fit_module.minimize(fun, [starts[t] for t in batch], 1e-6, max_iter)
        assert len(result.runs) == len(batch)
        for t, ours in zip(batch, result.runs):
            ref = scipy_minimize(lambda theta: _objective(theta, *problems[t]), starts[t], jac=True,
                                 method="L-BFGS-B", options={"maxiter": max_iter, "gtol": 1e-6, "ftol": 1e-12})
            _assert_same_run(ours, ref)
            assert ours.trace[0] == _objective(starts[t], *problems[t])[0] and len(ours.trace) == ours.nit + 1
            exits[ours.message] += 1
        assert result.nit == sum(run.nit for run in result.runs)
        assert result.nfev == sum(run.nfev for run in result.runs)
        assert result.success == all(run.success for run in result.runs)
    assert set(exits) == {
        "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL",
        "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
        "ABNORMAL: ",
        "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT",
    }, exits


def test_a_start_gives_the_same_run_alone_and_in_a_batch():
    rng = np.random.default_rng(8)
    problems = _problems(rng, 12, 4)
    fun = fit_module._Objectives(problems, 1e-2)
    starts = [_moment_init(x, W.shape[1]) + rng.normal(0, 0.3, 2 * W.shape[1]) for x, W in problems]
    batched = fit_module.minimize(fun, starts, 1e-6, 500).runs
    assert len({run.nit for run in batched}) > 3   # the runs stop at different rounds
    for i, (x, W) in enumerate(problems):
        alone = fit_module.minimize(fit_module._Objectives([(x, W)], 1e-2), [starts[i]], 1e-6, 500).runs[0]
        _assert_same_run(batched[i], alone)
        assert batched[i].trace == alone.trace


@pytest.mark.parametrize("lam", [0.0, 1e-2, 1.0])
@pytest.mark.parametrize("m", [1, 4, 5])
def test_objectives_equal_the_objective_of_each_problem_alone(m, lam):
    """`_Objectives` gives each point the bits of `_objective`, past the link bounds and the exp cap too."""
    rng = np.random.default_rng(10 * m + int(100 * lam))
    problems = _problems(rng, 10, m)
    fun = fit_module._Objectives(problems, lam)
    clamped = capped = strided = 0
    for trial in range(60):
        if trial % 2 == 0:   # odd rounds ask for the same problems as the round before
            indices = rng.permutation(len(problems))[:int(rng.integers(1, 9))].tolist()
        points = []
        for i in indices:
            k = problems[i][1].shape[1]
            theta = rng.normal(0, float(rng.choice([0.5, 5.0, 50.0])), 2 * k)
            if rng.random() < 0.3:
                theta[int(rng.integers(2 * k))] = float(rng.uniform(500.0, 800.0))
            points.append(theta)
        for i, theta, (value, grad) in zip(indices, points, fun(indices, [p.copy() for p in points])):
            x, W = problems[i]
            want_value, want_grad = _objective(theta, x, W, lam)
            assert value == want_value and type(value) is float
            assert np.array_equal(grad, want_grad)
            k = W.shape[1]
            clamped += bool(np.abs(W @ theta[:k]).max() > 18.5 or np.abs(W @ theta[k:]).max() > 18.5)
            capped += bool(theta.max() > 500.0)
            strided += not W.flags.c_contiguous
    assert clamped > 50 and capped > 50
    assert strided > 20 or m == 1


def test_a_fit_calls_minimize_once_for_all_its_fallbacks(monkeypatch):
    """The `fit.minimize` result a layer trace reads sums the fit's L-BFGS-B groups."""
    calls = []
    minimize = fit_module.minimize

    def recorded(*args):
        calls.append(minimize(*args))
        return calls[-1]

    monkeypatch.setattr(fit_module, "minimize", recorded)
    rng = np.random.default_rng(410)
    for batch, max_iter in ((_sized_batch(rng, 4, (8, 7, 3, 600, 150)), fit_module._MAX_ITER),
                            (_sized_batch(rng, 2, (40, 0, 300, 0, 0)), 1)):
        calls.clear()
        with monkeypatch.context() as patched:
            patched.setattr(fit_module, "_MAX_ITER", max_iter)
            fallbacks = [g for g in fit_model(batch, 1e-2)[0].groups if g.solver == "lbfgs"]
        assert len(fallbacks) >= 2 and len(calls) == 1
        assert calls[0].nit == sum(g.n_iterations for g in fallbacks)
        assert calls[0].success == all(g.converged for g in fallbacks)
    assert not calls[0].success
    calls.clear()
    groups = fit_model(_sized_batch(rng, 2, (300, 300, 300, 300, 300)), 1e-2)[0].groups
    assert {g.solver for g in groups} == {"newton"} and not calls


def test_setulb_without_the_reverse_communication_form_is_refused():
    def fortran_form(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, iprint, csave, lsave, isave,
                     dsave, maxls):
        """scipy < 1.15: the Fortran routine, with a character task and no ln_task."""

    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        fit_module._check_setulb(fortran_form)
    fit_module._check_setulb(fit_module._lbfgsb.setulb)


def test_old_setulb_fails_the_import_not_the_first_fit():
    # a routine that never asks for f and g at the start
    code = ("import scipy.optimize._lbfgsb as routine\n"
            "routine.setulb = lambda *args: None\n"
            "import scanfisher.fit\n")
    src = str(Path(fit_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert "ImportError: scanfisher.fit drives scipy's L-BFGS-B routine" in proc.stderr
    assert "scipy>=1.15" in proc.stderr


def _run_python(code: str, *path: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that imports the package under test, with `path` before it."""
    src = str(Path(fit_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [*path, src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)


def test_message_tables_are_scipys():
    from scipy.optimize._lbfgsb_py import status_messages, task_messages

    assert fit_module._STATUS == status_messages
    assert fit_module._TASK == task_messages


def test_scipy_optimize_imported_after_the_fit_shares_its_routine():
    code = ("import sys, numpy as np, scanfisher.fit as fit\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "import scipy.optimize\n"
            "from scipy.optimize import _lbfgsb\n"
            "assert _lbfgsb is fit._lbfgsb is sys.modules['scipy.optimize._lbfgsb']\n"
            "assert scipy.optimize._lbfgsb_py._lbfgsb is fit._lbfgsb\n"
            "result = scipy.optimize.minimize(lambda x: ((x - [1.0, -2.0]) ** 2).sum(), np.zeros(2),"
            " method='L-BFGS-B')\n"
            "assert result.success and np.allclose(result.x, [1.0, -2.0]), result\n")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_scipy_without_the_compiled_routine_fails_the_import(tmp_path):
    """A scipy tree whose optimize folder lacks the `_lbfgsb` extension: the import names scipy>=1.15."""
    import scipy

    installed = Path(scipy.__file__).parent
    tree = tmp_path / "scipy"
    tree.mkdir()
    for entry in installed.iterdir():
        if entry.name != "optimize":
            (tree / entry.name).symlink_to(entry)
    (tree / "optimize").mkdir()
    for entry in (installed / "optimize").iterdir():
        if not entry.name.startswith("_lbfgsb."):
            (tree / "optimize" / entry.name).symlink_to(entry)
    # the wheel's shared libraries, if any, sit beside the package
    for libs in installed.parent.glob("scipy.libs"):
        (tmp_path / libs.name).symlink_to(libs)
    proc = _run_python("import scipy, scipy.special, scipy.linalg\n"
                       "print(scipy.__file__)\n"
                       "import scanfisher.fit\n", str(tmp_path))
    assert proc.stdout.strip() == str(tree / "__init__.py"), proc.stderr
    assert proc.returncode != 0
    assert "ImportError: scanfisher.fit drives scipy's L-BFGS-B routine" in proc.stderr
    assert "scipy>=1.15" in proc.stderr and "has no compiled _lbfgsb module" in proc.stderr


def test_group_newton_cannot_finish_is_the_lbfgs_fit(caplog, monkeypatch):
    rng = np.random.default_rng(12)
    m = 2
    batch = _sized_batch(rng, m, (40, 0, 300, 0, 0))
    monkeypatch.setattr(fit_module, "_MAX_ITER", 1)
    with caplog.at_level(logging.WARNING, logger="scanfisher.fit"):
        [outcome] = fit_model(batch, 1e-2)
    fitted = [g for g in outcome.groups if g.n_events]
    assert len(fitted) == 4
    for group in fitted:
        x, W = _group_data(batch, group.kind, group.u)
        ref_shape, ref_scale, ref = _fit_group(group.kind, group.u, x, W, 1e-2, collect_trace=True)
        shape_w, scale_w = _weights(outcome.params, group.kind, group.u)
        assert group.solver == "lbfgs"
        assert group == ref
        np.testing.assert_array_equal(shape_w, ref_shape)
        np.testing.assert_array_equal(scale_w, ref_scale)
        named = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith(f"Newton stopped on {group.kind} events of type {group.u} ")]
        assert len(named) == 1
        assert f"(n_events={group.n_events}, newton_steps=1, |g|=" in named[0]
        assert "1 Newton steps reached" in named[0]


def test_pooled_groups_do_not_couple():
    """A type's weights and diagnostics are the same with or without the other types' events."""
    rng = np.random.default_rng(13)
    m = 3
    batch = _sized_batch(rng, m, (5, 60, 200, 40, 9))
    [full] = fit_model(batch, 1e-2)
    for u in range(1, 6):
        keep = batch.u == u
        [alone] = fit_model(EventBatch(
            u=batch.u[keep], amp=batch.amp[keep], dur=batch.dur[keep],
            w_launch=batch.w_launch[keep], w_land=batch.w_land[keep],
        ), 1e-2)
        for block in ("alpha", "beta", "gamma", "delta"):
            np.testing.assert_array_equal(getattr(alone.params, block)[u - 1],
                                          getattr(full.params, block)[u - 1])
        assert [g for g in alone.groups if g.u == u] == [g for g in full.groups if g.u == u]


@pytest.mark.parametrize("lam", [0.0, 1e-2, 1.0, pytest.param((1.0, 0.0, 1e-2), id="mixed")])
def test_pooled_segments_equal_separate_fits(lam):
    """Each segment's model and diagnostics equal the fit of that segment alone at its lambda, bit for bit."""
    rng = np.random.default_rng(410)
    m = 4
    segments = [_sized_batch(rng, m, sizes) for sizes in
                ((8, 7, 3, 600, 150), (40, 0, 300, 0, 5), (2, 90, 0, 12, 60))]
    sizes = [seg.n for seg in segments]
    batch = EventBatch.concat(segments)
    lams = lam if isinstance(lam, tuple) else (lam,) * len(segments)
    pooled = fit_model(batch, lam, sizes)
    seen = set()
    for seg, seg_lam, outcome in zip(segments, lams, pooled):
        [alone] = fit_model(seg, seg_lam)
        for block in ("pi", "alpha", "beta", "gamma", "delta"):
            np.testing.assert_array_equal(getattr(outcome.params, block), getattr(alone.params, block))
        assert outcome.groups == alone.groups
        seen.update((g.solver, g.bias_only) for g in alone.groups)
    # Newton groups, L-BFGS-B fallbacks, bias-only groups and empty groups all occur
    assert {("newton", False), ("lbfgs", False), ("none", True)} <= seen
    assert {("newton", True), ("lbfgs", True)} & seen
    if isinstance(lam, tuple):
        # fallbacks at two lambdas share one lockstep L-BFGS-B call
        assert len({value for value, o in zip(lams, pooled) if any(g.solver == "lbfgs" for g in o.groups)}) >= 2
    else:
        # a scalar lambda fits every segment as a list of that lambda, one per segment, does
        for outcome, listed in zip(pooled, fit_model(batch, list(lams), sizes), strict=True):
            for block in ("pi", "alpha", "beta", "gamma", "delta"):
                np.testing.assert_array_equal(getattr(outcome.params, block), getattr(listed.params, block))
            assert outcome.groups == listed.groups


def test_pool_holds_each_group_boolean_indexed_out_of_its_segment(monkeypatch):
    """The pool, moment starts and fallback problems `fit_model` builds by gathering from the batch.

    They equal, bit for bit, each group's events and feature rows indexed out
    of its segment by type, as the fit built them before, concatenated
    amplitude groups first, bias-only groups' feature columns zeroed in the
    pool only.
    """
    rng = np.random.default_rng(23)
    m = 3
    segments = []
    for sizes in ((30, 0, 4, 60, 9), (5, 40, 0, 25, 70), (12, 3, 8, 0, 44)):
        seg = _sized_batch(rng, m, sizes)
        order = rng.permutation(seg.n)   # the types interleave, as in extracted scanpaths
        segments.append(EventBatch(seg.u[order], seg.amp[order], seg.dur[order], seg.w_launch[order],
                                   seg.w_land[order]))
    seen = {}
    newton, objectives = fit_module._newton, fit_module._Objectives

    def recorded_newton(pool, theta0, *args):
        seen.update(pool=pool, theta0=theta0.copy(), result=newton(pool, theta0, *args))
        return seen["result"]

    def recorded_objectives(problems, lam):
        seen["problems"] = problems
        return objectives(problems, lam)

    monkeypatch.setattr(fit_module, "_newton", recorded_newton)
    monkeypatch.setattr(fit_module, "_Objectives", recorded_objectives)
    monkeypatch.setattr(fit_module, "_MAX_ITER", 2)
    fit_model(EventBatch.concat(segments), 1e-2, [seg.n for seg in segments])

    xs, Ws, problems = [], [], []
    for values, rows in (("amp", "w_launch"), ("dur", "w_land")):
        for seg in segments:
            for u in range(1, 6):
                in_type = seg.u == u
                if in_type.any():
                    xs.append(getattr(seg, values)[in_type])
                    Ws.append(getattr(seg, rows)[in_type])
    bias_only = [len(x) < 2 * m for x in xs]
    want = pool_of(xs, [W * np.r_[1.0, [0.0 if b else 1.0] * (m - 1)] for W, b in zip(Ws, bias_only)])
    pool = seen["pool"]
    for name in ("x", "log_x", "W", "sizes", "gid", "starts"):
        np.testing.assert_array_equal(getattr(pool, name), getattr(want, name))
    np.testing.assert_array_equal(seen["theta0"], [_moment_init(x, m) for x in xs])
    failed = [g for g, failure in enumerate(seen["result"].failure) if failure is not None]
    assert len(failed) >= 10 and any(bias_only[g] for g in failed) and not all(bias_only[g] for g in failed)
    assert len(seen["problems"]) == len(failed)
    for g, (x, W) in zip(failed, seen["problems"]):
        np.testing.assert_array_equal(x, xs[g])
        np.testing.assert_array_equal(W, Ws[g][:, :1] if bias_only[g] else Ws[g])


@pytest.mark.parametrize("lam, message", [
    ([1e-2], r"^lam must be one value or one per segment, got shape \(1,\) for 3 segments$"),
    ([1e-2, 1.0], r"^lam must be one value or one per segment, got shape \(2,\) for 3 segments$"),
    ([1e-2] * 4, r"^lam must be one value or one per segment, got shape \(4,\) for 3 segments$"),
    ([[1e-2] * 3], r"^lam must be one value or one per segment, got shape \(1, 3\) for 3 segments$"),
    ([1e-2, -1.0, 0.0], r"^lam\[1\] must be >= 0, got -1\.0$"),
    ([1e-2, 0.0, math.nan], r"^lam\[2\] must be >= 0, got nan$"),
])
def test_per_segment_lambdas_are_checked(lam, message):
    rng = np.random.default_rng(3)
    batch = _sized_batch(rng, 2, (20, 20, 20, 20, 20))
    with pytest.raises(FitError, match=message):
        fit_model(batch, lam, [50, 30, 20])


@pytest.mark.parametrize("bad", [0, 6])
def test_saccade_types_must_lie_in_1_to_5(bad):
    # a type outside 1..5 would otherwise count as a type of the neighbouring segment
    rng = np.random.default_rng(3)
    batch = _sized_batch(rng, 2, (20, 20, 20, 20, 20))
    batch.u[60] = bad
    with pytest.raises(FitError, match=rf"saccade types must lie in 1\.\.5, got {min(bad, 1)}\.\.{max(bad, 5)}"):
        fit_model(batch, 1e-2, [50, 50])


def test_segment_sizes_must_cover_the_batch():
    rng = np.random.default_rng(3)
    batch = _sized_batch(rng, 2, (20, 20, 20, 20, 20))
    with pytest.raises(FitError, match="segment sizes sum to 99, but the batch has 100 events"):
        fit_model(batch, 1e-2, [50, 49])
    with pytest.raises(FitError, match="empty event set"):
        fit_model(batch, 1e-2, [100, 0])


def test_objective_equals_the_clip_reference():
    """The oracle `_objective` gives the bits of its np.clip form, past the link bounds and the exp cap too."""
    rng = np.random.default_rng(17)
    clamped = capped = 0
    for _ in range(300):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 60))
        W = np.column_stack([np.ones(n), rng.normal(0, float(rng.choice([1.0, 30.0])), (n, m - 1))])
        x = rng.gamma(2.0, 3.0, n)
        theta = rng.normal(0, float(rng.choice([0.5, 5.0, 50.0])), 2 * m)
        if rng.random() < 0.3:
            theta[int(rng.integers(2 * m))] = float(rng.uniform(500.0, 800.0))
        lam = float(rng.choice([0.0, 1e-2, 1.0]))
        value, grad = _objective(theta, x, W, lam)
        want_value, want_grad = objective_before_minimum(theta, x, W, lam)
        assert value == want_value
        assert np.array_equal(grad, want_grad)
        clamped += bool(np.abs(W @ theta[:m]).max() > 18.5 or np.abs(W @ theta[m:]).max() > 18.5)
        capped += bool(theta.max() > 500.0)
    assert clamped > 50 and capped > 50


# ---------------------------------------------------------------------------
# the Newton pass against its polygamma-and-reduceat form


def test_trigamma_equals_polygamma():
    x = np.array([1e-8, 1e8, 10.0, np.nextafter(10.0, 0.0), np.nextafter(10.0, 20.0), 0.5, 1.0, 3.7])
    x = np.concatenate([x, np.exp(np.random.default_rng(29).uniform(np.log(1e-8), np.log(1e8), 200_000))])
    want = polygamma(1, x)
    assert (np.abs(_trigamma(x) - want) <= 2e-15 * want).all()


def _pool_case(rng, m, sizes, bias_only, spread):
    """A pool of groups of the given sizes, bias-only groups' feature columns zeroed, and its mask."""
    feature_mask = np.ones((len(sizes), m))
    feature_mask[np.asarray(bias_only), 1:] = 0.0
    xs, Ws = [], []
    for n, keep in zip(sizes, feature_mask):
        W = np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))])
        xs.append(rng.gamma(3.0, 2.0, n))
        Ws.append(W * keep)
    theta = rng.normal(0, spread, (len(sizes), 2 * m))
    return pool_of(xs, Ws), theta, np.hstack([feature_mask, feature_mask])


POOL_CASES = [
    # (M, group sizes, bias-only groups)
    (1, (1, 7, 40), (True, False, False)),
    (4, (3, 8, 9, 60, 250), (True, False, False, False, False)),
    (5, (10, 4, 31, 120), (False, True, False, False)),
]


@pytest.mark.parametrize("lam", [0.0, 1e-2, 1.0])
@pytest.mark.parametrize("m,sizes,bias_only", POOL_CASES)
def test_pooled_terms_equal_the_reduceat_reference(m, sizes, bias_only, lam):
    """Value bit for bit; gradient and Hessian within 1e-12 of each group's largest entry, past the link bounds too."""
    rng = np.random.default_rng(7 * m + int(100 * lam))
    clamped = 0
    for spread in (0.3, 3.0, 40.0):
        pool, theta, mask = _pool_case(rng, m, sizes, bias_only, spread)
        value, grad, hessian = _pooled_terms(pool, theta, mask, lam)
        want_value, want_grad, want_hessian = pooled_terms_before_product(pool, theta, mask, lam)
        assert np.array_equal(value, want_value)
        assert np.array_equal(_pooled_terms(pool, theta, mask, lam, derivatives=False), want_value)
        # at the lower link bound shape^2 psi'(shape) and the shape term are both near 1 and the
        # shape-shape entry is their difference, so each group's scale is its largest entry of both
        want_both = np.hstack([want_grad, want_hessian.reshape(len(sizes), -1)])
        got_both = np.hstack([grad, hessian.reshape(len(sizes), -1)])
        assert (np.abs(got_both - want_both).max(axis=1) <= 1e-12 * np.abs(want_both).max(axis=1)).all()
        per_event = theta[pool.gid]
        eta = np.concatenate([(pool.W * per_event[:, :m]).sum(axis=1), (pool.W * per_event[:, m:]).sum(axis=1)])
        clamped += int((eta > 18.5).any()) + int((eta < -18.5).any())
    assert clamped >= 2   # predictors past both link bounds


@pytest.mark.parametrize("lam", [0.0, 1e-2, 1.0])
@pytest.mark.parametrize("m,sizes,bias_only", POOL_CASES)
def test_pooled_hessian_is_the_derivative_of_the_gradient(m, sizes, bias_only, lam):
    rng = np.random.default_rng(11 * m + int(100 * lam))
    pool, theta, mask = _pool_case(rng, m, sizes, bias_only, 0.3)
    _, _, hessian = _pooled_terms(pool, theta, mask, lam)
    h = 1e-6
    for g in range(len(sizes)):
        used = np.flatnonzero(mask[g])
        fd = np.empty((used.size, used.size))
        for k, i in enumerate(used):
            step = np.zeros_like(theta)
            step[g, i] = h
            diff = _pooled_terms(pool, theta + step, mask, lam)[1] - _pooled_terms(pool, theta - step, mask, lam)[1]
            fd[:, k] = diff[g, used] / (2 * h)
        got = hessian[g][np.ix_(used, used)]
        np.testing.assert_allclose(got, fd, rtol=0, atol=1e-6 * np.abs(got).max())
        padded = np.flatnonzero(mask[g] == 0)
        np.testing.assert_array_equal(hessian[g][np.ix_(padded, padded)], np.eye(padded.size))
