import math

import numpy as np
import pytest
from scipy import integrate, stats

from scanfisher.corpus import FrequencyTable, Text, Word, compute_features
from scanfisher.events import EventBatch, Scanpath, extract_events
from scanfisher.model import (
    ModelError,
    ModelParams,
    batch_loglik,
    loglik_parts,
    sample_events,
    sample_scanpath,
)
from scanfisher.synth import default_base_params
from model_reference import event_loglik, gamma_logpdf, link, loglik_parts_of_batch


def _uniform_params(m=1, pi=None):
    if pi is None:
        pi = np.full(5, 0.2)
    zeros = np.zeros((5, m))
    return ModelParams(pi=pi, alpha=zeros, beta=zeros, gamma=zeros, delta=zeros)


def _random_params(rng, m):
    pi = rng.dirichlet(np.ones(5) * 4)
    def block(mu):
        w = rng.normal(0, 0.25, (5, m))
        w[:, 0] += mu
        return w
    return ModelParams(pi=pi, alpha=block(1.2), beta=block(0.3), gamma=block(1.5), delta=block(3.5))


# ---------------------------------------------------------------------------
# link (the oracles' value-clamped form)


def test_link_zero_weights():
    assert link(np.zeros(3), np.array([1.0, 0.5, -2.0])) == 1.0


def test_link_bias_only():
    assert link(np.array([math.log(2.0), 0.0]), np.array([1.0, 3.0])) == pytest.approx(2.0)


def test_link_length_mismatch():
    # the samplers check the feature width against the model's M once per call
    params = _uniform_params(m=2)
    rng = np.random.default_rng(0)
    with pytest.raises(ModelError, match=r"^feature rows of shape \(4, 3\) do not match the model's M=2$"):
        sample_events(params, np.ones((4, 3)), np.ones((4, 3)), rng)
    text = Text("t0", (tuple(Word(f"w{i}", i * 4, i * 4 + 3, 1) for i in range(4)),))
    feats, _ = compute_features([text], FrequencyTable(counts={}, total=100))
    assert feats[0].lines[0].shape[1] != 2
    with pytest.raises(ModelError, match="do not match the model's M=2"):
        sample_scanpath(params, text, feats[0], line_id=0, start=(0.0, 200.0), n_fixations=3, rng=rng)


def test_link_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        weights = rng.normal(0, 1, m)
        w = rng.normal(0, 1, m)
        expected = math.exp(sum(a * b for a, b in zip(weights, w)))
        assert link(weights, w) == pytest.approx(expected, rel=1e-12)


def test_link_clamps():
    assert link(np.array([1000.0]), np.array([1.0])) == 1e8
    assert link(np.array([-1000.0]), np.array([1.0])) == 1e-8


# ---------------------------------------------------------------------------
# gamma_logpdf


def test_gamma_logpdf_unit_case():
    assert gamma_logpdf(1.0, 1.0, 1.0) == pytest.approx(-1.0)


def test_gamma_logpdf_rejects_nonpositive():
    with pytest.raises(ModelError):
        gamma_logpdf(0.0, 1.0, 1.0)
    with pytest.raises(ModelError):
        gamma_logpdf(-1.0, 1.0, 1.0)


def test_gamma_logpdf_normalizes():
    # quadrature oracle: the density must integrate to 1
    for shape, scale in [(3.0, 0.5), (1.5, 2.0), (0.8, 1.3)]:
        total, err = integrate.quad(
            lambda x: math.exp(gamma_logpdf(x, shape, scale)), 1e-12, 60.0, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_gamma_logpdf_mode():
    grid = np.linspace(0.01, 10, 2000)
    vals = [gamma_logpdf(float(x), 2.0, 2.0) for x in grid]
    assert grid[int(np.argmax(vals))] == pytest.approx(2.0, abs=0.01)  # (shape-1)*scale


def test_gamma_logpdf_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = float(rng.uniform(0.01, 20))
        shape = float(rng.uniform(0.2, 15))
        scale = float(rng.uniform(0.1, 10))
        assert gamma_logpdf(x, shape, scale) == pytest.approx(
            stats.gamma.logpdf(x, a=shape, scale=scale), rel=1e-10
        )


# ---------------------------------------------------------------------------
# event and batch log-likelihood


def _unit_event(u=1, m=1):
    """One event of type u with |a| = d = 1 and features (1, 0, ..., 0)."""
    w = np.zeros((1, m))
    w[0, 0] = 1.0
    return EventBatch(u=np.array([u]), amp=np.ones(1), dur=np.ones(1), w_launch=w, w_land=w)


def test_event_loglik_unit_composition():
    params = _uniform_params()
    e = _unit_event(u=2)
    assert event_loglik(e, 0, params) == pytest.approx(math.log(0.2) - 1.0 - 1.0)


def test_event_loglik_is_sum_of_parts():
    # each term against its own per-event sum: ln pi_u for the type, and
    # scipy's gamma log-density with the model's shape and scale links for
    # the amplitude (launch features) and duration (landing features)
    rng = np.random.default_rng(2)
    params = _random_params(rng, 3)
    batch = sample_events(
        params,
        np.column_stack([np.ones(40), rng.normal(0, 1, (40, 2))]),
        np.column_stack([np.ones(40), rng.normal(0, 1, (40, 2))]),
        rng,
    )
    type_oracle = amp_oracle = dur_oracle = 0.0
    for t in range(batch.n):
        k = int(batch.u[t]) - 1
        w_l, w_d = batch.w_launch[t], batch.w_land[t]
        type_oracle += math.log(params.pi[k])
        amp_oracle += stats.gamma.logpdf(
            batch.amp[t], a=link(params.alpha[k], w_l), scale=link(params.beta[k], w_l))
        dur_oracle += stats.gamma.logpdf(
            batch.dur[t], a=link(params.gamma[k], w_d), scale=link(params.delta[k], w_d))
    assert len(set(batch.u.tolist())) > 1
    type_term, amp_term, dur_term = loglik_parts(batch, params)
    assert type_term == pytest.approx(type_oracle, rel=1e-12)
    assert amp_term == pytest.approx(amp_oracle, rel=1e-10)
    assert dur_term == pytest.approx(dur_oracle, rel=1e-10)


def test_batch_loglik_matches_per_event_sum():
    rng = np.random.default_rng(3)
    params = _random_params(rng, 2)
    batch = sample_events(
        params,
        np.column_stack([np.ones(30), rng.normal(0, 1, 30)]),
        np.column_stack([np.ones(30), rng.normal(0, 1, 30)]),
        rng,
    )
    oracle = sum(event_loglik(batch, t, params) for t in range(batch.n))
    assert batch_loglik(batch, params) == pytest.approx(oracle, rel=1e-10)


def test_segmented_loglik_matches_one_call_per_segment():
    # lines of 0 to 60 events, with types missing from some lines, scored in
    # one pass; each line's terms match a call on that line alone
    rng = np.random.default_rng(21)
    params = _random_params(rng, 3)
    lengths = np.array([0, 1, 5, 60, 12, 0, 33, 2, 40, 7])
    n = int(lengths.sum())
    W = np.column_stack([np.ones(n), rng.normal(0, 1, (n, 2))])
    batch = sample_events(params, W, W[::-1].copy(), rng)
    parts = loglik_parts(batch, params, lengths)
    totals = batch_loglik(batch, params, lengths)
    assert all(term.shape == (len(lengths),) for term in (*parts, totals))
    missing_types = 0
    for i, line in enumerate(batch.split(lengths)):
        want = loglik_parts_of_batch(line, params)
        # the type term sums the same products in the same order
        assert parts[0][i] == want[0]
        for got, expected in zip(parts[1:], want[1:]):
            assert got[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert totals[i] == pytest.approx(sum(want), rel=1e-12, abs=0.0)
        assert loglik_parts(line, params) == pytest.approx(want, rel=1e-12, abs=0.0)
        missing_types += 0 < line.n and len(set(line.u.tolist())) < 5
    assert missing_types >= 3
    assert batch_loglik(batch, params) == pytest.approx(totals.sum(), rel=1e-12)
    with pytest.raises(ModelError, match=f"segment lengths sum to {n - 1}, but the batch has {n} events"):
        batch_loglik(batch, params, [n - 1])


def test_bias_only_reduces_to_constant_gamma():
    """With M=1 the GLM degenerates to fixed per-type shape/scale constants."""
    params = default_base_params(1)
    e = _unit_event(u=3)
    shape = math.exp(params.alpha[2, 0])
    scale = math.exp(params.beta[2, 0])
    dshape = math.exp(params.gamma[2, 0])
    dscale = math.exp(params.delta[2, 0])
    expected = (
        math.log(params.pi[2])
        + stats.gamma.logpdf(1.0, a=shape, scale=scale)
        + stats.gamma.logpdf(1.0, a=dshape, scale=dscale)
    )
    assert event_loglik(e, 0, params) == pytest.approx(expected, rel=1e-10)


def test_loglik_finite_for_extracted_events():
    text = Text("t0", (tuple(Word(f"w{i}", i * 4, i * 4 + 3, 1) for i in range(8)),))
    feats, _ = compute_features([text], FrequencyTable(counts={}, total=100))
    rng = np.random.default_rng(4)
    params = _random_params(rng, feats[0].lines[0].shape[1])
    qs = rng.uniform(0, text.line_extent(0) - 1e-6, size=30)
    sp = Scanpath("r", "t0", 0, tuple((float(q), 100.0) for q in qs))
    batch = extract_events(sp, text, feats[0])
    assert batch.n == 29
    for t in range(batch.n):
        assert np.isfinite(event_loglik(batch, t, params))


def test_shape_monotone_in_bias_weight():
    w = np.array([1.0, 0.4])
    lo = link(np.array([0.1, 0.2]), w)
    hi = link(np.array([0.5, 0.2]), w)
    assert hi > lo


# ---------------------------------------------------------------------------
# model params validation and serialization


def test_params_validation():
    with pytest.raises(ModelError, match="sum to 1"):
        _uniform_params(pi=np.array([0.3, 0.3, 0.3, 0.05, 0.06]))
    with pytest.raises(ModelError):
        ModelParams(
            pi=np.full(5, 0.2),
            alpha=np.zeros((5, 2)),
            beta=np.zeros((5, 3)),
            gamma=np.zeros((5, 2)),
            delta=np.zeros((5, 2)),
        )


def test_params_json_round_trip():
    rng = np.random.default_rng(5)
    params = _random_params(rng, 3)
    restored = ModelParams.from_dict(params.to_dict())
    np.testing.assert_array_equal(restored.pi, params.pi)
    np.testing.assert_array_equal(restored.alpha, params.alpha)
    np.testing.assert_array_equal(restored.delta, params.delta)


# ---------------------------------------------------------------------------
# sampling


def _sampling_setup(m=4):
    text = Text("t0", (tuple(Word("word", i * 6, i * 6 + 4, 1) for i in range(12)),))
    feats, _ = compute_features([text], FrequencyTable(counts={"word": 10}, total=100))
    return text, feats[0]


def test_sample_scanpath_deterministic_under_seed():
    text, feats = _sampling_setup()
    params = default_base_params(feats.lines[0].shape[1])
    a = sample_scanpath(params, text, feats, line_id=0, start=(0.0, 200.0),
                        n_fixations=12, rng=np.random.default_rng(77))
    b = sample_scanpath(params, text, feats, line_id=0, start=(0.0, 200.0),
                        n_fixations=12, rng=np.random.default_rng(77))
    assert a.scanpath == b.scanpath
    np.testing.assert_array_equal(a.drawn_types, b.drawn_types)


def test_sample_scanpath_degenerate_pi_draws_only_type_3():
    text, feats = _sampling_setup()
    base = default_base_params(feats.lines[0].shape[1])
    params = ModelParams(
        pi=np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
        alpha=base.alpha, beta=base.beta, gamma=base.gamma, delta=base.delta,
    )
    sampled = sample_scanpath(params, text, feats, line_id=0, start=(0.0, 200.0),
                              n_fixations=40, rng=np.random.default_rng(8))
    assert np.all(sampled.drawn_types == 3)
    # realized amplitudes can flip sign only through boundary reflection
    assert (extract_events(sampled.scanpath, text, feats).amp >= 0.5).all()


def test_sample_scanpath_positions_stay_on_line():
    text, feats = _sampling_setup()
    params = default_base_params(feats.lines[0].shape[1])
    sampled = sample_scanpath(params, text, feats, line_id=0, start=(0.0, 200.0),
                              n_fixations=200, rng=np.random.default_rng(9))
    extent = text.line_extent(0)
    for q, d in sampled.scanpath.fixations:
        assert 0 <= q < extent
        assert d > 0


def test_gamma_sampling_moments():
    """Monte Carlo check of the gamma mean identity E[x] = shape * scale."""
    rng = np.random.default_rng(10)
    params = _uniform_params(m=1)
    shape, scale = 1.0, 1.0  # all weights zero
    n = 100_000
    w = np.ones((n, 1))
    batch = sample_events(params, w, w, rng)
    se = scale * math.sqrt(shape / n)
    assert abs(batch.amp.mean() - shape * scale) < 3 * se


def test_sample_events_type_marginals():
    rng = np.random.default_rng(11)
    pi = np.array([0.05, 0.1, 0.5, 0.15, 0.2])
    params = _uniform_params(m=1, pi=pi)
    n = 50_000
    w = np.ones((n, 1))
    batch = sample_events(params, w, w, rng)
    freq = np.bincount(batch.u, minlength=6)[1:] / n
    for u in range(5):
        se = math.sqrt(pi[u] * (1 - pi[u]) / n)
        assert abs(freq[u] - pi[u]) < 4 * se
