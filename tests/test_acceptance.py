"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values follow three regimes: hand-derivable constants are
asserted directly, derived quantities are checked against independent
oracles implemented in this file (finite differences, dense inversion,
exhaustive enumeration), and statistical checks use fixed seeds with
standard-error bounds.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import gammaln

from scanfisher.cli import main as cli_main
from scanfisher.evaluate import (
    PipelineConfig,
    ReadingDataset,
    loto_cv,
    shuffle_reader_labels,
    wilcoxon_signed_rank,
)
from scanfisher.events import EventBatch
from scanfisher.fisher import (
    empirical_information,
    fisher_metric,
    gram_matrix,
    score_dimension,
    score_matrix,
)
from scanfisher.fit import FitConfig, fit_model
from scanfisher.model import ModelParams, batch_loglik, sample_events
from scanfisher.svm import KernelProblem, solve_dual, train_multiclass
from scanfisher.synth import SynthConfig, gen_dataset
from fisher_reference import fisher_score, score_contributions
from fit_reference import neg_loglik_and_grad_amplitude, neg_loglik_and_grad_duration
from svm_reference import max_kkt_violation


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _rel_err(a, b):
    """Per-coordinate relative error with an absolute floor of 1 unit."""
    a = np.asarray(a)
    b = np.asarray(b)
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _random_params(rng, m):
    pi = rng.dirichlet(np.ones(5) * 4)
    def block(mu):
        w = rng.normal(0, 0.25, (5, m))
        w[:, 0] += mu
        return w
    return ModelParams(pi=pi, alpha=block(1.2), beta=block(0.3), gamma=block(1.5), delta=block(3.5))


def _random_batch(rng, params, n, m):
    def feats():
        if m == 1:
            return np.ones((n, 1))
        return np.column_stack([np.ones(n), rng.normal(0, 1, (n, m - 1))])
    return sample_events(params, feats(), feats(), rng)


# --------------------------------------------------------------------------
# independent oracle: vectorized log-likelihood of a flat parameter vector

def _oracle_loglik(vec, batch, m):
    width = 1 + 4 * m
    total = 0.0
    for u in range(1, 6):
        mask = batch.u == u
        k_u = int(mask.sum())
        base = (u - 1) * width
        if k_u == 0:
            continue
        a = vec[base + 1:base + 1 + m]
        b = vec[base + 1 + m:base + 1 + 2 * m]
        g = vec[base + 1 + 2 * m:base + 1 + 3 * m]
        d = vec[base + 1 + 3 * m:base + 1 + 4 * m]
        wl = batch.w_launch[mask]
        wd = batch.w_land[mask]
        x = batch.amp[mask]
        t = batch.dur[mask]
        sh_a, sc_a = np.exp(wl @ a), np.exp(wl @ b)
        sh_d, sc_d = np.exp(wd @ g), np.exp(wd @ d)
        total += k_u * math.log(vec[base])
        total += float(np.sum((sh_a - 1) * np.log(x) - x / sc_a - gammaln(sh_a) - sh_a * np.log(sc_a)))
        total += float(np.sum((sh_d - 1) * np.log(t) - t / sc_d - gammaln(sh_d) - sh_d * np.log(sc_d)))
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


def test_c01_fisher_score_gradient_correctness():
    """Analytic Fisher scores match central finite differences, all coords."""
    with criterion("C1 fisher-score gradient correctness"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        h = 1e-5
        worst = 0.0
        plan = [(1, 17), (3, 17), (6, 16)]  # 50 instances total
        for m, count in plan:
            for _ in range(count):
                params = _random_params(rng, m)
                batch = _random_batch(rng, params, int(rng.integers(20, 80)), m)
                vec = _flatten(params, m)
                analytic = fisher_score(batch, params)
                fd = np.zeros_like(vec)
                for i in range(len(vec)):
                    vp = vec.copy()
                    vp[i] += h
                    vm = vec.copy()
                    vm[i] -= h
                    fd[i] = (_oracle_loglik(vp, batch, m) - _oracle_loglik(vm, batch, m)) / (2 * h)
                worst = max(worst, float(_rel_err(analytic, fd).max()))
        elapsed = time.perf_counter() - start
        assert worst < 1e-6, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c02_objective_gradient_correctness():
    """Both regularized objectives match finite differences at lambda 0 and 0.1."""
    with criterion("C2 optimizer gradient correctness"):
        rng = np.random.default_rng(1002)
        m = 3
        h = 1e-5
        worst = 0.0
        for lam in (0.0, 0.1):
            for _ in range(10):
                params = _random_params(rng, m)
                batch = _random_batch(rng, params, 60, m)
                for u in range(1, 6):
                    mask = batch.u == u
                    if mask.sum() < 2:
                        continue
                    sub = EventBatch(
                        u=batch.u[mask], amp=batch.amp[mask], dur=batch.dur[mask],
                        w_launch=batch.w_launch[mask], w_land=batch.w_land[mask],
                    )
                    theta = rng.normal(0, 0.4, 2 * m)
                    for fn in (neg_loglik_and_grad_amplitude, neg_loglik_and_grad_duration):
                        _, grad = fn(theta[:m], theta[m:], sub, lam)
                        fd = np.zeros(2 * m)
                        for i in range(2 * m):
                            tp = theta.copy()
                            tp[i] += h
                            tm = theta.copy()
                            tm[i] -= h
                            fd[i] = (fn(tp[:m], tp[m:], sub, lam)[0]
                                     - fn(tm[:m], tm[m:], sub, lam)[0]) / (2 * h)
                        worst = max(worst, float(_rel_err(grad, fd).max()))
        assert worst < 1e-6, f"worst relative error {worst:.3e}"


def test_c03_parameter_recovery():
    """Fitting data sampled from a known model recovers it."""
    with criterion("C3 parameter recovery"):
        start = time.perf_counter()
        rng = np.random.default_rng(1003)
        m = 3
        truth = ModelParams(
            pi=np.full(5, 0.2),  # uniform: ~5000 events per type below
            alpha=_random_params(rng, m).alpha,
            beta=_random_params(rng, m).beta,
            gamma=_random_params(rng, m).gamma,
            delta=_random_params(rng, m).delta,
        )
        batch = _random_batch(rng, truth, 25_000, m)
        assert np.bincount(batch.u, minlength=6)[1:].min() > 4600

        fitted = fit_model(batch, FitConfig(lam=0.0, tol=1e-6, max_iter=500))
        for name in ("alpha", "beta", "gamma", "delta"):
            dev = float(np.abs(getattr(fitted, name) - getattr(truth, name)).max())
            assert dev < 0.1, f"{name} deviates by {dev:.3f}"

        held_out = _random_batch(rng, truth, 20_000, m)
        ll_truth = batch_loglik(held_out, truth) / held_out.n
        ll_fit = batch_loglik(held_out, fitted) / held_out.n
        assert ll_fit >= ll_truth - 0.01, f"held-out gap {ll_truth - ll_fit:.4f} nats"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_c04_kernel_validity():
    """Gram matrices are symmetric PSD and match a dense-inverse oracle."""
    with criterion("C4 kernel validity"):
        rng = np.random.default_rng(1004)
        m = 3
        params = _random_params(rng, m)
        batches = [_random_batch(rng, params, int(rng.integers(5, 25)), m) for _ in range(200)]
        scores = score_matrix(batches, params)
        info = empirical_information(scores)
        d = info.shape[0]

        ridge = max(1e-6 * np.trace(info) / d, 1e-12)
        metric = fisher_metric(info, ridge)
        gram = gram_matrix(metric, scores)
        assert np.abs(gram - gram.T).max() < 1e-12
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8 * np.trace(gram)

        # dense-inverse oracle at the better-conditioned grid ridge
        ridge_oracle = 1e-4 * np.trace(info) / d
        metric_oracle = fisher_metric(info, ridge_oracle)
        gram_oracle_path = gram_matrix(metric_oracle, scores)
        dense = scores @ np.linalg.inv(info + ridge_oracle * np.eye(d)) @ scores.T
        rel = np.abs(gram_oracle_path - dense).max() / np.abs(dense).max()
        assert rel < 1e-8, f"kernel vs dense inverse rel err {rel:.2e}"


def test_c05_score_zero_mean_at_truth():
    """Fisher scores of data sampled at the true parameters average to zero."""
    with criterion("C5 score zero-mean at truth"):
        rng = np.random.default_rng(1005)
        m = 3
        params = _random_params(rng, m)
        batch = _random_batch(rng, params, 100_000, m)
        contrib = score_contributions(batch, params)
        mean = contrib.mean(axis=0)
        se = contrib.std(axis=0, ddof=1) / math.sqrt(batch.n)
        width = 1 + 4 * m
        non_pi = np.ones(score_dimension(m), dtype=bool)
        for u in range(5):
            non_pi[u * width] = False
        z = np.abs(mean[non_pi]) / se[non_pi]
        assert z.max() < 3.0, f"worst |z| = {z.max():.2f}"


def test_c06_svm_correctness():
    """Analytic 2-point dual solution plus KKT on every trained binary problem."""
    with criterion("C6 SVM correctness"):
        model = solve_dual(KernelProblem(np.eye(2)), np.array([1.0, -1.0]), 10.0)
        np.testing.assert_array_equal(model.alpha, [1.0, 1.0])
        assert model.bias == 0.0

        rng = np.random.default_rng(1006)
        checked = 0
        # one-vs-rest problems over synthetic Fisher scores
        m = 3
        params = _random_params(rng, m)
        batches = [_random_batch(rng, params, 12, m) for _ in range(90)]
        labels = [f"r{i % 3}" for i in range(90)]
        scores = score_matrix(batches, params)
        info = empirical_information(scores)
        metric = fisher_metric(info, max(1e-6 * np.trace(info) / info.shape[0], 1e-12))
        gram = gram_matrix(metric, scores)
        mc = train_multiclass(KernelProblem(gram), labels, C=1.0)
        for cls, svm_model in zip(mc.classes, mc.models):
            y = np.where(np.array(labels) == cls, 1.0, -1.0)
            viol = max_kkt_violation(svm_model, gram, y)
            assert viol <= 1e-3, f"class {cls}: KKT violation {viol:.2e}"
            checked += 1
        # plain dense problems
        for _ in range(5):
            X = rng.normal(0, 1, (50, 6))
            y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
            trained = solve_dual(KernelProblem(X @ X.T), y, 1.0, tol=1e-3)
            assert max_kkt_violation(trained, X @ X.T, y) <= 1e-3
            checked += 1
        assert checked == 8


@pytest.fixture(scope="module")
def identification_dataset():
    cfg = SynthConfig(num_readers=5, num_texts=12, lines_per_text=6, words_per_line=12,
                      sigma_reader=0.3, seed=20250808)
    return ReadingDataset.from_synth(gen_dataset(cfg))


def test_c07_end_to_end_identification(identification_dataset):
    """5 readers, 12 texts, LOTO CV: accuracy, baseline comparison, lines trend."""
    with criterion("C7 end-to-end synthetic identification"):
        start = time.perf_counter()
        config = PipelineConfig(
            lambda_grid=(0.0, 1e-2),
            c_grid=(0.1, 1.0),
            ridge_scales=(1e-6,),
            inner_folds=1,
            feature_elimination=True,
            run_generative_baseline=True,
        )
        report = loto_cv(identification_dataset, config)
        elapsed = time.perf_counter() - start
        assert len(report.folds) == 12
        assert report.mean_accuracy >= 0.8, f"accuracy {report.mean_accuracy:.3f}"
        assert report.baseline_mean_accuracy >= 0.8, (
            f"baseline accuracy {report.baseline_mean_accuracy:.3f}"
        )
        assert report.mean_accuracy >= report.baseline_mean_accuracy, (
            f"fisher {report.mean_accuracy:.3f} < baseline {report.baseline_mean_accuracy:.3f}"
        )
        assert report.accuracy_vs_lines[-1] >= report.accuracy_vs_lines[0], (
            f"lines trend {report.accuracy_vs_lines}"
        )
        assert elapsed < 600.0, f"took {elapsed:.1f}s"
        print(
            f"  accuracy={report.mean_accuracy:.3f} baseline={report.baseline_mean_accuracy:.3f} "
            f"curve={[round(v, 3) for v in report.accuracy_vs_lines]} ({elapsed:.0f}s)"
        )


def test_c08_permutation_control(identification_dataset):
    """Shuffled reader labels: accuracy within the 95% binomial band at 1/5."""
    with criterion("C8 permutation control"):
        from scipy.stats import binom

        shuffled = shuffle_reader_labels(identification_dataset, seed=77)
        config = PipelineConfig(
            lambda_grid=(1e-2,),
            c_grid=(0.1,),
            ridge_scales=(1e-6,),
            inner_folds=0,
            feature_elimination=False,
            run_generative_baseline=False,
        )
        report = loto_cv(shuffled, config)
        n = sum(f.n_test_groups for f in report.folds)
        hits = round(report.mean_accuracy * n)
        lo = binom.ppf(0.025, n, 0.2)
        hi = binom.ppf(0.975, n, 0.2)
        assert lo <= hits <= hi, f"hits {hits}/{n} outside [{lo}, {hi}]"


def test_c09_wilcoxon_exactness():
    """Exact p-values match exhaustive sign-flip enumeration for n <= 10."""
    with criterion("C9 Wilcoxon exactness"):
        rng = np.random.default_rng(1009)
        checked = 0
        for n in range(5, 11):
            for trial in range(10):
                x = rng.normal(0, 1, n)
                y = rng.normal(0.2, 1, n)
                if trial % 2:
                    x = np.round(x, 1)
                    y = np.round(y, 1)
                d = x - y
                nz = d[d != 0]
                if len(nz) < 5:
                    continue
                got = wilcoxon_signed_rank(x, y).p_value

                # oracle: exhaustive enumeration over sign assignments
                absd = np.abs(nz)
                order = np.argsort(absd, kind="stable")
                ranks = np.empty(len(nz))
                i = 0
                while i < len(nz):
                    j = i
                    while j + 1 < len(nz) and absd[order[j + 1]] == absd[order[i]]:
                        j += 1
                    ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
                    i = j + 1
                w = ranks[nz > 0].sum()
                le = ge = 0
                total = 0
                for signs in itertools.product((0, 1), repeat=len(nz)):
                    ws = sum(r for s, r in zip(signs, ranks) if s)
                    le += ws <= w
                    ge += ws >= w
                    total += 1
                want = min(1.0, 2.0 * min(le / total, ge / total))
                assert abs(got - want) < 1e-12
                checked += 1
        assert checked >= 40


def test_c10_artifact_determinism(tmp_path):
    """Identical seeds and configs yield byte-identical artifacts."""
    with criterion("C10 artifact determinism"):
        def run_all(root):
            root.mkdir()
            synth_dir = root / "data"
            assert cli_main([
                "synth", "--out", str(synth_dir), "--seed", "9", "--readers", "3",
                "--texts", "4", "--lines", "2", "--words-per-line", "8",
                "--min-fixations", "5", "--max-fixations", "8",
            ]) == 0
            model = root / "model.json"
            assert cli_main([
                "fit", "--texts", str(synth_dir / "texts.json"),
                "--freq", str(synth_dir / "freq.tsv"),
                "--scanpaths", str(synth_dir / "scanpaths.jsonl"),
                "--out", str(model), "--reg-lambda", "0.01",
            ]) == 0
            scores = root / "scores.txt"
            assert cli_main([
                "score", "--model", str(model),
                "--texts", str(synth_dir / "texts.json"),
                "--freq", str(synth_dir / "freq.tsv"),
                "--scanpaths", str(synth_dir / "scanpaths.jsonl"),
                "--out", str(scores),
            ]) == 0
            report = root / "report"
            assert cli_main([
                "identify", "--texts", str(synth_dir / "texts.json"),
                "--freq", str(synth_dir / "freq.tsv"),
                "--scanpaths", str(synth_dir / "scanpaths.jsonl"),
                "--out", str(report),
                "--lambda-grid", "0.01", "--c-grid", "1", "--ridge-grid", "1e-6",
                "--inner-folds", "1", "--no-elimination", "--no-baseline",
            ]) == 0
            return [
                model.read_bytes(),
                scores.read_bytes(),
                (report / "report.json").read_bytes(),
                (report / "report.csv").read_bytes(),
            ]

        first = run_all(tmp_path / "run1")
        second = run_all(tmp_path / "run2")
        for a, b in zip(first, second):
            assert a == b
