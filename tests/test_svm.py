import itertools
import re

import numpy as np
import pytest

from scanfisher.evaluate import _decide_groups, _identify, _KernelStage
from scanfisher.svm import (
    KernelProblem,
    MulticlassSvm,
    SvmError,
    SvmModel,
    prefix_decision_curve,
    solve_dual,
    train_multiclass,
)
from svm_reference import max_kkt_violation, reference_decision_value, reference_solve_dual, smo_solve_dual


def _linear_gram(X):
    return X @ X.T


def _separable_problem(rng, n_per_class=10, gap=4.0):
    X = np.concatenate([
        rng.normal(0, 1, (n_per_class, 3)) + np.array([gap, 0, 0]),
        rng.normal(0, 1, (n_per_class, 3)) - np.array([gap, 0, 0]),
    ])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return KernelProblem(_linear_gram(X)), y, X


# ---------------------------------------------------------------------------
# solve_dual


def test_two_point_analytic_solution():
    model = solve_dual(KernelProblem(np.eye(2)), np.array([1.0, -1.0]), 10.0)
    np.testing.assert_array_equal(model.alpha, [1.0, 1.0])
    assert model.bias == 0.0
    assert reference_decision_value(model, np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert reference_decision_value(model, np.array([0.0, 1.0])) == pytest.approx(-1.0)


def test_separable_problem_perfect_training_accuracy():
    rng = np.random.default_rng(0)
    problem, y, _ = _separable_problem(rng)
    model = solve_dual(problem, y, 10.0, tol=1e-3)
    decisions = model.decision_values(problem.gram)
    assert np.all(np.sign(decisions) == y)
    assert max_kkt_violation(model, problem.gram, y) <= 1e-3


def test_kkt_conditions_hold_on_random_problems():
    rng = np.random.default_rng(1)
    for trial in range(6):
        n = 40
        X = rng.normal(0, 1.5, (n, 4))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        gram = _linear_gram(X)
        model = solve_dual(KernelProblem(gram), y, 1.0, tol=1e-3)
        assert max_kkt_violation(model, gram, y) <= 1e-3
        assert abs(float(model.alpha @ model.y)) <= 1e-8
        assert np.all(model.alpha >= 0) and np.all(model.alpha <= 1.0 + 1e-12)


def test_objective_is_no_worse_than_the_smo_oracle():
    # the returned alpha is the optimum itself, not a point within tol of it
    rng = np.random.default_rng(2)
    problem, y, _ = _separable_problem(rng, n_per_class=15, gap=1.0)
    Q = y[:, None] * problem.gram * y

    def objective(alpha):
        return 0.5 * alpha @ Q @ alpha - alpha.sum()

    model = solve_dual(problem, y, 2.0, tol=1e-4)
    oracle = smo_solve_dual(problem.gram, y, 2.0, tol=1e-4)
    assert objective(model.alpha) <= objective(oracle.alpha) + 1e-12
    assert objective(model.alpha) <= objective(smo_solve_dual(problem.gram, y, 2.0, tol=1e-10).alpha) + 1e-12


def test_duplicated_instances_leave_decisions_unchanged():
    rng = np.random.default_rng(3)
    X = np.array([
        [2.0, 0.3], [2.5, -0.2], [1.8, 0.1],
        [-2.0, 0.4], [-2.2, -0.3], [-1.7, 0.2],
    ])
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    test_points = rng.normal(0, 2, (5, 2))

    single = solve_dual(KernelProblem(_linear_gram(X)), y, 50.0, tol=1e-6)
    d1 = single.decision_values(test_points @ X.T)

    X2 = np.concatenate([X, X])
    y2 = np.concatenate([y, y])
    doubled = solve_dual(KernelProblem(_linear_gram(X2)), y2, 50.0, tol=1e-6)
    d2 = doubled.decision_values(test_points @ X2.T)
    np.testing.assert_allclose(d1, d2, atol=1e-3)


def test_margin_support_vector_decision_is_one():
    rng = np.random.default_rng(4)
    problem, y, _ = _separable_problem(rng)
    model = solve_dual(problem, y, 100.0, tol=1e-4)
    free = (model.alpha > 1e-8) & (model.alpha < model.C - 1e-8)
    decisions = model.decision_values(problem.gram)
    for i in np.flatnonzero(free):
        assert y[i] * decisions[i] == pytest.approx(1.0, abs=1e-3)


def test_decision_value_empty_expansion():
    model = SvmModel(
        alpha=np.zeros(3), y=np.ones(3), bias=0.3, C=1.0,
        support=np.array([], dtype=int), kkt_violation=0.0, n_iterations=0,
    )
    assert model.decision_values(np.ones(3)).tolist() == [0.3]
    assert reference_decision_value(model, np.ones(3)) == 0.3


def test_decision_value_length_mismatch():
    model = SvmModel(
        alpha=np.zeros(3), y=np.ones(3), bias=0.0, C=1.0,
        support=np.array([], dtype=int), kkt_violation=0.0, n_iterations=0,
    )
    with pytest.raises(SvmError, match="row length"):
        model.decision_values(np.ones(4))
    with pytest.raises(SvmError, match="row length"):
        model.decision_values(np.ones((2, 2)))


def test_model_serialization_round_trip():
    rng = np.random.default_rng(5)
    problem, y, X = _separable_problem(rng)
    model = solve_dual(problem, y, 10.0)
    restored = SvmModel.from_dict(model.to_dict())
    rows = rng.normal(0, 1, (6, 3)) @ X.T
    np.testing.assert_allclose(restored.decision_values(rows), model.decision_values(rows), rtol=1e-12)


_PAIR = [1.0, -1.0]


@pytest.mark.parametrize("step, gram, labels, C, tol, message", [
    # a Gram is checked once, when its KernelProblem is built
    pytest.param("problem", np.ones((2, 3)), _PAIR, 1.0, 1e-3, "gram must be square, got (2, 3)", id="non-square"),
    pytest.param("problem", [[1.0, np.nan], [np.nan, 1.0]], _PAIR, 1.0, 1e-3,
                 "gram matrix contains non-finite values", id="non-finite"),
    pytest.param("problem", [[1.0, 0.5], [0.2, 1.0]], _PAIR, 1.0, 1e-3, "gram matrix is not symmetric",
                 id="asymmetric"),
    # eigenvalues +-1.5
    pytest.param("problem", [[0.0, 1.5], [1.5, 0.0]], _PAIR, 1.0, 1e-3,
                 "gram matrix is not positive semidefinite; increase the Fisher metric ridge", id="not-psd"),
    # labels, C and tol are checked on every solve
    pytest.param("solve", np.eye(2), [1.0, -1.0, 1.0], 1.0, 1e-3, "labels length must match gram size",
                 id="label-length"),
    pytest.param("solve", np.eye(2), [1.0, 2.0], 1.0, 1e-3, "labels must be -1 or +1", id="label-not-pm1"),
    pytest.param("solve", np.eye(2), _PAIR, 0.0, 1e-3, "C must be > 0", id="C-zero"),
    pytest.param("solve", np.eye(2), _PAIR, -1.0, 1e-3, "C must be > 0", id="C-negative"),
    pytest.param("solve", np.eye(2), _PAIR, float("nan"), 1e-3, "C must be > 0", id="C-nan"),
    pytest.param("solve", np.eye(2), _PAIR, 1.0, 0.0, "tol must be > 0, got 0.0", id="tol-zero"),
    pytest.param("solve", np.eye(2), _PAIR, 1.0, float("nan"), "tol must be > 0, got nan", id="tol-nan"),
])
def test_every_check_raises_its_message(step, gram, labels, C, tol, message):
    raised = pytest.raises(SvmError, match=f"^{re.escape(message)}$")
    if step == "problem":
        with raised:
            KernelProblem(np.array(gram))
    else:
        problem = KernelProblem(np.array(gram))
        with raised:
            solve_dual(problem, np.array(labels), C, tol=tol)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gram_rejected(bad):
    for gram in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
        with pytest.raises(SvmError, match="non-finite"):
            KernelProblem(np.array(gram))


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
def test_non_positive_tolerance_rejected(tol):
    with pytest.raises(SvmError, match="^tol must be > 0"):
        solve_dual(KernelProblem(np.eye(2)), np.array([1.0, -1.0]), 1.0, tol=tol)


# ---------------------------------------------------------------------------
# multiclass


def _clustered_scores(rng, n_classes, per_class, dim=6, gap=6.0):
    centers = rng.normal(0, 1, (n_classes, dim)) * gap
    rows = []
    labels = []
    for c in range(n_classes):
        rows.append(centers[c] + rng.normal(0, 1, (per_class, dim)))
        labels.extend([f"c{c:02d}"] * per_class)
    return np.concatenate(rows), labels


def test_two_class_decisions_negate_up_to_bias():
    rng = np.random.default_rng(6)
    X, labels = _clustered_scores(rng, 2, 12)
    mc = train_multiclass(KernelProblem(_linear_gram(X)), labels, C=1.0)
    assert mc.classes == ["c00", "c01"]
    values = mc.decision_matrix(_linear_gram(X))
    total = values[:, 0] + values[:, 1]
    assert np.std(total) == pytest.approx(0.0, abs=1e-2)


def _line_predictions(mc, k_rows):
    return [mc.classes[i] for i in mc.decision_matrix(k_rows).argmax(axis=1)]


def test_multiclass_predicts_separable_training_set():
    rng = np.random.default_rng(7)
    X, labels = _clustered_scores(rng, 4, 10)
    gram = _linear_gram(X)
    mc = train_multiclass(KernelProblem(gram), labels, C=10.0)
    assert _line_predictions(mc, gram) == labels


def test_multiclass_needs_two_classes():
    with pytest.raises(SvmError, match="classes"):
        train_multiclass(KernelProblem(np.eye(3)), ["a", "a", "a"], C=1.0)


def test_multiclass_paper_scale_62_readers():
    # 62 classes x 11 instances, as in the identification task's class count
    rng = np.random.default_rng(8)
    X, labels = _clustered_scores(rng, 62, 11, dim=10, gap=8.0)
    gram = _linear_gram(X)
    mc = train_multiclass(KernelProblem(gram), labels, C=1.0)
    assert len(mc.models) == 62
    preds = _line_predictions(mc, gram)
    assert np.mean([p == t for p, t in zip(preds, labels)]) > 0.95


def test_multiclass_serialization_round_trip():
    rng = np.random.default_rng(9)
    X, labels = _clustered_scores(rng, 3, 8)
    gram = _linear_gram(X)
    mc = train_multiclass(KernelProblem(gram), labels, C=1.0)
    restored = MulticlassSvm.from_dict(mc.to_dict(references={"scores": "sha256:x"}))
    np.testing.assert_allclose(
        restored.decision_matrix(gram), mc.decision_matrix(gram), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# text-level prediction


def _toy_multiclass():
    rng = np.random.default_rng(10)
    X, labels = _clustered_scores(rng, 2, 6)
    mc = train_multiclass(KernelProblem(_linear_gram(X)), labels, C=1.0)
    return mc, X


def _text_predictions(mc, rows):
    """Per-prefix predictions of one test group, as the identification pipeline makes them."""
    kernels = _KernelStage(problem=None, group_rows={("g", "t"): rows})
    curves, decisions = _decide_groups(mc, kernels, _identify)
    assert np.array_equal(decisions[("g", "t")], prefix_decision_curve(mc, rows))
    return curves[("g", "t")]


def test_predict_text_single_line_equals_line_prediction():
    mc, X = _toy_multiclass()
    row = (X[0] + 0.1)[None, :] @ X.T
    assert _text_predictions(mc, row) == _line_predictions(mc, row)


def test_predict_text_tie_breaks_to_lowest_class_id():
    models = [
        SvmModel(alpha=np.zeros(1), y=np.ones(1), bias=0.5, C=1.0,
                 support=np.array([], dtype=int), kkt_violation=0.0, n_iterations=0)
        for _ in range(2)
    ]
    mc = MulticlassSvm(classes=["A", "B"], models=models, C=1.0)
    rows = np.zeros((2, 1))
    curve = prefix_decision_curve(mc, rows)
    np.testing.assert_array_equal(curve[:, 0], curve[:, 1])
    assert _text_predictions(mc, rows) == ["A", "A"]


def test_predict_text_invariant_to_line_order():
    mc, X = _toy_multiclass()
    rng = np.random.default_rng(11)
    rows = rng.normal(0, 1, (5, X.shape[0]))
    np.testing.assert_allclose(
        prefix_decision_curve(mc, rows)[-1], prefix_decision_curve(mc, rows[::-1])[-1], rtol=1e-12
    )
    assert _text_predictions(mc, rows)[-1] == _text_predictions(mc, rows[::-1])[-1]


def test_prefix_decision_curve_is_cumulative_mean():
    mc, X = _toy_multiclass()
    rng = np.random.default_rng(12)
    rows = rng.normal(0, 1, (4, X.shape[0]))
    curve = prefix_decision_curve(mc, rows)
    values = mc.decision_matrix(rows)
    for ell in range(1, 5):
        np.testing.assert_allclose(curve[ell - 1], values[:ell].mean(axis=0), rtol=1e-12)


# ---------------------------------------------------------------------------
# the interior-point solver against the SMO oracle run to tol 1e-10


def _assert_matches_oracle(model, problem, y, C):
    """alpha, bias and decisions equal the SMO oracle's at tol 1e-10, with exact zeros and C."""
    oracle = smo_solve_dual(problem.gram, y, C, tol=1e-10)
    assert model.C == C and np.array_equal(model.y, y)
    np.testing.assert_array_equal(model.alpha == 0, oracle.alpha == 0)
    np.testing.assert_array_equal(model.alpha == C, oracle.alpha == C)
    np.testing.assert_allclose(model.alpha, oracle.alpha, rtol=0, atol=1e-6 * C)
    assert model.bias == pytest.approx(oracle.bias, abs=1e-8)
    np.testing.assert_allclose(model.decision_values(problem.gram), oracle.decision_values(problem.gram),
                               rtol=0, atol=1e-8)
    np.testing.assert_array_equal(model.support, np.flatnonzero(model.alpha > 0))
    assert model.kkt_violation < 1e-9


def _low_rank_gram(rng, classes, rank):
    # clustered points in `rank` dimensions: K = Z Z^T has rank < N, as the
    # Fisher kernel does.  The tiny asymmetric part passes KernelProblem's
    # 1e-8 symmetry check, so rows of K are not its columns.
    n = len(classes)
    centers = rng.normal(0, 1.0, (classes.max() + 1, rank))
    Z = (centers[classes] + rng.normal(0, 0.5, (n, rank))) / np.sqrt(rank)
    return Z @ Z.T + rng.normal(0, 1e-13, (n, n))


def test_solver_matches_reference_on_low_rank_grams():
    rng = np.random.default_rng(13)
    solves = at_box = 0
    for n, rank in ((24, 5), (40, 12), (70, 20), (110, 85)):
        classes = rng.integers(0, 3, n)
        problem = KernelProblem(_low_rank_gram(rng, classes, rank))
        for cls in range(3):
            y = np.where(classes == cls, 1.0, -1.0)
            for C in (0.01, 0.1, 1.0, 10.0):
                model = solve_dual(problem, y, C)
                _assert_matches_oracle(model, problem, y, C)
                assert 0 < model.n_iterations <= 20
                # the oracle is the straightforward per-step SMO, bit for bit
                fast, ref = smo_solve_dual(problem.gram, y, C), reference_solve_dual(problem.gram, y, C)
                assert np.array_equal(fast.alpha, ref.alpha) and fast.bias == ref.bias
                assert fast.n_iterations == ref.n_iterations
                solves += 1
                at_box += bool((model.alpha == C).any())
    assert solves == 48
    assert 0 < at_box < solves


def test_solver_matches_reference_on_two_point_problem():
    problem, y = KernelProblem(np.eye(2)), np.array([1.0, -1.0])
    for C in (0.5, 1.0, 10.0):
        model = solve_dual(problem, y, C)
        _assert_matches_oracle(model, problem, y, C)
        np.testing.assert_array_equal(model.alpha, [min(C, 1.0)] * 2)


def test_solver_raises_on_every_non_psd_gram():
    # A separable problem plus one pair of points with negative curvature
    # between them (K_aa + K_bb - 2 K_ab < 0).  SMO raised only once such a
    # pair was selected and solved the other problems; KernelProblem checks
    # the whole Gram before any solve and raises on every one.
    rng = np.random.default_rng(14)
    oracle = set()
    for trial in range(12):
        n = 14
        X = rng.normal(0, 1, (n, 3))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        X[:, 0] += 2 * y
        gram = np.zeros((n + 2, n + 2))
        gram[:n, :n] = X @ X.T
        s = rng.uniform(2.0, 20.0)
        gram[n:, n:] = s
        gram[n, n + 1] = gram[n + 1, n] = s + rng.uniform(0.1, 1.0)
        pair_labels = [-1.0, -1.0] if trial % 2 == 0 else [1.0, -1.0]
        with pytest.raises(SvmError, match="increase the Fisher metric ridge"):
            KernelProblem(gram)
        try:
            reference_solve_dual(gram, np.concatenate([y, pair_labels]), 1.0)
            oracle.add("solved")
        except SvmError:
            oracle.add("raised")
    assert oracle == {"raised", "solved"}


def test_tolerance_changes_only_the_converged_flag():
    # the polished optimum does not depend on tol, so no caller needs to set it
    rng = np.random.default_rng(24)
    for trial in range(40):
        n = int(rng.integers(10, 80))
        classes = rng.integers(0, 3, n)
        y = np.where(classes == 0, 1.0, -1.0)
        if abs(y.sum()) == n:
            y[0] = -y[0]
        problem = KernelProblem(_low_rank_gram(rng, classes, int(rng.integers(2, 30))))
        C = (0.1, 1.0, 10.0)[trial % 3]
        models = {tol: solve_dual(problem, y, C, tol=tol) for tol in (1e-1, 1e-3, 1e-8)}
        first = models[1e-1]
        for tol, model in models.items():
            np.testing.assert_array_equal(model.alpha, first.alpha)
            np.testing.assert_array_equal(model.support, first.support)
            assert (model.bias, model.n_iterations, model.kkt_violation) == (
                first.bias, first.n_iterations, first.kkt_violation)
            assert model.converged == (model.kkt_violation < tol)


def test_max_iter_exit_is_logged_with_problem_size(caplog):
    rng = np.random.default_rng(15)
    problem, y, _ = _separable_problem(rng, n_per_class=12, gap=0.5)
    with caplog.at_level("WARNING", logger="scanfisher.svm"):
        model = solve_dual(problem, y, 5.0, tol=1e-3, max_iter=3)
    assert model.n_iterations == 3
    assert model.kkt_violation >= 1e-3
    messages = [r.getMessage() for r in caplog.records if r.name == "scanfisher.svm"]
    assert len(messages) == 1
    assert "max_iter=3" in messages[0] and "N=24" in messages[0] and "C=5" in messages[0]
    assert "relative gap" in messages[0] and f"KKT violation {model.kkt_violation:.3g}" in messages[0]
    assert ((model.alpha >= 0) & (model.alpha <= 5.0)).all()
    assert model.reused_at(10.0) is None


# ---------------------------------------------------------------------------
# edge cases


@pytest.mark.parametrize("label", [1.0, -1.0])
@pytest.mark.parametrize("n", [1, 3])
def test_one_label_problem_has_the_zero_solution(n, label):
    # y^T alpha = 0 leaves alpha = 0 as the only feasible point; the bias is
    # the end of [m, M] that exists, so every point sits on its margin
    gram = np.eye(n) * 2.0
    model = solve_dual(KernelProblem(gram), np.full(n, label), 1.0)
    np.testing.assert_array_equal(model.alpha, np.zeros(n))
    assert model.support.size == 0 and model.n_iterations == 0 and model.kkt_violation == 0.0
    assert model.bias == label
    assert max_kkt_violation(model, gram, np.full(n, label)) == 0.0


def test_duplicated_rows_return_an_unpolished_iterate_with_the_oracle_decisions(caplog):
    # duplicated free support vectors make the free block of the reduced KKT
    # system singular: every crossover is rejected, and the snapped iterate
    # is returned with a warning.  Its alpha splits each duplicated pair
    # another way than SMO does, but the decisions are the optimum's.
    rng = np.random.default_rng(21)
    X = rng.normal(0, 1, (20, 3))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=20) > 0, 1.0, -1.0)
    X2, y2 = np.concatenate([X, X]), np.concatenate([y, y])
    problem, single = KernelProblem(X2 @ X2.T), KernelProblem(X @ X.T)
    for C in (0.01, 1.0, 100.0):
        caplog.clear()
        with caplog.at_level("WARNING", logger="scanfisher.svm"):
            model = solve_dual(problem, y2, C, tol=1e-3)
        messages = [r.getMessage() for r in caplog.records if r.name == "scanfisher.svm"]
        assert len(messages) == 1
        assert "unpolished iterate" in messages[0] and "N=40" in messages[0] and f"C={C:g}" in messages[0]
        assert "relative gap" in messages[0] and f"KKT violation {model.kkt_violation:.3g}" in messages[0]
        assert model.kkt_violation < 1e-3
        oracle = smo_solve_dual(problem.gram, y2, C, tol=1e-10)
        np.testing.assert_allclose(model.decision_values(problem.gram), oracle.decision_values(problem.gram),
                                   rtol=0, atol=1e-8)
        # each pair's total is the optimum's
        np.testing.assert_allclose(model.alpha[:20] + model.alpha[20:], oracle.alpha[:20] + oracle.alpha[20:],
                                   rtol=0, atol=1e-6 * C)
        # without the duplicates the crossover is accepted
        with caplog.at_level("WARNING", logger="scanfisher.svm"):
            caplog.clear()
            _assert_matches_oracle(solve_dual(single, y, C), single, y, C)
        assert not caplog.records


def test_tiny_free_alpha_is_polished_at_the_first_crossover(monkeypatch):
    # a Gram of scale 7e4 puts a free alpha at 1.4e-4 (C = 0.1); its multiplier
    # z is a gradient entry, of the Gram's order, so z > alpha there although
    # alpha is free.  Compared with alpha (1 + max K_ii), it stays free, and
    # the first crossover is the exact optimum
    import scanfisher.svm as svm_module

    rng = np.random.default_rng(153)
    X = rng.normal(0, 100.0, (10, 3))
    y = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
    problem = KernelProblem(X @ X.T)
    polished = []
    real_polish = svm_module._polish

    def counting(*args):
        point = real_polish(*args)
        polished.append(point is not None)
        return point

    monkeypatch.setattr(svm_module, "_polish", counting)
    model = solve_dual(problem, y, 0.1)
    assert polished == [True]
    free = model.alpha[(model.alpha > 0) & (model.alpha < 0.1)]
    assert 5e-5 < free.min() < 2e-4
    _assert_matches_oracle(model, problem, y, 0.1)


def test_every_alpha_at_c_and_none_at_c():
    rng = np.random.default_rng(22)
    y = np.array([1.0] * 10 + [-1.0] * 10)
    overlapping = rng.normal(0, 1, (20, 3)) + 0.2 * y[:, None]
    problem = KernelProblem(overlapping @ overlapping.T)
    model = solve_dual(problem, y, 1e-2)
    np.testing.assert_array_equal(model.alpha, np.full(20, 1e-2))
    _assert_matches_oracle(model, problem, y, 1e-2)

    separated = rng.normal(0, 1, (20, 3)) + np.outer(y, [4.0, 0.0, 0.0])
    problem = KernelProblem(separated @ separated.T)
    model = solve_dual(problem, y, 1e2)
    assert (model.alpha < 1e2).all() and (model.alpha == 0).any()
    _assert_matches_oracle(model, problem, y, 1e2)


def test_gram_with_a_negative_eigenvalue_raises_the_ridge_hint():
    rng = np.random.default_rng(23)
    Z = rng.normal(size=(12, 12))
    values, vectors = np.linalg.eigh(Z @ Z.T)
    scale = float(np.abs(np.diag(Z @ Z.T)).max())
    values[0] = -1e-3 * scale
    gram = (vectors * values) @ vectors.T
    gram = 0.5 * (gram + gram.T)
    with pytest.raises(SvmError, match="not positive semidefinite; increase the Fisher metric ridge"):
        KernelProblem(gram)
    # a rounding-level negative eigenvalue is accepted
    values[0] = -1e-12 * scale
    gram = (vectors * values) @ vectors.T
    problem = KernelProblem(0.5 * (gram + gram.T))
    y = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    _assert_matches_oracle(solve_dual(problem, y, 1.0), problem, y, 1.0)


# ---------------------------------------------------------------------------
# reuse along the C grid


def test_reused_models_match_the_oracle_at_their_new_c():
    rng = np.random.default_rng(16)
    grid = (0.01, 0.1, 1.0, 10.0, 100.0)
    reused = {"larger": 0, "smaller": 0}
    refused = 0
    for n, rank in ((30, 6), (60, 15), (110, 85)):
        classes = rng.integers(0, 3, n)
        problem = KernelProblem(_low_rank_gram(rng, classes, rank))
        for cls in range(3):
            y = np.where(classes == cls, 1.0, -1.0)
            models = {C: solve_dual(problem, y, C) for C in grid}
            for C_from, C_to in itertools.permutations(grid, 2):
                previous = models[C_from]
                carried = previous.reused_at(C_to)
                if carried is None:
                    assert (previous.alpha >= min(C_from, C_to)).any()
                    refused += 1
                    continue
                assert carried.alpha is previous.alpha and carried.C == C_to
                _assert_matches_oracle(carried, problem, y, C_to)
                reused["larger" if C_to > C_from else "smaller"] += 1
    assert min(reused.values()) > 0 and refused > 0


def test_solve_that_touches_the_box_is_not_reused():
    rng = np.random.default_rng(17)
    problem, y, _ = _separable_problem(rng, n_per_class=10, gap=0.5)
    small = solve_dual(problem, y, 0.01)
    assert (small.alpha == 0.01).any()
    assert small.reused_at(1.0) is None
    larger = solve_dual(problem, y, 1.0)
    assert not np.array_equal(larger.alpha, small.alpha)


def test_reuse_needs_every_alpha_inside_both_boxes():
    rng = np.random.default_rng(18)
    problem, y, _ = _separable_problem(rng)
    model = solve_dual(problem, y, 100.0)
    largest = float(model.alpha.max())
    assert 0 < largest < model.C
    assert model.reused_at(200.0).C == 200.0
    assert model.reused_at(2 * largest).C == 2 * largest
    assert model.reused_at(largest) is None
    assert model.reused_at(0.5 * largest) is None
    # a violation at or above the solve's tol, or no solve (a model read from a file)
    strict = solve_dual(problem, y, 100.0, tol=model.kkt_violation)
    assert not strict.converged and strict.reused_at(200.0) is None
    assert SvmModel.from_dict(model.to_dict()).reused_at(200.0) is None


def test_train_multiclass_reuses_qualifying_classes(monkeypatch):
    import scanfisher.svm as svm_module

    rng = np.random.default_rng(19)
    X, labels = _clustered_scores(rng, 4, 10, gap=3.0)
    problem = KernelProblem(_linear_gram(X))
    solved = []
    real_solve = svm_module.solve_dual

    def counting(problem, labels, C, tol=1e-3, **kwargs):
        solved.append(C)
        return real_solve(problem, labels, C, tol=tol, **kwargs)

    monkeypatch.setattr(svm_module, "solve_dual", counting)
    previous = None
    for C in (0.01, 1.0, 10.0, 100.0):
        solved.clear()
        mc = train_multiclass(problem, labels, C, previous=previous)
        for model in mc.models:
            _assert_matches_oracle(model, problem, model.y, C)
        expected = len(mc.classes) if previous is None else sum(
            m.reused_at(C) is None for m in previous.models)
        assert len(solved) == expected
        previous = mc
    assert len(solved) < len(mc.classes)


def test_train_multiclass_rejects_previous_with_other_classes():
    problem = KernelProblem(np.eye(4))
    previous = train_multiclass(problem, ["a", "a", "b", "b"], C=1.0)
    with pytest.raises(SvmError, match="previous classes"):
        train_multiclass(problem, ["a", "a", "c", "c"], C=10.0, previous=previous)
