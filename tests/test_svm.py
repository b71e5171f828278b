import dataclasses

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
from svm_reference import max_kkt_violation, reference_decision_value, reference_solve_dual


def _linear_gram(X):
    return X @ X.T


def _separable_problem(rng, n_per_class=10, gap=4.0, C=10.0):
    X = np.concatenate([
        rng.normal(0, 1, (n_per_class, 3)) + np.array([gap, 0, 0]),
        rng.normal(0, 1, (n_per_class, 3)) - np.array([gap, 0, 0]),
    ])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return KernelProblem(gram=_linear_gram(X), labels=y, C=C), X


# ---------------------------------------------------------------------------
# solve_dual


def test_two_point_analytic_solution():
    problem = KernelProblem(gram=np.eye(2), labels=np.array([1.0, -1.0]), C=10.0)
    model = solve_dual(problem)
    np.testing.assert_array_equal(model.alpha, [1.0, 1.0])
    assert model.bias == 0.0
    assert reference_decision_value(model, np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert reference_decision_value(model, np.array([0.0, 1.0])) == pytest.approx(-1.0)


def test_separable_problem_perfect_training_accuracy():
    rng = np.random.default_rng(0)
    problem, _ = _separable_problem(rng)
    model = solve_dual(problem, tol=1e-3)
    decisions = model.decision_values(problem.gram)
    assert np.all(np.sign(decisions) == problem.labels)
    assert max_kkt_violation(model, problem) <= 1e-3


def test_kkt_conditions_hold_on_random_problems():
    rng = np.random.default_rng(1)
    for trial in range(6):
        n = 40
        X = rng.normal(0, 1.5, (n, 4))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        problem = KernelProblem(gram=_linear_gram(X), labels=y, C=1.0)
        model = solve_dual(problem, tol=1e-3)
        assert max_kkt_violation(model, problem) <= 1e-3
        assert abs(float(model.alpha @ model.y)) <= 1e-8
        assert np.all(model.alpha >= 0) and np.all(model.alpha <= 1.0 + 1e-12)


def test_dual_objective_nondecreasing():
    rng = np.random.default_rng(2)
    problem, _ = _separable_problem(rng, n_per_class=15, gap=1.0, C=2.0)
    model = solve_dual(problem, tol=1e-4, record_objective=True)
    trace = np.array(model.objective_trace)
    assert len(trace) == model.n_iterations
    assert np.all(np.diff(trace) >= -1e-9)


def test_duplicated_instances_leave_decisions_unchanged():
    rng = np.random.default_rng(3)
    X = np.array([
        [2.0, 0.3], [2.5, -0.2], [1.8, 0.1],
        [-2.0, 0.4], [-2.2, -0.3], [-1.7, 0.2],
    ])
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    test_points = rng.normal(0, 2, (5, 2))

    single = solve_dual(KernelProblem(gram=_linear_gram(X), labels=y, C=50.0), tol=1e-6)
    d1 = single.decision_values(test_points @ X.T)

    X2 = np.concatenate([X, X])
    y2 = np.concatenate([y, y])
    doubled = solve_dual(KernelProblem(gram=_linear_gram(X2), labels=y2, C=50.0), tol=1e-6)
    d2 = doubled.decision_values(test_points @ X2.T)
    np.testing.assert_allclose(d1, d2, atol=1e-3)


def test_margin_support_vector_decision_is_one():
    rng = np.random.default_rng(4)
    problem, _ = _separable_problem(rng, C=100.0)
    model = solve_dual(problem, tol=1e-4)
    free = (model.alpha > 1e-8) & (model.alpha < model.C - 1e-8)
    decisions = model.decision_values(problem.gram)
    for i in np.flatnonzero(free):
        assert problem.labels[i] * decisions[i] == pytest.approx(1.0, abs=1e-3)


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
    problem, X = _separable_problem(rng)
    model = solve_dual(problem)
    restored = SvmModel.from_dict(model.to_dict())
    rows = rng.normal(0, 1, (6, 3)) @ X.T
    np.testing.assert_allclose(restored.decision_values(rows), model.decision_values(rows), rtol=1e-12)


def test_non_psd_gram_raises_with_ridge_hint():
    # eigenvalues +-1.5: negative curvature along the selected working pair
    gram = np.array([[0.0, 1.5], [1.5, 0.0]])
    problem = KernelProblem(gram=gram, labels=np.array([1.0, -1.0]), C=1.0)
    with pytest.raises(SvmError, match="ridge"):
        solve_dual(problem)


def test_asymmetric_gram_rejected():
    gram = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(SvmError, match="symmetric"):
        KernelProblem(gram=gram, labels=np.array([1.0, -1.0]), C=1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gram_rejected(bad):
    labels = np.array([1.0, -1.0])
    for gram in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
        with pytest.raises(SvmError, match="non-finite"):
            KernelProblem(gram=np.array(gram), labels=labels, C=1.0)


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
def test_non_positive_tolerance_rejected(tol):
    problem = KernelProblem(gram=np.eye(2), labels=np.array([1.0, -1.0]), C=1.0)
    with pytest.raises(SvmError, match="^tol must be > 0"):
        solve_dual(problem, tol=tol)


def test_invalid_labels_rejected():
    with pytest.raises(SvmError, match="labels"):
        KernelProblem(gram=np.eye(2), labels=np.array([1.0, 2.0]), C=1.0)


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
    mc = train_multiclass(_linear_gram(X), labels, C=1.0)
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
    mc = train_multiclass(gram, labels, C=10.0)
    assert _line_predictions(mc, gram) == labels


def test_multiclass_needs_two_classes():
    with pytest.raises(SvmError, match="classes"):
        train_multiclass(np.eye(3), ["a", "a", "a"], C=1.0)


def test_multiclass_paper_scale_62_readers():
    # 62 classes x 11 instances, as in the identification task's class count
    rng = np.random.default_rng(8)
    X, labels = _clustered_scores(rng, 62, 11, dim=10, gap=8.0)
    gram = _linear_gram(X)
    mc = train_multiclass(gram, labels, C=1.0)
    assert len(mc.models) == 62
    preds = _line_predictions(mc, gram)
    assert np.mean([p == t for p, t in zip(preds, labels)]) > 0.95


def test_multiclass_serialization_round_trip():
    rng = np.random.default_rng(9)
    X, labels = _clustered_scores(rng, 3, 8)
    gram = _linear_gram(X)
    mc = train_multiclass(gram, labels, C=1.0)
    restored = MulticlassSvm.from_dict(mc.to_dict(references={"scores": "sha256:x"}))
    np.testing.assert_allclose(
        restored.decision_matrix(gram), mc.decision_matrix(gram), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# text-level prediction


def _toy_multiclass():
    rng = np.random.default_rng(10)
    X, labels = _clustered_scores(rng, 2, 6)
    mc = train_multiclass(_linear_gram(X), labels, C=1.0)
    return mc, X


def _text_predictions(mc, rows):
    """Per-prefix predictions of one test group, as the identification pipeline makes them."""
    kernels = _KernelStage(gram=np.zeros((0, 0)), group_rows={("g", "t"): rows})
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
# the fast solver against the reference solver, bit for bit


def _assert_same_model(fast, ref):
    assert np.array_equal(fast.alpha, ref.alpha)
    assert np.array_equal(fast.y, ref.y)
    assert fast.bias == ref.bias
    assert fast.C == ref.C
    assert np.array_equal(fast.support, ref.support)
    assert fast.kkt_violation == ref.kkt_violation
    assert fast.n_iterations == ref.n_iterations
    assert fast.objective_trace == ref.objective_trace


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
        gram = _low_rank_gram(rng, classes, rank)
        for cls in range(3):
            y = np.where(classes == cls, 1.0, -1.0)
            for C in (0.01, 0.1, 1.0, 10.0):
                problem = KernelProblem(gram=gram, labels=y, C=C)
                fast = solve_dual(problem, record_objective=True)
                _assert_same_model(fast, reference_solve_dual(problem, record_objective=True))
                solves += 1
                at_box += bool((fast.alpha >= C - 1e-12).any())
    assert solves == 48
    assert 0 < at_box < solves


def test_solver_matches_reference_on_two_point_problem():
    for C in (0.5, 1.0, 10.0):
        problem = KernelProblem(gram=np.eye(2), labels=np.array([1.0, -1.0]), C=C)
        _assert_same_model(solve_dual(problem, record_objective=True),
                           reference_solve_dual(problem, record_objective=True))


def test_solver_raises_on_non_psd_exactly_when_reference_does():
    # A separable problem plus one pair of points with negative curvature
    # between them (K_aa + K_bb - 2 K_ab < 0).  The fast solver flags such
    # rows up front but must raise only once one is selected, as the
    # per-step check does: never when the pair stays out of the working set.
    rng = np.random.default_rng(14)
    outcomes = set()
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
        problem = KernelProblem(gram=gram, labels=np.concatenate([y, pair_labels]), C=1.0)
        try:
            ref = reference_solve_dual(problem)
        except SvmError as err:
            with pytest.raises(SvmError, match="ridge") as fast_err:
                solve_dual(problem)
            assert str(fast_err.value) == str(err)
            outcomes.add("raised")
        else:
            _assert_same_model(solve_dual(problem), ref)
            outcomes.add("solved")
    assert outcomes == {"raised", "solved"}


def test_max_iter_exit_is_logged_with_problem_size(caplog):
    rng = np.random.default_rng(15)
    problem, _ = _separable_problem(rng, n_per_class=12, gap=0.5, C=5.0)
    with caplog.at_level("WARNING", logger="scanfisher.svm"):
        model = solve_dual(problem, tol=1e-3, max_iter=3)
    assert model.n_iterations == 3
    assert model.kkt_violation >= 1e-3
    messages = [r.getMessage() for r in caplog.records if r.name == "scanfisher.svm"]
    assert len(messages) == 1
    assert "max_iter=3" in messages[0] and "N=24" in messages[0] and "C=5" in messages[0]
    ref = reference_solve_dual(problem, tol=1e-3, max_iter=3)
    assert np.array_equal(model.alpha, ref.alpha)
    assert model.reused_at(10.0) is None


# ---------------------------------------------------------------------------
# reuse along the C grid


def test_reused_models_equal_fresh_solves_in_every_field():
    rng = np.random.default_rng(16)
    reused = resolved = 0
    for n, rank in ((30, 6), (60, 15), (110, 85)):
        classes = rng.integers(0, 3, n)
        gram = _low_rank_gram(rng, classes, rank)
        for cls in range(3):
            y = np.where(classes == cls, 1.0, -1.0)
            previous = None
            for C in (0.01, 0.1, 1.0, 10.0, 100.0):
                fresh = solve_dual(KernelProblem(gram=gram, labels=y, C=C), record_objective=True)
                carried = previous.reused_at(C) if previous is not None else None
                if carried is not None:
                    for f in dataclasses.fields(SvmModel):
                        a, b = getattr(carried, f.name), getattr(fresh, f.name)
                        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
                    reused += 1
                elif previous is not None:
                    resolved += 1
                previous = fresh
    assert reused > 0 and resolved > 0


def test_free_alphas_alone_do_not_make_a_solve_reusable():
    # Every final alpha is free, but a value compared against C reached it on
    # the way.  Such a solve is never reused, and at a larger C it can take
    # other branches and end elsewhere.
    rng = np.random.default_rng(20)
    differs = 0
    for trial in range(8):
        classes = rng.integers(0, 3, 110)
        gram = _low_rank_gram(rng, classes, 85)
        y = np.where(classes == 0, 1.0, -1.0)
        model = solve_dual(KernelProblem(gram=gram, labels=y, C=1.0))
        if (model.alpha < 1.0 - 1e-12).all() and model.box_reach >= 1.0:
            assert model.reused_at(10.0) is None
            larger = solve_dual(KernelProblem(gram=gram, labels=y, C=10.0))
            differs += not np.array_equal(larger.alpha, model.alpha)
    assert differs > 0


def test_solve_that_touches_the_box_is_not_reused():
    rng = np.random.default_rng(17)
    problem, _ = _separable_problem(rng, n_per_class=10, gap=0.5, C=0.01)
    small = solve_dual(problem)
    assert (small.alpha >= 0.01 - 1e-12).any()
    assert small.box_reach >= 0.01
    assert small.reused_at(1.0) is None
    larger = solve_dual(KernelProblem(gram=problem.gram, labels=problem.labels, C=1.0))
    assert not np.array_equal(larger.alpha, small.alpha)


def test_reuse_needs_a_larger_c():
    rng = np.random.default_rng(18)
    problem, _ = _separable_problem(rng, C=100.0)
    model = solve_dual(problem)
    assert model.box_reach < model.C
    assert model.reused_at(100.0) is None
    assert model.reused_at(50.0) is None
    assert model.reused_at(200.0).C == 200.0
    assert SvmModel.from_dict(model.to_dict()).reused_at(200.0) is None


def test_train_multiclass_reuses_qualifying_classes(monkeypatch):
    import scanfisher.svm as svm_module

    rng = np.random.default_rng(19)
    X, labels = _clustered_scores(rng, 4, 10, gap=3.0)
    gram = _linear_gram(X)
    solved = []
    real_solve = svm_module.solve_dual

    def counting(problem, tol=1e-3, **kwargs):
        solved.append(problem.C)
        return real_solve(problem, tol=tol, **kwargs)

    monkeypatch.setattr(svm_module, "solve_dual", counting)
    previous = None
    for C in (0.01, 1.0, 10.0, 100.0):
        solved.clear()
        mc = train_multiclass(gram, labels, C, previous=previous)
        fresh = [real_solve(KernelProblem(gram=gram, labels=m.y, C=C)) for m in mc.models]
        for model, ref in zip(mc.models, fresh):
            _assert_same_model(model, ref)
        expected = len(mc.classes) if previous is None else sum(
            m.reused_at(C) is None for m in previous.models)
        assert len(solved) == expected
        previous = mc
    assert len(solved) < len(mc.classes)


def test_train_multiclass_rejects_previous_with_other_classes():
    gram = np.eye(4)
    previous = train_multiclass(gram, ["a", "a", "b", "b"], C=1.0)
    with pytest.raises(SvmError, match="previous classes"):
        train_multiclass(gram, ["a", "a", "c", "c"], C=10.0, previous=previous)
