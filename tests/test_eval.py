import collections
import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanfisher import evaluate, fit, svm
from scanfisher.corpus import FrequencyTable, Text, Word, compute_features, feature_layout, norm_stats
from scanfisher.evaluate import (
    WILCOXON_EXACT_MAX_N,
    EvalError,
    EvalReport,
    FoldResult,
    LeakageError,
    PipelineConfig,
    ReadingDataset,
    _assert_no_leakage,
    auc_score,
    binary_comprehension_eval,
    comprehension_splits,
    loto_cv,
    loto_folds,
    shuffle_reader_labels,
    summarize_report,
    wilcoxon_signed_rank,
    write_report_csv,
    write_report_json,
)
from scanfisher.events import EventBatch, Scanpath, ScanpathError, extract_events
from scanfisher.fit import fit_model
from scanfisher.model import sample_events
from scanfisher.svm import KernelProblem, SvmModel
from scanfisher.synth import SynthConfig, gen_dataset, gen_readers
from scanfisher.util import read_json
from fit_reference import pool_of, pooled_terms_before_product
from model_reference import generative_classify
from tune_reference import tune_baseline_full_scan, tune_full_scan


QUICK = PipelineConfig(
    lambda_grid=(1e-2,),
    c_grid=(1.0,),
    ridge_scales=(1e-6,),
    inner_folds=1,
    feature_elimination=False,
    run_generative_baseline=True,
)


# ---------------------------------------------------------------------------
# pipeline configuration


@pytest.mark.parametrize("field", ["lambda_grid", "c_grid", "ridge_scales"])
def test_config_rejects_empty_grid(field):
    with pytest.raises(EvalError, match=f"^{field} must not be empty"):
        PipelineConfig(**{field: ()})


@pytest.mark.parametrize("field, values", [
    ("c_grid", (1.0, 0.0)),
    ("c_grid", (-1.0,)),
    ("c_grid", (math.nan,)),
    ("lambda_grid", (0.0, -1e-4)),
    ("lambda_grid", (math.nan,)),
    ("ridge_scales", (1e-6, -1.0)),
])
def test_config_rejects_out_of_range_grid_values(field, values):
    with pytest.raises(EvalError, match=f"^{field} values must be"):
        PipelineConfig(**{field: values})


@pytest.mark.parametrize("field, value, bound", [
    ("inner_folds", -3, ">= 0"),
])
def test_config_rejects_out_of_range_counts_and_fit_tol(field, value, bound):
    with pytest.raises(EvalError, match=f"^{field} must be {bound}"):
        PipelineConfig(**{field: value})


# ---------------------------------------------------------------------------
# wilcoxon


def test_wilcoxon_all_equal_is_degenerate():
    with pytest.raises(EvalError, match="non-zero"):
        wilcoxon_signed_rank([1.0] * 6, [1.0] * 6)


def test_wilcoxon_six_positive_differences():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    y = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    result = wilcoxon_signed_rank(x, y)
    assert result.p_value == pytest.approx(2.0 / 2**6, abs=1e-15)


def _wilcoxon_oracle(diffs):
    """Exhaustive sign-flip enumeration, written independently."""
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    absd = sorted((abs(d), i) for i, d in enumerate(diffs))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and absd[j + 1][0] == absd[i][0]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[absd[k][1]] = avg
        i = j + 1
    w = sum(r for d, r in zip(diffs, ranks) if d > 0)
    count_le = count_ge = 0
    for signs in itertools.product([0, 1], repeat=n):
        ws = sum(r for s, r in zip(signs, ranks) if s)
        count_le += ws <= w
        count_ge += ws >= w
    total = 2 ** n
    return min(1.0, 2 * min(count_le / total, count_ge / total))


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for n in (5, 7, 10):
        for trial in range(8):
            x = rng.normal(0, 1, n)
            y = rng.normal(0, 1, n)
            if trial % 2:
                y = np.round(y, 1)  # provoke ties in |differences|
                x = np.round(x, 1)
            d = x - y
            if np.count_nonzero(d) < 5:
                continue
            got = wilcoxon_signed_rank(x, y).p_value
            want = _wilcoxon_oracle(list(d))
            assert got == pytest.approx(want, abs=1e-12)


def test_wilcoxon_exact_matches_scipy():
    from scipy.stats import wilcoxon as scipy_wilcoxon

    rng = np.random.default_rng(4)
    for n in range(5, WILCOXON_EXACT_MAX_N + 1):
        for _ in range(4):
            x = rng.normal(0.3, 1, n)
            y = rng.normal(0.0, 1, n)
            d = np.abs(x - y)
            assert np.all(d > 0) and len(np.unique(d)) == n  # tie-free, zero-free
            want = scipy_wilcoxon(x, y, method="exact").pvalue
            assert wilcoxon_signed_rank(x, y).p_value == pytest.approx(want, abs=1e-12)


def test_wilcoxon_large_n_approximation():
    rng = np.random.default_rng(1)
    x = rng.normal(0.5, 1, 40)
    y = rng.normal(0.0, 1, 40)
    result = wilcoxon_signed_rank(x, y)
    assert 0.0 < result.p_value <= 1.0
    from scipy.stats import wilcoxon as scipy_wilcoxon

    ref = scipy_wilcoxon(x, y, correction=True, mode="approx").pvalue
    assert result.p_value == pytest.approx(ref, rel=1e-6)


# ---------------------------------------------------------------------------
# auc


def _pairwise_auc(labels, values):
    """P(pos > neg) + P(pos = neg) / 2 over every (positive, negative) pair, the larger label positive."""
    labels, values = np.asarray(labels), np.asarray(values, dtype=float)
    top = max(labels.tolist())
    pairs = [(p, n) for p in values[labels == top] for n in values[labels != top]]
    return sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in pairs) / len(pairs)


def test_auc_constant_decisions():
    assert auc_score([1, 1, -1, -1], [0.5, 0.5, 0.5, 0.5]) == 0.5
    # partial ties: one tied pair of the four counts half
    labels, values = [1, 1, -1, -1], [0.5, 0.7, 0.5, 0.2]
    assert auc_score(labels, values) == _pairwise_auc(labels, values) == 0.875


def test_average_ranks_equal_scipy_rankdata():
    from scipy.stats import rankdata

    rng = np.random.default_rng(5)
    for n in range(1, 60):
        for values in (rng.integers(-3, 4, n) * 0.1, rng.normal(size=n), np.zeros(n)):
            ranks = evaluate._average_ranks(values)
            assert ranks.dtype == np.float64 and np.array_equal(ranks, rankdata(values, method="average"))


def test_auc_perfect_ranking():
    assert auc_score([-1, -1, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert auc_score([1, 1, -1, -1], [0.1, 0.2, 0.8, 0.9]) == 0.0


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    labels = rng.choice([-1, 1], size=30)
    values = rng.normal(0, 1, 30)
    base = auc_score(labels, values)
    assert auc_score(labels, 3 * values + 7) == pytest.approx(base)
    assert auc_score(labels, np.exp(values)) == pytest.approx(base)


@given(
    values=st.lists(st.integers(-50, 50), min_size=4, max_size=25),
    scale=st.floats(0.01, 100),
    shift=st.floats(-100, 100),
)
@settings(max_examples=60, deadline=None)
def test_auc_monotone_invariance_property(values, scale, shift):
    # integer-valued scores keep ties exact under the affine transform
    n = len(values)
    labels = np.array([1 if i % 2 else -1 for i in range(n)])
    values = np.asarray(values, dtype=float)
    base = auc_score(labels, values)
    assert auc_score(labels, scale * values + shift) == pytest.approx(base, abs=1e-12)
    # with partial ties too, the rank statistic is the pairwise count
    assert base == pytest.approx(_pairwise_auc(labels, values), abs=1e-12)


def test_auc_requires_two_classes():
    with pytest.raises(EvalError):
        auc_score([1, 1], [0.1, 0.2])


# ---------------------------------------------------------------------------
# generative classification


def _two_reader_setup(rng, n_features=1, separation=1.0):
    readers = gen_readers(
        SynthConfig(num_readers=2, sigma_reader=separation, seed=int(rng.integers(1 << 30))),
        base=None,
    )
    return readers


def test_generative_classify_tie_breaks_to_lowest_id():
    rng = np.random.default_rng(3)
    readers = gen_readers(SynthConfig(num_readers=1, sigma_reader=0.3, seed=5))
    params = readers[0]
    w = np.ones((3, params.num_features))
    batch = sample_events(params, w, w, rng)
    assert generative_classify(batch, {"b": params, "a": params}) == "a"


def test_generative_classify_empty_events():
    readers = gen_readers(SynthConfig(num_readers=2, sigma_reader=0.3, seed=6))
    w = np.ones((0, readers[0].num_features))
    empty = sample_events(readers[0], w, w, np.random.default_rng(0))
    assert empty.n == 0
    assert generative_classify(empty, {"r0": readers[0], "r1": readers[1]}) == "r0"


def test_generative_classification_separates_distinct_readers():
    rng = np.random.default_rng(7)
    readers = gen_readers(SynthConfig(num_readers=2, sigma_reader=0.5, seed=9))
    w = np.ones((200, readers[0].num_features))
    w[:, 1:] = rng.normal(0, 1, (200, readers[0].num_features - 1))
    wins = 0
    trials = 100
    for _ in range(trials):
        batch = sample_events(readers[0], w, w, rng)
        wins += generative_classify(batch, {"r0": readers[0], "r1": readers[1]}) == "r0"
    assert wins / trials > 0.99


# ---------------------------------------------------------------------------
# splits and leakage


def test_loto_folds_count():
    folds = loto_folds([f"t{i}" for i in range(12)])
    assert len(folds) == 12
    for fold in folds:
        assert len(fold.test_texts) == 1
        assert len(fold.train_texts) == 11
        assert not (fold.train_texts & fold.test_texts)


def test_comprehension_splits_are_disjoint():
    splits = comprehension_splits([f"r{i}" for i in range(6)], [f"t{i}" for i in range(4)])
    assert len(splits) == 4
    for s in splits:
        assert not (s.train_texts & s.test_texts)
        assert not (s.train_readers & s.test_readers)


def test_leakage_guard_fires():
    text = Text("t0", ((Word("ab", 0, 2, 1),),))
    _, stats = compute_features([text], FrequencyTable(counts={}, total=10))
    with pytest.raises(LeakageError, match="t0"):
        _assert_no_leakage(stats, frozenset({"t0"}))
    _assert_no_leakage(stats, frozenset({"t1"}))  # disjoint: fine


# ---------------------------------------------------------------------------
# identification pipeline (desk scale)


@pytest.fixture(scope="module")
def small_dataset():
    cfg = SynthConfig(num_readers=3, num_texts=4, lines_per_text=2, words_per_line=10,
                      sigma_reader=0.5, min_fixations=6, max_fixations=10, seed=101)
    return ReadingDataset.from_synth(gen_dataset(cfg))


def test_build_context_rejects_statistics_of_its_test_text(small_dataset):
    # every classifier's context comes from _build_context, so statistics
    # shared under the plan's training key that saw its test text fail there
    table = evaluate.event_table(small_dataset, feature_layout(list(small_dataset.texts.values())))
    plan = loto_folds(small_dataset.text_ids())[0]
    (held_out,) = plan.test_texts
    leaked = norm_stats([small_dataset.texts[t] for t in small_dataset.text_ids()], small_dataset.freq)
    shared = {(plan.train_texts, plan.train_readers): (leaked, table.lines(plan.train_texts), {})}
    with pytest.raises(LeakageError, match=held_out):
        evaluate._build_context(small_dataset, table, plan, shared)
    ctx = evaluate._build_context(small_dataset, table, plan)
    assert ctx.stats.source_text_ids == plan.train_texts


def test_loto_cv_structure(small_dataset):
    report = loto_cv(small_dataset, QUICK)
    assert report.mode == "identification"
    assert len(report.folds) == 4
    assert 0.0 <= report.mean_accuracy <= 1.0
    assert len(report.accuracy_vs_lines) == 2
    assert report.accuracy_vs_lines[-1] == pytest.approx(report.mean_accuracy)
    for fold in report.folds:
        assert fold.n_test_groups == 3
        assert fold.baseline_accuracy is not None
        assert set(fold.chosen) == {"lambda", "ridge_scale", "C", "kept_features", "inner_accuracy"}


def test_loto_cv_deterministic(small_dataset):
    a = loto_cv(small_dataset, QUICK)
    b = loto_cv(small_dataset, QUICK)
    assert a.to_dict() == b.to_dict()


def test_shuffle_reader_labels_preserves_structure(small_dataset):
    shuffled = shuffle_reader_labels(small_dataset, seed=3)
    assert len(shuffled.scanpaths) == len(small_dataset.scanpaths)
    # per text, labels are a bijection of the reader set
    for text_id in shuffled.text_ids():
        labels = {sp.reader_id for sp in shuffled.scanpaths if sp.text_id == text_id}
        assert labels == set(small_dataset.reader_ids())
    # fixations untouched
    total_before = sum(len(sp) for sp in small_dataset.scanpaths)
    total_after = sum(len(sp) for sp in shuffled.scanpaths)
    assert total_before == total_after


def test_missing_reader_in_training_fold_errors(small_dataset):
    pruned = ReadingDataset(
        texts=small_dataset.texts,
        freq=small_dataset.freq,
        scanpaths=[
            sp for sp in small_dataset.scanpaths
            if not (sp.reader_id == "r00" and sp.text_id != "t00")
        ],
    )
    with pytest.raises(EvalError, match="absent"):
        loto_cv(pruned, QUICK)


def test_loto_rejects_text_without_scanpaths(small_dataset):
    pruned = ReadingDataset(
        texts=small_dataset.texts,
        freq=small_dataset.freq,
        scanpaths=[sp for sp in small_dataset.scanpaths if sp.text_id != "t02"],
    )
    with pytest.raises(EvalError, match="t02"):
        loto_cv(pruned, QUICK)


def test_loto_rejects_one_reader_before_any_fold(monkeypatch):
    # one class used to reach the SVM, as a bare "need at least 2 classes"
    dataset = ReadingDataset.from_synth(gen_dataset(SynthConfig(
        num_readers=1, num_texts=3, lines_per_text=2, words_per_line=10, seed=1)))

    def no_fold(*args, **kwargs):
        raise AssertionError("a fold ran")

    monkeypatch.setattr(evaluate, "_run_fold", no_fold)
    with pytest.raises(EvalError, match=r"^identification needs at least 2 readers, got \['r00'\]$"):
        loto_cv(dataset, QUICK)


def _slow_features(dataset, ctx, plan):
    """Word features of a context's training texts and its plan's test texts, as per-text z-scoring gives them."""
    train, stats = compute_features([dataset.texts[t] for t in sorted(ctx.stats.source_text_ids)],
                                    dataset.freq)
    test, _ = compute_features([dataset.texts[t] for t in sorted(plan.test_texts)], dataset.freq, stats)
    return {f.text_id: f for f in train + test}, stats


def _slow_events(dataset, featmap, scanpaths):
    """One extraction per scanpath under the context's features, pooled in order."""
    return EventBatch.concat([
        extract_events(sp, dataset.texts[sp.text_id], featmap[sp.text_id]) for sp in scanpaths
    ])


def test_baseline_full_group_prediction_equals_generative_classify(small_dataset):
    # every test group's last prefix prediction is the generative classifier
    # applied to the group's pooled events, under per-reader models fitted
    # as the baseline fits them; events come from per-scanpath extraction
    lam = QUICK.lambda_grid[0]
    texts = small_dataset.text_ids()
    table = evaluate.event_table(small_dataset, feature_layout(list(small_dataset.texts.values())),
                                 lambda sp: sp.reader_id)
    n_groups = 0
    for fold in loto_folds(texts):
        (held_out,) = fold.test_texts
        ctx = evaluate._build_context(small_dataset, table, fold)
        [[curves]] = evaluate._lockstep([evaluate._baseline_curves([ctx], lam)])
        featmap, _ = _slow_features(small_dataset, ctx, fold)
        train_sps = sorted((sp for sp in small_dataset.scanpaths if sp.text_id != held_out),
                           key=lambda sp: (sp.text_id, sp.reader_id, sp.line_id))
        class_params = {
            reader: fit_model(
                _slow_events(small_dataset, featmap, [sp for sp in train_sps if sp.reader_id == reader]), lam,
            )[0].params
            for reader in small_dataset.reader_ids()
        }
        assert list(curves) == list(ctx.groups)
        for key, lines in ctx.groups.items():
            pooled = _slow_events(small_dataset, featmap, [table.scanpaths[i] for i in lines])
            assert curves[key][-1] == generative_classify(pooled, class_params)
            n_groups += 1
    assert n_groups == len(texts) * len(small_dataset.reader_ids())


# ---------------------------------------------------------------------------
# the event table against per-context extraction


def _random_reading_dataset(seed=0):
    """4 readers x 4 texts x 3 lines of random words and random fixations.

    Flag "a" occurs in every text, flag "b" only in t03.  Reader r00's line 0
    of t01 has one fixation and reader r01's line 1 of t02 has none.  The
    label (reader index + line) % 2 mixes readers within each label.
    """
    rng = np.random.default_rng(seed)
    texts, tokens = [], set()
    for t in range(4):
        lines = []
        for _ in range(3):
            words, pos = [], 0
            for w in range(int(rng.integers(4, 8))):
                token = "".join(rng.choice(list("abcdefgh"), size=int(rng.integers(1, 9))))
                flags = {"a"} if w % 3 == 0 else set()
                if t == 3 and rng.random() < 0.5:
                    flags.add("b")
                words.append(Word(token, pos, pos + len(token), int(rng.integers(1, 4)), frozenset(flags)))
                tokens.add(token)
                pos += len(token) + int(rng.integers(1, 3))
            lines.append(tuple(words))
        texts.append(Text(f"t{t:02d}", tuple(lines)))
    freq = FrequencyTable(counts={tok: int(rng.integers(1, 500)) for tok in sorted(tokens)}, total=10_000)
    scanpaths = []
    for r in range(4):
        for text in texts:
            for line_id in range(3):
                n = int(rng.integers(4, 10))
                if (r, text.text_id, line_id) == (0, "t01", 0):
                    n = 1
                if (r, text.text_id, line_id) == (1, "t02", 1):
                    n = 0
                q = rng.uniform(0, text.line_extent(line_id), n)
                d = rng.uniform(80.0, 400.0, n)
                scanpaths.append(Scanpath(f"r{r:02d}", text.text_id, line_id,
                                          tuple(zip(q.tolist(), d.tolist())), label=(r + line_id) % 2))
    rng.shuffle(scanpaths)
    return ReadingDataset(texts={t.text_id: t for t in texts}, freq=freq, scanpaths=scanpaths)


def _same_bits(got: EventBatch, want: EventBatch) -> bool:
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in ((getattr(got, f.name), getattr(want, f.name)) for f in dataclasses.fields(EventBatch))
    )


def _check_context_against_extraction(dataset, ctx, plan, crossed):
    table = ctx.table
    featmap, stats = _slow_features(dataset, ctx, plan)
    assert stats.layout == ctx.stats.layout
    assert stats.mean.tobytes() == ctx.stats.mean.tobytes()
    assert stats.std.tobytes() == ctx.stats.std.tobytes()

    # index sets: training lines in table order, then each test group by key,
    # its lines ordered by line id and, within a line id, by table order
    train = [table.scanpaths[i] for i in ctx.train]
    assert list(ctx.train) == sorted(ctx.train)
    assert list(ctx.groups) == sorted(ctx.groups)
    test = []
    for (label, text_id), lines in ctx.groups.items():
        assert list(lines) == sorted(lines, key=lambda i: (table.scanpaths[i].line_id, i))
        assert all(table.labels[i] == label and table.scanpaths[i].text_id == text_id for i in lines)
        test.extend(table.scanpaths[i] for i in lines)
    assert len(test) == len(set(test))
    for sps, texts in ((train, ctx.stats.source_text_ids), (test, plan.test_texts)):
        readers = {sp.reader_id for sp in sps}
        if not crossed:
            readers = set(dataset.reader_ids())
        assert set(sps) == {sp for sp in dataset.scanpaths if sp.text_id in texts and sp.reader_id in readers}
    if crossed:
        assert not {sp.reader_id for sp in train} & {sp.reader_id for sp in test}

    keep = list(range(0, ctx.stats.num_features, 2))
    for lines in (ctx.train, *ctx.groups.values()):
        sps = [table.scanpaths[i] for i in lines]
        want = _slow_events(dataset, featmap, sps)
        got, lengths = table.gather(lines, ctx.stats)
        assert _same_bits(got, want)
        assert lengths.tolist() == [max(len(sp) - 1, 0) for sp in sps]
        assert [b.n for b in got.split(lengths)] == lengths.tolist()
        kept, _ = table.gather(lines, ctx.stats, [ctx.stats.layout[j] for j in keep])
        assert _same_bits(kept, want.select_features(keep))


def test_event_table_gathers_what_per_context_extraction_gives(monkeypatch, caplog):
    dataset = _random_reading_dataset()
    contexts = []
    real_build_context = evaluate._build_context

    def recorded(dataset, table, plan, shared=None):
        ctx = real_build_context(dataset, table, plan, shared)
        # statistics come from the plan's training texts only
        assert ctx.stats.source_text_ids == plan.train_texts
        assert ctx.fold_id == plan.fold_id
        contexts.append((ctx, plan))
        return ctx

    monkeypatch.setattr(evaluate, "_build_context", recorded)
    for experiment, crossed, n_outer in ((loto_cv, False, 4), (binary_comprehension_eval, True, 4)):
        contexts.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="scanfisher.events"):
            experiment(dataset, dataclasses.replace(QUICK, run_generative_baseline=False))
        # each short scanpath warns once per experiment, not once per context
        assert [r.getMessage().split()[1] for r in caplog.records if r.name == "scanfisher.events"] \
            == ["r00/t01/line0", "r01/t02/line1"]
        assert len(contexts) > n_outer
        layouts = set()
        for ctx, plan in contexts:
            _check_context_against_extraction(dataset, ctx, plan, crossed)
            layouts.add(ctx.stats.layout)
        # the flag of t03 is absent from the layouts that t03 does not train;
        # comprehension's inner context then trains on t02 alone and tunes
        # on the features its layout has
        assert {"flag:b" in layout for layout in layouts} == {True, False}


def test_single_lambda_baseline_skips_tuning_fits(monkeypatch):
    dataset = ReadingDataset.from_synth(gen_dataset(SynthConfig(
        num_readers=3, num_texts=3, lines_per_text=3, words_per_line=12, seed=7)))
    calls = []
    real_serve = evaluate._serve

    def counted(requests):
        calls.extend(request.lam for request in requests)
        return real_serve(requests)

    # fits served, each in the segments of a pooled fit_model call: one
    # Fisher-stage fit per training set (folds t00 and t01 both tune on t02
    # alone, so 2 inner and 3 outer) and one per-reader fit per outer fold
    monkeypatch.setattr(evaluate, "_serve", counted)
    report = loto_cv(dataset, QUICK)
    assert len(calls) == 8
    calls.clear()
    # the search adds one per-reader fit per inner training set; a grid that
    # holds the one lambda twice forces it without adding a fit
    searched = loto_cv(dataset, dataclasses.replace(QUICK, lambda_grid=QUICK.lambda_grid * 2))
    assert len(calls) == 10
    assert report.to_dict() == searched.to_dict()


def test_folds_that_share_a_training_set_fit_it_once(monkeypatch):
    # With 3 texts and one inner split, folds t00 and t01 both tune on t02
    # alone: each fit on that training set is made once, and the report is
    # that of a run that keeps no fit at all.
    dataset = ReadingDataset.from_synth(gen_dataset(SynthConfig(
        num_readers=3, num_texts=3, lines_per_text=3, words_per_line=12, seed=7)))
    config = dataclasses.replace(QUICK, lambda_grid=(1e-2, 1e-1), c_grid=(0.1, 1.0))
    calls = []
    real_serve = evaluate._serve
    real_build_context = evaluate._build_context

    class Forgetful(dict):
        """A context's fits that are dropped when read, so every fit is made afresh."""

        def __getitem__(self, key):
            return self.pop(key)

    def unshared(dataset, table, plan, shared=None):
        return dataclasses.replace(real_build_context(dataset, table, plan), fits=Forgetful())

    def counted(requests):
        # each fit served, one or more segments of the step's pooled fit_model call
        calls.extend((request.key[0], request.lam, tuple(request.sizes),
                      request.batch.amp.tobytes(), request.batch.w_land.tobytes()) for request in requests)
        return real_serve(requests)

    monkeypatch.setattr(evaluate, "_serve", counted)
    shared = loto_cv(dataset, config)
    reused = list(calls)
    calls.clear()
    monkeypatch.setattr(evaluate, "_build_context", unshared)
    alone = loto_cv(dataset, config)
    assert shared.to_dict() == alone.to_dict()
    assert len(set(reused)) == len(reused)
    assert set(reused) == set(calls)
    # without sharing, Fisher-stage fits and per-reader fits on t02 are each
    # made twice
    repeated = {key for key in calls if calls.count(key) > 1}
    assert {key[0] for key in repeated} == {"fisher", "baseline"}
    assert all(calls.count(key) == 2 for key in repeated)


def test_inner_splits_test_only_readers_they_train_on(monkeypatch, caplog):
    # r00 reads t00 and t01 only, so the inner splits t00/t01 and t01/t00
    # train on t02 and t03 without a line of r00; neither classifier can
    # name r00 there, so those splits leave r00 out, and say so once
    dataset = ReadingDataset.from_synth(gen_dataset(SynthConfig(
        num_readers=3, num_texts=4, lines_per_text=2, words_per_line=10, seed=3)))
    dataset.scanpaths = [sp for sp in dataset.scanpaths
                         if not (sp.reader_id == "r00" and sp.text_id in ("t02", "t03"))]
    config = dataclasses.replace(QUICK, inner_folds=2, lambda_grid=(1e-2, 1e-1))
    contexts = []
    real_build_context = evaluate._build_context

    def recorded(dataset, table, plan, shared=None):
        ctx = real_build_context(dataset, table, plan, shared)
        contexts.append((plan.fold_id, ctx))
        return ctx

    def run():
        caplog.clear()
        contexts.clear()
        with caplog.at_level(logging.WARNING, logger="scanfisher.evaluate"):
            loto_cv(dataset, config)
        for fold_id, ctx in contexts:
            assert {key[0] for key in ctx.groups} <= {ctx.table.labels[i] for i in ctx.train}, fold_id
        return [r.getMessage() for r in caplog.records if r.name == "scanfisher.evaluate"]

    def tie(splits, acc):
        return (f"inner tuning on {splits} ties at accuracy {acc} at every grid point, so it takes the first; "
                "tied (lambda, ridge scale, C): (0.01, 1e-06, 1), (0.1, 1e-06, 1)")

    monkeypatch.setattr(evaluate, "_build_context", recorded)
    warnings = [f"inner split {split} does not test readers ['r00']: its training texts have no lines of them"
                for split in ("t00/t01", "t01/t00")]
    # the SVM and the baseline tie on folds t00 and t01; on t03 only the baseline does
    assert run() == warnings + [tie("t00/t01, t00/t03", "0.500")] * 2 + [tie("t01/t00, t01/t03", "0.250")] * 2 + [
        tie("t03/t00, t03/t02", "0.333")]
    # each fold's SVM and baseline tune on both of its inner splits
    assert len({fold_id for fold_id, _ in contexts if "/" in fold_id}) == 8
    # when t01 is read by r00 alone, split t00/t01 has nothing left to test and is dropped
    dataset.scanpaths = [sp for sp in dataset.scanpaths if sp.reader_id == "r00" or sp.text_id != "t01"]
    # the SVM and the baseline tie on folds t00 and t01; on t03 only the SVM does
    assert run() == warnings + [tie("t00/t03", "0.000")] * 2 + [tie("t01/t00, t01/t03", "0.250")] * 2 + [
        tie("t03/t00, t03/t02", "0.167")]
    inner = {fold_id for fold_id, _ in contexts if "/" in fold_id}
    assert len(inner) == 7 and "t00/t01" not in inner


# ---------------------------------------------------------------------------
# comprehension pipeline


def _comprehension_dataset(seed=11, num_readers=4):
    cfg = SynthConfig(num_readers=num_readers, num_texts=4, lines_per_text=2, words_per_line=10,
                      sigma_reader=0.5, min_fixations=6, max_fixations=10, seed=seed)
    ds = gen_dataset(cfg)
    dataset = ReadingDataset.from_synth(ds)
    # binary labels tied to the reader index parity (arbitrary but consistent)
    relabeled = [
        Scanpath(sp.reader_id, sp.text_id, sp.line_id, sp.fixations,
                 label=int(sp.reader_id[1:]) % 2)
        for sp in dataset.scanpaths
    ]
    return ReadingDataset(texts=dataset.texts, freq=dataset.freq, scanpaths=relabeled)


def test_comprehension_eval_structure():
    dataset = _comprehension_dataset()
    report = binary_comprehension_eval(dataset, QUICK)
    assert report.mode == "comprehension"
    assert len(report.folds) == 4
    assert report.mean_auc is not None
    assert 0.0 <= report.mean_auc <= 1.0
    assert report.majority_mean_accuracy is not None
    for fold in report.folds:
        assert 0.0 <= fold.accuracy <= 1.0
        # majority baseline accuracy equals the majority class prevalence
        assert fold.majority_accuracy == pytest.approx(0.5)


def test_comprehension_requires_binary_labels(small_dataset):
    with pytest.raises(EvalError, match="2 scanpath labels"):
        binary_comprehension_eval(small_dataset, QUICK)


def test_list_label_fails_when_the_scanpath_is_built():
    # a dataset relabeled in Python used to reach binary_comprehension_eval
    # and fail there with a bare TypeError: unhashable type: 'list'
    dataset = ReadingDataset.from_synth(gen_dataset(SynthConfig(num_readers=4, num_texts=4, lines_per_text=2,
                                                                seed=7)))
    with pytest.raises(ScanpathError, match=r"^label \[0\] is not a string, number or boolean$"):
        dataset.scanpaths = [dataclasses.replace(sp, label=[int(sp.reader_id[1:]) % 2]) for sp in dataset.scanpaths]


def test_comprehension_zero_mean_decision_predicts_positive(monkeypatch):
    # Texts t00 and t02 carry label 1 for every reader, so each split tests
    # three (label, text) groups, two of them positive.  With every decision
    # exactly 0.0 each group is predicted positive.
    dataset = _comprehension_dataset()
    dataset.scanpaths = [sp if sp.text_id not in ("t00", "t02") else dataclasses.replace(sp, label=1)
                         for sp in dataset.scanpaths]
    monkeypatch.setattr(SvmModel, "decision_values", lambda self, k_rows: np.zeros(len(k_rows)))
    report = binary_comprehension_eval(dataset, QUICK)
    assert [(f.n_test_groups, f.accuracy, f.accuracy_by_lines) for f in report.folds] \
        == [(3, 2 / 3, [2 / 3])] * 4


@pytest.mark.parametrize("half, role", [(0, "training"), (1, "test")])
def test_comprehension_rejects_empty_block(half, role):
    # Readers and texts are each cut in two halves; the four crossed blocks
    # are the splits' training and test sets. Split s0 trains on the first
    # halves and tests on the second ones.
    dataset = _comprehension_dataset()
    readers = dataset.reader_ids()[2 * half:2 * half + 2]
    texts = dataset.text_ids()[2 * half:2 * half + 2]
    pruned = ReadingDataset(
        texts=dataset.texts,
        freq=dataset.freq,
        scanpaths=[sp for sp in dataset.scanpaths
                   if sp.reader_id not in readers or sp.text_id not in texts],
    )
    with pytest.raises(EvalError) as err:
        binary_comprehension_eval(pruned, QUICK)
    message = str(err.value)
    assert message.startswith(f"split s0: the {role} block")
    assert str(readers) in message and str(texts) in message


def _untuned_splits(caplog, dataset):
    """Split -> the reason `binary_comprehension_eval` logged for not tuning it."""
    prefix = " is not tuned and takes the first grid values: "
    with caplog.at_level(logging.WARNING, logger="scanfisher.evaluate"):
        report = binary_comprehension_eval(dataset, QUICK)
    warned = dict(r.getMessage().removeprefix("split ").split(prefix) for r in caplog.records
                  if r.name == "scanfisher.evaluate" and prefix in r.getMessage())
    assert sorted(warned) == [f.fold_id for f in report.folds if f.chosen["inner_accuracy"] is None]
    return warned


def test_comprehension_names_each_split_it_cannot_tune(caplog):
    one_label = "the training lines of its inner split carry one label"
    # reader-parity labels and 4 readers: each split trains on two readers, and
    # its inner split on one, so on one label
    dataset = _comprehension_dataset()
    assert _untuned_splits(caplog, dataset) == dict.fromkeys(["s0", "s1", "s2", "s3"], one_label)
    # without reader r01's lines on t01, split s0's inner split (train r00 x t00,
    # test r01 x t01) has nothing to test on
    caplog.clear()
    dataset.scanpaths = [sp for sp in dataset.scanpaths if (sp.reader_id, sp.text_id) != ("r01", "t01")]
    assert _untuned_splits(caplog, dataset) == {"s0": "its inner split has no test lines", "s1": one_label,
                                                "s2": one_label, "s3": one_label}
    # 2 readers: each split trains on one, labelled by text parity so that both labels occur
    caplog.clear()
    dataset = _comprehension_dataset(num_readers=2)
    dataset.scanpaths = [dataclasses.replace(sp, label=int(sp.text_id[1:]) % 2) for sp in dataset.scanpaths]
    assert _untuned_splits(caplog, dataset) == dict.fromkeys(
        ["s0", "s1", "s2", "s3"], "an inner split needs 2 training readers and 2 training texts, and it has 1 and 2")


# ---------------------------------------------------------------------------
# feature elimination


ELIMINATION = PipelineConfig(
    lambda_grid=(1e-2,),
    c_grid=(0.1, 1.0),
    ridge_scales=(1e-6,),
    inner_folds=1,
    feature_elimination=True,
    run_generative_baseline=False,
)


def _chosen(kept, inner_accuracy):
    return {"lambda": 0.01, "ridge_scale": 1e-06, "C": 0.1, "kept_features": kept,
            "inner_accuracy": inner_accuracy}


def test_feature_elimination_choices_are_pinned(small_dataset):
    # Recorded before the identification and comprehension tuners were merged
    # into one grid-and-elimination loop; C ties keep the first grid value.
    report = loto_cv(small_dataset, ELIMINATION)
    assert [(f.fold_id, f.accuracy, f.chosen) for f in report.folds] == [
        ("t00", 1.0, _chosen([0, 1, 3], 2 / 3)),
        ("t01", 1 / 3, _chosen([0, 1, 3], 2 / 3)),
        ("t02", 1 / 3, _chosen([0, 1, 2, 3], 1 / 3)),
        ("t03", 2 / 3, _chosen([0, 1, 2], 1.0)),
    ]
    report = binary_comprehension_eval(_comprehension_dataset(seed=101, num_readers=8), ELIMINATION)
    assert [(f.fold_id, f.accuracy, f.auc, f.chosen) for f in report.folds] == [
        ("s0", 0.5, 0.5, _chosen([0, 2], 1.0)),
        ("s1", 0.75, 0.5, _chosen([0, 2, 3], 1.0)),
        ("s2", 0.25, 0.25, _chosen([0, 2, 3], 1.0)),
        ("s3", 0.75, 0.5, _chosen([0, 1, 2, 3], 0.5)),
    ]


def _group_problem(segment, group, params):
    """A fitted group's events, the feature columns and weights it uses, and its model's weights there."""
    in_type = segment.u == group.u
    amplitude = group.kind == "amplitude"
    x = (segment.amp if amplitude else segment.dur)[in_type]
    W = (segment.w_launch if amplitude else segment.w_land)[in_type]
    used = 1 if group.bias_only else W.shape[1]
    blocks = ("alpha", "beta") if amplitude else ("gamma", "delta")
    return x, W[:, :used], np.concatenate([getattr(params, b)[group.u - 1][:used] for b in blocks])


def test_reference_newton_pass_fits_the_elimination_data_alike(small_dataset, monkeypatch):
    """Every fit of the pinned elimination runs, redone with the polygamma-and-reduceat Newton pass.

    Solvers, stops and step counts are equal, and L-BFGS-B fits bit for bit.
    Newton weights agree within 1e-12 (relative, floor 1) where the group's
    Hessian at the reference's weights has condition number at most 1e3, and
    within 1e-15 times that condition number above it: a group whose events
    share one feature row is determined only by the regularizer in the other
    directions (condition number 1.8e9 on one such group here).
    """
    calls, failures = [], []
    newton = fit._newton

    def recorded_fit_model(batch, lam, sizes):
        outcomes = fit_model(batch, lam, sizes)
        calls.append((batch, sizes, lam, outcomes, failures[-1]))
        return outcomes

    def recorded_newton(*args):
        result = newton(*args)
        failures.append(result.failure)
        return result

    monkeypatch.setattr(fit, "_newton", recorded_newton)
    monkeypatch.setattr(evaluate, "fit_model", recorded_fit_model)
    loto_cv(small_dataset, ELIMINATION)
    binary_comprehension_eval(_comprehension_dataset(seed=101, num_readers=8), ELIMINATION)
    monkeypatch.setattr(fit, "_pooled_terms", pooled_terms_before_product)
    solvers = collections.Counter()
    for batch, sizes, lams, outcomes, failure in calls:
        reference = fit_model(batch, lams, sizes)
        assert failures[-1] == failure
        for segment, outcome, want, lam in zip(batch.split(sizes), outcomes, reference, lams):
            for group, want_group in zip(outcome.groups, want.groups):
                assert ((group.solver, group.converged, group.n_iterations)
                        == (want_group.solver, want_group.converged, want_group.n_iterations))
                solvers[group.solver] += 1
                if not group.n_events:
                    continue
                x, W, theta = _group_problem(segment, group, outcome.params)
                _, _, want_theta = _group_problem(segment, want_group, want.params)
                if group.solver == "lbfgs":
                    np.testing.assert_array_equal(theta, want_theta)
                    continue
                _, _, hessian = pooled_terms_before_product(
                    pool_of([x], [W]), want_theta[None], np.ones((1, theta.size)), lam)
                eig = np.linalg.eigvalsh(hessian[0])
                bound = max(1e-12, 1e-15 * eig[-1] / eig[0])
                np.testing.assert_allclose(theta, want_theta, rtol=0, atol=bound * max(1.0, np.abs(want_theta).max()))
    # fits are pooled across folds, so count the segments, one per model fitted
    assert sum(len(sizes) for _, sizes, _, _, _ in calls) > 20 and solvers["newton"] > 100 and solvers["lbfgs"] > 100


# ---------------------------------------------------------------------------
# tunings that cannot choose


def _fake_scan(accuracy):
    """A scan whose every context scores `accuracy(features, point)`, over groups of 4 test lines."""
    def scan(contexts, config, features, visit):
        for point in itertools.product(config.lambda_grid, config.ridge_scales, config.c_grid):
            hits = round(4 * accuracy(tuple(features), point))
            curves = {("a", i): ["a" if i < hits else "b"] for i in range(4)}
            if visit(point, [(curves, None) for _ in contexts]):
                return
        yield from ()
    return scan


@pytest.mark.parametrize("case", ["all tie", "one point better", "one point", "elimination breaks the tie"])
def test_tuning_that_ties_at_every_grid_point_says_so(case, caplog):
    contexts = [evaluate._Context(fold_id=name, table=None, stats=None, train=None, groups={}, fits={})
                for name in ("t00/t01", "t00/t03")]
    config = dataclasses.replace(QUICK, lambda_grid=(1e-2, 1e-1), c_grid=(0.1, 1.0))
    accuracy = {
        "all tie": lambda features, point: 0.5,
        "one point better": lambda features, point: 0.75 if point[2] == 1.0 else 0.5,
        "one point": lambda features, point: 0.5,
        "elimination breaks the tie": lambda features, point: 0.5 if len(features) == 3 or point[0] == 1e-2 else 0.75,
    }[case]
    if case == "one point":
        config = dataclasses.replace(config, lambda_grid=(1e-2,), c_grid=(1.0,))
    if case == "elimination breaks the tie":
        config = dataclasses.replace(config, feature_elimination=True)
    with caplog.at_level(logging.WARNING, logger="scanfisher.evaluate"):
        [tuned] = evaluate._lockstep([evaluate._tune(contexts, config, ("bias", "f1", "f2"), _fake_scan(accuracy))])
    warned = [r.getMessage() for r in caplog.records if r.name == "scanfisher.evaluate"]
    if case == "all tie":
        assert (tuned.lam, tuned.C, tuned.inner_accuracy) == (1e-2, 0.1, 0.5)
        assert warned == ["inner tuning on t00/t01, t00/t03 ties at accuracy 0.500 at every grid point, so it takes "
                          "the first; tied (lambda, ridge scale, C): (0.01, 1e-06, 0.1), (0.01, 1e-06, 1), "
                          "(0.1, 1e-06, 0.1), (0.1, 1e-06, 1)"]
    else:
        assert warned == []
    if case == "elimination breaks the tie":
        assert (tuned.lam, tuned.C, tuned.keep, tuned.inner_accuracy) == (1e-1, 0.1, (0, 2), 0.75)


# ---------------------------------------------------------------------------
# saturation stops against the full-scan tuners


def _random_tuning_case(seed):
    """A small identification or comprehension dataset with a random grid.

    The lambda grid has one or two values and the C grid two or three, in a
    random order; elimination is on.
    """
    rng = np.random.default_rng(seed)
    identification = rng.random() < 0.5
    dataset = ReadingDataset.from_synth(gen_dataset(SynthConfig(
        num_readers=3 if identification else 8, num_texts=int(rng.integers(3, 5)) if identification else 4,
        lines_per_text=2, words_per_line=10, min_fixations=6, max_fixations=10,
        sigma_reader=float(rng.choice([0.3, 0.5, 1.0])), seed=seed)))
    if not identification:
        dataset.scanpaths = [dataclasses.replace(sp, label=int(sp.reader_id[1:]) % 2) for sp in dataset.scanpaths]
    c_grid = tuple(rng.permutation([0.1, 1.0, 10.0])[:int(rng.integers(2, 4))].tolist())
    config = PipelineConfig(
        lambda_grid=tuple(rng.permutation([1e-2, 1e-1])[:int(rng.integers(1, 3))].tolist()),
        c_grid=c_grid, ridge_scales=(1e-6,), inner_folds=1, feature_elimination=True,
        run_generative_baseline=identification)
    return (loto_cv if identification else binary_comprehension_eval), dataset, config


def test_saturation_stops_choose_what_the_full_scan_chooses(monkeypatch):
    # _tune stops at inner accuracy 1.0, over the SVM grid and over the
    # baseline's lambdas; tune_reference scans everything.  Every choice of
    # either tuner, and so every report, must be the same.
    kernel_stages = {"stop": 0, "full": 0}
    solves = {"stop": 0, "full": 0}
    choices = {"stop": [], "full": []}
    real_kernel_stage = evaluate._kernel_stage
    real_solve = svm.solve_dual

    def counted(stage, ridge_scale):
        kernel_stages[side] += 1
        return real_kernel_stage(stage, ridge_scale)

    def solve_counted(problem, labels, C, **kwargs):
        solves[side] += 1
        return real_solve(problem, labels, C, **kwargs)

    # _tune serves the SVMs and the baseline, told apart by the scan it gets;
    # the oracles take the SVM scan's decision rule and train with
    # train_multiclass, and the baseline's oracle picks lambda alone, at the
    # first ridge scale and C with every feature
    real_tune, real_svm_scan = evaluate._tune, evaluate._svm_scan
    rules = {}

    def svm_scan(decide):
        scan = real_svm_scan(decide)
        rules[scan] = decide
        return scan

    def train(stage, kernels, C, previous):
        return evaluate.train_multiclass(kernels.problem, stage.labels, C, previous=previous)

    def full_baseline(contexts, config, layout, scan):
        lam = yield from tune_baseline_full_scan(contexts, config)
        return evaluate._Tuned(lam=lam, ridge_scale=config.ridge_scales[0],
                               C=config.c_grid[0], keep=tuple(range(len(layout))), inner_accuracy=None)

    def full_svm(contexts, config, layout, scan):
        return (yield from tune_full_scan(contexts, config, layout, train, rules[scan]))

    def recorded(tune, tune_baseline):
        # folds run in lockstep and tuners that scan more finish later, so a
        # choice is recorded in the order the tunings start
        def choose(contexts, config, layout, scan):
            at = len(choices[side])
            choices[side].append(None)
            if scan is evaluate._baseline_scan:
                tuned = yield from tune_baseline(contexts, config, layout, scan)
                choices[side][at] = tuned.lam
            else:
                tuned = yield from tune(contexts, config, layout, scan)
                choices[side][at] = tuned
            return tuned
        return choose

    monkeypatch.setattr(evaluate, "_kernel_stage", counted)
    monkeypatch.setattr(svm, "solve_dual", solve_counted)
    monkeypatch.setattr(evaluate, "_svm_scan", svm_scan)
    tuners = {"stop": (real_tune, real_tune), "full": (full_svm, full_baseline)}
    for seed in (0, 4, 6, 7, 8, 9, 11, 12, 18, 20, 23, 44):
        experiment, dataset, config = _random_tuning_case(seed)
        reports = {}
        for side, (tune, tune_baseline) in tuners.items():
            monkeypatch.setattr(evaluate, "_tune", recorded(tune, tune_baseline))
            reports[side] = experiment(dataset, config).to_dict()
        assert reports["stop"] == reports["full"], seed
    assert choices["stop"] == choices["full"]
    # saturated and unsaturated folds, eliminations down to the bias alone
    # and none, both lambdas chosen by both tuners (the baseline saturates at
    # the first lambda in seed 12 and finds a better second one in seed 44)
    tuned = [c for c in choices["stop"] if isinstance(c, evaluate._Tuned)]
    assert {t.inner_accuracy == 1.0 for t in tuned} == {True, False}
    assert {len(t.keep) for t in tuned} == {1, 2, 3, 4}
    assert {t.lam for t in tuned} == {1e-2, 1e-1}
    assert {c for c in choices["stop"] if not isinstance(c, evaluate._Tuned)} == {1e-2, 1e-1}
    assert kernel_stages["stop"] < kernel_stages["full"]
    assert solves["stop"] < solves["full"], solves


# ---------------------------------------------------------------------------
# reuse along the C grid


C_PATH = dataclasses.replace(QUICK, c_grid=(10.0, 0.1, 1.0), run_generative_baseline=False)


def _same_svm(a, b):
    """Both models are the optimum at one C: the same zeros and C bounds, alpha and bias to rounding."""
    return (a.C == b.C and np.array_equal(a.y, b.y)
            and np.array_equal(a.alpha == 0, b.alpha == 0) and np.array_equal(a.alpha == a.C, b.alpha == b.C)
            and np.allclose(a.alpha, b.alpha, rtol=0, atol=1e-8 * a.C) and abs(a.bias - b.bias) <= 1e-8)


def test_two_class_training_solves_the_last_class_and_mirrors_the_first(monkeypatch):
    # class 0 against the rest is class 1's dual with every label negated, so
    # train_multiclass solves once and mirrors that solution
    rng = np.random.default_rng(6)
    order = rng.permutation(16)
    X = (rng.normal(0, 1, (16, 4)) + np.repeat([[2.0, 0, 0, 0], [-2.0, 0, 0, 0]], 8, axis=0))[order]
    problem, rows = KernelProblem(X @ X.T), rng.normal(0, 1, (5, 4)) @ X.T
    labels = [["a", "b"][i // 8] for i in order]
    y_last = np.where(np.array(labels) == "b", 1.0, -1.0)
    solved = []
    real_solve = svm.solve_dual

    def counted(problem, labels, C, **kwargs):
        solved.append(labels)
        return real_solve(problem, labels, C, **kwargs)

    monkeypatch.setattr(svm, "solve_dual", counted)
    previous, reused = None, 0
    for C in (0.01, 10.0, 100.0):
        solved.clear()
        mc = svm.train_multiclass(problem, labels, C, previous=previous)
        first, last = mc.models
        if previous is not None and previous.models[1].reused_at(C) is not None:
            # reused_at carries the mirrored model along C
            reused += 1
            assert solved == [] and first.alpha is previous.models[0].alpha and first.C == last.C == C
        else:
            assert len(solved) == 1 and np.array_equal(solved[0], y_last)
            oracle = real_solve(problem, y_last, C)
            assert all(np.array_equal(getattr(last, name), getattr(oracle, name)) for name in (
                "alpha", "y", "bias", "C", "support", "kkt_violation", "n_iterations", "converged"))
        assert first.alpha is last.alpha and first.support is last.support and first.converged == last.converged
        assert np.array_equal(first.y, -last.y) and first.bias == -last.bias
        assert np.array_equal(first.decision_values(rows), -last.decision_values(rows))
        assert _same_svm(first, real_solve(problem, -y_last, C))
        previous = mc
    assert reused == 1


def test_c_grid_reuse_matches_fresh_training_in_both_tuners(small_dataset, monkeypatch):
    # The tuners hand each fit the context's model at a smaller C; every
    # model so obtained must be the optimum a fresh fit at its C finds.
    carried = []
    real_multiclass = evaluate.train_multiclass

    def checked_multiclass(problem, labels, C, previous=None):
        mc = real_multiclass(problem, labels, C, previous=previous)
        fresh = real_multiclass(problem, labels, C)
        assert mc.classes == fresh.classes and mc.C == fresh.C
        assert all(_same_svm(a, b) for a, b in zip(mc.models, fresh.models))
        if previous is not None:
            carried.extend(m.alpha is old.alpha for m, old in zip(mc.models, previous.models))
        return mc

    monkeypatch.setattr(evaluate, "train_multiclass", checked_multiclass)
    loto_cv(small_dataset, C_PATH)
    assert any(carried)
    carried.clear()
    binary_comprehension_eval(_comprehension_dataset(seed=101, num_readers=8), C_PATH)
    assert any(carried)


def test_each_kernel_stage_checks_its_gram_once(small_dataset, monkeypatch):
    # the training Gram is checked and PSD-factored when _kernel_stage builds
    # its KernelProblem; every C and every class then solve on that problem
    counts = {"stages": 0, "trainings": 0, "solves": 0, "built": 0, "built_in_training": 0}
    training = []
    real_init, real_stage = svm.KernelProblem.__init__, evaluate._kernel_stage
    real_multiclass, real_solve = evaluate.train_multiclass, svm.solve_dual

    def init(self, gram):
        counts["built"] += 1
        counts["built_in_training"] += bool(training)
        real_init(self, gram)

    def stage(*args):
        counts["stages"] += 1
        return real_stage(*args)

    def multiclass(*args, **kwargs):
        counts["trainings"] += 1
        training.append(True)
        try:
            return real_multiclass(*args, **kwargs)
        finally:
            training.pop()

    def solve(*args, **kwargs):
        counts["solves"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(svm.KernelProblem, "__init__", init)
    monkeypatch.setattr(evaluate, "_kernel_stage", stage)
    monkeypatch.setattr(evaluate, "train_multiclass", multiclass)
    monkeypatch.setattr(svm, "solve_dual", solve)
    loto_cv(small_dataset, C_PATH)
    assert counts["built"] == counts["stages"] > 0 and counts["built_in_training"] == 0
    assert counts["solves"] > counts["trainings"] > counts["stages"], counts


# ---------------------------------------------------------------------------
# folds in lockstep


def _model_bytes(models):
    return b"".join(np.asarray(part).tobytes() for params in models
                    for block in ("pi", "alpha", "beta", "gamma", "delta") for part in getattr(params, block))


def test_lockstep_folds_report_and_fit_what_folds_run_one_by_one_do(small_dataset, monkeypatch, tmp_path):
    # identification with the baseline, two lambdas, two inner splits and
    # elimination; then comprehension, whose folds tune one inner split each
    config = dataclasses.replace(ELIMINATION, lambda_grid=(1e-2, 1e-1), inner_folds=2,
                                 run_generative_baseline=True)
    real_serve, real_fit_model, real_build_context = evaluate._serve, evaluate.fit_model, evaluate._build_context
    folds_of = collections.defaultdict(set)   # id of a fits dict -> the outer folds whose contexts use it
    fitted, steps = [], []

    def build_context(dataset, table, plan, shared=None):
        ctx = real_build_context(dataset, table, plan, shared)
        folds_of[id(ctx.fits)].add(plan.fold_id.split("/")[0])
        return ctx

    def fit_counted(events, lam, sizes=None):
        steps[-1]["calls"] += 1
        return real_fit_model(events, lam, sizes)

    def record(request):
        fitted.append((id(request.fits), request.key, request.lam, tuple(request.sizes), request.batch.amp.tobytes(),
                       request.batch.w_land.tobytes(), _model_bytes(request.fits[request.key])))

    def serve(requests):
        steps.append({"calls": 0, "folds": set().union(*(folds_of[id(r.fits)] for r in requests))})
        real_serve(requests)
        for request in requests:
            record(request)

    def serve_each_alone(runs):
        """The folds as they ran before lockstep: each run to its end in turn, each fit by its own call."""
        results = []
        for run in runs:
            try:
                requests = run.send(None)
                while True:
                    for request in requests:
                        request.fits[request.key] = [outcome.params for outcome in
                                                     fit_model(request.batch, request.lam, request.sizes)]
                        record(request)
                    requests = run.send(None)
            except StopIteration as stop:
                results.append(stop.value)
        return results

    monkeypatch.setattr(evaluate, "_build_context", build_context)
    monkeypatch.setattr(evaluate, "fit_model", fit_counted)
    monkeypatch.setattr(evaluate, "_serve", serve)
    for experiment, dataset in ((loto_cv, small_dataset),
                                (binary_comprehension_eval, _comprehension_dataset(seed=101, num_readers=8))):
        fits = {}
        for serving in ("lockstep", "alone"):
            fitted.clear()
            steps.clear()
            with monkeypatch.context() as patched:
                if serving == "alone":
                    patched.setattr(evaluate, "_lockstep", serve_each_alone)
                write_report_json(tmp_path / f"{serving}.json", experiment(dataset, config))
            # each training set and key is fitted once
            assert len({(fits_id, key) for fits_id, key, *_ in fitted}) == len(fitted)
            fits[serving] = collections.Counter(tuple(entry[1:]) for entry in fitted)
            if serving == "lockstep":
                # a step's fits of one feature count, from several folds, are one fit_model call
                assert any(step["calls"] == 1 and len(step["folds"]) >= 2 for step in steps)
                assert sum(step["calls"] for step in steps) < len(fitted)
        # the same report bytes, and the same fits, every model bit for bit
        assert (tmp_path / "lockstep.json").read_bytes() == (tmp_path / "alone.json").read_bytes()
        assert fits["lockstep"] == fits["alone"]


# ---------------------------------------------------------------------------
# report output


def test_report_serialization(tmp_path, small_dataset):
    report = loto_cv(small_dataset, QUICK)
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    write_report_json(json_path, report, provenance={"seed": 0})
    write_report_csv(csv_path, report, provenance_comment="test run")
    payload = read_json(json_path)
    assert payload["mode"] == "identification"
    assert payload["_provenance"] == {"seed": 0}
    text = csv_path.read_text()
    assert text.startswith("# test run\n")
    lines = text.strip().splitlines()
    expected_rows = sum(len(f.accuracy_by_lines) for f in report.folds)
    assert len(lines) == 2 + expected_rows
    summary = summarize_report(payload)
    assert "identification" in summary
    assert "accuracy" in summary
