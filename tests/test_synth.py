import numpy as np
import pytest

from scanfisher.corpus import compute_features
from scanfisher.synth import (
    SynthConfig,
    SynthError,
    default_base_params,
    gen_corpus,
    gen_dataset,
    gen_readers,
)


SMALL = SynthConfig(num_readers=3, num_texts=4, lines_per_text=2, words_per_line=8,
                    min_fixations=5, max_fixations=9, seed=42)


def test_config_validation():
    with pytest.raises(SynthError):
        SynthConfig(num_readers=0)
    with pytest.raises(SynthError):
        SynthConfig(sigma_reader=-0.1)
    with pytest.raises(SynthError):
        SynthConfig(min_fixations=1)


def test_corpus_deterministic_under_seed():
    texts_a, freq_a = gen_corpus(SMALL)
    texts_b, freq_b = gen_corpus(SMALL)
    assert texts_a == texts_b
    assert freq_a.counts == freq_b.counts
    texts_c, _ = gen_corpus(SynthConfig(**{**SMALL.to_dict(), "seed": 43}))
    assert texts_c != texts_a


def test_corpus_word_lengths_and_structure():
    texts, freq = gen_corpus(SMALL)
    assert len(texts) == 4
    for text in texts:
        assert len(text.lines) == 2
        for line in text.lines:
            for word in line:
                assert 2 <= len(word.token) <= 12
                assert word.syllables >= 1


def test_zipf_frequencies():
    texts, freq = gen_corpus(SynthConfig(vocab_size=500, seed=1))
    counts = np.array(sorted(freq.counts.values(), reverse=True), dtype=float)
    ranks = np.arange(1, len(counts) + 1, dtype=float)
    # log-log regression slope of count vs rank (oracle: least squares)
    keep = counts > 1  # rounding floor flattens the deep tail
    slope, _ = np.polyfit(np.log(ranks[keep]), np.log(counts[keep]), 1)
    assert abs(slope + 1.0) < 0.15


def test_readers_sigma_zero_identical():
    readers = gen_readers(SynthConfig(**{**SMALL.to_dict(), "sigma_reader": 0.0}))
    for r in readers[1:]:
        np.testing.assert_array_equal(r.pi, readers[0].pi)
        np.testing.assert_array_equal(r.alpha, readers[0].alpha)
        np.testing.assert_array_equal(r.delta, readers[0].delta)


def test_readers_pi_stays_on_simplex():
    readers = gen_readers(SynthConfig(**{**SMALL.to_dict(), "sigma_reader": 0.6}))
    for r in readers:
        assert np.all(r.pi >= 0)
        assert r.pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_reader_separation_grows_with_sigma():
    def mean_pairwise_distance(sigma, seed):
        cfg = SynthConfig(**{**SMALL.to_dict(), "sigma_reader": sigma, "seed": seed,
                             "num_readers": 6})
        readers = gen_readers(cfg)
        dists = []
        for i in range(len(readers)):
            for j in range(i + 1, len(readers)):
                d = 0.0
                for name in ("alpha", "beta", "gamma", "delta"):
                    d += float(np.sum((getattr(readers[i], name) - getattr(readers[j], name)) ** 2))
                dists.append(np.sqrt(d))
        return float(np.mean(dists))

    # Monte Carlo over seeds: separation is monotone in sigma on average
    for seed in range(3):
        d_small = mean_pairwise_distance(0.1, seed)
        d_mid = mean_pairwise_distance(0.3, seed)
        d_large = mean_pairwise_distance(0.6, seed)
        assert d_small < d_mid < d_large


def test_dataset_row_count_is_cartesian_product():
    ds = gen_dataset(SMALL)
    assert len(ds.scanpaths) == 3 * 4 * 2
    assert ds.reader_ids == ["r00", "r01", "r02"]
    labels = {sp.label for sp in ds.scanpaths}
    assert labels == set(ds.reader_ids)


def test_dataset_deterministic_under_seed():
    a = gen_dataset(SMALL)
    b = gen_dataset(SMALL)
    assert a.scanpaths == b.scanpaths


def test_dataset_with_flag_features():
    cfg = SynthConfig(num_readers=2, num_texts=3, lines_per_text=2, words_per_line=8,
                      num_flags=2, min_fixations=5, max_fixations=8, seed=13)
    ds = gen_dataset(cfg)
    feats, stats = compute_features(ds.texts, ds.freq)
    assert stats.num_features == cfg.num_features == 6
    assert stats.layout[-2:] == ("flag:f0", "flag:f1")
    assert ds.reader_params[0].num_features == 6


def test_default_base_params_plausible():
    params = default_base_params(4)
    assert params.pi.sum() == pytest.approx(1.0)
    # next-word saccades are the most common type
    assert params.pi.argmax() == 2
    # mean amplitude of a skip exceeds a refixation's
    skip_mean = np.exp(params.alpha[3, 0]) * np.exp(params.beta[3, 0])
    refix_mean = np.exp(params.alpha[0, 0]) * np.exp(params.beta[0, 0])
    assert skip_mean > refix_mean
