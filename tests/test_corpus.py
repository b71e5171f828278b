import json
import math

import numpy as np
import pytest

from scanfisher.corpus import (
    BASE_LAYOUT,
    CorpusError,
    FrequencyTable,
    NormStats,
    Text,
    Word,
    compute_features,
    estimate_syllables,
    load_frequency_table,
    load_texts,
    raw_feature_matrix,
    save_frequency_table,
    save_texts,
    text_from_dict,
)


def _write_text(tmp_path, obj, name="text.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


MINIMAL = {
    "text_id": "t0",
    "lines": [[
        {"token": "The", "start": 0, "end": 3},
        {"token": "cat", "start": 4, "end": 7},
    ]],
}


def test_load_minimal_text(tmp_path):
    [text] = load_texts(_write_text(tmp_path, MINIMAL))
    assert text.text_id == "t0"
    assert text.num_words == 2
    assert text.lines[0][1].token == "cat"
    assert text.line_extent(0) == 7


def test_overlapping_spans_rejected(tmp_path):
    bad = {
        "text_id": "t0",
        "lines": [[
            {"token": "ab", "start": 0, "end": 3},
            {"token": "cd", "start": 2, "end": 5},
        ]],
    }
    with pytest.raises(CorpusError, match="overlapping word spans"):
        load_texts(_write_text(tmp_path, bad))


def test_error_messages_name_line_and_word(tmp_path):
    bad = {
        "text_id": "tx",
        "lines": [
            [{"token": "ok", "start": 0, "end": 2}],
            [{"token": "ok", "start": 0, "end": 2}, {"token": "", "start": 3, "end": 4}],
        ],
    }
    with pytest.raises(CorpusError, match="line 1 word 1"):
        load_texts(_write_text(tmp_path, bad))


def test_empty_line_rejected(tmp_path):
    bad = {"text_id": "t0", "lines": [[]]}
    with pytest.raises(CorpusError, match="empty line"):
        load_texts(_write_text(tmp_path, bad))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(CorpusError, match="malformed JSON"):
        load_texts(path)


def test_inverted_span_rejected():
    with pytest.raises(CorpusError):
        Word("x", 5, 5, 1)


def test_texts_round_trip(tmp_path):
    text = text_from_dict(MINIMAL)
    path = tmp_path / "texts.json"
    save_texts(path, [text, Text("t1", ((Word("a", 0, 1, 1),),))])
    loaded = load_texts(path)
    assert [t.text_id for t in loaded] == ["t0", "t1"]
    assert loaded[0].lines[0][0].token == "The"


def test_syllable_estimation():
    assert estimate_syllables("banana") == 3
    assert estimate_syllables("strength") == 1
    assert estimate_syllables("aia") == 1
    assert estimate_syllables("zzz") == 1  # floor for vowel-less tokens


def test_paper_scale_corpus_loads(tmp_path):
    # 12 texts averaging ~158 words, like the stimulus set the defaults mimic
    from scanfisher.synth import SynthConfig, gen_corpus

    texts, freq = gen_corpus(SynthConfig(seed=3))
    assert len(texts) == 12
    counts = [t.num_words for t in texts]
    assert all(100 <= c <= 200 for c in counts)
    assert abs(np.mean(counts) - 158) < 25

    path = tmp_path / "corpus.json"
    save_texts(path, texts)
    loaded = load_texts(path)
    assert sum(t.num_words for t in loaded) == sum(counts)


# ---------------------------------------------------------------------------
# frequency table


def test_frequency_floor_and_log():
    table = FrequencyTable(counts={}, total=10**6)
    # an unknown token counts as 1; in a million-token corpus, log fpm = log(1) = 0
    assert table.log_per_million("cat") == 0.0
    table2 = FrequencyTable(counts={"cat": 100}, total=10**6)
    assert table2.per_million("cat") == 100.0


def test_frequency_table_round_trip(tmp_path):
    table = FrequencyTable(counts={"a": 5, "b": 0}, total=1000)
    path = tmp_path / "freq.tsv"
    save_frequency_table(path, table)
    loaded = load_frequency_table(path)
    assert loaded.total == 1000
    assert loaded.counts["a"] == 5
    # explicit zero count behaves like an unknown token (floored)
    assert loaded.per_million("b") == loaded.per_million("nope")


def test_frequency_table_requires_total(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text("a\t5\n")
    with pytest.raises(CorpusError, match="#total"):
        load_frequency_table(path)


# ---------------------------------------------------------------------------
# feature computation


def _three_word_text():
    return Text(
        "t0",
        ((
            Word("aa", 0, 2, 1),
            Word("bbbb", 3, 7, 2),
            Word("cccccccc", 8, 16, 1, frozenset({"term"})),
        ),),
    )


def test_zscores_match_hand_oracle():
    text = _three_word_text()
    freq = FrequencyTable(counts={"aa": 100, "bbbb": 10, "cccccccc": 1}, total=1000)
    feats, stats = compute_features([text], freq)

    # oracle: plain-python recomputation of the 3 z-scored columns
    raw = []
    for w in text.lines[0]:
        raw.append([
            math.log(1e6 * max(freq.counts[w.token], 1) / 1000),
            math.log(len(w.token)),
            math.log(w.syllables),
        ])
    raw = np.array(raw)
    expect = (raw - raw.mean(axis=0)) / raw.std(axis=0)

    got = feats[0].lines[0]
    assert got.shape == (3, 5)  # bias + 3 z-scored + 1 flag
    np.testing.assert_allclose(got[:, 1:4], expect, atol=1e-12)
    np.testing.assert_array_equal(got[:, 0], 1.0)
    np.testing.assert_array_equal(got[:, 4], [0.0, 0.0, 1.0])


def test_zero_variance_component_emitted_as_zero():
    text = Text("t0", ((Word("aa", 0, 2, 1), Word("bb", 3, 5, 1)),))
    freq = FrequencyTable(counts={"aa": 7, "bb": 7}, total=100)
    feats, stats = compute_features([text], freq)
    rows = feats[0].lines[0]
    # identical frequency, length, and syllables: all z columns collapse to 0
    np.testing.assert_array_equal(rows[:, 1:4], 0.0)
    assert rows.shape[1] == len(BASE_LAYOUT)


def test_training_zscores_are_standardized():
    from scanfisher.synth import SynthConfig, gen_corpus

    texts, freq = gen_corpus(SynthConfig(num_texts=4, seed=11))
    feats, stats = compute_features(texts, freq)
    stacked = np.concatenate([np.concatenate(f.lines, axis=0) for f in feats], axis=0)
    for j in np.flatnonzero(stats.z_scored):
        if stats.std[j] > 0:
            assert abs(stacked[:, j].mean()) < 1e-9
            assert abs(stacked[:, j].std() - 1.0) < 1e-9
    np.testing.assert_array_equal(stacked[:, 0], 1.0)


def test_reusing_stats_is_idempotent_and_keeps_m_stable():
    train = _three_word_text()
    freq = FrequencyTable(counts={"aa": 100}, total=1000)
    _, stats = compute_features([train], freq)

    # test-time text carries an unseen flag: ignored, M unchanged
    test_text = Text(
        "t9",
        ((Word("zz", 0, 2, 1, frozenset({"unseen-flag"})), Word("aa", 3, 5, 1)),),
    )
    first, _ = compute_features([test_text], freq, stats)
    second, _ = compute_features([test_text], freq, stats)
    assert first[0].lines[0].shape[1] == stats.num_features
    np.testing.assert_array_equal(first[0].lines[0], second[0].lines[0])


def test_norm_stats_serialization_round_trip():
    text = _three_word_text()
    freq = FrequencyTable(counts={"aa": 100}, total=1000)
    _, stats = compute_features([text], freq)
    restored = NormStats.from_dict(stats.to_dict())
    assert restored.layout == stats.layout
    np.testing.assert_array_equal(restored.mean, stats.mean)
    np.testing.assert_array_equal(restored.std, stats.std)
    assert restored.source_text_ids == stats.source_text_ids
