import json
import logging
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanfisher.corpus import FrequencyTable, Text, Word, compute_features
from scanfisher.events import (
    EventBatch,
    Scanpath,
    ScanpathError,
    _saccade_types,
    classify_saccade,
    extract_events,
    load_scanpaths,
    save_scanpaths,
    word_at,
)


def _line_text(spans):
    words = tuple(Word(f"w{i}" * max(1, (e - s) // 2), s, e, 1) for i, (s, e) in enumerate(spans))
    return Text("t0", (words,))


TEXT = _line_text([(0, 3), (4, 7), (8, 13), (14, 20)])


def _features(text):
    freq = FrequencyTable(counts={}, total=1000)
    feats, _ = compute_features([text], freq)
    return feats[0]


def test_word_at_inside_span():
    assert word_at(TEXT, 0, 5) == 1


def test_word_at_whitespace_maps_to_preceding_word():
    assert word_at(TEXT, 0, 3) == 0
    assert word_at(TEXT, 0, 7) == 1


def test_word_at_out_of_bounds():
    with pytest.raises(ScanpathError, match="outside"):
        word_at(TEXT, 0, 20)
    with pytest.raises(ScanpathError):
        word_at(TEXT, 0, -1)


def test_word_at_matches_linear_scan_oracle():
    rng = np.random.default_rng(5)
    spans = []
    pos = int(rng.integers(0, 3))
    for _ in range(12):
        width = int(rng.integers(1, 9))
        spans.append((pos, pos + width))
        pos += width + int(rng.integers(1, 4))
    text = _line_text(spans)

    def oracle(q):
        last = 0
        for idx, (s, e) in enumerate(spans):
            if s <= q < e:
                return idx
            if q >= e:
                last = idx
        return last

    extent = spans[-1][1]
    for q in rng.uniform(0, extent - 1e-9, size=1000):
        assert word_at(text, 0, q) == oracle(q)


@given(
    gaps=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 3)), min_size=1, max_size=10),
    fraction=st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=60, deadline=None)
def test_word_at_property_against_scan(gaps, fraction):
    spans = []
    pos = 0
    for width, gap in gaps:
        spans.append((pos, pos + width))
        pos += width + gap
    text = _line_text(spans)
    extent = spans[-1][1]
    q = fraction * extent
    idx = word_at(text, 0, q)
    start, end = spans[idx]
    # either inside the word, or in the gap right after it (preceding-word rule)
    if start <= q < end:
        pass
    else:
        assert q >= end
        assert idx == len(spans) - 1 or q < spans[idx + 1][0]


@pytest.mark.parametrize(
    "q_from,q_to,expected",
    [
        (5, 4, 1),    # same word, moving left
        (4, 6, 2),    # same word, moving right
        (5, 5, 2),    # zero move counts as forward refixation
        (0, 5, 3),    # next word
        (0, 9, 4),    # skip one word
        (0, 15, 4),   # skip two words
        (15, 1, 5),   # regression
        (15, 9, 5),
    ],
)
def test_classify_saccade(q_from, q_to, expected):
    assert classify_saccade(TEXT, 0, q_from, q_to) == expected


def test_extract_two_fixations_yield_one_event():
    feats = _features(TEXT)
    sp = Scanpath("r", "t0", 0, ((0.0, 200.0), (5.0, 180.0)))
    batch = extract_events(sp, TEXT, feats)
    assert len(batch) == 1
    assert batch.u.tolist() == [3]
    assert batch.amp.tolist() == [5.0]
    assert batch.dur.tolist() == [180.0]
    np.testing.assert_array_equal(batch.w_launch, feats.lines[0][[0]])
    np.testing.assert_array_equal(batch.w_land, feats.lines[0][[1]])


def test_extract_clamps_zero_amplitude():
    feats = _features(TEXT)
    sp = Scanpath("r", "t0", 0, ((5.0, 200.0), (5.0, 150.0)))
    batch = extract_events(sp, TEXT, feats)
    assert batch.u.tolist() == [2]
    assert batch.amp.tolist() == [0.5]


def test_extract_event_count_and_sign_consistency():
    """Every column equals the per-pair scalar path, exactly."""
    feats = _features(TEXT)
    rows = feats.lines[0]
    rng = np.random.default_rng(9)
    extent = TEXT.line_extent(0)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        qs = rng.uniform(0, extent - 1e-6, size=n)
        if rng.random() < 0.5:
            qs[1] = min(qs[0] + 0.25, extent - 1e-6)  # a sub-floor move
        fixations = tuple((float(q), float(rng.uniform(50, 400))) for q in qs)
        sp = Scanpath("r", "t0", 0, fixations)
        batch = extract_events(sp, TEXT, feats)
        assert len(batch) == batch.n == n - 1
        assert batch.num_features == rows.shape[1]
        for t, ((q0, _), (q1, d1)) in enumerate(zip(fixations, fixations[1:])):
            u = classify_saccade(TEXT, 0, q0, q1)
            a = q1 - q0
            if abs(a) < 0.5:
                a = 0.5 if u in (2, 3, 4) else -0.5
            # forward types move right (or not at all), backward types left
            assert (a > 0) == (u in (2, 3, 4))
            assert batch.u[t] == u
            assert batch.amp[t] == abs(a)
            assert batch.dur[t] == d1
            np.testing.assert_array_equal(batch.w_launch[t], rows[word_at(TEXT, 0, q0)])
            np.testing.assert_array_equal(batch.w_land[t], rows[word_at(TEXT, 0, q1)])


def _scan_word(spans, q):
    """Word of position q by a linear scan: inside a span, else the last span ending at or before q."""
    last = 0
    for idx, (s, e) in enumerate(spans):
        if s <= q < e:
            return idx
        if q >= e:
            last = idx
    return last


def _scan_type(w_from, w_to, q_from, q_to):
    if w_to == w_from:
        return 1 if q_to < q_from else 2
    return 3 if w_to == w_from + 1 else 4 if w_to > w_from else 5


def _select_types(w_from, w_to, q_from, q_to):
    """The saccade types as `np.select` over the four rules, the form the lookup replaced."""
    same = w_to == w_from
    return np.select(
        [same & (q_to < q_from), same, w_to == w_from + 1, w_to >= w_from + 2],
        [1, 2, 3, 4],
        default=5,
    )


def test_saccade_types_equal_the_select_form():
    steps = np.arange(-3, 4)
    w_from = np.full(2 * steps.size, 5)
    w_to = w_from + np.concatenate([steps, steps])
    q_from = np.concatenate([np.full(steps.size, 20.0), np.full(steps.size, 21.0)])
    q_to = np.full(2 * steps.size, 20.5)   # both position orders at every word step
    types = _saccade_types(w_from, w_to, q_from, q_to)
    assert types.dtype == np.int64
    assert types.tolist() == _select_types(w_from, w_to, q_from, q_to).tolist()
    assert set(types.tolist()) == {1, 2, 3, 4, 5}
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        words = rng.integers(0, 12, n)
        q = words * 6.0 + rng.uniform(0, 5, n)
        types = _saccade_types(words[:-1], words[1:], q[:-1], q[1:])
        assert types.tolist() == _select_types(words[:-1], words[1:], q[:-1], q[1:]).tolist()


def test_extract_types_and_rows_match_linear_scan_oracle():
    rng = np.random.default_rng(11)
    lines = []
    for li in range(3):
        spans, pos = [], int(rng.integers(0, 3))
        for _ in range(int(rng.integers(1, 9))):
            width = int(rng.integers(1, 7))
            spans.append((pos, pos + width))
            pos += width + int(rng.integers(1, 4))
        lines.append(spans)
    text = Text("t0", tuple(
        tuple(Word(f"w{i}", s, e, 1) for i, (s, e) in enumerate(spans)) for spans in lines
    ))
    feats = _features(text)
    for line_id, spans in enumerate(lines):
        extent = spans[-1][1]
        # word starts, word ends and whitespace positions, plus random ones
        edges = [float(v) for span in spans for v in span if v < extent]
        for _ in range(20):
            qs = rng.choice(np.concatenate([edges, rng.uniform(0, extent, 8)]), size=int(rng.integers(2, 9)))
            sp = Scanpath("r", "t0", line_id, tuple((float(q), 100.0) for q in qs))
            batch = extract_events(sp, text, feats)
            words = [_scan_word(spans, q) for q in qs]
            types = [_scan_type(w0, w1, q0, q1) for w0, w1, q0, q1 in zip(words, words[1:], qs, qs[1:])]
            assert batch.u.tolist() == types
            np.testing.assert_array_equal(batch.w_launch, feats.lines[line_id][words[:-1]])
            np.testing.assert_array_equal(batch.w_land, feats.lines[line_id][words[1:]])


def test_extract_names_the_first_position_outside_the_line():
    feats = _features(TEXT)
    sp = Scanpath("r", "t0", 0, ((1.0, 100.0), (25.5, 100.0), (30.0, 100.0)))
    with pytest.raises(ScanpathError, match=r"^text 't0' line 0: position 25.5 outside \[0, 20\)$"):
        extract_events(sp, TEXT, feats)
    with pytest.raises(ScanpathError, match=r"^text 't0': no line 3$"):
        extract_events(Scanpath("r", "t0", 3, ((1.0, 100.0), (2.0, 100.0))), TEXT, feats)
    with pytest.raises(ScanpathError, match=r"position 20 outside \[0, 20\)$"):
        classify_saccade(TEXT, 0, 20, 25)


def test_short_scanpath_warns_and_returns_empty(caplog):
    feats = _features(TEXT)
    sp = Scanpath("r", "t0", 0, ((1.0, 100.0),))
    with caplog.at_level(logging.WARNING):
        batch = extract_events(sp, TEXT, feats)
    assert len(batch) == 0
    assert batch.u.dtype == np.int64
    assert batch.w_launch.shape == batch.w_land.shape == (0, feats.lines[0].shape[1])
    assert "no events extracted" in caplog.text


def test_scanpath_validation():
    with pytest.raises(ScanpathError):
        Scanpath("r", "t", 0, ((0.0, 0.0),))  # non-positive duration
    with pytest.raises(ScanpathError):
        Scanpath("r", "t", 0, ((-1.0, 10.0),))


@pytest.mark.parametrize("label", [[0], {"a": 1}, (0, 1), {0}, b"r1", 1j, Decimal("1")])
def test_scanpath_label_must_be_a_scalar(label):
    with pytest.raises(ScanpathError, match=r"^label .* is not a string, number or boolean$"):
        Scanpath("r", "t", 0, ((0.0, 10.0),), label=label)


@pytest.mark.parametrize("label", ["r1", 0, 1.5, True, None, np.int64(1), np.float64(0.5), np.bool_(False)])
def test_scanpath_takes_scalar_labels(label):
    assert Scanpath("r", "t", 0, ((0.0, 10.0),), label=label).label is label


def test_scanpath_jsonl_round_trip(tmp_path):
    sps = [
        Scanpath("r1", "t0", 0, ((0.0, 200.0), (5.0, 150.0)), label="r1"),
        Scanpath("r2", "t0", 1, ((2.0, 120.0), (9.5, 99.0))),
    ]
    path = tmp_path / "sp.jsonl"
    save_scanpaths(path, sps)
    loaded = load_scanpaths(path)
    assert loaded == sps


def test_scanpath_jsonl_error_names_line(tmp_path):
    path = tmp_path / "sp.jsonl"
    path.write_text('{"reader_id": "r"}\n')
    with pytest.raises(ScanpathError, match=":1"):
        load_scanpaths(path)


def test_event_batch_round_trip_and_select():
    feats = _features(TEXT)
    sp = Scanpath("r", "t0", 0, ((0.0, 200.0), (5.0, 180.0), (2.0, 90.0)))
    batch = extract_events(sp, TEXT, feats)
    assert batch.n == 2
    assert batch.num_features == feats.lines[0].shape[1]
    np.testing.assert_array_equal(batch.amp, [5.0, 3.0])
    sub = batch.select_features([0, 2])
    assert sub.num_features == 2
    np.testing.assert_array_equal(sub.w_launch, batch.w_launch[:, [0, 2]])

    merged = EventBatch.concat([batch, batch])
    assert merged.n == 4
