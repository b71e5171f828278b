"""Texts, word geometry, and per-word lexical feature vectors.

A text is a list of lines, each line a list of words with character spans.
Every word receives a feature vector

    [bias=1, z(log frequency-per-million), z(log length-in-chars),
     z(log length-in-syllables), binary flags ...]

where the z-scores are computed over a training corpus and reused verbatim
at test time through :class:`NormStats`.
"""

import json
import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

BASE_LAYOUT = ("bias", "log_freq_pm", "log_len_chars", "log_len_syllables")
FLAG_PREFIX = "flag:"

_VOWEL_RUN = re.compile(r"[aeiouyAEIOUYäöüÄÖÜ]+")


class CorpusError(ValueError):
    """Malformed text, span, or frequency-table input."""


def estimate_syllables(token: str) -> int:
    """Syllable count fallback: number of maximal vowel-group runs (min 1)."""
    return max(1, len(_VOWEL_RUN.findall(token)))


@dataclass(frozen=True, eq=True)
class Word:
    token: str
    start_char: int
    end_char: int
    syllables: int
    flags: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.token:
            raise CorpusError("word token must be non-empty")
        if self.start_char < 0 or self.end_char <= self.start_char:
            raise CorpusError(
                f"invalid span [{self.start_char},{self.end_char}) for token {self.token!r}"
            )
        if self.syllables < 1:
            raise CorpusError(f"syllable count must be >= 1 for token {self.token!r}")


@dataclass(frozen=True)
class Text:
    text_id: str
    lines: tuple[tuple[Word, ...], ...]

    def __post_init__(self):
        if not self.lines:
            raise CorpusError(f"text {self.text_id!r}: must have at least one line")
        for li, line in enumerate(self.lines):
            if not line:
                raise CorpusError(f"text {self.text_id!r} line {li}: empty line")
            prev_end = -1
            for wi, word in enumerate(line):
                if word.start_char < prev_end:
                    raise CorpusError(
                        f"text {self.text_id!r} line {li} word {wi}: overlapping word spans"
                    )
                prev_end = word.end_char

    @property
    def num_words(self) -> int:
        return sum(len(line) for line in self.lines)

    def line_extent(self, line_id: int) -> int:
        """One past the last valid character position on the line."""
        return self.lines[line_id][-1].end_char

    @cached_property
    def word_starts(self) -> tuple[np.ndarray, ...]:
        """Each line's word start positions, built once per text."""
        return tuple(np.array([w.start_char for w in line], dtype=float) for line in self.lines)

    def iter_words(self):
        for line in self.lines:
            yield from line


def _word_from_dict(obj, text_id: str, li: int, wi: int) -> Word:
    where = f"text {text_id!r} line {li} word {wi}"
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        token = obj["token"]
        start = obj["start"]
        end = obj["end"]
    except KeyError as exc:
        raise CorpusError(f"{where}: missing key {exc.args[0]!r}") from None
    if not isinstance(token, str):
        raise CorpusError(f"{where}: token must be a string")
    if not isinstance(start, int) or not isinstance(end, int):
        raise CorpusError(f"{where}: start/end must be integers")
    syllables = obj.get("syllables")
    if syllables is None:
        syllables = estimate_syllables(token)
    elif not isinstance(syllables, int) or syllables < 1:
        raise CorpusError(f"{where}: syllables must be a positive integer")
    flags = obj.get("flags", [])
    if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
        raise CorpusError(f"{where}: flags must be a list of strings")
    try:
        return Word(token, start, end, syllables, frozenset(flags))
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def text_from_dict(obj) -> Text:
    if not isinstance(obj, dict) or "text_id" not in obj or "lines" not in obj:
        raise CorpusError("text object must contain 'text_id' and 'lines'")
    text_id = obj["text_id"]
    lines = []
    for li, line in enumerate(obj["lines"]):
        if not isinstance(line, list):
            raise CorpusError(f"text {text_id!r} line {li}: expected a list of words")
        words = tuple(
            _word_from_dict(w, text_id, li, wi) for wi, w in enumerate(line)
        )
        lines.append(words)
    return Text(text_id=text_id, lines=tuple(lines))


def text_to_dict(text: Text) -> dict:
    return {
        "text_id": text.text_id,
        "lines": [
            [
                {
                    "token": w.token,
                    "start": w.start_char,
                    "end": w.end_char,
                    "syllables": w.syllables,
                    "flags": sorted(w.flags),
                }
                for w in line
            ]
            for line in text.lines
        ],
    }


def load_texts(path) -> list[Text]:
    """Load one text or a list of texts from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: malformed JSON: {exc}") from None
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise CorpusError(f"{path}: expected a text object or a list of them")
    return [text_from_dict(obj) for obj in payload]


def save_texts(path, texts: Sequence[Text]) -> None:
    Path(path).write_text(
        json.dumps([text_to_dict(t) for t in texts], sort_keys=True) + "\n",
        encoding="utf-8",
    )


@dataclass(frozen=True)
class FrequencyTable:
    """Token occurrence counts; an unknown token or a zero count counts as 1."""

    counts: Mapping[str, int]
    total: int

    def __post_init__(self):
        if self.total < 1:
            raise CorpusError("frequency table total must be >= 1")
        for token, count in self.counts.items():
            if count < 0:
                raise CorpusError(f"negative count for token {token!r}")

    def per_million(self, token: str) -> float:
        count = max(self.counts.get(token, 0), 1)
        return 1e6 * count / self.total

    def log_per_million(self, token: str) -> float:
        return math.log(self.per_million(token))


def load_frequency_table(path) -> FrequencyTable:
    counts: dict[str, int] = {}
    total = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{path}:{lineno}: expected 'token<TAB>count'")
        key, value = parts
        try:
            n = int(value)
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: count {value!r} is not an integer") from None
        if key == "#total":
            total = n
        else:
            counts[key] = n
    if total is None:
        raise CorpusError(f"{path}: missing '#total<TAB>N' header line")
    return FrequencyTable(counts=counts, total=total)


def save_frequency_table(path, table: FrequencyTable) -> None:
    lines = [f"#total\t{table.total}"]
    lines.extend(f"{token}\t{count}" for token, count in sorted(table.counts.items()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class NormStats:
    """Feature layout plus the z-score statistics of the training corpus.

    `mean`/`std` entries are only meaningful where `z_scored` is True; a
    z-scored component with std 0 is emitted as 0 for every word so that the
    feature count M stays fixed across splits.  `source_text_ids` records
    which texts the statistics were computed from (leakage checks).
    """

    layout: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    z_scored: np.ndarray
    source_text_ids: frozenset[str]

    @property
    def num_features(self) -> int:
        return len(self.layout)

    def to_dict(self) -> dict:
        return {
            "layout": list(self.layout),
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "z_scored": [bool(z) for z in self.z_scored],
            "source_text_ids": sorted(self.source_text_ids),
        }

    @classmethod
    def raw(cls, layout: Sequence[str]) -> "NormStats":
        """Statistics of `layout` that z-score nothing: features stay unnormalized."""
        m = len(layout)
        return cls(tuple(layout), np.zeros(m), np.ones(m), np.zeros(m, dtype=bool), frozenset())

    @classmethod
    def from_dict(cls, obj: dict) -> "NormStats":
        return cls(
            layout=tuple(obj["layout"]),
            mean=np.asarray(obj["mean"], dtype=float),
            std=np.asarray(obj["std"], dtype=float),
            z_scored=np.asarray(obj["z_scored"], dtype=bool),
            source_text_ids=frozenset(obj["source_text_ids"]),
        )


@dataclass(frozen=True)
class TextFeatures:
    """Per-word feature rows for one text, one (n_words, M) array per line."""

    text_id: str
    lines: tuple[np.ndarray, ...]


def raw_feature_matrix(text: Text, freq: FrequencyTable, layout: Sequence[str]) -> np.ndarray:
    """Unnormalized feature rows for all words of `text`, in reading order."""
    rows = np.zeros((text.num_words, len(layout)), dtype=float)
    flag_names = [name[len(FLAG_PREFIX):] for name in layout[len(BASE_LAYOUT):]]
    for i, word in enumerate(text.iter_words()):
        rows[i, 0] = 1.0
        rows[i, 1] = freq.log_per_million(word.token)
        rows[i, 2] = math.log(len(word.token))
        rows[i, 3] = math.log(word.syllables)
        for j, flag in enumerate(flag_names):
            rows[i, len(BASE_LAYOUT) + j] = 1.0 if flag in word.flags else 0.0
    return rows


def feature_layout(texts: Sequence[Text]) -> tuple[str, ...]:
    """The base components plus one flag component per flag used in `texts`."""
    flags = sorted({f for t in texts for w in t.iter_words() for f in w.flags})
    return BASE_LAYOUT + tuple(FLAG_PREFIX + f for f in flags)


def norm_stats(texts: Sequence[Text], freq: FrequencyTable) -> NormStats:
    """Layout and z-score statistics of `texts`: the training side."""
    if not texts:
        raise CorpusError("normalization statistics need at least one text")
    layout = feature_layout(texts)
    raw = np.concatenate([raw_feature_matrix(t, freq, layout) for t in texts], axis=0)
    z_scored = np.zeros(len(layout), dtype=bool)
    z_scored[1:len(BASE_LAYOUT)] = True
    mean = np.zeros(len(layout))
    std = np.ones(len(layout))
    mean[z_scored] = raw[:, z_scored].mean(axis=0)
    std[z_scored] = raw[:, z_scored].std(axis=0)
    return NormStats(layout, mean, std, z_scored, frozenset(t.text_id for t in texts))


def compute_features(
    texts: Sequence[Text],
    freq: FrequencyTable,
    stats: NormStats | None = None,
) -> tuple[list[TextFeatures], NormStats]:
    """Feature vectors for every word of `texts`.

    With `stats=None` the statistics (and the flag vocabulary, hence M) are
    computed from `texts` by :func:`norm_stats`; this is the training path.
    Passing an existing :class:`NormStats` reuses them unchanged, which is the
    test-time path and is idempotent.
    """
    if stats is None:
        stats = norm_stats(texts, freq)

    out = []
    for text in texts:
        normalized = apply_stats(raw_feature_matrix(text, freq, stats.layout), stats)
        bounds = np.cumsum([len(line) for line in text.lines])[:-1]
        out.append(TextFeatures(text_id=text.text_id, lines=tuple(np.split(normalized, bounds))))
    return out, stats


def apply_stats(raw: np.ndarray, stats: NormStats) -> np.ndarray:
    """Feature rows in the layout of `stats`, normalized element-wise by it."""
    out = raw.copy()
    for j in np.flatnonzero(stats.z_scored):
        if stats.std[j] > 0.0:
            out[:, j] = (raw[:, j] - stats.mean[j]) / stats.std[j]
        else:
            # zero-variance component: emit 0, keep the column so M is stable
            out[:, j] = 0.0
    return out
