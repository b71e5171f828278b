"""Synthetic corpora and readers with ground-truth parameters.

Everything is driven by numpy's PCG64 generator seeded through
``SeedSequence(seed, spawn_key=...)`` with fixed spawn keys (corpus 0,
readers 1, scanpaths 2), so output is fully reproducible for a given seed
and numpy version, and per-reader streams are independent.
"""

import string
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import FrequencyTable, Text, Word, compute_features, estimate_syllables
from .events import NUM_SACCADE_TYPES, Scanpath
from .model import ModelParams, sample_scanpath

_CORPUS_KEY = 0
_READERS_KEY = 1
_SCANPATHS_KEY = 2

_LETTERS = np.array(list(string.ascii_lowercase))


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    num_readers: int = 5
    num_texts: int = 12
    lines_per_text: int = 6
    words_per_line: int = 26
    num_flags: int = 0
    sigma_reader: float = 0.3
    pi_concentration: float = 50.0
    min_fixations: int = 7
    max_fixations: int = 13
    vocab_size: int = 800
    zipf_exponent: float = 1.0
    flag_probability: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name in ("num_readers", "num_texts", "lines_per_text", "words_per_line", "vocab_size"):
            if getattr(self, name) < 1:
                raise SynthError(f"{name} must be >= 1")
        if self.sigma_reader < 0:
            raise SynthError("sigma_reader must be >= 0")
        if self.min_fixations < 2 or self.max_fixations < self.min_fixations:
            raise SynthError("need max_fixations >= min_fixations >= 2")

    @property
    def num_features(self) -> int:
        return 4 + self.num_flags

    def to_dict(self) -> dict:
        return asdict(self)


def _rng(config: SynthConfig, key: int, *extra: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(key, *extra))))


def _make_vocab(config: SynthConfig, rng: np.random.Generator) -> tuple[list[str], np.ndarray]:
    tokens: list[str] = []
    seen = set()
    while len(tokens) < config.vocab_size:
        length = int(rng.integers(2, 13))
        token = "".join(_LETTERS[rng.integers(0, 26, size=length)])
        if token not in seen:
            seen.add(token)
            tokens.append(token)
    ranks = np.arange(1, config.vocab_size + 1, dtype=float)
    weights = ranks ** (-config.zipf_exponent)
    return tokens, weights / weights.sum()


def gen_corpus(config: SynthConfig) -> tuple[list[Text], FrequencyTable]:
    """Random texts with Zipf-distributed token frequencies.

    Word counts per line are jittered around `words_per_line` so text lengths
    vary like real stimuli do.
    """
    rng = _rng(config, _CORPUS_KEY)
    vocab, probs = _make_vocab(config, rng)
    flag_names = [f"f{i}" for i in range(config.num_flags)]

    texts = []
    for ti in range(config.num_texts):
        lines = []
        for _ in range(config.lines_per_text):
            n_words = int(rng.integers(config.words_per_line - 2, config.words_per_line + 3)) \
                if config.words_per_line > 2 else config.words_per_line
            words = []
            pos = 0
            for _ in range(n_words):
                token = vocab[int(rng.choice(config.vocab_size, p=probs))]
                flags = frozenset(
                    name for name in flag_names if rng.random() < config.flag_probability
                )
                words.append(Word(token, pos, pos + len(token), flags=flags,
                                  syllables=estimate_syllables(token)))
                pos += len(token) + 1
            lines.append(tuple(words))
        texts.append(Text(text_id=f"t{ti:02d}", lines=tuple(lines)))

    # every configured flag must occur somewhere, or the feature layout
    # (and hence M) would depend on the random draw
    present = {f for t in texts for w in t.iter_words() for f in w.flags}
    missing = [f for f in flag_names if f not in present]
    if missing:
        first = texts[0].lines[0]
        patched = tuple(
            Word(w.token, w.start_char, w.end_char, w.syllables,
                 w.flags | frozenset(missing)) if i == 0 else w
            for i, w in enumerate(first)
        )
        texts[0] = Text(text_id=texts[0].text_id,
                        lines=(patched,) + texts[0].lines[1:])

    counts = {token: max(1, int(round(1e6 * p))) for token, p in zip(vocab, probs)}
    table = FrequencyTable(counts=counts, total=int(sum(counts.values())))
    return texts, table


def default_base_params(num_features: int) -> ModelParams:
    """Plausible base model: refixations short, skips and regressions long.

    Feature weights are small alternating values so lexical features carry
    signal even before per-reader offsets are applied.
    """
    pi = np.array([0.10, 0.15, 0.45, 0.15, 0.15])
    # per type: (amplitude mean chars, amplitude shape), (duration mean ms, duration shape)
    amp_spec = [(2.5, 3.0), (2.5, 3.0), (7.0, 6.0), (13.0, 6.0), (15.0, 2.5)]
    dur_spec = [(220.0, 5.0), (200.0, 5.0), (210.0, 5.0), (190.0, 5.0), (230.0, 5.0)]
    m = num_features
    alpha = np.zeros((NUM_SACCADE_TYPES, m))
    beta = np.zeros((NUM_SACCADE_TYPES, m))
    gamma = np.zeros((NUM_SACCADE_TYPES, m))
    delta = np.zeros((NUM_SACCADE_TYPES, m))
    for u in range(NUM_SACCADE_TYPES):
        mean_a, shape_a = amp_spec[u]
        mean_d, shape_d = dur_spec[u]
        alpha[u, 0] = np.log(shape_a)
        beta[u, 0] = np.log(mean_a / shape_a)
        gamma[u, 0] = np.log(shape_d)
        delta[u, 0] = np.log(mean_d / shape_d)
        for j in range(1, m):
            sign = -1.0 if (u + j) % 2 else 1.0
            alpha[u, j] = 0.05 * sign
            gamma[u, j] = 0.08 * sign
            delta[u, j] = -0.05 * sign
    return ModelParams(pi=pi, alpha=alpha, beta=beta, gamma=gamma, delta=delta)


def gen_readers(config: SynthConfig, base: ModelParams | None = None) -> list[ModelParams]:
    """Per-reader parameters: normal offsets on every weight, Dirichlet pi.

    With sigma_reader == 0 every reader is exactly the base model.
    """
    if base is None:
        base = default_base_params(config.num_features)
    readers = []
    for r in range(config.num_readers):
        if config.sigma_reader == 0.0:
            readers.append(base)
            continue
        rng = _rng(config, _READERS_KEY, r)
        sigma = config.sigma_reader
        pi = rng.dirichlet(base.pi * config.pi_concentration)
        pi = pi / pi.sum()
        readers.append(
            ModelParams(
                pi=pi,
                alpha=base.alpha + rng.normal(0.0, sigma, base.alpha.shape),
                beta=base.beta + rng.normal(0.0, sigma, base.beta.shape),
                gamma=base.gamma + rng.normal(0.0, sigma, base.gamma.shape),
                delta=base.delta + rng.normal(0.0, sigma, base.delta.shape),
            )
        )
    return readers


@dataclass
class SynthDataset:
    """Synthetic corpus, readers (ground truth), and labeled scanpaths."""

    config: SynthConfig
    texts: list[Text]
    freq: FrequencyTable
    reader_ids: list[str]
    reader_params: list[ModelParams]
    scanpaths: list[Scanpath]


def gen_dataset(config: SynthConfig, base: ModelParams | None = None) -> SynthDataset:
    """One scanpath per reader x text x line, labels set to the reader id."""
    texts, freq = gen_corpus(config)
    readers = gen_readers(config, base=base)
    reader_ids = [f"r{r:02d}" for r in range(config.num_readers)]

    # ground-truth features: normalization over the full synthetic corpus
    feature_list, _ = compute_features(texts, freq)
    features = {f.text_id: f for f in feature_list}

    scanpaths = []
    for r, (rid, params) in enumerate(zip(reader_ids, readers)):
        rng = _rng(config, _SCANPATHS_KEY, r)
        for text in texts:
            for line_id in range(len(text.lines)):
                n_fix = int(rng.integers(config.min_fixations, config.max_fixations + 1))
                extent = text.line_extent(line_id)
                q1 = float(rng.integers(0, min(extent, 11)))
                d1 = float(rng.gamma(5.0, 40.0)) + 1.0
                sampled = sample_scanpath(
                    params,
                    text,
                    features[text.text_id],
                    line_id=line_id,
                    start=(q1, d1),
                    n_fixations=n_fix,
                    rng=rng,
                    reader_id=rid,
                    label=rid,
                )
                scanpaths.append(sampled.scanpath)
    return SynthDataset(
        config=config,
        texts=texts,
        freq=freq,
        reader_ids=reader_ids,
        reader_params=readers,
        scanpaths=scanpaths,
    )
