"""Scanpaths and their conversion into typed saccade events.

A scanpath is the per-line fixation sequence ((q_1, d_1), ..., (q_T, d_T));
consecutive fixation pairs become saccade events typed as

    1 backward refixation   (same word, moving left)
    2 forward refixation    (same word, moving right; also zero moves)
    3 next-word fixation
    4 forward skip          (two or more words ahead)
    5 regression            (any earlier word)

carrying the amplitude magnitude in characters, the landing fixation
duration, and the launch/landing word feature vectors.  Events are held
columnwise in an `EventBatch`.
"""

import json
import logging
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Text, TextFeatures

logger = logging.getLogger(__name__)

NUM_SACCADE_TYPES = 5
BACKWARD_TYPES = (1, 5)
AMP_FLOOR = 0.5


class ScanpathError(ValueError):
    """Malformed scanpath input or out-of-range fixation position."""


@dataclass(frozen=True)
class Scanpath:
    """One reader's fixations on one line of a text; `label` is a string, real number, boolean or None."""

    reader_id: str
    text_id: str
    line_id: int
    fixations: tuple[tuple[float, float], ...]
    label: object = None

    def __post_init__(self):
        # experiments key sets and dicts by the label, so it must be a hashable scalar
        if not isinstance(self.label, (str, numbers.Real, np.bool_, type(None))):
            raise ScanpathError(f"label {self.label!r} is not a string, number or boolean")
        for i, (q, d) in enumerate(self.fixations):
            if not (q >= 0 and np.isfinite(q)):
                raise ScanpathError(f"fixation {i}: position {q!r} must be finite and >= 0")
            if not (d > 0 and np.isfinite(d)):
                raise ScanpathError(f"fixation {i}: duration {d!r} must be finite and > 0")

    def __len__(self) -> int:
        return len(self.fixations)


def scanpath_from_dict(obj: dict) -> Scanpath:
    try:
        fixations = tuple((float(q), float(d)) for q, d in obj["fixations"])
        return Scanpath(
            reader_id=str(obj["reader_id"]),
            text_id=str(obj["text_id"]),
            line_id=int(obj["line_id"]),
            fixations=fixations,
            label=obj.get("label"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScanpathError(f"malformed scanpath record: {exc}") from None


def scanpath_to_dict(sp: Scanpath) -> dict:
    obj = {
        "reader_id": sp.reader_id,
        "text_id": sp.text_id,
        "line_id": sp.line_id,
        "fixations": [[q, d] for q, d in sp.fixations],
    }
    if sp.label is not None:
        obj["label"] = sp.label
    return obj


def load_scanpaths(path) -> list[Scanpath]:
    """Read scanpaths from a JSONL file, one object per line."""
    out = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ScanpathError(f"{path}:{lineno}: malformed JSON: {exc}") from None
        try:
            out.append(scanpath_from_dict(obj))
        except ScanpathError as exc:
            raise ScanpathError(f"{path}:{lineno}: {exc}") from None
    return out


def save_scanpaths(path, scanpaths: Iterable[Scanpath]) -> None:
    lines = [json.dumps(scanpath_to_dict(sp), sort_keys=True) for sp in scanpaths]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _word_indices(text: Text, line_id: int, q: np.ndarray) -> np.ndarray:
    """Word index of every position in `q` on the line (see `word_at`)."""
    if not 0 <= line_id < len(text.lines):
        raise ScanpathError(f"text {text.text_id!r}: no line {line_id}")
    extent = text.line_extent(line_id)
    outside = np.flatnonzero(~((q >= 0) & (q < extent)))
    if outside.size:
        raise ScanpathError(
            f"text {text.text_id!r} line {line_id}: position {q[outside[0]]} "
            f"outside [0, {extent})"
        )
    return np.maximum(np.searchsorted(text.word_starts[line_id], q, side="right") - 1, 0)


def word_at(text: Text, line_id: int, q: float) -> int:
    """Index of the word whose span contains position `q` on the line.

    Positions in inter-word whitespace belong to the preceding word; positions
    before the first word's start clamp to word 0.
    """
    return int(_word_indices(text, line_id, np.array([q]))[0])


# saccade type by word step w_to - w_from, clipped to -1..2; a same-word move to the left is type 1
_TYPE_OF_STEP = np.array([5, 2, 3, 4], dtype=np.int64)


def _saccade_types(w_from: np.ndarray, w_to: np.ndarray, q_from: np.ndarray, q_to: np.ndarray) -> np.ndarray:
    """Saccade type of each move from its launch and landing words and positions."""
    types = _TYPE_OF_STEP[np.clip(w_to - w_from, -1, 2) + 1]
    types[(w_to == w_from) & (q_to < q_from)] = 1
    return types


def classify_saccade(text: Text, line_id: int, q_from: float, q_to: float) -> int:
    """Saccade type of the move q_from -> q_to (see module docstring)."""
    q = np.array([q_from, q_to])
    w = _word_indices(text, line_id, q)
    return int(_saccade_types(w[:1], w[1:], q[:1], q[1:])[0])


@dataclass
class EventBatch:
    """Saccade events as columns: one row per event."""

    u: np.ndarray        # (N,) int, values 1..5
    amp: np.ndarray      # (N,) |a|
    dur: np.ndarray      # (N,)
    w_launch: np.ndarray  # (N, M)
    w_land: np.ndarray    # (N, M)

    @staticmethod
    def concat(batches: Sequence["EventBatch"]) -> "EventBatch":
        if not batches:
            raise ValueError("cannot concatenate zero batches")
        return EventBatch(
            u=np.concatenate([b.u for b in batches]),
            amp=np.concatenate([b.amp for b in batches]),
            dur=np.concatenate([b.dur for b in batches]),
            w_launch=np.concatenate([b.w_launch for b in batches], axis=0),
            w_land=np.concatenate([b.w_land for b in batches], axis=0),
        )

    def select_features(self, keep: Sequence[int]) -> "EventBatch":
        keep = list(keep)
        return EventBatch(
            u=self.u,
            amp=self.amp,
            dur=self.dur,
            w_launch=self.w_launch[:, keep],
            w_land=self.w_land[:, keep],
        )

    def split(self, lengths: Sequence[int]) -> list["EventBatch"]:
        """Consecutive sub-batches of the given lengths, as views of this batch."""
        ends = np.cumsum(lengths, dtype=int)
        return [EventBatch(self.u[a:b], self.amp[a:b], self.dur[a:b], self.w_launch[a:b], self.w_land[a:b])
                for a, b in zip(ends - lengths, ends)]

    @property
    def n(self) -> int:
        return len(self.u)

    def __len__(self) -> int:
        return self.n

    @property
    def num_features(self) -> int:
        return self.w_launch.shape[1]

    def type_counts(self) -> np.ndarray:
        return np.bincount(self.u, minlength=NUM_SACCADE_TYPES + 1)[1:].astype(float)


def extract_events(scanpath: Scanpath, text: Text, features: TextFeatures) -> EventBatch:
    """Saccade events for every consecutive fixation pair, as one batch.

    The initial fixation (q_1, d_1) contributes no event.  Amplitudes with
    magnitude below `AMP_FLOOR` are clamped to the floor so the gamma
    densities stay finite.
    """
    if len(scanpath) < 2:
        logger.warning(
            "scanpath %s/%s/line%d has %d fixation(s); no events extracted",
            scanpath.reader_id, scanpath.text_id, scanpath.line_id, len(scanpath),
        )
    line_id = scanpath.line_id
    q, d = np.array(scanpath.fixations, dtype=float).reshape(-1, 2).T
    words = _word_indices(text, line_id, q)
    u = _saccade_types(words[:-1], words[1:], q[:-1], q[1:])
    amp = np.abs(np.diff(q))
    amp[amp < AMP_FLOOR] = AMP_FLOOR
    rows = features.lines[line_id]
    return EventBatch(
        u=u,
        amp=amp,
        dur=d[1:],
        w_launch=rows[words[:-1]],
        w_land=rows[words[1:]],
    )
