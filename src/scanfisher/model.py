"""Generative scanpath model: multinomial saccade types with gamma GLMs.

Each saccade event of type u contributes

    ln pi_u
    + ln Gamma_pdf(|a| ; shape=exp(alpha_u . w_launch), scale=exp(beta_u . w_launch))
    + ln Gamma_pdf(d   ; shape=exp(gamma_u . w_land),   scale=exp(delta_u . w_land))

to the log-likelihood.  Amplitudes condition on the launch word's features,
durations on the landing word's.  With M=1 (bias-only features) the model
degenerates to constant per-type gamma parameters.

Every per-event gamma term of the log-likelihood, the fit and the Fisher
score comes from `gamma_terms`, which clamps both linear predictors (W alpha_u
etc.) to [ln 1e-8, ln 1e8] before `exp`; the samplers draw with the shape
and scale that clamp gives.
"""

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import digamma, gammaln

from .corpus import Text, TextFeatures
from .events import BACKWARD_TYPES, NUM_SACCADE_TYPES, EventBatch, Scanpath, word_at

LINK_MIN = 1e-8
LINK_MAX = 1e8
_LOG_LINK_MIN = math.log(LINK_MIN)
_LOG_LINK_MAX = math.log(LINK_MAX)


class ModelError(ValueError):
    """Invalid model parameters or density arguments."""


def _clamp(eta: np.ndarray) -> np.ndarray:
    """Linear predictors clamped to the log link bounds (the bits of ``np.clip``, faster)."""
    return np.minimum(np.maximum(eta, _LOG_LINK_MIN), _LOG_LINK_MAX)


# Bernoulli coefficients B_2k of the trigamma series in 1/z^(2k+1), k = 1..7
_TRIGAMMA_SERIES = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0)
_TRIGAMMA_SHIFT = 10


def _trigamma(x: np.ndarray) -> np.ndarray:
    """psi'(x) for x > 0: ``polygamma(1, x)`` within about 1e-15 relative, several times faster.

    The recurrence psi'(x) = 1/x^2 + psi'(x + 1) moves the argument to
    z = x + 10, where the asymptotic series 1/z + 1/(2 z^2) + sum B_2k / z^(2k+1)
    (Abramowitz & Stegun 6.4.12) is summed up to z^-15; its first omitted
    term is below 1e-15 of the result.  The terms are added smallest first,
    the series' leading 1/z last.
    """
    inv = 1.0 / (x + _TRIGAMMA_SHIFT)
    inv2 = inv * inv
    series = _TRIGAMMA_SERIES[-1]
    for coefficient in _TRIGAMMA_SERIES[-2::-1]:
        series = coefficient + inv2 * series
    total = inv2 * (0.5 + inv * series)
    for k in range(_TRIGAMMA_SHIFT - 1, -1, -1):
        shifted = x + k
        total += 1.0 / (shifted * shifted)
    return total + inv


def gamma_terms(x: np.ndarray, log_x: np.ndarray, eta_shape: np.ndarray, eta_scale: np.ndarray, order: int = 0):
    """ln Gamma_pdf(x ; exp(eta_shape), exp(eta_scale)) per event, both predictors clamped first.

    Order 1 returns `(loglik, shape_term, scale_term)`, adding the derivatives
    by eta_shape and eta_scale at the clamped predictors; order 2 appends the
    (shape-shape, cross, scale-scale) entries of the negated Hessian, whose
    shape-shape entry takes the trigamma from `_trigamma`.
    """
    eta_shape = _clamp(eta_shape)
    eta_scale = _clamp(eta_scale)
    shape = np.exp(eta_shape)
    x_over_scale = x * np.exp(-eta_scale)
    loglik = (shape - 1.0) * log_x - x_over_scale - gammaln(shape) - shape * eta_scale
    if order == 0:
        return loglik
    shape_term = shape * (log_x - digamma(shape) - eta_scale)
    scale_term = x_over_scale - shape
    if order == 1:
        return loglik, shape_term, scale_term
    return loglik, shape_term, scale_term, (shape * shape * _trigamma(shape) - shape_term, shape, x_over_scale)


@dataclass(frozen=True)
class ModelParams:
    """All model parameters: pi over the 5 types plus four (5, M) weight blocks."""

    pi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    feature_layout: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        for name in ("alpha", "beta", "gamma", "delta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 2 or arr.shape[0] != NUM_SACCADE_TYPES:
                raise ModelError(f"{name} must have shape (5, M), got {arr.shape}")
            if arr.shape[1] != self.alpha.shape[1]:
                raise ModelError("all weight blocks must share the same feature count M")
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"{name} contains non-finite values")
        if self.pi.shape != (NUM_SACCADE_TYPES,):
            raise ModelError(f"pi must have shape (5,), got {self.pi.shape}")
        if np.any(self.pi < 0) or not np.all(np.isfinite(self.pi)):
            raise ModelError("pi must be non-negative and finite")
        if abs(float(self.pi.sum()) - 1.0) > 1e-12:
            raise ModelError(f"pi must sum to 1 within 1e-12, got {self.pi.sum()!r}")
        if self.feature_layout is not None and len(self.feature_layout) != self.num_features:
            raise ModelError("feature_layout length must equal M")

    @property
    def num_features(self) -> int:
        return self.alpha.shape[1]

    def to_dict(self) -> dict:
        out = {
            "M": self.num_features,
            "feature_layout": list(self.feature_layout) if self.feature_layout else None,
            "pi": self.pi.tolist(),
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "gamma": self.gamma.tolist(),
            "delta": self.delta.tolist(),
        }
        return out

    @classmethod
    def from_dict(cls, obj: Mapping) -> "ModelParams":
        layout = obj.get("feature_layout")
        return cls(
            pi=np.asarray(obj["pi"], dtype=float),
            alpha=np.asarray(obj["alpha"], dtype=float),
            beta=np.asarray(obj["beta"], dtype=float),
            gamma=np.asarray(obj["gamma"], dtype=float),
            delta=np.asarray(obj["delta"], dtype=float),
            feature_layout=tuple(layout) if layout else None,
        )


def type_terms(batch: EventBatch, params: ModelParams, u: int, idx, order: int = 0):
    """`gamma_terms` of the amplitudes and durations of events `idx`, all of type u, of `batch`."""
    w_l, w_d = batch.w_launch[idx], batch.w_land[idx]
    amp, dur = batch.amp[idx], batch.dur[idx]
    return (gamma_terms(amp, np.log(amp), w_l @ params.alpha[u - 1], w_l @ params.beta[u - 1], order),
            gamma_terms(dur, np.log(dur), w_d @ params.gamma[u - 1], w_d @ params.delta[u - 1], order))


def batch_loglik(batch: EventBatch, params: ModelParams, lengths=None):
    """Total log-likelihood of an event batch: the sum of :func:`loglik_parts`.

    Given `lengths`, the result is each segment's total, as an array.
    """
    return sum(loglik_parts(batch, params, lengths))


def loglik_parts(batch: EventBatch, params: ModelParams, lengths=None):
    """(type, amplitude, duration) log-likelihood terms of an event batch.

    Given `lengths`, the batch is consecutive segments (lines) of that many
    events each, and each term is an array with one entry per segment,
    from one pass over the batch: the densities of every event of a type
    at once, then their sums per segment.
    """
    sizes = np.asarray([batch.n] if lengths is None else lengths, dtype=int)
    if sizes.sum() != batch.n:
        raise ModelError(f"segment lengths sum to {sizes.sum()}, but the batch has {batch.n} events")
    segment = np.repeat(np.arange(len(sizes)), sizes)   # each event's segment
    counts = np.bincount(segment * NUM_SACCADE_TYPES + batch.u - 1,
                         minlength=len(sizes) * NUM_SACCADE_TYPES).reshape(len(sizes), NUM_SACCADE_TYPES)
    with np.errstate(divide="ignore", invalid="ignore"):
        type_term = np.where(counts > 0, counts * np.log(params.pi), 0.0).sum(axis=1)
    amp_term = np.zeros(len(sizes))
    dur_term = np.zeros(len(sizes))
    for u in range(1, NUM_SACCADE_TYPES + 1):
        mask = batch.u == u
        if not mask.any():
            continue
        amp, dur = type_terms(batch, params, u, mask)
        amp_term += np.bincount(segment[mask], amp, minlength=len(sizes))
        dur_term += np.bincount(segment[mask], dur, minlength=len(sizes))
    if lengths is None:
        return float(type_term[0]), float(amp_term[0]), float(dur_term[0])
    return type_term, amp_term, dur_term


def _reflect(pos: float, hi: float) -> float:
    """Fold a position into [0, hi] by reflecting at the boundaries."""
    if hi <= 0:
        return 0.0
    period = 2.0 * hi
    r = pos % period
    return r if r <= hi else period - r


def _check_width(params: ModelParams, rows: np.ndarray) -> None:
    """Raise ModelError unless `rows` is a feature matrix (N, M) with the model's M."""
    if rows.ndim != 2 or rows.shape[1] != params.num_features:
        raise ModelError(f"feature rows of shape {rows.shape} do not match the model's M={params.num_features}")


@dataclass
class SampledScanpath:
    """A sampled scanpath plus its latent type draws.

    `drawn_types` are the latent multinomial draws that selected the gamma
    distributions; a drawn type can differ from the type that
    :func:`extract_events` assigns to the realized saccade when reflection at
    a line boundary or the untruncated gamma tail moves the landing position
    elsewhere.
    """

    scanpath: Scanpath
    drawn_types: np.ndarray


def sample_scanpath(
    params: ModelParams,
    text: Text,
    features: TextFeatures,
    line_id: int,
    start: tuple[float, float],
    n_fixations: int,
    rng: np.random.Generator,
    reader_id: str = "",
    label: object = None,
) -> SampledScanpath:
    """Draw a scanpath of `n_fixations` fixations from the generative model.

    At each step a saccade type is drawn from pi, an amplitude from the
    type's gamma given the launch word's features (signed by type), the
    position is reflected back into the line if it exits, and the landing
    duration is drawn given the landing word's features.  Deterministic for
    a given rng state.
    """
    if n_fixations < 2:
        raise ModelError("n_fixations must be >= 2")
    extent = text.line_extent(line_id)
    hi = float(extent) - 1.0
    q, d = float(start[0]), float(start[1])
    if not (0 <= q < extent):
        raise ModelError(f"start position {q} outside line extent [0, {extent})")
    rows = features.lines[line_id]
    _check_width(params, rows)
    fixations = [(q, d)]
    drawn = np.empty(n_fixations - 1, dtype=np.int64)
    for t in range(n_fixations - 1):
        u = int(rng.choice(NUM_SACCADE_TYPES, p=params.pi)) + 1
        drawn[t] = u
        w_launch = rows[word_at(text, line_id, q)]
        amp = rng.gamma(
            np.exp(_clamp(params.alpha[u - 1] @ w_launch)),
            np.exp(_clamp(params.beta[u - 1] @ w_launch)),
        )
        signed = -amp if u in BACKWARD_TYPES else amp
        q = _reflect(q + signed, hi)
        w_land = rows[word_at(text, line_id, q)]
        dur = rng.gamma(
            np.exp(_clamp(params.gamma[u - 1] @ w_land)),
            np.exp(_clamp(params.delta[u - 1] @ w_land)),
        )
        fixations.append((q, max(dur, 1e-9)))
    scanpath = Scanpath(
        reader_id=reader_id,
        text_id=text.text_id,
        line_id=line_id,
        fixations=tuple(fixations),
        label=label,
    )
    return SampledScanpath(scanpath=scanpath, drawn_types=drawn)


def sample_events(
    params: ModelParams,
    w_launch: np.ndarray,
    w_land: np.ndarray,
    rng: np.random.Generator,
) -> EventBatch:
    """Draw saccade events directly, without any line geometry.

    Each row of `w_launch`/`w_land` supplies the conditioning features of one
    event.  Used for parameter-recovery and score-statistics experiments
    where geometric side effects (reflection, amplitude clamping) would bias
    the sample.
    """
    w_launch = np.asarray(w_launch, dtype=float)
    w_land = np.asarray(w_land, dtype=float)
    if w_launch.shape != w_land.shape:
        raise ModelError("w_launch and w_land must have the same shape")
    _check_width(params, w_launch)
    n = w_launch.shape[0]
    u = rng.choice(NUM_SACCADE_TYPES, size=n, p=params.pi) + 1
    amp = np.empty(n)
    dur = np.empty(n)
    for t in range(1, NUM_SACCADE_TYPES + 1):
        mask = u == t
        if not mask.any():
            continue
        wl = w_launch[mask]
        wd = w_land[mask]
        amp[mask] = rng.gamma(np.exp(_clamp(wl @ params.alpha[t - 1])), np.exp(_clamp(wl @ params.beta[t - 1])))
        dur[mask] = rng.gamma(np.exp(_clamp(wd @ params.gamma[t - 1])), np.exp(_clamp(wd @ params.delta[t - 1])))
    return EventBatch(
        u=u.astype(np.int64),
        amp=np.maximum(amp, 1e-12),
        dur=np.maximum(dur, 1e-12),
        w_launch=w_launch,
        w_land=w_land,
    )
