"""Per-type fit objectives with named weight blocks, kept as test oracles.

Thin wrappers over `scanfisher.fit._objective` that take the shape and scale
weights of one saccade type separately and an event batch, so gradient
checks can address the amplitude and duration objectives by name.
"""

import numpy as np

from scanfisher.events import EventBatch
from scanfisher.fit import _objective


def neg_loglik_and_grad_amplitude(alpha_u, beta_u, batch: EventBatch, lam: float):
    """Regularized negative log-likelihood of type-u amplitudes, with gradient."""
    theta = np.concatenate([np.asarray(alpha_u, float), np.asarray(beta_u, float)])
    return _objective(theta, batch.amp, batch.w_launch, lam)


def neg_loglik_and_grad_duration(gamma_u, delta_u, batch: EventBatch, lam: float):
    """Mirror of the amplitude objective for durations and landing features."""
    theta = np.concatenate([np.asarray(gamma_u, float), np.asarray(delta_u, float)])
    return _objective(theta, batch.dur, batch.w_land, lam)
