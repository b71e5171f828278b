"""A speed probe: a fixed computation of about 12 ms, timed again and again.

The benchmark host shares its cores with other tenants, and the speed of one
core drifts by up to half over tens of seconds; another core's speed does not
follow it. So run.py pins itself and its experiment process to one core and,
while the experiment runs, times this computation on that same core and
sleeps ``PERIOD_S`` between runs (taking about a tenth of the core). ``wall_norm``, the
experiment's wall time divided by the mean probe time over it, cancels most
of the drift. The probe imports nothing from scanfisher, so a change to the
package cannot change it; it mixes interpreted Python with small numpy
operations, as the package's hot loops do. A probe of 2 ms reacted to the
drift half again as strongly as the experiments did; at 6 and 12 ms the two
moved together.
"""

import time

import numpy as np

PERIOD_S = 0.1
_ROUNDS = 2400
_MATRIX = np.random.default_rng(12345).standard_normal((48, 48)) / 7.0


def probe() -> tuple[float, float]:
    """Start and end (time.perf_counter) of one run of the fixed computation."""
    vector = np.ones(48)
    total = 0.0
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        vector = np.tanh(_MATRIX @ vector)
        for k in range(20):
            total += k * 0.5
    end = time.perf_counter()
    if not np.isfinite(vector).all():
        raise RuntimeError("probe computation diverged")
    return start, end


def mean_probe_s(samples: list, start: float, end: float) -> float:
    """Mean duration of the probes that ran wholly inside [start, end].

    An experiment shorter than PERIOD_S may hold none; then the probe
    nearest to it stands in.
    """
    inside = [b - a for a, b in samples if a >= start and b <= end]
    if inside:
        return sum(inside) / len(inside)
    middle = (start + end) / 2
    a, b = min(samples, key=lambda ab: abs((ab[0] + ab[1]) / 2 - middle))
    return b - a
