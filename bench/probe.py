"""Machine-speed probe: times are scaled by how fast a fixed loop runs now.

The host's CPU speed swings by up to 2x over seconds to minutes, far more
than any bound could absorb. ``run.py`` runs ``probe_seconds()`` before the
first repeat and after every repeat and scales the times of single-threaded
work by ``PROBE_NOMINAL_S`` over the probe time measured around them.

The loop imitates a training step of a small model without touching
csti: a minibatch matmul and gradient, then momentum SGD through
immutable, finite-checked parameter records. So it loads the machine as
csti's per-step plumbing does, and no change to csti can move it.
"""

from time import perf_counter

import numpy as np

PROBE_LOOPS = 10
PROBE_STEPS = 600
PROBE_NOMINAL_S = 0.015  # one loop, on a typical stretch of the reference host

_LAYOUT = (("a", 0, 8), ("b", 8, 8))
_X = np.linspace(0.0, 1.0, 64 * 16).reshape(64, 16)
_Y = np.linspace(0.0, 1.0, 64)


class _Params:
    __slots__ = ("values", "layout")

    def __init__(self, values, layout):
        arr = np.asarray(values, dtype=np.float64).reshape(-1).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError("probe diverged")
        arr.flags.writeable = False
        self.values = arr
        self.layout = tuple(layout)


def probe_seconds() -> float:
    """Mean seconds of one probe loop, measured now."""
    tick = perf_counter()
    for _ in range(PROBE_LOOPS):
        theta = _Params(np.linspace(-1.0, 1.0, 16), _LAYOUT)
        velocity = _Params(np.zeros(16), _LAYOUT)
        for i in range(PROBE_STEPS):
            rows = slice(i % 32, i % 32 + 32)
            x = _X[rows]
            dpred = (2.0 / 32) * (x @ theta.values - _Y[rows])
            grad = _Params(x.T @ dpred, _LAYOUT)
            v = 0.9 * velocity.values + grad.values
            theta = _Params(theta.values - 0.01 * v, _LAYOUT)
            velocity = _Params(v, _LAYOUT)
    return (perf_counter() - tick) / PROBE_LOOPS


def scaled(seconds: float, probe_s: float) -> float:
    """Seconds at the nominal machine speed, where one loop takes PROBE_NOMINAL_S."""
    return seconds * PROBE_NOMINAL_S / probe_s
