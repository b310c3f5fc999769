"""Machine-speed calibration for timing on a shared, noisy CPU.

On a small shared host a vCPU's speed alternates between its normal speed
and about 1.5x slower for seconds at a time, which moved the median run
time of a 25-second window by up to 30% between runs of this benchmark.
`calibrate()` times a fixed piece of work of the same mix a training run is
made of (small matrix products, softmax, dict and string work), away from
the program's code. Timing the calibration right before and right after a
call gives the machine's slowdown at both edges of the call; the call's wall
time divided by the mean of the two, relative to `NOMINAL_S`, is the time the
call takes at nominal speed. On a window-to-window basis this cut the spread
of desk's median run time from about 15% to about 5%.
"""

import time

import numpy as np

# calibrate() on an uncontended vCPU of a 2-vCPU x86-64 sandbox (numpy 2.4,
# Python 3.11); it only scales the nominal times
NOMINAL_S = 0.009

_rng = np.random.default_rng(0)
_W1, _W2, _W3 = _rng.normal(size=(8, 32)), _rng.normal(size=(32, 32)), _rng.normal(size=(32, 3))
_X = _rng.normal(size=(128, 8))


def _work(iters):
    for _ in range(iters):
        h = np.maximum(_X @ _W1, 0.0)
        h = np.maximum(h @ _W2, 0.0)
        z = h @ _W3
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        ",".join({j: repr(j * 0.5) for j in range(20)}.values())


def calibrate():
    """Seconds the fixed calibration work takes now."""
    _work(5)
    t0 = time.perf_counter()
    _work(200)
    return time.perf_counter() - t0


class Pace:
    """Times calls in nominal seconds, calibrating between them."""

    def __init__(self):
        self.last = calibrate()

    def timed(self, fn, *args, **kwargs):
        """(nominal seconds, raw seconds, result) of one call."""
        before = self.last
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        self.last = calibrate()
        factor = (before + self.last) / 2.0 / NOMINAL_S
        return raw / factor, raw, result
