"""Machine-speed reference: a fixed kernel timed around every body.

On a shared host the same body's wall time drifts by up to 2x over
minutes as neighbours load the machine, and the drift moves every metric
of a run together. The kernel below mixes what etrlab spends its time on
(small-matrix numpy calls, Python loops over tuples and dicts, and a few
larger matrix products) and slows down with the body. Timings are
reported in reference seconds: wall time scaled by ``REFERENCE_S`` over
the kernel's time measured next to it. The kernel does not use etrlab, so
a change to the program moves the body and not the reference.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from time import perf_counter
from typing import Callable, ContextManager

import numpy as np

# About the fastest time of one kernel unit on an Intel Xeon 2.0 GHz 2-vCPU
# VM (Python 3.11.7, numpy 2.4.6). Only its scale matters: it makes
# reference seconds read like that machine's wall seconds when it is quiet.
REFERENCE_S = 0.009
REPEATS = 5

_rng = np.random.default_rng(0)
_EMBED = _rng.normal(size=(13, 16))
_W1 = _rng.normal(size=(64, 64)) * 0.1
_B1 = _rng.normal(size=64)
_W2 = _rng.normal(size=(64, 13))
_B2 = _rng.normal(size=13)
_CTX = _rng.integers(0, 13, size=(8, 4))
_X = _rng.normal(size=(336, 128))
_W = _rng.normal(size=(128, 256)) * 0.1


def unit_s() -> float:
    """Time of one kernel unit, about ``REFERENCE_S`` on a quiet host."""
    start = perf_counter()
    acc = 0
    for _ in range(150):
        x = _EMBED[_CTX.reshape(-1)].reshape(8, 64)
        logits = np.tanh(x @ _W1 + _B1) @ _W2 + _B2
        logits = logits - logits.max(axis=1, keepdims=True)
        lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        picks = tuple(int(v) for v in np.sum(np.cumsum(np.exp(lp), axis=1) < 0.5, axis=1))
        rows = {k: (k, picks) for k in range(8)}
        acc += sum(p[0] for _, p in rows.values())
    for _ in range(4):
        h = np.tanh(_X @ _W)
        acc += int((_X.T @ (1.0 - h * h))[0, 0] > 0)
    return perf_counter() - start


def slowdown() -> float:
    """Current machine slowdown: median of ``REPEATS`` units over the reference."""
    return statistics.median(unit_s() for _ in range(REPEATS)) / REFERENCE_S


class Clock:
    """A wall clock that samples the kernel every ``every_s`` and leaves it out.

    ``tick`` runs a kernel unit when one is due and returns the clock
    reading; the time spent in units is not on the clock. ``slowdown_at``
    is the median slowdown of the samples within ``window_s`` of a reading.
    """

    def __init__(
        self,
        every_s: float = 0.25,
        window_s: float = 0.5,
        around: Callable[[], ContextManager] = nullcontext,
    ):
        self.every_s = every_s
        self.window_s = window_s
        self.around = around  # context entered around each kernel sample
        self.samples: list[tuple[float, float]] = []
        self._excluded = 0.0
        self._due = float("-inf")

    def now(self) -> float:
        return perf_counter() - self._excluded

    def tick(self) -> float:
        t = self.now()
        if t >= self._due:
            start = perf_counter()
            with self.around():
                self.samples.append((t, unit_s() / REFERENCE_S))
            self._excluded += perf_counter() - start
            self._due = t + self.every_s
        return t

    def slowdown_at(self, t: float) -> float:
        near = [s for at, s in self.samples if abs(at - t) <= self.window_s]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - t))[1]]
        return statistics.median(near)
