"""Host speed sampling, so that the benchmark's times measure the program.

The benchmark runs on a shared host whose speed swings by up to 2x within
seconds.  While a :class:`SpeedSampler` is active, a ``SIGALRM`` timer
interrupts the benchmark's main thread every :data:`SAMPLE_PERIOD_S` and
times :func:`reference_loop`, a fixed loop shaped like the solver's inner
work.  An interval measured under the sampler (a solve, a set-up) is then
rescaled by the mean speed sampled across it, so reported times are what the
interval would take at the reference host's speed.  The loop shares no code
with the program: a change to the program does not move it, while contention
on the host slows it as it slows the program.  The sampler costs about 1% of
the measured walls, on both sides of any comparison.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

import numpy as np

#: Wall of one :func:`reference_loop` on the reference host, an idle
#: 2-vCPU Xeon (KVM) guest.  It only sets the scale of the reported times.
REFERENCE_LOOP_S = 0.25e-3

#: Time between two speed samples.
SAMPLE_PERIOD_S = 0.02

_LANES = np.linspace(0.5, 1.0, 24) + 1j * np.linspace(1.0, 1.5, 24)


def reference_loop() -> float:
    """Wall of a fixed loop of Python-level dispatches of elementwise complex
    NumPy operations on a short lane array, as in the solver's hot loop."""
    lanes = _LANES.copy()
    start = time.perf_counter()
    for _ in range(100):
        lanes = lanes * _LANES + _LANES
        lanes = lanes / (np.abs(lanes) + 1.0)
    return time.perf_counter() - start


def _time(sample: Tuple[float, float]) -> float:
    return sample[0]


class SpeedSampler:
    """Context manager sampling the host speed relative to the reference
    host; :meth:`speed` gives the mean over an interval inside it."""

    def __init__(self):
        #: (time, speed) pairs in time order; one append per sample, so a
        #: sample taken inside a slow handler cannot split a pair
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        speed = REFERENCE_LOOP_S / reference_loop()
        self.samples.append((time.perf_counter(), speed))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous
                      if self._previous is not None else signal.SIG_DFL)
        self._sample(None, None)

    def speed(self, begin: float, end: float) -> float:
        """Mean speed of the samples taken in ``[begin, end]`` and of the
        last one before and the first one after it."""
        first = max(bisect.bisect_left(self.samples, begin, key=_time) - 1, 0)
        last = bisect.bisect_right(self.samples, end, key=_time) + 1
        window = [speed for _, speed in self.samples[first:last]]
        return sum(window) / len(window)

    def rescale(self, samples) -> None:
        """Give each solve sample (``workloads.Sample``) its speed."""
        for sample in samples:
            sample.speed = self.speed(sample.start, sample.start + sample.wall)
