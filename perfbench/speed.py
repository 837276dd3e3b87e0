"""Host-speed correction for timings on a shared machine.

The benchmark's host lends its cores to other tenants.  Their load changes
how fast the same code runs, in steps that last about a second: the same
batch of ``evaluate_total`` calls took 1.0, 1.5 or 1.8 ms per call from one
second to the next, with no steal time or busy process visible inside the
machine.  One 9 s calibration spans several such steps, and the mix of steps
changes from minute to minute, so wall times of identical operations differ
by up to 30% between runs.

``SpeedProbe`` samples the host's current speed while an operation runs.  A
timer interrupts the operation every ``INTERVAL_S`` seconds and times a
fixed reference kernel that does not use semcal.  Each slice of the
operation between two samples is scaled by ``REFERENCE_S`` over the
kernel's time at its two ends, and the time the samples themselves took is
left out.  The result is the operation's time at
the speed where the kernel takes ``REFERENCE_S``: seconds on a quiet host.
A change to the program moves it as it moves wall time; a change in the
neighbours' load mostly does not.

Not all code slows alike.  Over runs minutes apart, the wall time of an
identical calibration followed the kernel's time one to one, while that of
``semcal init`` on the wide scenes, which mostly builds distance fields,
followed its 0.6th power.  So each workload names the exponent of its
correction.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.15
# Time of one reference kernel on a quiet core of the 2-vCPU Xeon host the
# benchmark was written on; it only sets the scale of corrected times.
REFERENCE_S = 2.3e-3

_N = 16384  # 128 KB per array: stays in the L2 cache
_A = np.linspace(0.0, 1.0, _N)
_IDX = (np.arange(_N) * 7919) % _N
_RAMP = np.arange(640.0)


def _kernel() -> float:
    """About 2.3 ms on a quiet core: a Python loop, numpy on small arrays and
    a running minimum along the rows of a freshly allocated image.  The
    first two track the speed of ``evaluate_total``, the last that of field
    building."""
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    for _ in range(8):
        x = _A[_IDX] * 1.5 + 0.25
        acc += float(np.sqrt(x).sum())
    d = np.full((240, 640), np.inf)
    d[::7, ::5] = 0.0
    acc += float(np.minimum.accumulate(d + _RAMP, axis=1)[-1].sum())
    return acc


def sample() -> float:
    """Seconds that one reference kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Wall and host-speed-corrected seconds of the code run between
    ``start()`` and ``stop()``, with the timer's samples left out of both."""

    def __init__(self):
        self._marks: list[tuple[float, float, float]] = []  # (start, end, kernel s)
        self._previous = None
        self._busy = False

    def _take(self) -> None:
        t0 = time.perf_counter()
        d = sample()
        self._marks.append((t0, time.perf_counter(), d))

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:  # a late tick must not interrupt a sample
            self._busy = True
            try:
                self._take()
            finally:
                self._busy = False

    def start(self) -> None:
        self._marks = []
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, exponent: float) -> tuple[float, float]:
        """Wall and corrected seconds since ``start()``.  ``exponent`` is how
        strongly the timed code's speed follows the kernel's (see
        ``workloads.SPEED_EXPONENT``): 1 scales each slice by the kernel's
        slowdown, 0.5 by its square root."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
        wall = corrected = 0.0
        for (_, end0, d0), (start1, _, d1) in zip(self._marks, self._marks[1:]):
            slice_s = start1 - end0
            wall += slice_s
            corrected += slice_s * (REFERENCE_S * 2.0 / (d0 + d1)) ** exponent
        return wall, corrected
