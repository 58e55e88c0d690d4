"""Host speed, sampled while an operation runs, to calibrate its time.

On a shared host the speed of one core drifts by tens of percent within
minutes, so raw wall times of the same code spread wider than any useful
regression bound. :class:`SpeedSampler` runs a fixed reference kernel
(pure-Python arithmetic, small numpy calls and a small matrix product,
the mix the lnets operations are made of) from a ``SIGALRM`` handler
every :data:`INTERVAL_S` seconds while an operation runs. The kernel's
mean time over the operation measures how fast the host was during that
very interval, and :meth:`SpeedSampler.calibrate` scales a wall time to
the host speed at which the kernel takes :data:`NOMINAL_KERNEL_S`.

The kernel is the benchmark's own code and calls nothing in ``lnets``,
so a change to the program moves calibrated times exactly as it moves
wall times on a host of constant speed. The time spent in the handler
is taken out of the operation's wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# The kernel's time at nominal speed, about its median on a 2-vCPU Xeon
# virtual machine; calibrated times read as seconds at that speed.
NOMINAL_KERNEL_S = 2.0e-3
# Kernel runs taken at once when an interval saw too few samples.
BURST = 20

_A = np.array([0.3, 0.2, 0.1])
_B = np.array([0.1, 0.2, 0.3])
_M = np.random.default_rng(0).standard_normal((64, 64))


def kernel() -> None:
    """The fixed reference work, about 2 ms at nominal speed."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    v = _A
    for _ in range(40):
        v = np.cross(v, _B) + np.sqrt(np.abs(v))
        v = v / np.linalg.norm(v)
    _M @ _M


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the reference kernel's time while the ``with`` block runs.

    ``busy_s`` is the time the handler's samples took, to be subtracted
    from the block's wall time; ``samples`` are the kernel times, those of
    bursts included.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        dt = kernel_seconds()
        self.samples.append(dt)
        self.busy_s += dt

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def burst(self, n: int = BURST) -> None:
        """Take ``n`` samples now (outside any ``with`` block too)."""
        self.samples.extend(kernel_seconds() for _ in range(n))

    def scale(self) -> float:
        """Nominal over measured kernel time; a burst first if too few."""
        if len(self.samples) < BURST:
            self.burst(BURST - len(self.samples))
        return NOMINAL_KERNEL_S / statistics.fmean(self.samples)

    def calibrate(self, seconds: float) -> float:
        return seconds * self.scale()
