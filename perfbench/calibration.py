"""Host-speed calibration: a fixed kernel timed between operations.

The benchmark's host is shared, and its speed drifts by up to 2x within
seconds (a fixed pure-Python loop runs at 1055-2046 iterations per 0.5 s
on a 2-vCPU VM, with process time equal to wall time, so the drift is not
visible as steal).  Every timing then follows the host rather than the
program.  To take the host out, a fixed calibration kernel -- a small
pure-Python loop and a few NumPy operations on an AMR-box-sized array,
the mix the program itself spends its time in -- is timed between
operations, and times are rescaled by ``REFERENCE_S / mean kernel time``
(a set's over the whole set, an operation's over the calls around it):
they read as seconds on a host where the kernel takes ``REFERENCE_S``.

A change that makes the program slower or faster moves its times and not
the kernel's, so the rescaled times move by the same share; the kernel
is the benchmark's own code and never calls the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "Calibrator", "kernel"]

clock = time.perf_counter

#: Seconds one kernel call takes on the reference host (the median on a
#: 2-vCPU Xeon VM at a quiet moment).  Any fixed value would do: it only
#: sets the scale of the rescaled times.
REFERENCE_S = 3.9e-4

#: Operation seconds between two kernel calls (at most one call per
#: operation): 1-3% of the measured time goes to calibration.
EVERY_S = 0.02

#: A set's scale needs at least this many kernel calls; missing ones run
#: at the end of the set.
MIN_SAMPLES = 16

#: An operation's own scale averages this many kernel calls on each side.
NEAR = 3

#: Five components on an 8^3 box with two ghost cells a side: the size of
#: the arrays the AMR solver works on.  Larger arrays track the program's
#: slowdowns worse: measured against repeated identical gas_entropy steps,
#: 16^3 boxes moved only 0.3x as much as the steps did, 8^3 boxes 0.9x.
_BOX = np.random.default_rng(0).random((5, 12, 12, 12))


def kernel() -> float:
    """Run the calibration kernel once; return its seconds."""
    start = clock()
    total = 0
    for i in range(3000):
        total += i * i
    for _ in range(12):
        block = _BOX[:, 1:-1, 1:-1, 1:-1] * 0.5 + _BOX[:, 2:, 2:, 2:]
        np.maximum(block, 0.1).sum()
    return clock() - start


class Calibrator:
    """Kernel calls spread over one set's operations.

    ``after_op`` is called once per operation with its seconds; ``spent``
    is the time the kernel itself took, which the set's time excludes.
    """

    def __init__(self, every_s: float = EVERY_S, run=kernel) -> None:
        self.every_s = every_s
        self._run = run
        self._pending = 0.0
        self.samples: list[float] = []
        #: Index of the first kernel call at or after the last operation.
        self.mark = 0

    def after_op(self, op_s: float) -> None:
        self.mark = len(self.samples)
        self._pending += op_s
        if self._pending >= self.every_s:
            self._pending = 0.0
            self.samples.append(self._run())

    @property
    def spent(self) -> float:
        return sum(self.samples)

    def scale(self) -> float:
        """``REFERENCE_S`` over the mean kernel time of this set."""
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(self._run())
        return REFERENCE_S / statistics.fmean(self.samples)

    def scale_near(self, mark: int) -> float:
        """``REFERENCE_S`` over the mean of the ``2 * NEAR + 1`` kernel calls
        around ``mark``: the host speed while that operation ran."""
        self.scale()  # makes sure there are samples
        j = min(mark, len(self.samples) - 1)
        near = self.samples[max(0, j - NEAR):j + NEAR + 1]
        return REFERENCE_S / statistics.fmean(near)
