"""Machine-speed calibration for a host whose cores are shared with other machines.

On such a host the same computation can run 1.5 to 2 times slower for tens of
seconds at a time, so raw wall times of one commit spread far more between
runs than any bound worth having.  A fixed kernel that exercises numpy and
the interpreter the way pslwave does -- interpreter loops, calls on small
arrays, FFTs, a LAPACK pseudo-inverse, random-generator construction -- but
runs no pslwave code, is timed before and after every trial.  Each trial
time is scaled by ``REFERENCE_S`` over the mean of those two kernel times:
the time the trial would take on a machine where the kernel takes
``REFERENCE_S``.  On a shared 2-vCPU Xeon virtual machine this cut the
spread between runs of the median optimize trial time from 13-17% to about
3%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.005  # near the kernel's median on the machine the bounds were set on


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((256, 16))
        self._z = self._x + 1j * self._x
        self._h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        self.samples: list[float] = []

    def _kernel(self) -> None:
        s = 0
        for i in range(3000):
            s += i * i % 7
        a = self._x.copy()
        for i in range(15):
            a = a * 0.999 + np.roll(a, 1, axis=0)
            a[:, i % 16] = a.sum(axis=1) * 1e-3
        for _ in range(12):
            np.fft.ifft(self._z, axis=0)
        for _ in range(30):
            np.linalg.pinv(self._h)
        for i in range(150):
            b = np.roll(self._v, i)
            b * float(np.abs(b).sum())
        for i in range(15):
            np.random.default_rng(np.random.SeedSequence(1, spawn_key=(i, 2))).standard_normal(128)
        [{"i": i, "pair": (i, i + 1)} for i in range(1500)]

    def measure(self) -> None:
        t0 = perf_counter()
        self._kernel()
        self.samples.append(perf_counter() - t0)

    def bracket_scale(self) -> float:
        """Measure once more and return REFERENCE_S over the mean of the last two samples.

        Called right after a timed operation, the two samples bracket it; the
        second also opens the next operation's bracket.
        """
        self.measure()
        return REFERENCE_S / (0.5 * (self.samples[-2] + self.samples[-1]))
