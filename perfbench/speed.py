"""Wall time rescaled by the CPU speed measured while it ran.

On a shared host the speed of a virtual CPU drifts with other tenants' load.
On the 2-vCPU KVM guest this benchmark was written on, the same tabu solve
took 70–75 ms for half a minute, then 105–113 ms for the next half. The
drift is slow next to a solve, so a fixed reference kernel that runs every
``INTERVAL_S`` inside the timed region measures the local speed. Each stretch
of work between two probes is then rescaled to the speed at which the kernel
takes ``nominal_s``.

The kernel is a tabu-style steepest-flip loop on a fixed random ``n × n``
matrix, the same kind of work as the solvers, so contention slows both about
equally. Its code is independent of the package, so a change to the package
cannot change the reference.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
KERNEL_ITERS = 100


class SpeedProbe:
    """Context manager that times a region and samples the speed inside it.

    Not re-entrant, and it owns ``SIGALRM`` while open.
    """

    def __init__(self, n: int, nominal_s: float) -> None:
        rng = np.random.default_rng(0)
        m = rng.standard_normal((n, n))
        self._m = m + m.T
        self._diag = np.diag(self._m).copy()
        self.nominal_s = nominal_s
        self._kernel()  # first call pays for page faults

    def _kernel(self) -> None:
        m, diag = self._m, self._diag
        x = np.zeros(m.shape[0])
        grad = m @ x
        for k in range(KERNEL_ITERS):
            deltas = (1.0 - 2.0 * x) * (diag + 2.0 * (grad - diag * x))
            i = int(np.argmin(deltas))
            sign = 1.0 - 2.0 * x[i]
            x[i] += sign
            grad += sign * m[:, i]
            if k % 8 == 0:
                grad = m @ x

    def _time_kernel(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def _sample(self, *_) -> None:
        self._marks.append((time.perf_counter(), self._time_kernel()))

    def __enter__(self) -> "SpeedProbe":
        self._marks: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # speed of the stretch after the last timer probe

    def kernel_time(self) -> float:
        """Median of three kernel runs outside any region, in seconds."""
        return statistics.median(self._time_kernel() for _ in range(3))

    @property
    def wall_s(self) -> float:
        """Time spent in the region, without the probes'."""
        probes = sum(took for at, took in self._marks if at < self._end)
        return self._end - self._start - probes

    @property
    def scaled_s(self) -> float:
        """``wall_s`` with each stretch rescaled to the nominal kernel speed."""
        total, since = 0.0, self._start
        for at, took in self._marks:
            total += (min(at, self._end) - since) * self.nominal_s / took
            since = at + took
        return total

    @property
    def kernel_s(self) -> float:
        """Median kernel time over the region's probes."""
        return statistics.median(took for _, took in self._marks)
