"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of the CPU the benchmark gets can change by
1.5x or more for seconds at a time, in whole phases, so the wall time
of the same experiment swings with it. The calibration kernels time a
fixed piece of work, none of it from stochsqp:

- ``small_kernel_s``: the kinds of calls the solver makes on small
  problems (small SVD, QR, triangular and Cholesky solves, short Python
  loops, a cache-resident matrix-vector pass);
- ``stream_kernel_s``: matrix-vector passes over an array the size of
  the a9a-shaped feature matrix, like the full-batch evaluations.

``HostSpeed`` runs them right before and after the timed operations and,
from a timer, every ``interval_s`` seconds while they run, in the same
thread. ``HostSpeed.between`` takes the kernel runs out of an
operation's wall time and rescales the rest to what it would read on a
host where the kernels take their ``REFERENCE_*`` times.

A change to stochsqp leaves the kernels as they are, so it still moves
the rescaled times in full; a slow or fast phase of the host moves the
kernels and the operation alike and cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

# Kernel times measured on a 2-vCPU shared x86-64 host with OpenBLAS
# capped at one thread. They only set the scale of the rescaled times;
# the spread and the comparison of two builds do not depend on them.
REFERENCE_SMALL_S = 0.02
REFERENCE_STREAM_S = 0.01

_REPEATS = 100
_rng = np.random.default_rng(20230807)
_JAC = _rng.standard_normal((10, 30))
_HESS = _rng.standard_normal((30, 30))
_HESS = _HESS @ _HESS.T + np.eye(30)
_GRAD = _rng.standard_normal(30)
_DENSE = (_rng.random((4000, 123)) < 0.11).astype(float)
_WEIGHTS = _rng.standard_normal(123)
_STREAM_SHAPE = (32561, 123)  # a9a-shaped features, in float32 to halve the memory
_stream = None


def small_kernel_s() -> float:
    """Wall time of one pass of the small-call kernel."""
    started = time.perf_counter()
    total = 0.0
    for _ in range(_REPEATS):
        np.linalg.svd(_JAC, compute_uv=False)
        _, r = scipy.linalg.qr(_JAC.T, mode="full")
        scipy.linalg.solve_triangular(r[:10].T, -_GRAD[:10], lower=True)
        chol = scipy.linalg.cho_factor(_HESS)
        u = scipy.linalg.cho_solve(chol, _GRAD - _HESS @ _GRAD)
        for value in u[:10]:
            total += float(value)
    for _ in range(4):
        margins = _DENSE @ _WEIGHTS
        total += float(_DENSE.T @ (1.0 / (1.0 + np.exp(-margins))) @ _WEIGHTS)
    elapsed = time.perf_counter() - started
    if not np.isfinite(total):
        raise ArithmeticError("calibration kernel gave a non-finite value")
    return elapsed


def stream_kernel_s() -> float:
    """Wall time of one pass of the streaming kernel. The array is made
    on first use, so workloads that do not stream do not hold it."""
    global _stream
    if _stream is None:
        _stream = (_rng.random(_STREAM_SHAPE, dtype=np.float32) < 0.11).astype(np.float32)
    weights = _WEIGHTS.astype(np.float32)
    started = time.perf_counter()
    total = 0.0
    for _ in range(2):
        margins = _stream @ weights
        total += float(_stream.T @ margins @ weights)
    elapsed = time.perf_counter() - started
    if not np.isfinite(total):
        raise ArithmeticError("calibration kernel gave a non-finite value")
    return elapsed


class HostSpeed:
    """Kernel runs taken on demand and from a ``SIGALRM`` timer.

    Each run records the host's slowness: the kernel times over their
    reference times, mixed with ``stream_share`` weight on the streaming
    kernel. A timer run happens in the main thread between two bytecodes
    of the program, so it lies wholly inside or wholly outside any
    interval the program times with ``time.perf_counter``.
    """

    def __init__(self, interval_s: float, stream_share: float = 0.0):
        self.interval_s = interval_s
        self.stream_share = stream_share
        self.runs: list[tuple[float, float, float]] = []  # (start, end, slowness)

    def sample(self) -> None:
        started = time.perf_counter()
        slowness = small_kernel_s() / REFERENCE_SMALL_S
        if self.stream_share:
            stream = stream_kernel_s() / REFERENCE_STREAM_S
            slowness = (1.0 - self.stream_share) * slowness + self.stream_share * stream
        self.runs.append((started, time.perf_counter(), slowness))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def sampling(self):
        """Sample from the timer inside the block, once on entry and once on exit."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def between(self, started: float, ended: float) -> tuple[float, float]:
        """``(wall, rescaled)`` seconds from ``started`` to ``ended``, both
        without the kernel runs in between. The host's slowness is the mean
        over those runs and the last run before and the first after."""
        inside = [r for r in self.runs if started <= r[0] and r[1] <= ended]
        before = [r for r in self.runs if r[1] <= started][-1:]
        after = [r for r in self.runs if r[0] >= ended][:1]
        wall = ended - started - sum(r[1] - r[0] for r in inside)
        slowness = statistics.fmean(r[2] for r in before + inside + after)
        return wall, wall / slowness

    def slowness(self) -> list[float]:
        return [r[2] for r in self.runs]
