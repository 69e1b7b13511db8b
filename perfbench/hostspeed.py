"""Host-speed calibration: a fixed piece of work timed next to the program.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent over minutes, as neighbours come and go.  A median
over one run cannot remove a drift that outlasts the run, so every
end-to-end timing is scaled to a reference host speed:

    scaled = measured * REFERENCE_MS / local

``local`` is the mean time of the calibration chunk over the
:data:`NEAREST` calibration samples taken closest in time to the timed
unit, less the slowest tenth of them (one-off stalls).  A mean, not a
median: when a neighbour takes the core in time slices, a short chunk
mostly escapes, but the share of chunks it catches grows with the
neighbour's load, as does the time lost by a long solve.

The chunk uses no code of the program: Python interpreter work, small
NumPy gathers and maxima, a vectorised sweep over a few thousand
doubles and a small pickle round trip, in proportions like those of a
solve.  A change to the program moves its scaled timings exactly as it
moves the raw ones; only the host's speed is divided out.

Each core of the host switches on its own, about once a second,
between a fast and a slow state (a chunk takes about 1.1 or 2.0 ms on
the reference host), and the program's pool workers run on every core.
So for work spread over the workers, successive samples pin the
sampling thread to each allowed core in turn, and the nearest samples
cover them all; single-threaded work in the benchmark's own thread (the
sequential reference solves) runs pinned to one core, sampled there.

Samples are taken between solves and requests, where they disturb
nothing (see :mod:`perfbench.harness`).
"""

from __future__ import annotations

import bisect
import os
import pickle
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["REFERENCE_MS", "NEAREST", "chunk", "HostSpeed"]

#: Median time of :func:`chunk` on the reference host (2 vCPUs of a
#: shared x86-64 virtual machine, Python 3.11, NumPy 2.4): scaled
#: timings read as milliseconds on that host.
REFERENCE_MS = 2.0

#: Calibration samples (nearest in time) behind each unit's scale factor.
NEAREST = 20

_RNG = np.random.default_rng(0xCA11B)
_PERM = _RNG.permutation(64)
_W = _RNG.random(64)
_A = _RNG.random(4097)
_B = _RNG.random(4096)
_STATE = {"v": _RNG.random(64), "path": np.arange(256), "meta": ("viterbi", 64, 5126)}


def chunk() -> float:
    """Run the calibration work once; its wall time in ms."""
    t0 = time.perf_counter()
    v = _W.copy()
    s = 0
    for i in range(240):
        v = np.maximum(v[_PERM] + _W, v * 0.5)
        s = (s * 31 + int(v.argmax()) + i) % 1_000_003
    for _ in range(16):
        s += int(np.maximum(_A[:-1] + _B, _A[1:]).argmax())
        s += len(pickle.loads(pickle.dumps(_STATE, protocol=pickle.HIGHEST_PROTOCOL)))
    return (time.perf_counter() - t0) * 1e3


@contextmanager
def _on_core(core: int) -> Iterator[None]:
    """Pin the calling thread to ``core`` for the body."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class HostSpeed:
    """Calibration samples of one run, and the scale factor they give.

    By default successive samples run on each allowed core in turn;
    :meth:`single_core` samples one core, for work run under
    :meth:`pinned`.
    """

    def __init__(self, cores: list[int] | None = None) -> None:
        self._times: list[float] = []  # perf_counter at each sample's midpoint, sorted
        self._ms: list[float] = []
        self._cores = cores or sorted(os.sched_getaffinity(0))

    @classmethod
    def single_core(cls) -> "HostSpeed":
        return cls([min(os.sched_getaffinity(0))])

    def __len__(self) -> int:
        return len(self._ms)

    def pinned(self):
        """Context manager: run the body on this instance's first core."""
        return _on_core(self._cores[0])

    def sample(self, count: int = 1) -> None:
        """Take ``count`` samples, each on the next core in turn."""
        for _ in range(count):
            with _on_core(self._cores[len(self._ms) % len(self._cores)]):
                t0 = time.perf_counter()
                ms = chunk()
            self._times.append(t0 + ms / 2e3)
            self._ms.append(ms)

    def local_ms(self, t: float) -> float:
        """Trimmed mean chunk time over the :data:`NEAREST` samples closest to ``t``."""
        if not self._ms:
            raise ValueError("no calibration samples")
        i = bisect.bisect_left(self._times, t)
        lo, hi = i, i  # grow the window [lo, hi) outwards, nearest side first
        while hi - lo < min(NEAREST, len(self._ms)):
            if hi >= len(self._ms) or (lo > 0 and t - self._times[lo - 1] <= self._times[hi] - t):
                lo -= 1
            else:
                hi += 1
        near = sorted(self._ms[lo:hi])
        return statistics.fmean(near[: len(near) - len(near) // 10])

    def factor(self, start: float, end: float | None = None) -> float:
        """Reference speed over local speed around the unit ``[start, end]``."""
        mid = start if end is None else (start + end) / 2
        return REFERENCE_MS / self.local_ms(mid)

    def median_ms(self) -> float:
        return statistics.median(self._ms)

    def scaled_ms(self, start: float, end: float) -> float:
        """The unit ``[start, end]`` (``perf_counter`` seconds) in reference ms."""
        return (end - start) * 1e3 * self.factor(start, end)
