"""Order statistics and span arithmetic used by every workload.

Percentiles are nearest-rank: ``percentile(xs, q)`` is an observed
sample, never an interpolation between two modes.  A tail percentile
is only meaningful when enough samples lie beyond it, so
:func:`tail_samples` reports that count.

Self time follows the usual definition: a span's duration minus the
part of its interval that its child spans cover (children may overlap,
as the pool's per-worker dispatch spans do, so the covered part is the
length of the union, not the sum).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = [
    "percentile",
    "percentile_or_zero",
    "tail_samples",
    "mean",
    "union_length",
    "self_time",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``.

    The smallest sample such that at least ``q`` of the samples are at
    or below it.  Raises on an empty sample.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def percentile_or_zero(values: Sequence[float], q: float = 0.5) -> float:
    """:func:`percentile`, or 0.0 for an empty sample (printed with its reason)."""
    return percentile(values, q) if values else 0.0


def tail_samples(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank ``q``-quantile."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q * n - 1e-9))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """``end - start`` minus the union of ``children`` clipped to the span."""
    clipped = [
        (max(lo, start), min(hi, end)) for lo, hi in children if hi > start and lo < end
    ]
    return (end - start) - union_length(clipped)
