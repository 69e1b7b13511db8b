"""Timing wrappers around public functions the program looks up at call time.

The traced run installs these for its duration only.  Each wrapper
records ``(seconds, outcome)`` per call in the benchmark's own process;
calls made inside the pool's worker processes are not seen here (they
fall inside the pool's dispatch compute time instead).

Wrapped names and why they are looked up at call time:

- ``repro.kernels.block_sweep`` / ``price_path_fast``: the engine does
  ``from repro.kernels import ...`` inside the calling function;
- ``repro.ltdp.sequential.forward_sequential`` / ``backward_sequential``:
  module globals of ``solve_sequential``;
- ``BandedAlignmentProblem.dirty_stages_against``: a method, resolved on
  the class at each call by the serve session.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Probes", "installed"]


@dataclass
class Probes:
    """Per-function call records: name -> list of (seconds, outcome)."""

    calls: dict[str, list[tuple[float, Any]]] = field(default_factory=dict)

    def seconds(self, name: str) -> list[float]:
        return [s for s, _ in self.calls.get(name, [])]

    def wrap(self, name: str, fn: Callable, outcome: Callable[[Any], Any]) -> Callable:
        records = self.calls.setdefault(name, [])

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            records.append((time.perf_counter() - t0, outcome(result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _targets():
    import repro.kernels
    import repro.ltdp.sequential
    from repro.problems.alignment.banded import BandedAlignmentProblem

    hit = lambda r: r is not None  # noqa: E731 - kernels return None on a miss
    dirty = lambda r: None if r is None else len(r)  # noqa: E731
    return [
        (repro.kernels, "block_sweep", "kernels.sweep", hit),
        (repro.kernels, "price_path_fast", "kernels.price", hit),
        (repro.ltdp.sequential, "forward_sequential", "sequential.forward", lambda r: None),
        (repro.ltdp.sequential, "backward_sequential", "sequential.backward", lambda r: None),
        (BandedAlignmentProblem, "dirty_stages_against", "delta.diff", dirty),
    ]


@contextmanager
def installed(probes: Probes) -> Iterator[Probes]:
    """Install every wrapper, yield, and restore the originals."""
    saved = []
    try:
        for owner, attr, name, outcome in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, probes.wrap(name, original, outcome))
        yield probes
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
