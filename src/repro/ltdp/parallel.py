"""The parallel LTDP algorithm — stable import point.

The implementation lives in :mod:`repro.ltdp.engine`, split into a
*plan* layer (declarative superstep specs for the forward pass, fix-up
loop, objective reduction and backward phases — paper Figures 4/5) and
a *runtime* layer (where the specs execute: serially, on threads, or
on a persistent worker pool with state-resident workers).  This module re-exports the public entry points under their
historical names so ``from repro.ltdp.parallel import solve_parallel``
keeps working unchanged.

See :mod:`repro.ltdp.engine.driver` for the algorithm documentation.
"""

from __future__ import annotations

from repro.ltdp.engine.driver import (
    ParallelOptions,
    edge_weight_by_probe,
    solve_parallel,
)

__all__ = ["ParallelOptions", "solve_parallel", "edge_weight_by_probe"]
