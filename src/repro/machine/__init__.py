"""Parallel machine substrate.

The paper evaluates on Stampede (MPI, up to 128 ranks) and a 40-core
shared-memory Xeon.  This host has a single core, so this subpackage
provides:

- :mod:`repro.machine.metrics` — exact per-processor work/communication
  accounting collected while the *real* parallel algorithm runs;
- :mod:`repro.machine.cost_model` — a calibrated cost model converting
  work counts into seconds / throughput (the simulator's clock);
- :mod:`repro.machine.executor` — executors that run one task per
  virtual processor: serially (deterministic simulation) or on threads;
- :mod:`repro.machine.pool` — the persistent worker-pool runtime:
  ``max_workers`` processes spawned once, reused across supersteps,
  with per-processor state resident in the workers so only boundary
  vectors cross process boundaries (the paper's BSP cost model) — the
  executor for real parallelism on multi-core hosts;
- :mod:`repro.machine.cluster` — :class:`SimCluster`, the machine
  description (processor count + cost parameters) benchmarks sweep over;
- :mod:`repro.machine.trace` — :class:`Tracer`, the opt-in structured
  span tracer (JSONL export) recording real per-superstep and
  per-worker timing of a parallel solve.

Crucially the *algorithm* is always executed faithfully — every virtual
processor runs the true fix-up loop with real data — only the mapping
from work to wall-clock time is modeled.  See DESIGN.md §3.
"""

from repro.machine.metrics import (
    CommEvent,
    SuperstepRecord,
    RunMetrics,
)
from repro.machine.cost_model import CostModel, calibrate_cell_cost
from repro.machine.executor import (
    EXECUTOR_KINDS,
    Executor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
)
from repro.machine.pool import PoolProcessExecutor
from repro.machine.trace import TRACE_SCHEMA_VERSION, Tracer
from repro.machine.cluster import SimCluster

__all__ = [
    "CommEvent",
    "SuperstepRecord",
    "RunMetrics",
    "CostModel",
    "calibrate_cell_cost",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "PoolProcessExecutor",
    "get_executor",
    "EXECUTOR_KINDS",
    "SimCluster",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
]
