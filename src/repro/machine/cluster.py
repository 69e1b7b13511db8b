"""`SimCluster`: the machine description the benchmarks sweep over.

A :class:`SimCluster` bundles a processor count, an executor and a
:class:`~repro.machine.cost_model.CostModel`.  Benchmarks instantiate
one per point on the x-axis ("Number of Cores" in paper Figs 7-11),
run the real parallel algorithm through it, and read off simulated
time / speedup / efficiency.

Presets mirror the paper's two testbeds:

- :meth:`SimCluster.stampede` — distributed-memory: higher message
  latency, cheap plentiful cores (paper §6.2, Dell C8220 + FDR IB);
- :meth:`SimCluster.shared_memory` — the 40-core Xeon: much cheaper
  barriers/messages (cache-line traffic), used for the Fig 11
  wavefront comparison where barrier cost is decisive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.cost_model import CostModel
from repro.machine.executor import Executor, SerialExecutor, get_executor
from repro.machine.metrics import RunMetrics

__all__ = ["SimCluster"]


@dataclass
class SimCluster:
    """A virtual parallel machine: P processors + cost parameters + executor."""

    num_procs: int
    cost_model: CostModel = field(default_factory=CostModel)
    executor: Executor = field(default_factory=SerialExecutor)

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {self.num_procs}")

    # ------------------------------------------------------------------
    @classmethod
    def stampede(cls, num_procs: int, *, cell_cost: float = 2e-9) -> "SimCluster":
        """Distributed-memory preset (MPI over FDR InfiniBand)."""
        return cls(
            num_procs=num_procs,
            cost_model=CostModel(
                cell_cost=cell_cost,
                barrier_latency=10e-6,
                comm_latency=2e-6,
                comm_byte_cost=1.0 / 6e9,
            ),
        )

    @classmethod
    def shared_memory(cls, num_procs: int, *, cell_cost: float = 2e-9) -> "SimCluster":
        """Shared-memory preset (40-core Xeon; cheap barriers)."""
        return cls(
            num_procs=num_procs,
            cost_model=CostModel(
                cell_cost=cell_cost,
                barrier_latency=1.5e-6,
                comm_latency=0.3e-6,
                comm_byte_cost=1.0 / 20e9,
            ),
        )

    # ------------------------------------------------------------------
    def time_of(self, metrics: RunMetrics) -> float:
        """Simulated wall-clock seconds for a recorded run on this machine."""
        return self.cost_model.run_time(metrics)

    def sequential_time(self, num_cells: float, *, traceback_steps: float = 0.0) -> float:
        return self.cost_model.sequential_time(
            num_cells, traceback_steps=traceback_steps
        )

    def with_procs(self, num_procs: int) -> "SimCluster":
        """Same machine parameters, different processor count."""
        return SimCluster(
            num_procs=num_procs, cost_model=self.cost_model, executor=self.executor
        )

    def with_executor(
        self,
        executor: Executor | str,
        *,
        max_workers: int | None = None,
    ) -> "SimCluster":
        """Same machine parameters, different superstep runtime.

        ``executor`` is an :class:`Executor` instance or a
        :func:`~repro.machine.executor.get_executor` kind
        (``"serial" | "thread" | "pool"``); ``max_workers`` caps the
        real OS threads or worker processes for the non-serial kinds.
        The caller owns the executor's lifecycle — call :meth:`close`
        (or the executor's own ``close``) when done with a pool-backed
        one.
        """
        if isinstance(executor, str):
            kwargs = {} if executor == "serial" else {"max_workers": max_workers}
            executor = get_executor(executor, **kwargs)
        return SimCluster(
            num_procs=self.num_procs, cost_model=self.cost_model, executor=executor
        )

    def close(self) -> None:
        """Release the executor's worker resources (idempotent)."""
        self.executor.close()
