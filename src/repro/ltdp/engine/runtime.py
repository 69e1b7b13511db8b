"""The runtime layer: where instruction programs actually execute.

A :class:`SuperstepRuntime` turns the plan layer's declarative
:class:`~repro.ltdp.engine.specs.SuperstepSpec` lists into executed
supersteps.  A runtime is thin glue between two owning layers:

- the **store** (:mod:`repro.ltdp.engine.store`) owns stage state —
  driver-resident (:class:`~repro.ltdp.engine.store.DriverStore`) here,
  worker-resident in :class:`~repro.ltdp.engine.poolrt.PoolRuntime`;
- the **program** (:mod:`repro.ltdp.engine.program`) owns superstep
  numbering, instruction seqs and the crash-replay journal.

Each superstep is exactly one dispatch — the paper's bulk-synchronous
step (Figs 4/5): every processor runs one task between two barriers.
Two implementations ship:

- :class:`LocalRuntime` — stage state lives in the driver process;
  specs are wrapped in closures and handed to a closure-running
  :class:`~repro.machine.executor.Executor` (serial or thread pool) as
  one ``run_superstep`` call.
- :class:`~repro.ltdp.engine.poolrt.PoolRuntime` — stage state lives
  *inside* persistent worker processes
  (:class:`~repro.machine.pool.PoolProcessExecutor`); each superstep is
  one batched ``call_slots`` dispatch, and only instructions and
  boundary vectors cross process boundaries.

The driver (:mod:`repro.ltdp.engine.driver`) picks the runtime from the
executor's capabilities, so ``solve_parallel``'s signature and results
are identical either way.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.ltdp.engine.program import InstructionProgram
from repro.ltdp.engine.specs import SpecResult, SuperstepSpec
from repro.ltdp.engine.store import DriverStore
from repro.ltdp.partition import StageRange
from repro.ltdp.problem import LTDPProblem
from repro.machine.executor import Executor
from repro.machine.trace import Tracer

__all__ = ["SuperstepRuntime", "LocalRuntime"]


class SuperstepRuntime(ABC):
    """Executes superstep specs and owns the per-stage state between them."""

    #: Optional span tracer; ``None`` (the default) costs one check per
    #: superstep.  Set via the runtime constructors from
    #: ``ParallelOptions.tracer``.
    tracer: Tracer | None = None

    @property
    def step_no(self) -> int:
        """Solve-global superstep counter (0 before the first superstep).

        Owned by the instruction program and incremented on *every*
        superstep, traced or not, so trace spans, metrics records and
        instruction seqs always agree on numbering.
        """
        return 0

    @abstractmethod
    def run(
        self, specs: Sequence[SuperstepSpec], label: str = ""
    ) -> list[SpecResult]:
        """Execute one superstep (one spec per participating processor).

        ``label`` is the superstep's metrics label (``"forward"``,
        ``"fixup[2]"``, …), used to tag trace spans and the compiled
        instructions.

        Returns results in spec order with all stage-resident updates
        already applied to the runtime's store.  ``path_updates`` are
        applied by the driver (which owns the path array); runtimes with
        worker-resident state must *also* apply them to their workers'
        stores before replying.
        """

    @abstractmethod
    def install_path(self, path: np.ndarray) -> None:
        """Give the runtime's store access to the driver's path array."""

    def prepare_backward(
        self,
        backward_ranges: Sequence[StageRange],
        forward_ranges: Sequence[StageRange],
    ) -> None:
        """Redistribute predecessor vectors when the backward partition
        differs from the forward one (objective problems whose optimum
        lies before the last stage).  No-op for shared-store runtimes."""

    @abstractmethod
    def stage_vectors(self) -> list[np.ndarray | None]:
        """Gather all stored stage vectors (``keep_stage_vectors``)."""

    @abstractmethod
    def pred_vectors(self) -> list[np.ndarray | None]:
        """Gather all predecessor vectors (serial-traceback fallback)."""

    def finish(self) -> None:
        """Release per-solve resources.  Must not tear down the executor."""


class LocalRuntime(SuperstepRuntime):
    """Driver-resident state + any closure-running executor."""

    def __init__(
        self,
        executor: Executor,
        problem: LTDPProblem,
        tracer: Tracer | None = None,
    ) -> None:
        self.executor = executor
        self.problem = problem
        self.state = DriverStore(problem)
        self.tracer = tracer
        self.program = InstructionProgram()

    @property
    def step_no(self) -> int:
        return self.program.step_no

    def run(
        self, specs: Sequence[SuperstepSpec], label: str = ""
    ) -> list[SpecResult]:
        problem, store = self.problem, self.state
        tracer = self.tracer
        step_no, instrs = self.program.add_superstep(specs, label)
        if not tracer:
            tasks = [
                lambda spec=spec: spec.execute(problem, store) for spec in specs
            ]
            results = self.executor.run_superstep(tasks)
        else:

            def timed(spec: SuperstepSpec):
                # Per-task compute spans land in the tracer: both
                # closure-running executors (serial / thread) run the
                # task in this process.
                def task():
                    c0 = time.perf_counter()
                    result = spec.execute(problem, store)
                    tracer.add_span(
                        "compute",
                        c0,
                        time.perf_counter(),
                        superstep=step_no,
                        label=label,
                        proc=spec.proc,
                    )
                    return result

                return task

            t0 = time.perf_counter()
            results = self.executor.run_superstep([timed(s) for s in specs])
            tracer.add_span(
                "superstep",
                t0,
                time.perf_counter(),
                superstep=step_no,
                label=label,
                procs=len(specs),
            )
        # Post-barrier application, in spec order; the store's seq guard
        # makes a re-applied result a no-op.
        for instr, result in zip(instrs, results):
            store.apply(result, seq=instr.seq)
        return results

    def install_path(self, path: np.ndarray) -> None:
        self.state.path = path

    def stage_vectors(self) -> list[np.ndarray | None]:
        return list(self.state.s)

    def pred_vectors(self) -> list[np.ndarray | None]:
        return list(self.state.pred)
