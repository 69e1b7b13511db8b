"""State-resident runtime over the persistent worker pool.

:class:`PoolRuntime` maps each virtual processor (slot) onto one of the
:class:`~repro.machine.pool.PoolProcessExecutor`'s persistent workers
and keeps that slot's stage vectors, predecessor vectors and backward
path segment **inside the worker**
(:class:`~repro.ltdp.engine.store.WorkerStore`) for the whole solve:

- ``begin`` (constructor) pickles the problem **once** and broadcasts
  it to every worker;
- each superstep is one batched dispatch shipping only
  sequence-numbered instructions (a spec — a boundary vector + scalars
  — per processor) and receives *stripped*
  results — the O(width) range-final vector and scalar accounting,
  never the per-stage payloads.  That is exactly the paper's cost
  model: per fix-up iteration, one boundary vector per neighbour pair
  crosses a process boundary, nothing else;
- the wire protocol is **idempotent per instruction**: workers cache
  each instruction's stripped reply by seq, so a re-delivered
  instruction (a post-recovery re-send) returns the cached reply
  without re-executing — numpywren's ``FailureTests`` contract at the
  transport layer;
- when the backward partition differs from the forward one (objective
  problems whose optimum lies before the last stage), a one-time
  driver-mediated redistribution moves the few predecessor vectors a
  slot is missing;
- gathers (``keep_stage_vectors``, the serial-traceback fallback) pull
  the resident arrays out at the end, off the hot path.

Sessions: each runtime owns a **session key** and all of its worker-side
state lives under ``ns["sessions"][key]``, so several runtimes — the
serve layer keeps one resident runtime per cached problem family while
ad-hoc solves come and go — can share one pool without trampling each
other's resident state.  ``finish()`` drops the session from the
workers; a *resident* runtime (serve) simply doesn't call it between
requests.

Rebinding: :meth:`PoolRuntime.rebind_problem` swaps the worker-side
problem **without** discarding resident state — the serve layer's
cache-hit path, where a near-duplicate request repairs the canonical
solve in place (:class:`~repro.ltdp.engine.specs.DeltaRepairSpec`).
Rebinds are journalled with a sequence watermark so crash recovery can
interleave them correctly into the replay.

Crash recovery is "re-run a program suffix": the shared
:class:`~repro.ltdp.engine.program.InstructionProgram` *is* the replay
journal — rebuilding a respawned worker replays the recorded
instructions of the slots it owns, merged across slots in program-seq
order (a worker owning several slots must see each rebind exactly where
the original execution did).

The functions prefixed ``_w_`` execute *inside* workers against the
worker's persistent namespace; they are module-level so they pickle by
reference.
"""

from __future__ import annotations

import itertools
import pickle
import time
from typing import Sequence

import numpy as np

from repro.exceptions import ExecutorError
from repro.ltdp.engine.program import Instruction, InstructionProgram
from repro.ltdp.engine.runtime import SuperstepRuntime
from repro.ltdp.engine.specs import SpecResult, SuperstepSpec
from repro.ltdp.engine.store import WorkerStore
from repro.ltdp.partition import StageRange
from repro.ltdp.problem import LTDPProblem
from repro.machine.trace import Tracer

__all__ = ["PoolRuntime"]


# ----------------------------------------------------------------------
# Worker-side namespace functions (run via PoolProcessExecutor.call_slots
# / broadcast; ``ns`` is the worker's persistent namespace dict, and the
# per-session state lives under ``ns["sessions"][key]``).
# ----------------------------------------------------------------------


def _w_reset(ns, key: str, problem_blob: bytes, slots: list[int]) -> None:
    """Install the session: its problem (shipped once) and fresh slot states."""
    problem = pickle.loads(problem_blob)
    ns.setdefault("sessions", {})[key] = {
        "problem": problem,
        "states": {slot: WorkerStore(problem) for slot in slots},
    }
    _warm_kernel_plans(problem)


def _w_set_problem(ns, key: str, problem_blob: bytes) -> None:
    """Rebind the session's problem, keeping resident state (cache-hit path).

    The stage-0 vector is recomputed lazily from the new problem; every
    other resident vector stays — that's the point: a
    :class:`~repro.ltdp.engine.specs.DeltaRepairSpec` sweep repairs the
    stale stages against the rebound problem.
    """
    problem = pickle.loads(problem_blob)
    sess = ns["sessions"][key]
    sess["problem"] = problem
    for store in sess["states"].values():
        store.problem = problem
        store.s.pop(0, None)
    _warm_kernel_plans(problem)


def _warm_kernel_plans(problem) -> None:
    """Pre-build this worker's block-kernel plans at problem-bind time.

    Plans are cached per process by content fingerprint, so warming at
    bind keeps the first superstep dispatch off the plan-build path.
    Best-effort by design: the tier is an optimization, and a plan
    failure here must never break a worker install — the per-dispatch
    gate falls back to the dense path regardless.
    """
    try:
        from repro.kernels import warm_kernels

        warm_kernels(problem)
    except Exception:  # repro: noqa[REP005]: plan warming is a best-effort optimization; any plan-build failure must leave the worker install intact (dense path still correct)
        pass


def _w_drop(ns, key: str) -> None:
    """Forget the session entirely (runtime finish / session eviction)."""
    ns.get("sessions", {}).pop(key, None)


def _w_run_instr(ns, key: str, seq: int, spec: SuperstepSpec) -> SpecResult:
    """Execute one instruction against the slot's resident store.

    Idempotent under repeat delivery: the stripped reply of every
    executed instruction is cached by seq, and a re-delivery (a
    post-recovery re-send of a request the worker already served)
    returns the cache without touching resident state.  During
    crash-recovery replay the same function re-runs the recorded
    program suffix — replies are discarded by the replay batch, and
    re-populating the cache is exactly what a rebuilt worker needs to
    keep honouring the contract.

    Stage-resident writes are applied here, in the worker (at most once
    per seq, via the store's seq guard); the reply is stripped down to
    boundary vector + scalars (+ path indices, which are the backward
    phase's output).
    """
    sess = ns["sessions"][key]
    store = sess["states"][spec.proc]
    cached = store.results.get(seq)
    if cached is not None:
        return cached
    result = spec.execute(sess["problem"], store)
    store.apply(result, seq=seq)
    stripped = result.stripped()
    store.results[seq] = stripped
    return stripped


def _w_collect(ns, key: str, slot: int, kind: str, stages: list[int]):
    """Ship the requested resident vectors back to the driver."""
    store = ns["sessions"][key]["states"][slot]
    source = store.s if kind == "s" else store.pred
    return {i: source[i] for i in stages if i in source}


def _w_install_pred(ns, key: str, slot: int, mapping: dict[int, np.ndarray]) -> None:
    """Merge redistributed predecessor vectors into a slot's store."""
    ns["sessions"][key]["states"][slot].pred.update(mapping)


# ----------------------------------------------------------------------


class PoolRuntime(SuperstepRuntime):
    """Plan executor backed by persistent, state-resident pool workers.

    A whole superstep ships as one batched dispatch per barrier — one
    round trip per superstep.
    """

    _key_counter = itertools.count(1)

    def __init__(
        self,
        pool,
        problem: LTDPProblem,
        ranges: Sequence[StageRange],
        tracer: Tracer | None = None,
        session_key: str | None = None,
    ) -> None:
        self.pool = pool
        self.problem = problem
        self.num_stages = problem.num_stages
        self.forward_ranges = list(ranges)
        self.tracer = tracer
        self.program = InstructionProgram()
        self.session_key = (
            session_key
            if session_key is not None
            else f"solve-{next(self._key_counter)}"
        )
        self._finished = False
        # The pool emits per-worker dispatch spans and recovery events
        # into the same tracer; cleared again in finish() so later
        # untraced solves on a shared pool stay untraced.
        if tracer and hasattr(pool, "set_tracer"):
            pool.set_tracer(tracer)
        blob = self._pickle_problem(problem)
        # Every worker learns every slot id; a slot's state only ever
        # fills on its owning worker, the rest stay empty placeholders.
        slots = [rg.proc for rg in self.forward_ranges]
        self._slots = slots
        # Problem history for crash replay: ``(seq_watermark, blob)`` —
        # instructions with seq > watermark executed under that blob's
        # problem.  Entry 0 is the construction-time problem.
        self._problem_history: list[tuple[int, bytes]] = [(0, blob)]
        self.pool.add_rebuild_hook(self, self._rebuild_worker)
        self.pool.broadcast(_w_reset, (self.session_key, blob, slots))

    @staticmethod
    def _pickle_problem(problem: LTDPProblem) -> bytes:
        try:
            return pickle.dumps(problem, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise ExecutorError(
                "the pool runtime ships the problem to persistent workers "
                f"once per solve, but this problem is not picklable: {exc!r}"
            ) from exc

    @property
    def step_no(self) -> int:
        return self.program.step_no

    @property
    def journal_len(self) -> int:
        """Instructions journalled so far (the serve layer's rebase bound:
        a resident session whose replay program grows past its cap is
        cheaper to rebuild from scratch than to keep replaying)."""
        return len(self.program)

    def rebind_problem(self, problem: LTDPProblem) -> None:
        """Swap the worker-side problem, keeping all resident state.

        The serve layer's cache-hit path: after rebinding, a
        :func:`~repro.ltdp.engine.forward.repair_forward_phase` sweep
        repairs the resident solve against the new problem.  The rebind
        is journalled with the current program length as its sequence
        watermark so a crash replay re-applies it between exactly the
        same instructions as the original execution.
        """
        blob = self._pickle_problem(problem)
        self.pool.broadcast(_w_set_problem, (self.session_key, blob))
        self.problem = problem
        self._problem_history.append((len(self.program), blob))

    def _rebuild_worker(self, w: int) -> tuple[list, int]:
        """Recovery program for respawned worker ``w`` (pool rebuild hook).

        Returns ``(calls, replayed)``: namespace calls that re-install
        the session and re-run the **recorded** instruction suffix of
        every slot worker ``w`` owns (the paper's Fig 4 restartability:
        any processor can be re-run from its predecessor's boundary
        vector), plus the replayed-instruction count.  The slots'
        histories are merged in program-seq order with the journalled
        problem rebinds interleaved at their watermarks — a worker
        owning several slots must replay each instruction under the
        same problem the original execution saw.  Compiled-but-
        unrecorded instructions are excluded: the in-flight request
        re-sends after recovery and must not have replayed ahead of
        itself.
        """
        instrs: list[Instruction] = []
        for slot in self._slots:
            if self.pool.worker_of_slot(slot) != w:
                continue
            for instr in self.program.slot_history(slot):
                if self.program.is_recorded(instr.seq):
                    instrs.append(instr)
        instrs.sort(key=lambda ins: ins.seq)
        key = self.session_key
        calls: list[tuple] = [
            (_w_reset, (key, self._problem_history[0][1], self._slots))
        ]
        rebinds = self._problem_history[1:]
        ri = 0
        replayed = 0
        for instr in instrs:
            while ri < len(rebinds) and rebinds[ri][0] < instr.seq:
                calls.append((_w_set_problem, (key, rebinds[ri][1])))
                ri += 1
            if instr.op == "spec":
                calls.append((_w_run_instr, (key, instr.seq, instr.spec)))
                replayed += 1
            else:  # pred-install: redistributed predecessor vectors
                calls.append((_w_install_pred, (key, instr.slot, instr.payload)))
        while ri < len(rebinds):
            calls.append((_w_set_problem, (key, rebinds[ri][1])))
            ri += 1
        return calls, replayed

    def run(
        self, specs: Sequence[SuperstepSpec], label: str = ""
    ) -> list[SpecResult]:
        tracer = self.tracer
        step_no, instrs = self.program.add_superstep(specs, label)
        calls = [
            (instr.slot, _w_run_instr, (self.session_key, instr.seq, instr.spec))
            for instr in instrs
        ]
        if not tracer:
            results = self.pool.call_slots(calls)
        else:
            t0 = time.perf_counter()
            # The context tags the pool's per-worker dispatch spans with
            # this superstep's identity.
            with tracer.context(superstep=step_no, label=label):
                results = self.pool.call_slots(calls)
            tracer.add_span(
                "superstep",
                t0,
                time.perf_counter(),
                superstep=step_no,
                label=label,
                procs=len(specs),
            )
        # Record only after the barrier: an in-flight instruction must
        # not be part of the replay that precedes its own re-send.
        for instr in instrs:
            self.program.record(instr.seq)
        return results

    def install_path(self, path: np.ndarray) -> None:
        # The driver owns the path array; workers keep their own segment
        # resident (written by their backward specs), so nothing to do.
        pass

    def prepare_backward(
        self,
        backward_ranges: Sequence[StageRange],
        forward_ranges: Sequence[StageRange],
    ) -> None:
        """One-time pred redistribution for a repartitioned backward phase.

        Worker slot ``p`` holds predecessors for its *forward* range; if
        its backward range covers other stages, fetch them from their
        forward owners and install them — driver-mediated, once, before
        the backward supersteps start.
        """
        owner_of: dict[int, int] = {}
        owned: dict[int, set[int]] = {}
        for rg in forward_ranges:
            stages = set(rg.stages())
            owned[rg.proc] = stages
            for i in stages:
                owner_of[i] = rg.proc
        needs: dict[int, list[int]] = {}
        for rg in backward_ranges:
            missing = sorted(set(rg.stages()) - owned.get(rg.proc, set()))
            if missing:
                needs[rg.proc] = missing
        if not needs:
            return
        key = self.session_key
        # Gather each missing stage from its forward owner...
        fetch: dict[int, list[int]] = {}
        for stages in needs.values():
            for i in stages:
                fetch.setdefault(owner_of[i], []).append(i)
        gathered: dict[int, np.ndarray] = {}
        for chunk in self.pool.call_slots(
            [
                (owner, _w_collect, (key, owner, "pred", stages))
                for owner, stages in fetch.items()
            ]
        ):
            gathered.update(chunk)
        # ...and install it on the slot whose backward range needs it.
        installs = {
            slot: {i: gathered[i] for i in stages}
            for slot, stages in needs.items()
        }
        self.pool.call_slots(
            [
                (slot, _w_install_pred, (key, slot, mapping))
                for slot, mapping in installs.items()
            ]
        )
        # Journal the installs (driver-mediated, already barriered):
        # recorded immediately so crash recovery replays them in slot
        # order between the forward and backward instruction suffixes.
        for slot, mapping in installs.items():
            self.program.record(self.program.add_install(slot, mapping).seq)

    # -- gathers --------------------------------------------------------
    def _gather(self, kind: str) -> list[np.ndarray | None]:
        out: list[np.ndarray | None] = [None] * (self.num_stages + 1)
        if kind == "s":
            out[0] = self.problem.initial_vector()
        ranges = self.forward_ranges
        key = self.session_key
        for chunk in self.pool.call_slots(
            [
                (rg.proc, _w_collect, (key, rg.proc, kind, list(rg.stages())))
                for rg in ranges
            ]
        ):
            for i, v in chunk.items():
                out[i] = v
        return out

    def stage_vectors(self) -> list[np.ndarray | None]:
        return self._gather("s")

    def pred_vectors(self) -> list[np.ndarray | None]:
        return self._gather("pred")

    def finish(self) -> None:
        # The program journal belongs to this runtime; a stale hook
        # would replay the wrong state into a worker respawned during a
        # later solve.  Idempotent: the serve layer finishes sessions
        # both on eviction and on service close.
        if self._finished:
            return
        self._finished = True
        # Unhook before dropping: a worker respawn triggered by the drop
        # broadcast must not first replay the session it is dropping.
        self.pool.remove_rebuild_hook(self)
        if self.tracer and hasattr(self.pool, "set_tracer"):
            self.pool.set_tracer(None)
        try:
            self.pool.broadcast(_w_drop, (self.session_key,))
        except ExecutorError:
            # Closed or broken pool: the workers (and their sessions)
            # are gone anyway.
            pass
