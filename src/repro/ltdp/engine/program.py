"""The program layer: superstep specs compiled into instruction programs.

A phase planner emits one :class:`~repro.ltdp.engine.specs.SuperstepSpec`
per processor per barrier; this module compiles those lists into a
sequence-numbered :class:`InstructionProgram` — the lambdapack pattern
(numpywren): a flat, append-only list of :class:`Instruction` objects.

The program is two things:

- the **counter**: ``add_superstep`` increments the solve-global
  superstep number unconditionally, so trace spans, metrics
  ``SuperstepRecord.step`` values and instruction seqs all correlate;
- the **journal**: ``slot_history`` lists every instruction ever
  compiled for a slot, and ``is_recorded`` marks the ones that completed
  a barrier — exactly the prefix crash recovery must replay.  Rebuilding
  a dead pool worker is "re-run the recorded program prefix for its
  slots".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Sequence

from repro.ltdp.engine.specs import SuperstepSpec

__all__ = ["Instruction", "InstructionProgram"]


@dataclass(frozen=True)
class Instruction:
    """One unit of work: a spec (or install) for one slot.

    ``seq`` is the program-global sequence number (1-based, dense);
    ``step`` the superstep this instruction belongs to.  ``op`` is
    ``"spec"`` (execute ``spec`` against the slot's store) or
    ``"pred-install"`` (merge ``payload`` — redistributed predecessor
    vectors — into the slot's store).
    """

    seq: int
    step: int
    slot: int
    label: str
    op: str = "spec"
    spec: SuperstepSpec | None = None
    payload: Any = None


class InstructionProgram:
    """Append-only compiled program plus the set of recorded seqs.

    The owning runtime compiles, dispatches and records from one
    thread, but a worker respawn triggered by *another* session on a
    shared pool reads this journal from that session's thread — hence
    the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instructions: list[Instruction] = []  # guarded-by: self._lock
        self._by_slot: dict[int, list[Instruction]] = {}  # guarded-by: self._lock
        self._recorded: set[int] = set()  # guarded-by: self._lock
        self._step = 0  # guarded-by: self._lock

    # -- compiling ------------------------------------------------------
    def add_superstep(
        self, specs: Sequence[SuperstepSpec], label: str = ""
    ) -> tuple[int, list[Instruction]]:
        """Compile one superstep's specs; returns ``(step, instructions)``.

        The step counter increments on every call — traced or not — so
        superstep numbering can never skew between trace spans, metrics
        records and instruction seqs.
        """
        with self._lock:
            self._step += 1
            step = self._step
            instrs = [
                Instruction(
                    seq=len(self._instructions) + 1 + k,
                    step=step,
                    slot=spec.proc,
                    label=label,
                    spec=spec,
                )
                for k, spec in enumerate(specs)
            ]
            self._instructions.extend(instrs)
            for instr in instrs:
                self._by_slot.setdefault(instr.slot, []).append(instr)
            return step, instrs

    def add_install(self, slot: int, payload: Any, label: str = "pred-install") -> Instruction:
        """Journal a driver-mediated predecessor install for ``slot``.

        Installs are synchronous (the driver barriers on them before
        compiling any instruction that could read them); they exist in
        the program so crash recovery replays them in slot order.
        """
        with self._lock:
            instr = Instruction(
                seq=len(self._instructions) + 1,
                step=self._step,
                slot=slot,
                label=label,
                op="pred-install",
                payload=payload,
            )
            self._instructions.append(instr)
            self._by_slot.setdefault(slot, []).append(instr)
            return instr

    # -- the journal ----------------------------------------------------
    def record(self, seq: int) -> None:
        """Mark ``seq`` as completed at a barrier (part of the replay)."""
        with self._lock:
            self._recorded.add(seq)

    def is_recorded(self, seq: int) -> bool:
        with self._lock:
            return seq in self._recorded

    @property
    def step_no(self) -> int:
        """Supersteps compiled so far (the solve-global counter)."""
        with self._lock:
            return self._step

    def __len__(self) -> int:
        with self._lock:
            return len(self._instructions)

    def slot_history(self, slot: int) -> list[Instruction]:
        """Every instruction compiled for ``slot``, in program order.

        Filtered by :meth:`is_recorded`, this is the replay program for
        a respawned worker owning ``slot``: re-running the recorded
        prefix rebuilds the slot's resident state bit-identically
        (spec determinism), while in-flight instructions — compiled but
        not recorded — are excluded.
        """
        with self._lock:
            return list(self._by_slot.get(slot, ()))
