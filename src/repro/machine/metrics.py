"""Per-processor work and communication accounting.

The parallel LTDP algorithm (paper Figs 4 and 5) is bulk-synchronous:
an initial pass, then fix-up iterations, each separated by barriers.
While it runs, it records a :class:`SuperstepRecord` per superstep with
exact per-processor work (cells computed) and the communication events
(boundary-vector sends).  A :class:`RunMetrics` aggregates records and
derives the quantities the evaluation plots: critical-path work, total
work, fix-up iteration count, per-processor convergence stages.

These are *measurements of the real execution*, not estimates — the
cost model only converts them to seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "CommEvent",
    "SuperstepRecord",
    "RunMetrics",
    "PHASE_FORWARD",
    "PHASE_BACKWARD",
    "PHASE_OBJECTIVE",
    "RECORD_PHASES",
    "TRACE_PHASES",
    "TRACE_SPAN_NAMES",
    "KNOWN_LABEL_PREFIXES",
]

#: Canonical phase tags.  ``phase`` decides which per-cell cost the cost
#: model applies (forward ``cell_cost`` vs backward ``traceback_cell_cost``).
PHASE_FORWARD = "forward"
PHASE_BACKWARD = "backward"
#: Tracer-only phase: the objective scan between forward and backward.
#: It never appears on a :class:`SuperstepRecord` (objective supersteps
#: are forward-priced) but is a legal ``phase`` span attribute.
PHASE_OBJECTIVE = "objective"

#: Legal values of :attr:`SuperstepRecord.phase`.  This set — not ad-hoc
#: string literals — is the vocabulary the cost model prices; the static
#: checker (``repro lint``, rule REP004) enforces membership at the
#: construction sites.
RECORD_PHASES = frozenset({PHASE_FORWARD, PHASE_BACKWARD})

#: Legal ``phase`` attributes on tracer spans (superset of
#: :data:`RECORD_PHASES`: the objective scan is traced but not priced).
TRACE_PHASES = frozenset({PHASE_FORWARD, PHASE_OBJECTIVE, PHASE_BACKWARD})

#: Legal tracer span names.  ``phase``/``superstep``/``compute``/
#: ``dispatch`` are the superstep-loop spans.  The static checker (REP004)
#: enforces membership at literal ``tracer.span``/``add_span`` sites so
#: a new layer cannot introduce spans that trace summaries and the
#: bench harness' coverage check silently ignore.
#: ``serve.request`` / ``serve.batch`` are the serving layer's spans
#: (one per served request, one per same-shape batch).
TRACE_SPAN_NAMES = frozenset(
    {
        "phase",
        "superstep",
        "compute",
        "dispatch",
        "serve.request",
        "serve.batch",
    }
)

#: Label prefixes with a known phase, used only as a fallback for records
#: built without an explicit ``phase`` (hand-rolled metrics in tests/demos).
_FORWARD_LABEL_PREFIXES = (
    "forward",
    "fixup",
    "repair",
    "objective",
    "partial-products",
    "prefix-scan",
    "tree-scan",
    "re-sweep",
)
_BACKWARD_LABEL_PREFIXES = ("backward", "bwd")

#: Every label prefix :meth:`SuperstepRecord.resolved_phase` can classify.
#: A record whose label matches none of these MUST set ``phase``
#: explicitly, or pricing raises (and REP004 flags it statically).
KNOWN_LABEL_PREFIXES = _FORWARD_LABEL_PREFIXES + _BACKWARD_LABEL_PREFIXES


@dataclass(frozen=True)
class CommEvent:
    """One point-to-point message (magenta arrows in paper Figs 4/5)."""

    src: int
    dst: int
    num_bytes: int


@dataclass
class SuperstepRecord:
    """Work and messages of one barrier-delimited superstep.

    Attributes
    ----------
    label:
        ``"forward"``, ``"fixup[k]"``, ``"backward"``, ``"bwd-fixup[k]"``.
    work:
        ``work[p]`` = cells (or traceback steps) processor ``p`` computed
        in this superstep.  Length = number of processors.
    comm:
        Messages sent during (logically: at the start of) the superstep.
    wall_seconds:
        Real elapsed time of this superstep on the executing runtime
        (barrier to barrier, as measured by the driver).  Unlike
        ``work`` — which feeds the simulated BSP clock — this is actual
        wall-clock, so benchmark files can track genuine speedup and
        per-superstep runtime overhead.  0.0 when not measured.
    phase:
        ``"forward"`` (priced at ``cell_cost``) or ``"backward"``
        (priced at ``traceback_cell_cost``).  The engine always sets
        this explicitly; an empty value falls back to classifying the
        label by prefix and **raises** on labels it does not recognise —
        an unanticipated superstep kind must never be priced silently.
    step:
        Solve-global superstep number from the instruction program's
        counter (1-based), correlating this record with trace span
        ``superstep=`` attributes and instruction ``step`` fields.
        0 for records produced outside the program (e.g. the serial
        backward fallback's accounting-only record).
    """

    label: str
    work: list[float]
    comm: list[CommEvent] = field(default_factory=list)
    wall_seconds: float = 0.0
    phase: str = ""
    step: int = 0

    def resolved_phase(self) -> str:
        """The record's phase, validated; inferred from the label if unset.

        Raises :class:`ValueError` on an unknown phase value or — when
        ``phase`` is empty — on a label whose prefix is not in the known
        forward/backward tables, so miscounted work is loud, not silent.
        """
        if self.phase:
            if self.phase not in RECORD_PHASES:
                raise ValueError(
                    f"superstep {self.label!r} has unknown phase "
                    f"{self.phase!r}; expected {PHASE_FORWARD!r} or "
                    f"{PHASE_BACKWARD!r}"
                )
            return self.phase
        if self.label.startswith(_BACKWARD_LABEL_PREFIXES):
            return PHASE_BACKWARD
        if self.label.startswith(_FORWARD_LABEL_PREFIXES):
            return PHASE_FORWARD
        raise ValueError(
            f"superstep label {self.label!r} carries no explicit phase and "
            "matches no known label prefix; set SuperstepRecord.phase to "
            "'forward' or 'backward' so the cost model prices it correctly"
        )

    @property
    def critical_work(self) -> float:
        """The slowest processor's work — the superstep's makespan driver."""
        return max(self.work) if self.work else 0.0

    @property
    def total_work(self) -> float:
        return float(sum(self.work))


@dataclass
class RunMetrics:
    """Aggregated accounting for one parallel (or sequential) LTDP run."""

    num_procs: int
    supersteps: list[SuperstepRecord] = field(default_factory=list)
    #: Number of iterations the forward fix-up loop executed (0 when P == 1).
    forward_fixup_iterations: int = 0
    #: Number of iterations the backward fix-up loop executed.
    backward_fixup_iterations: int = 0
    #: For each processor, the count of stages it recomputed in fix-up
    #: before hitting tropical parallelism (summed over iterations).
    fixup_stages: dict[int, int] = field(default_factory=dict)
    #: True when every processor converged in the first fix-up iteration
    #: (the paper's "filled data point" condition in Figs 7, 9, 10).
    converged_first_iteration: bool = True
    #: Per forward fix-up round: processors actually dispatched (the
    #: convergence-aware scheduler drops converged processors whose
    #: input boundary did not change — they do no work, send nothing).
    fixup_dispatched: list[int] = field(default_factory=list)
    #: Per forward fix-up round in delta mode: total §4.7 changed-delta
    #: count across the dispatched boundary messages.
    fixup_changed_deltas: list[int] = field(default_factory=list)
    #: Per backward fix-up round: processors actually dispatched.
    bwd_fixup_dispatched: list[int] = field(default_factory=list)
    #: Problem-size information for throughput computation.
    num_stages: int = 0
    stage_width: int = 0
    #: Fault-tolerance accounting (pool runtime only): dead workers
    #: replaced mid-solve, in-flight dispatches re-sent after a crash,
    #: and journalled supersteps replayed to rebuild resident state.
    worker_respawns: int = 0
    dispatch_retries: int = 0
    replayed_supersteps: int = 0

    # ------------------------------------------------------------------
    def record(self, record: SuperstepRecord) -> None:
        if len(record.work) != self.num_procs:
            raise ValueError(
                f"superstep has {len(record.work)} work entries for "
                f"{self.num_procs} processors"
            )
        self.supersteps.append(record)

    # -- derived quantities --------------------------------------------
    @property
    def critical_path_work(self) -> float:
        """Σ over supersteps of the max per-processor work (BSP makespan)."""
        return float(sum(s.critical_work for s in self.supersteps))

    @property
    def total_work(self) -> float:
        """Σ of all work over all processors — the recomputation overhead shows here."""
        return float(sum(s.total_work for s in self.supersteps))

    @property
    def num_barriers(self) -> int:
        """One barrier terminates each superstep."""
        return len(self.supersteps)

    @property
    def wall_time(self) -> float:
        """Σ of measured real superstep durations (0.0 when unmeasured)."""
        return float(sum(s.wall_seconds for s in self.supersteps))

    def mean_superstep_wall(self) -> float:
        """Average measured wall-clock per superstep — the runtime's
        per-superstep overhead floor once work is small."""
        if not self.supersteps:
            return 0.0
        return self.wall_time / len(self.supersteps)

    @property
    def comm_events(self) -> list[CommEvent]:
        return [e for s in self.supersteps for e in s.comm]

    @property
    def bytes_communicated(self) -> int:
        return sum(e.num_bytes for e in self.comm_events)

    def work_by_processor(self) -> list[float]:
        """Total per-processor work across all supersteps."""
        totals = [0.0] * self.num_procs
        for s in self.supersteps:
            for p, w in enumerate(s.work):
                totals[p] += w
        return totals

    def merged_with(self, others: Iterable["RunMetrics"]) -> "RunMetrics":
        """Concatenate this run's supersteps with subsequent phases' (e.g. backward)."""
        merged = RunMetrics(
            num_procs=self.num_procs,
            supersteps=list(self.supersteps),
            forward_fixup_iterations=self.forward_fixup_iterations,
            backward_fixup_iterations=self.backward_fixup_iterations,
            fixup_stages=dict(self.fixup_stages),
            converged_first_iteration=self.converged_first_iteration,
            fixup_dispatched=list(self.fixup_dispatched),
            fixup_changed_deltas=list(self.fixup_changed_deltas),
            bwd_fixup_dispatched=list(self.bwd_fixup_dispatched),
            num_stages=self.num_stages,
            stage_width=self.stage_width,
            worker_respawns=self.worker_respawns,
            dispatch_retries=self.dispatch_retries,
            replayed_supersteps=self.replayed_supersteps,
        )
        for other in others:
            if other.num_procs != merged.num_procs:
                raise ValueError("cannot merge metrics with different processor counts")
            merged.supersteps.extend(other.supersteps)
            merged.forward_fixup_iterations += other.forward_fixup_iterations
            merged.backward_fixup_iterations += other.backward_fixup_iterations
            for p, stages in other.fixup_stages.items():
                merged.fixup_stages[p] = merged.fixup_stages.get(p, 0) + stages
            merged.converged_first_iteration &= other.converged_first_iteration
            merged.fixup_dispatched.extend(other.fixup_dispatched)
            merged.fixup_changed_deltas.extend(other.fixup_changed_deltas)
            merged.bwd_fixup_dispatched.extend(other.bwd_fixup_dispatched)
            merged.worker_respawns += other.worker_respawns
            merged.dispatch_retries += other.dispatch_retries
            merged.replayed_supersteps += other.replayed_supersteps
        return merged
