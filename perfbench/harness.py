"""Set-up, the closed and open load loops, and answer verification.

Everything here drives the program through its public API: the
persistent worker pool, ``solve_parallel`` / ``solve_sequential`` and
``LTDPService``.  Answers are checked against ``solve_sequential``
outside the timed window.  Every pass also takes the host-speed
calibration samples that scale its timings (:mod:`perfbench.hostspeed`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Any

import numpy as np

from perfbench.hostspeed import HostSpeed
from perfbench.workloads import (
    Request,
    Workload,
    neardup_stream,
    solve_long_pair,
    warmup_requests,
)

__all__ = [
    "Context",
    "Record",
    "PassResult",
    "nproc",
    "setup",
    "solve_long_pass",
    "serve_requests",
    "serve_pass",
    "verify",
    "peak_rss_mb",
]

#: Seconds a served request may take before it counts as timed out.
REQUEST_TIMEOUT_S = 30.0


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class Context:
    """What set-up leaves behind: the pool, the service and the timings."""

    workload: Workload
    seed: int
    procs: int
    pool: Any
    service: Any = None
    timings: dict[str, float] = field(default_factory=dict)

    def close(self) -> None:
        if self.service is not None:
            self.service.close(drain=False)
            self.service = None
        self.pool.close()


@dataclass
class Record:
    """One timed unit of work: a solve or a served request."""

    family: str
    index: int
    start: float  # perf_counter: solve start, or the request's submission
    end: float  # perf_counter: answer in hand
    problem: Any = None
    solution: Any = None
    status: str = "ok"
    cache: str | None = None
    delta_cells: int = 0
    request_id: int = 0
    correct: bool | None = None  # set by verification

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class PassResult:
    """Everything one pass (untraced or traced) measured.

    Spans are ``(start, end)`` in ``perf_counter`` seconds, so that
    ``speed`` (records and pairs) and ``seq_speed`` (``seq``) can scale
    each one by the host speed around it.
    """

    records: list[Record] = field(default_factory=list)
    #: solve-long: each (decode, align) pair, first solve start to last solve end.
    pairs: list[tuple[float, float]] = field(default_factory=list)
    #: ``num_procs=1`` solves (solve-long) or plain-loop verification
    #: solves (serve), by family.
    seq: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    speed: HostSpeed = field(default_factory=HostSpeed)
    seq_speed: HostSpeed = field(default_factory=HostSpeed.single_core)
    window: tuple[float, float] = (0.0, 0.0)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0

    @property
    def pairs_ms(self) -> list[float]:
        return [(end - start) * 1e3 for start, end in self.pairs]

    @property
    def seq_ms(self) -> dict[str, list[float]]:
        return {f: [(end - start) * 1e3 for start, end in s] for f, s in self.seq.items()}


# -- set-up ---------------------------------------------------------------
def setup(wl: Workload, seed: int, t_start: float) -> Context:
    """Fork the pool, load the kernel backend and run the first solves.

    ``t_start`` is the ``perf_counter`` reading taken before ``repro``
    was imported; the import itself is timed by the caller's clock, so
    ``timings`` gets ``import_s``, ``spawn_s``, ``warmup_s`` and
    ``setup_s`` (their sum, from ``t_start``).
    """
    import repro  # noqa: F401 - timed import
    from repro.machine.pool import PoolProcessExecutor

    t_import = time.perf_counter()
    procs = nproc()
    pool = PoolProcessExecutor(max_workers=procs)
    pool.worker_pids()
    t_spawn = time.perf_counter()
    ctx = Context(wl, seed, procs, pool)
    warm = warmup_requests(wl, seed)
    if wl.name == "solve-long":
        from repro import solve_parallel

        for req in warm:
            solve_parallel(req.problem, num_procs=procs, executor=pool)
    else:
        ctx.service = new_service(ctx)
        serve_requests(ctx.service, warm)
    t_warm = time.perf_counter()
    ctx.timings = {
        "import_s": t_import - t_start,
        "spawn_s": t_spawn - t_import,
        "warmup_s": t_warm - t_spawn,
        "setup_s": t_warm - t_start,
    }
    return ctx


def new_service(ctx: Context, tracer=None):
    from repro.serve import LTDPService

    return LTDPService(
        executor=ctx.pool, num_procs=ctx.procs, tracer=tracer
    ).start()


def serve_requests(service, requests: list[Request]) -> None:
    """Serve ``requests`` one at a time (warm-up; not timed)."""
    for req in requests:
        response = service.submit(req.problem).result(timeout=60.0)
        if response.status != "ok":
            raise RuntimeError(f"warm-up request failed: {response.reason}")


# -- solve-long: closed loop ---------------------------------------------
def solve_long_pass(ctx: Context, seconds: float, tracer=None) -> PassResult:
    """One client solving fresh (decode, align) pairs for ``seconds``.

    Each loop generates a pair, solves it with ``solve_parallel`` at
    ``P = nproc`` and, every ``seq_every``-th pair, at ``num_procs=1``
    too; every solve is timed on its own.  Two calibration samples
    precede each pair and each ``num_procs=1`` solve, which runs pinned
    to the core its samples ran on.
    """
    from repro import ParallelOptions, solve_parallel

    wl = ctx.workload
    options = ParallelOptions(num_procs=ctx.procs, executor=ctx.pool, tracer=tracer)
    out = PassResult(seq={"a": [], "b": []})
    index = 0
    w0 = time.perf_counter()
    while time.perf_counter() - w0 < seconds:
        pair = solve_long_pair(wl, ctx.seed, index)
        out.speed.sample(2)
        for req in pair:
            t0 = time.perf_counter()
            solution = solve_parallel(req.problem, options)
            t1 = time.perf_counter()
            out.records.append(
                Record(req.family, index, t0, t1, problem=req.problem, solution=solution)
            )
        out.pairs.append((out.records[-2].start, out.records[-1].end))
        if index % wl.seq_every == 0:
            for req, rec in zip(pair, out.records[-2:]):
                out.seq_speed.sample(2)
                with out.seq_speed.pinned():
                    t0 = time.perf_counter()
                    reference = solve_parallel(req.problem, num_procs=1)
                    out.seq[req.family].append((t0, time.perf_counter()))
                rec.correct = same_answer(rec.solution, reference)
        index += 1
    out.window = (w0, time.perf_counter())
    out.attempted = len(out.records)
    return out


def _reference(problem) -> tuple:
    """``solve_sequential`` in a pool worker: (answer, seconds).

    Only the compared fields travel back, not the final vector.
    """
    from repro import solve_sequential

    t0 = time.perf_counter()
    ref = solve_sequential(problem)
    answer = SimpleNamespace(path=ref.path, score=ref.score, objective_cell=ref.objective_cell)
    return answer, time.perf_counter() - t0


def verify(ctx: Context, result: PassResult, cache: dict) -> list[float]:
    """Check every unchecked answer against ``solve_sequential``, run on the pool.

    References are cached by (index, family) across passes of one run,
    since both passes use the same seeded instances.  Returns the
    reference solve times (ms) computed now.
    """
    todo = [r for r in result.records if r.correct is None and (r.index, r.family) not in cache]
    verify_ms = []
    width = ctx.pool.max_workers
    for lo in range(0, len(todo), width):
        batch = todo[lo : lo + width]
        refs = ctx.pool.run_superstep([partial(_reference, r.problem) for r in batch])
        for rec, (answer, seconds) in zip(batch, refs):
            cache[(rec.index, rec.family)] = answer
            verify_ms.append(seconds * 1e3)
    for rec in result.records:
        if rec.correct is None:
            rec.correct = same_answer(rec.solution, cache[(rec.index, rec.family)])
    _tally(result)
    return verify_ms


def same_answer(solution, reference) -> bool:
    return (
        np.array_equal(solution.path, reference.path)
        and solution.score == reference.score
        and solution.objective_cell == reference.objective_cell
    )


def _tally(result: PassResult) -> None:
    result.mismatches = sum(1 for r in result.records if r.status == "ok" and not r.correct)
    result.failed = sum(1 for r in result.records if r.status != "ok" or not r.correct)


# -- serve-neardup: closed loop -------------------------------------------
def serve_pass(ctx: Context, seconds: float) -> PassResult:
    """One client serving the seeded request stream for ``seconds``.

    Each loop submits the next request and waits for its answer.  Every
    ``seq_every``-th request is then solved with ``solve_sequential`` in
    this thread: the plain loop that serving must beat (``seq`` by
    family), and that answer's reference; :func:`verify` checks the
    others after the loop.  A calibration sample on the next core
    precedes each request; one on the pinned core precedes each
    plain-loop solve, which runs pinned there.
    """
    from repro import solve_sequential

    wl = ctx.workload
    out = PassResult(seq={"a": [], "b": []})
    stream = neardup_stream(wl, ctx.seed)
    index = 0
    w0 = time.perf_counter()
    while time.perf_counter() - w0 < seconds:
        req = next(stream)
        out.speed.sample()
        t0 = time.perf_counter()
        ticket = ctx.service.submit(req.problem)
        try:
            response = ticket.result(timeout=REQUEST_TIMEOUT_S)
        except TimeoutError:
            response = None
        rec = Record(
            req.family, index, t0, time.perf_counter(), problem=req.problem,
            request_id=ticket.request_id,
        )
        out.records.append(rec)
        if response is None:
            rec.status, rec.correct = "timeout", False
        else:
            rec.status = response.status
            rec.cache = response.cache
            rec.delta_cells = response.delta_cells
            rec.solution = response.solution
            if rec.status != "ok":
                rec.correct = False
        if index % wl.seq_every == 0:
            out.seq_speed.sample()
            with out.seq_speed.pinned():
                s0 = time.perf_counter()
                ref = solve_sequential(req.problem)
                out.seq[req.family].append((s0, time.perf_counter()))
            if rec.correct is None:
                rec.correct = same_answer(rec.solution, ref)
        index += 1
    out.window = (w0, time.perf_counter())
    out.attempted = len(out.records)
    return out


# -- memory ---------------------------------------------------------------
def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(pool) -> tuple[float, float]:
    """(this process + workers, workers only) peak resident set, MiB."""
    workers = sum(_vm_hwm_mb(pid) for pid in pool.worker_pids())
    return _vm_hwm_mb(os.getpid()) + workers, workers
