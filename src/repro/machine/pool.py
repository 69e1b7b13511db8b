"""`PoolProcessExecutor`: a persistent, fault-tolerant worker-pool runtime.

Forking one process *per task per superstep* would make a parallel
LTDP solve with ``k`` fix-up rounds pay ``P·(k+…)`` fork+pickle
round-trips.  This pool spawns ``max_workers`` OS processes **once**
(``fork`` where available, else ``spawn``), keeps them alive across
supersteps (and across solves), and talks to them over pipes:

- **generic tasks** — :meth:`run_superstep` ships picklable callables
  and returns their results, satisfying the classic
  :class:`~repro.machine.executor.Executor` contract;
- **resident-state calls** — :meth:`call_slots` routes
  ``(slot, fn, args)`` triples to the worker owning each slot and
  invokes ``fn(namespace, *args)`` against that worker's persistent
  namespace dict.  The LTDP engine uses this to ship the problem once,
  keep per-processor stage vectors resident in the workers, and
  exchange only boundary vectors per superstep — the paper's
  O(boundary) communication model made real.

Slots are 1-based virtual processor ids; slot ``p`` always maps to
worker ``(p-1) % max_workers``, so per-slot state stays on one worker
even when there are more virtual processors than OS processes.

Fault tolerance
---------------
Every request/reply pair is framed with a monotonically increasing
**sequence number**, so a stale reply left in a pipe by an abandoned
dispatch (e.g. a partial-send failure) is recognised and discarded
instead of being attributed to the wrong superstep.  While waiting for
a reply the driver health-checks the worker process; a crash triggers
**automatic respawn** with bounded retry/backoff.  After a respawn the
registered *rebuild hooks* (one per resident session, registered by
LTDP pool runtimes via :meth:`add_rebuild_hook`) re-ship each
session's problem and replay the dead slots' journalled supersteps,
reconstructing resident state bit-identically before the in-flight
message is re-sent.  Recovery counters accumulate on
:attr:`recovery_stats`.

Fault injection for tests: pass ``fault_plan={seq: worker}`` (or set
``REPRO_POOL_FAULTS="seq:worker,..."``) to SIGKILL a chosen worker just
before the dispatch with that sequence number is sent.

Error contract: worker-side exceptions are reported per task/call —
with the worker's full traceback — and re-raised in the driver as
:class:`ExecutorError` naming the failing slot; a worker that keeps
dying past ``max_retries`` respawns, or a reply that exceeds
``dispatch_timeout``, marks the executor broken and surfaces as
:class:`ExecutorError` too.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.exceptions import ExecutorError, WorkerCrashError
from repro.machine.executor import Executor, ExecutorCapabilities, Task

__all__ = ["PoolProcessExecutor", "RecoveryStats", "FAULT_PLAN_ENV"]

#: Environment variable carrying a fault plan as ``"seq:worker,seq:worker"``.
FAULT_PLAN_ENV = "REPRO_POOL_FAULTS"


@dataclass
class RecoveryStats:
    """Counters of the pool's self-healing activity (monotonic per executor)."""

    #: Dead workers replaced with freshly spawned processes.
    respawns: int = 0
    #: In-flight dispatches re-sent after a worker crash.
    retries: int = 0
    #: Journalled superstep specs replayed to rebuild resident state.
    replayed_supersteps: int = 0

    def snapshot(self) -> "RecoveryStats":
        return RecoveryStats(self.respawns, self.retries, self.replayed_supersteps)


def _parse_fault_plan(spec: str) -> dict[int, int]:
    """``"2:0,5:1"`` → ``{2: 0, 5: 1}`` (dispatch seq → worker index)."""
    plan: dict[int, int] = {}
    for part in spec.replace(",", " ").split():
        seq_text, sep, worker_text = part.partition(":")
        if not sep:
            raise ValueError(
                f"malformed fault plan entry {part!r}; expected 'seq:worker'"
            )
        plan[int(seq_text)] = int(worker_text)
    return plan


def _pool_worker_main(conn) -> None:  # pragma: no cover - runs in the worker
    """Worker loop: sequence-framed request/reply over one duplex pipe.

    ``ns`` is the worker's persistent namespace — it outlives individual
    messages, which is the whole point of the pool.  Every reply echoes
    the request's sequence number so the driver can never attribute it
    to the wrong dispatch, plus a timing meta dict (perf_counter stamps
    of receive and completion) from which the driver derives queue-wait
    and compute breakdowns when tracing is on.
    """
    ns: dict[str, Any] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        recv_t = time.perf_counter()
        kind, seq, payload = msg
        if kind == "stop":
            break
        replies: list[tuple[bool, Any]] = []
        if kind == "ping":
            replies.append((True, None))
        else:
            for fn, args in payload:
                try:
                    if kind == "nscalls":
                        replies.append((True, fn(ns, *args)))
                    else:  # "calls": plain callables
                        replies.append((True, fn(*args)))
                except BaseException as exc:  # repro: noqa[REP005]: worker loop must survive and report every task failure, not die on it
                    replies.append(
                        (
                            False,
                            (
                                f"{type(exc).__name__}: {exc}",
                                traceback.format_exc(),
                            ),
                        )
                    )
        meta = {"recv_t": recv_t, "done_t": time.perf_counter()}
        try:
            conn.send((os.getpid(), seq, replies, meta))
        except BrokenPipeError:
            break
    conn.close()


def _shutdown_workers(procs: list, conns: list) -> None:
    """Stop and reap every worker; shared by ``close()``, ``weakref.finalize``
    and interpreter-exit cleanup (finalizers run atexit by default)."""
    for conn in conns:
        try:
            conn.send(("stop", -1, None))
        except (BrokenPipeError, OSError, ValueError):
            pass
    for proc in procs:
        try:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
    procs.clear()
    conns.clear()


def _failure_text(payload: Any) -> str:
    """Render a worker failure payload — ``(summary, traceback)`` — as text."""
    if isinstance(payload, tuple) and len(payload) == 2:
        summary, tb = payload
        if tb:
            return f"{summary}\n{str(tb).rstrip()}"
        return str(summary)
    return str(payload)


class PoolProcessExecutor(Executor):
    """Persistent multi-process executor with worker-resident state."""

    #: Typed capability declaration: signals the LTDP engine to use the
    #: state-resident pool runtime and enables the block-kernel tier.
    capabilities = ExecutorCapabilities(resident_state=True, block_kernels=True)

    #: Shared mutable state and the lock that guards it (checked
    #: statically by ``repro lint`` REP007).  Everything here may be
    #: touched from more than one thread at once: the serve layer's
    #: batcher thread dispatches while the thread that owns the service
    #: closes the pool or runs its own solves on a shared pool.
    #: ``_broken`` additionally has two deliberate lock-free fast paths,
    #: waived at the access sites.
    guarded_fields = {
        "_seq": "_state_lock",
        "dispatch_count": "_state_lock",
        "_fault_plan": "_state_lock",
        "_rebuild_hooks": "_state_lock",
        "_closing": "_state_lock",
        "recovery_stats": "_state_lock",
        "_broken": "_state_lock",
    }

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        start_method: str | None = None,
        fault_plan: dict[int, int] | Sequence[tuple[int, int]] | None = None,
        dispatch_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        health_interval: float = 0.05,
        ping_timeout: float = 5.0,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or os.cpu_count() or 1
        if start_method is None:
            start_method = "fork" if hasattr(os, "fork") else "spawn"
        elif start_method not in mp.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} not available on this platform"
            )
        self.start_method = start_method
        self._ctx = mp.get_context(start_method)
        self.dispatch_timeout = dispatch_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.health_interval = health_interval
        self.ping_timeout = ping_timeout
        #: Self-healing counters; the LTDP driver folds deltas of these
        #: into the solve's :class:`~repro.machine.metrics.RunMetrics`.
        self.recovery_stats = RecoveryStats()
        # Fault injection: {dispatch seq -> worker index to SIGKILL just
        # before that dispatch is sent}.  Entries are one-shot.
        env_plan = os.environ.get(FAULT_PLAN_ENV)
        self._fault_plan: dict[int, int] = (
            _parse_fault_plan(env_plan) if env_plan else {}
        )
        if fault_plan:
            self._fault_plan.update(dict(fault_plan))
        # Workers.  The lists are mutated in place (never rebound) so the
        # weakref finalizer — which holds them, not ``self`` — always sees
        # the live processes even after respawns.
        self._procs: list[Any] = []
        self._conns: list[Any] = []
        self._finalizer: weakref.finalize | None = None
        # Concurrency: several threads may dispatch at once (a serve
        # batcher and ad-hoc solves sharing the pool) or close the pool
        # while a dispatch is in flight.  The state lock guards the
        # shared counters / fault plan / spawn bookkeeping; per-worker
        # locks serialize pipe traffic so two dispatches to one worker
        # can never interleave frames.  RLocks: recovery paths nest
        # (dispatch → recover → ping) on the same worker.
        self._state_lock = threading.RLock()
        # Per-worker locks exist to serialize pipe I/O; blocking under
        # them is their purpose, hence the transport role (REP009 exempt).
        self._worker_locks: list[threading.RLock] = []  # lock-role: transport
        self._closing = False
        self._seq = 0
        #: Total ``_dispatch`` invocations; fault plans key off this.
        self.dispatch_count = 0
        self._broken: str | None = None
        # Rebuild hooks, keyed by owner (one per resident session so
        # several sessions can share the pool); insertion-ordered.
        self._rebuild_hooks: dict[Any, Callable[[int], tuple[list, int]]] = {}
        # Optional span tracer (set by the LTDP pool runtime while a
        # traced solve is in flight).  ``None`` keeps every dispatch on
        # the zero-overhead path.
        self._tracer = None
        #: One entry per dispatched superstep: the set of worker PIDs
        #: that replied.  Tests use this to assert PID stability.
        self.pid_log: deque[frozenset[int]] = deque(maxlen=1024)

    # ------------------------------------------------------------------
    def _spawn_worker(self) -> tuple[Any, Any]:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _ensure_workers(self) -> None:
        with self._state_lock:
            if self._procs:
                return
            if self._closing:
                raise ExecutorError(
                    "PoolProcessExecutor is closed: run_superstep after "
                    "close() is an error (create a new executor to "
                    "dispatch again)"
                )
            for _ in range(self.max_workers):
                proc, conn = self._spawn_worker()
                self._procs.append(proc)
                self._conns.append(conn)
            while len(self._worker_locks) < len(self._procs):
                self._worker_locks.append(threading.RLock())
            if self._finalizer is None:
                self._finalizer = weakref.finalize(
                    self, _shutdown_workers, self._procs, self._conns
                )

    @property
    def num_workers(self) -> int:
        self._ensure_workers()
        return len(self._procs)

    def worker_pids(self) -> list[int]:
        """PIDs of the (lazily spawned) persistent workers, in slot order."""
        self._ensure_workers()
        return [p.pid for p in self._procs]

    def _worker_index(self, slot: int) -> int:
        return (slot - 1) % self.num_workers

    def worker_of_slot(self, slot: int) -> int:
        """Index of the persistent worker that owns 1-based ``slot``."""
        return self._worker_index(slot)

    def add_rebuild_hook(
        self, owner: Any, hook: Callable[[int], tuple[list, int]]
    ) -> None:
        """Register a resident-state reconstruction hook under ``owner``.

        ``hook(worker_index)`` must return ``(calls, replayed)``: a list
        of ``(fn, args)`` namespace calls that rebuild every slot the
        worker owns for the owner's session (run against the fresh
        worker before the in-flight message is re-sent), and the number
        of journalled supersteps those calls replay (for
        :attr:`recovery_stats` accounting).  Multiple owners — one per
        resident session sharing the pool — may register concurrently;
        a respawn runs every registered hook, in registration order.
        """
        with self._state_lock:
            self._rebuild_hooks[owner] = hook

    def remove_rebuild_hook(self, owner: Any) -> None:
        """Deregister ``owner``'s hook (no-op when absent)."""
        with self._state_lock:
            self._rebuild_hooks.pop(owner, None)

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.machine.trace.Tracer` (or ``None``).

        While attached, every dispatch emits one ``"dispatch"`` span per
        involved worker — send / queue-wait / compute seconds plus
        request/reply byte counts — and recovery paths emit
        ``worker-respawn`` / ``dispatch-retry`` / ``superstep-replay``
        events.  Cleared (``None``) the pool takes the untraced path.
        """
        self._tracer = tracer

    def _next_seq(self) -> int:
        with self._state_lock:
            self._seq += 1
            return self._seq

    # -- crash detection / recovery ------------------------------------
    def _check_broken(self) -> None:
        broken = self._broken  # repro: noqa[REP007]: lock-free fast path on the hot dispatch route; a stale read only delays the error by one dispatch
        if broken is not None:
            raise ExecutorError(
                f"pool executor is marked broken ({broken}); "
                "create a new executor"
            )

    def _mark_broken(self, reason: str) -> None:
        self._broken = reason  # repro: noqa[REP007]: monotonic error-string write; racing writers both leave the pool broken, which is the point

    def _kill_worker(self, w: int) -> None:
        """SIGKILL worker ``w`` (fault injection)."""
        if not (0 <= w < len(self._procs)):
            return
        proc = self._procs[w]
        try:
            proc.kill()
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            return
        proc.join(timeout=5)

    def _recv(self, w: int, timeout: float | None) -> tuple[int, int, list, dict]:
        """One framed reply from worker ``w``, health-checking while waiting.

        Returns ``(pid, seq, replies, meta)``; ``meta`` carries the
        worker's receive/completion perf_counter stamps plus the reply's
        on-the-wire size (``reply_bytes``, added here).

        Raises :class:`WorkerCrashError` when the worker process dies and
        :class:`ExecutorError` (executor marked broken) on timeout.
        """
        conn = self._conns[w]
        proc = self._procs[w]
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = self.health_interval
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._mark_broken(
                        f"worker {w} did not reply within {timeout}s"
                    )
                    raise ExecutorError(
                        f"pool worker {w} (pid={proc.pid}) did not reply "
                        f"within the {timeout}s dispatch timeout"
                    )
                wait = min(wait, remaining)
            try:
                if conn.poll(wait):
                    return self._decode_reply(conn.recv_bytes())
            except (EOFError, OSError) as exc:
                raise WorkerCrashError(
                    f"pool worker {w} (pid={proc.pid}) died: {exc!r}"
                ) from None
            if not proc.is_alive():
                # Drain anything the worker managed to flush before dying.
                try:
                    if conn.poll(0):
                        return self._decode_reply(conn.recv_bytes())
                except (EOFError, OSError):
                    pass
                raise WorkerCrashError(
                    f"pool worker {w} (pid={proc.pid}) died without a result"
                )

    @staticmethod
    def _decode_reply(buf: bytes) -> tuple[int, int, list, dict]:
        """Unpickle one framed reply, recording its wire size in the meta."""
        pid, seq, replies, meta = pickle.loads(buf)
        meta["reply_bytes"] = len(buf)
        return pid, seq, replies, meta

    def ping(self, w: int, timeout: float | None = None) -> bool:
        """Health check: round-trip a ``ping`` through worker ``w``.

        Stale replies queued ahead of the pong (from abandoned
        dispatches) are discarded by sequence number.  Returns False on
        crash or timeout instead of raising.
        """
        self._ensure_workers()
        with self._worker_locks[w]:
            seq = self._next_seq()
            timeout = self.ping_timeout if timeout is None else timeout
            prior_broken = self._broken  # repro: noqa[REP007]: snapshot under the worker lock only; ping restores whatever brokenness preceded it
            try:
                self._conns[w].send(("ping", seq, None))
                deadline = time.monotonic() + timeout
                while True:
                    _, rseq, _, _ = self._recv(
                        w, max(1e-6, deadline - time.monotonic())
                    )
                    if rseq == seq:
                        return True
                    if rseq > seq:  # pragma: no cover - defensive
                        return False
            except (WorkerCrashError, ExecutorError, BrokenPipeError, OSError):
                self._broken = prior_broken  # repro: noqa[REP007]: a failed ping itself is not fatal; undoes _recv's mark without claiming the state lock inside the worker lock
                return False

    def check_health(self) -> list[int]:
        """Ping every worker, respawning (and rebuilding) any dead one.

        Returns the post-check worker PIDs in slot order.
        """
        self._ensure_workers()
        for w in range(len(self._procs)):
            if not self.ping(w):
                self._recover_worker(w)
                if not self.ping(w):
                    self._mark_broken(
                        f"respawned worker {w} failed its health check"
                    )
                    raise ExecutorError(
                        f"respawned pool worker {w} failed its health check"
                    )
        return self.worker_pids()

    def _recover_worker(self, w: int) -> None:
        """Replace dead worker ``w`` and reconstruct its resident state."""
        with self._state_lock:
            if self._closing:
                raise ExecutorError(
                    "pool executor is closing; refusing to respawn worker "
                    f"{w} mid-teardown"
                )
        self._worker_locks[w].acquire()
        try:
            self._recover_worker_locked(w)
        finally:
            self._worker_locks[w].release()

    def _recover_worker_locked(self, w: int) -> None:
        old = self._procs[w]
        try:
            self._conns[w].close()
        except OSError:  # pragma: no cover - defensive
            pass
        try:
            old.join(timeout=1)
            if old.is_alive():
                old.terminate()
                old.join(timeout=1)
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
        proc, conn = self._spawn_worker()
        self._procs[w] = proc
        self._conns[w] = conn
        with self._state_lock:
            self.recovery_stats.respawns += 1
        if self._tracer:
            self._tracer.event("worker-respawn", worker=w, pid=proc.pid)
        if not self.ping(w):
            self._mark_broken(f"respawned worker {w} failed its health check")
            raise ExecutorError(
                f"respawned pool worker {w} (pid={proc.pid}) failed its "
                "health check"
            )
        with self._state_lock:
            hooks = list(self._rebuild_hooks.values())
        if not hooks:
            return
        calls: list = []
        replayed = 0
        for hook in hooks:
            hook_calls, hook_replayed = hook(w)
            calls.extend(hook_calls)
            replayed += hook_replayed
        if calls:
            seq = self._next_seq()
            try:
                self._conns[w].send(("nscalls", seq, list(calls)))
                _, rseq, replies, _ = self._recv(w, self.dispatch_timeout)
            except (WorkerCrashError, BrokenPipeError, OSError) as exc:
                self._mark_broken(
                    f"worker {w} died again during state reconstruction"
                )
                raise ExecutorError(
                    f"pool worker {w} died again while replaying resident "
                    "state; giving up"
                ) from exc
            if rseq != seq:  # pragma: no cover - fresh pipe, defensive
                self._mark_broken(f"worker {w} replay reply out of sequence")
                raise ExecutorError(
                    f"pool worker {w} replied out of sequence during replay"
                )
            for ok, payload in replies:
                if not ok:
                    self._mark_broken(f"worker {w} state replay failed")
                    raise ExecutorError(
                        f"replaying resident state on respawned pool worker "
                        f"{w} failed: {_failure_text(payload)}"
                    )
        with self._state_lock:
            self.recovery_stats.replayed_supersteps += replayed
        if self._tracer and replayed:
            self._tracer.event("superstep-replay", worker=w, replayed=replayed)

    # -- low-level request/reply ---------------------------------------
    def _dispatch(
        self, per_worker: dict[int, tuple[str, list[tuple[Callable, tuple]]]]
    ) -> dict[int, list[tuple[bool, Any]]]:
        """Send one batched message per involved worker, collect replies.

        Crashed workers are respawned (resident state rebuilt via the
        hook) and their message re-sent, up to ``max_retries`` times
        each with exponential backoff.  A send that fails because the
        *message* is unpicklable raises without poisoning the protocol:
        workers that did receive the dispatch will answer with this
        sequence number, and the next dispatch discards those replies
        as stale.
        """
        self._ensure_workers()
        self._check_broken()
        # Serialize pipe traffic per worker: threads dispatching to the
        # same worker (a serve batcher and an ad-hoc solve on a shared
        # pool) take turns; sorted acquisition order keeps multi-worker
        # dispatches deadlock-free.
        locks = [self._worker_locks[w] for w in sorted(per_worker)]
        for lock in locks:
            lock.acquire()
        try:
            return self._dispatch_locked(per_worker)
        finally:
            for lock in reversed(locks):
                lock.release()

    def _dispatch_locked(
        self, per_worker: dict[int, tuple[str, list[tuple[Callable, tuple]]]]
    ) -> dict[int, list[tuple[bool, Any]]]:
        tracer = self._tracer
        with self._state_lock:
            seq = self._next_seq()
            self.dispatch_count += 1
            fault = self._fault_plan.pop(seq, None)
        if fault is not None:
            self._kill_worker(fault)
        messages = {
            w: (kind, seq, calls) for w, (kind, calls) in per_worker.items()
        }
        # When tracing, pickle explicitly so the request's wire size and
        # serialization time are measurable; send_bytes produces the
        # identical wire format Connection.send would.
        send_info: dict[int, tuple[float, float, int]] = {}
        for w, msg in messages.items():
            try:
                if tracer:
                    s0 = time.perf_counter()
                    blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
                    self._conns[w].send_bytes(blob)
                    send_info[w] = (s0, time.perf_counter(), len(blob))
                else:
                    self._conns[w].send(msg)
            except (BrokenPipeError, OSError):
                # Worker is gone; the reply loop below recovers it and
                # re-sends.  Nothing reached the pipe.
                pass
            except Exception as exc:  # repro: noqa[REP005]: arbitrary user tasks can fail pickling in arbitrary ways; rewrapped as ExecutorError below
                raise ExecutorError(
                    f"cannot ship work to pool worker {w}: {exc!r} "
                    "(tasks and their arguments must be picklable)"
                ) from exc
        replies: dict[int, list[tuple[bool, Any]]] = {}
        pids: set[int] = set()
        for w, msg in messages.items():
            pid, reply, meta = self._await_reply(w, msg)
            pids.add(pid)
            replies[w] = reply
            if tracer:
                t_end = time.perf_counter()
                s0, s1, nbytes = send_info.get(w, (t_end, t_end, 0))
                # perf_counter shares its epoch across processes on
                # Linux, so the worker's receive stamp minus our send
                # completion approximates pipe/queue wait.
                recv_t = meta.get("recv_t", s1)
                tracer.add_span(
                    "dispatch",
                    s0,
                    t_end,
                    worker=w,
                    pid=pid,
                    seq=seq,
                    kind=msg[0],
                    calls=len(msg[2]) if msg[2] else 0,
                    send_seconds=s1 - s0,
                    queue_wait_seconds=max(0.0, recv_t - s1),
                    compute_seconds=max(
                        0.0, meta.get("done_t", recv_t) - recv_t
                    ),
                    request_bytes=nbytes,
                    reply_bytes=meta.get("reply_bytes", 0),
                )
        if pids:
            self.pid_log.append(frozenset(pids))
        return replies

    def _await_reply(
        self, w: int, msg: tuple[str, int, list]
    ) -> tuple[int, list[tuple[bool, Any]], dict]:
        """Reply matching ``msg``'s sequence number, recovering crashes."""
        seq = msg[1]
        attempts = 0
        while True:
            try:
                pid, rseq, reply, meta = self._recv(w, self.dispatch_timeout)
            except WorkerCrashError as exc:
                attempts += 1
                if attempts > self.max_retries:
                    self._mark_broken(
                        f"worker {w} kept dying ({attempts - 1} retries)"
                    )
                    raise ExecutorError(
                        f"pool worker {w} kept dying; gave up after "
                        f"{self.max_retries} respawn attempts"
                    ) from exc
                with self._state_lock:
                    self.recovery_stats.retries += 1
                if self._tracer:
                    self._tracer.event(
                        "dispatch-retry", worker=w, seq=seq, attempt=attempts
                    )
                if self.retry_backoff:
                    time.sleep(self.retry_backoff * (2 ** (attempts - 1)))
                self._recover_worker(w)
                try:
                    self._conns[w].send(msg)
                except (BrokenPipeError, OSError):
                    continue  # died again already; next _recv notices
                continue
            if rseq == seq:
                return pid, reply, meta
            if rseq < seq:
                continue  # stale reply from an abandoned dispatch: drop
            self._mark_broken(
                f"worker {w} replied with future sequence {rseq}"
            )
            raise ExecutorError(
                f"pool protocol error: worker {w} replied with sequence "
                f"{rseq} while {seq} was awaited"
            )

    # -- classic Executor contract -------------------------------------
    def run_superstep(self, tasks: Sequence[Task]) -> list[Any]:
        """Run picklable callables, task ``i`` on worker ``i % max_workers``.

        Tasks are shipped by pickle — closures over local state will
        not survive the trip; use
        module-level functions (the LTDP engine routes its work through
        :meth:`call_slots` instead, which the pool runtime feeds with
        declarative spec objects).  Tasks should be side-effect free:
        crash recovery re-sends a dead worker's whole batch.
        """
        self._check_open()
        if not tasks:
            return []
        per_worker: dict[int, tuple[str, list[tuple[Callable, tuple]]]] = {}
        positions: dict[int, list[int]] = {}
        for idx, task in enumerate(tasks):
            w = idx % self.num_workers
            per_worker.setdefault(w, ("calls", []))[1].append((task, ()))
            positions.setdefault(w, []).append(idx)
        replies = self._dispatch(per_worker)
        results: list[Any] = [None] * len(tasks)
        errors: list[str] = []
        for w, reply in replies.items():
            for idx, (ok, payload) in zip(positions[w], reply):
                if ok:
                    results[idx] = payload
                else:
                    errors.append(
                        f"task {idx} (processor {idx + 1}) failed: "
                        f"{_failure_text(payload)}"
                    )
        if errors:
            raise ExecutorError("; ".join(sorted(errors)))
        return results

    # -- resident-state interface (used by the LTDP pool runtime) ------
    def call_slots(
        self, calls: Sequence[tuple[int, Callable, tuple]]
    ) -> list[Any]:
        """Invoke ``fn(namespace, *args)`` on each slot's owning worker.

        Returns results in call order.  The namespace dict persists on
        the worker between calls — resident state lives there.
        """
        self._check_open()
        if not calls:
            return []
        per_worker: dict[int, tuple[str, list[tuple[Callable, tuple]]]] = {}
        positions: dict[int, list[int]] = {}
        for idx, (slot, fn, args) in enumerate(calls):
            w = self._worker_index(slot)
            per_worker.setdefault(w, ("nscalls", []))[1].append((fn, args))
            positions.setdefault(w, []).append(idx)
        replies = self._dispatch(per_worker)
        results: list[Any] = [None] * len(calls)
        errors: list[str] = []
        for w, reply in replies.items():
            for idx, (ok, payload) in zip(positions[w], reply):
                if ok:
                    results[idx] = payload
                else:
                    slot = calls[idx][0]
                    errors.append(
                        f"processor {slot} failed: {_failure_text(payload)}"
                    )
        if errors:
            raise ExecutorError("; ".join(sorted(errors)))
        return results

    def broadcast(self, fn: Callable, args: tuple = ()) -> list[Any]:
        """Invoke ``fn(namespace, *args)`` once on *every* worker."""
        self._check_open()
        self._ensure_workers()
        per_worker = {
            w: ("nscalls", [(fn, args)]) for w in range(self.num_workers)
        }
        replies = self._dispatch(per_worker)
        results = []
        errors = []
        for w in range(self.num_workers):
            ok, payload = replies[w][0]
            if ok:
                results.append(payload)
            else:
                errors.append(f"worker {w} failed: {_failure_text(payload)}")
        if errors:
            raise ExecutorError("; ".join(errors))
        return results

    # ------------------------------------------------------------------
    def __enter__(self) -> "PoolProcessExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap the workers.  Idempotent and **permanent**: any
        later dispatch raises :class:`ExecutorError` instead of lazily
        respawning workers.

        (Lazy revival after close was never relied on and raced the
        serve layer's drain path: a request slipping in after close
        would silently restart the worker fleet — and leak it.)

        Even without an explicit ``close()`` (CLI error paths,
        interactive sessions) the workers are reclaimed when the
        executor is garbage-collected or the interpreter exits, via the
        ``weakref.finalize`` registered at spawn time.

        Teardown ordering: ``_closing`` blocks respawns from the moment
        teardown starts.
        """
        with self._state_lock:
            self._closing = True
            self._closed = True
        finalizer = self._finalizer
        self._finalizer = None
        if finalizer is not None:
            finalizer()
