"""REP007/REP008/REP009: the concurrency lint tier.

Trigger AND near-miss fixtures for each rule — the near-misses are the
annotations' whole value proposition: caller-locked methods, transport
-role locks and own-condition waits are exactly the legitimate patterns
the live runner/pool/serve code uses.
"""

from tests.lint.conftest import codes, run_lint, run_lint_files

FAKE = "src/repro/machine/fake.py"


# -- REP007: guarded-by discipline --------------------------------------


class TestGuardedByTriggers:
    def test_unlocked_write_of_declared_field(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: self._lock

                def bump(self):
                    self._n += 1
            """,
        )
        assert codes(r) == ["REP007"]
        assert "write to `self._n`" in r.findings[0].message
        assert "Counter.bump" in r.findings[0].message

    def test_unlocked_read_of_declared_field(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: self._lock

                def peek(self):
                    return self._n
            """,
        )
        assert codes(r) == ["REP007"]
        assert "read of `self._n`" in r.findings[0].message

    def test_guarded_fields_class_declaration(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Counter:
                guarded_fields = {"_n": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    self._n += 1
            """,
        )
        assert codes(r) == ["REP007"]

    def test_guard_naming_unknown_lock_is_flagged(self):
        # A typo in the guard must be loud, not silently unenforced.
        r = run_lint(
            FAKE,
            """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: self._locc
            """,
        )
        assert codes(r) == ["REP007"]
        assert "not a discovered lock" in r.findings[0].message


class TestGuardedByNearMisses:
    def test_access_inside_with_lock_is_clean(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: self._lock

                def bump(self):
                    with self._lock:
                        self._n += 1
            """,
        )
        assert r.findings == []

    def test_caller_locked_method_is_clean(self):
        # The near-miss the annotation syntax exists for: a helper only
        # ever invoked with the lock already held.
        r = run_lint(
            FAKE,
            """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: self._lock

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def _bump_locked(self):  # repro: locked[self._lock]
                    self._n += 1
            """,
        )
        assert r.findings == []

    def test_init_is_exempt(self):
        # Construction happens-before publication; __init__ writes are
        # not findings even for declared fields.
        r = run_lint(
            FAKE,
            """\
            import threading

            class Counter:
                guarded_fields = {"_n": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0
                    self._n = self._n + 1
            """,
        )
        assert r.findings == []

    def test_undeclared_field_is_not_checked(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    self._n += 1
            """,
        )
        assert r.findings == []


# -- REP008: lock-order deadlock detection ------------------------------

#: A miniature pool with a seeded two-lock cycle: ``dispatch`` nests
#: worker[i] inside state (the ISSUE's canonical order), while ``ping``
#: nests state inside worker[i] — the inversion.  Two threads running
#: one each deadlock.
CYCLE_POOL = """\
import threading

class MiniPool:
    def __init__(self, n: int):
        self._state_lock = threading.RLock()
        self._worker_locks: list[threading.RLock] = []
        self._seq = 0

    def dispatch(self, w):
        with self._state_lock:
            with self._worker_locks[w]:
                pass

    def ping(self, w):
        with self._worker_locks[w]:
            with self._state_lock:
                self._seq += 1
"""


class TestLockOrderTriggers:
    def test_two_lock_cycle_reports_full_path(self):
        r = run_lint(FAKE, CYCLE_POOL)
        assert codes(r) == ["REP008"]
        msg = r.findings[0].message
        assert "lock-order cycle" in msg
        # The full cycle path, with both directed edges and their
        # witnesses, is in the one message.
        assert "MiniPool._state_lock" in msg
        assert "MiniPool._worker_locks[i]" in msg
        assert "MiniPool.dispatch" in msg
        assert "MiniPool.ping" in msg
        assert FAKE in msg  # per-edge witness locations

    def test_cycle_through_a_call_is_found(self):
        # The inversion hides one hop away: ping holds worker[i] and
        # calls a helper that takes the state lock.
        r = run_lint(
            FAKE,
            """\
            import threading

            class MiniPool:
                def __init__(self):
                    self._state_lock = threading.RLock()
                    self._worker_locks: list[threading.RLock] = []
                    self._seq = 0

                def _next_seq(self):
                    with self._state_lock:
                        self._seq += 1
                        return self._seq

                def dispatch(self, w):
                    with self._state_lock:
                        with self._worker_locks[w]:
                            pass

                def ping(self, w):
                    with self._worker_locks[w]:
                        return self._next_seq()
            """,
        )
        assert "REP008" in codes(r)
        assert any("lock-order cycle" in f.message for f in r.findings)

    def test_acquire_without_release(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Leaky:
                def __init__(self):
                    self._lock = threading.Lock()

                def grab(self):
                    self._lock.acquire()
                    return 1
            """,
        )
        assert codes(r) == ["REP008"]
        assert "no matching `release()`" in r.findings[0].message

    def test_nonreentrant_reacquisition(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class SelfDeadlock:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
        )
        assert codes(r) == ["REP008"]
        assert "self-deadlock" in r.findings[0].message


class TestLockOrderNearMisses:
    def test_consistent_nesting_is_clean(self):
        # Same two locks, always state -> worker[i]: an ordered pair is
        # fine; only the inversion closes a cycle.
        r = run_lint(
            FAKE,
            """\
            import threading

            class MiniPool:
                def __init__(self):
                    self._state_lock = threading.RLock()
                    self._worker_locks: list[threading.RLock] = []

                def dispatch(self, w):
                    with self._state_lock:
                        with self._worker_locks[w]:
                            pass

                def ping(self, w):
                    with self._state_lock:
                        with self._worker_locks[w]:
                            pass
            """,
        )
        assert r.findings == []

    def test_acquire_with_release_in_finally_is_clean(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Careful:
                def __init__(self):
                    self._lock = threading.Lock()

                def grab(self):
                    self._lock.acquire()
                    try:
                        return 1
                    finally:
                        self._lock.release()
            """,
        )
        assert r.findings == []

    def test_reentrant_reacquisition_is_clean(self):
        # RLock self-nesting (dispatch -> recover -> ping on the same
        # worker lock) is the pool's documented pattern.
        r = run_lint(
            FAKE,
            """\
            import threading

            class Nested:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """,
        )
        assert r.findings == []


# -- REP009: blocking-call-under-lock -----------------------------------


class TestBlockingUnderLockTriggers:
    def test_pipe_send_under_state_lock(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Pool:
                def __init__(self, conn):
                    self._state_lock = threading.RLock()
                    self._conn = conn

                def push(self, msg):
                    with self._state_lock:
                        self._conn.send(msg)
            """,
        )
        assert codes(r) == ["REP009"]
        assert "pipe I/O" in r.findings[0].message
        assert "_state_lock" in r.findings[0].message

    def test_thread_join_under_lock(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Crew:
                def __init__(self, t):
                    self._lock = threading.Lock()
                    self._t = t

                def stop(self):
                    with self._lock:
                        self._t.join()
            """,
        )
        assert codes(r) == ["REP009"]
        assert "join" in r.findings[0].message

    def test_blocking_reached_through_a_call(self):
        # Interprocedural: the lock holder calls a helper whose body
        # does the pipe I/O; the trail is named in the message.
        r = run_lint(
            FAKE,
            """\
            import threading

            class Pool:
                def __init__(self, conn):
                    self._state_lock = threading.RLock()
                    self._conn = conn

                def _send(self, msg):
                    self._conn.send(msg)

                def push(self, msg):
                    with self._state_lock:
                        self._send(msg)
            """,
        )
        assert codes(r) == ["REP009"]
        assert "Pool._send" in r.findings[0].message

    def test_pickling_under_lock(self):
        r = run_lint(
            FAKE,
            """\
            import pickle
            import threading

            class Pool:
                def __init__(self):
                    self._state_lock = threading.RLock()

                def pack(self, msg):
                    with self._state_lock:
                        return pickle.dumps(msg)
            """,
        )
        assert codes(r) == ["REP009"]
        assert "pickle" in r.findings[0].message


class TestBlockingUnderLockNearMisses:
    def test_transport_role_lock_is_exempt(self):
        # The pool's per-worker pipe locks: serializing this I/O is the
        # lock's purpose.
        r = run_lint(
            FAKE,
            """\
            import threading

            class Pool:
                def __init__(self, conn):
                    self._pipe_lock = threading.Lock()  # lock-role: transport
                    self._conn = conn

                def push(self, msg):
                    with self._pipe_lock:
                        self._conn.send(msg)
            """,
        )
        assert r.findings == []

    def test_waiting_on_own_condition_is_exempt(self):
        # Condition.wait_for releases the condition it blocks on — the
        # canonical blocking-queue pull pattern.
        r = run_lint(
            FAKE,
            """\
            import threading

            class Queue:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._items = []  # guarded-by: self._cond

                def pull(self):
                    with self._cond:
                        self._cond.wait_for(lambda: self._items)
                        return self._items.pop()
            """,
        )
        assert r.findings == []

    def test_waiting_on_another_condition_is_flagged(self):
        # Holding lock A while waiting on condition B does NOT release
        # A: every A-contender stalls until the wait returns.
        r = run_lint(
            FAKE,
            """\
            import threading

            class TwoLocks:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition()

                def bad_wait(self):
                    with self._lock:
                        with self._cond:
                            self._cond.wait()
            """,
        )
        assert "REP009" in codes(r)

    def test_blocking_outside_the_lock_is_clean(self):
        r = run_lint(
            FAKE,
            """\
            import threading

            class Pool:
                def __init__(self, conn):
                    self._state_lock = threading.RLock()
                    self._conn = conn

                def push(self, msg):
                    with self._state_lock:
                        seq = 1
                    self._conn.send((seq, msg))
            """,
        )
        assert r.findings == []


# -- thread-root reachability (REP003 extension) ------------------------


class TestThreadRootReachability:
    def test_thread_target_method_is_a_determinism_root(self):
        # A runner loop spawned via threading.Thread(target=...) is a
        # concurrency entry point: nondeterminism inside it (or anything
        # it calls) is REP003 even though no pool-worker main names it.
        r = run_lint_files(
            {
                "src/repro/ltdp/engine/crew.py": """\
                import threading
                import time

                class Crew:
                    def __init__(self):
                        self._t = threading.Thread(target=self._loop)

                    def _loop(self):
                        return time.time()
                """
            }
        )
        assert codes(r) == ["REP003"]
        assert "wall clock" in r.findings[0].message

    def test_unspawned_method_is_not_a_root(self):
        r = run_lint_files(
            {
                "src/repro/ltdp/engine/crew.py": """\
                import time

                class Crew:
                    def _loop(self):
                        return time.time()
                """
            }
        )
        assert r.findings == []

    def test_module_function_target_resolves_through_import(self):
        r = run_lint_files(
            {
                "src/repro/ltdp/engine/loops.py": """\
                import time

                def batcher_loop():
                    return time.time()
                """,
                "src/repro/ltdp/engine/crew.py": """\
                import threading

                from repro.ltdp.engine.loops import batcher_loop

                def start():
                    return threading.Thread(target=batcher_loop)
                """,
            }
        )
        assert codes(r) == ["REP003"]
        assert r.findings[0].path == "src/repro/ltdp/engine/loops.py"
