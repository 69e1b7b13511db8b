"""LTDPService contract tests: admission, batching, caching, teardown.

The serving guarantees under test:

- every ``ok`` answer is **bit-identical** to a fresh sequential solve,
  whether it came from a fresh sweep (miss) or from §4.7 delta repair
  of the resident canonical (hit);
- backpressure is synchronous and observable (bounded queue, rejected
  tickets resolve immediately with a reason, counted per class);
- shutdown is a graceful drain with zero leaked workers, and a request
  racing a dead executor resolves as an ``error`` response rather than
  hanging.
"""

import os
import threading

import numpy as np
import pytest

from repro.datagen.sequences import homologous_pair
from repro.ltdp.sequential import solve_sequential
from repro.machine.pool import PoolProcessExecutor
from repro.problems.alignment.lcs import LCSProblem
from repro.serve import (
    CACHE_HIT,
    CACHE_MISS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    LTDPService,
)

SIZE = 32
WIDTH = 8


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _mutate(a, rng, k=2):
    out = np.array(a, copy=True)
    for pos in rng.choice(out.size, size=k, replace=False):
        out[pos] = (out[pos] + rng.integers(1, 4)) % 4
    return out


def _assert_identical(problem, response):
    assert response.status == STATUS_OK, response.reason
    expected = solve_sequential(problem, use_kernels=False)
    np.testing.assert_array_equal(response.solution.path, expected.path)
    assert response.solution.score == expected.score


class TestConcurrentClients:
    """N client threads, mixed fresh/near-duplicate, one resident pool."""

    NUM_THREADS = 4
    DUPS_PER_THREAD = 5

    def test_mixed_stream_bit_identical_with_delta_hits(self):
        rng = np.random.default_rng(11)
        base_a, base_b = homologous_pair(SIZE, rng, divergence=0.1)
        base = LCSProblem(base_a, base_b, width=WIDTH)
        service = LTDPService(
            max_workers=2, num_procs=2, max_queue=64, seed=0
        )
        results = []  # (problem, response), appended under a lock
        lock = threading.Lock()

        def client(tid):
            trng = np.random.default_rng(100 + tid)
            problems = [
                # One genuinely fresh problem per thread (new ``b`` →
                # undiffable against any base-family resident → miss)...
                LCSProblem(
                    *homologous_pair(SIZE, trng, divergence=0.2), width=WIDTH
                )
            ] + [
                # ...then near-duplicates of the shared canonical: any
                # two differ in a handful of ``a`` symbols, so whatever
                # base-family problem is resident, the diff is bounded.
                LCSProblem(_mutate(base_a, trng), base_b, width=WIDTH)
                for _ in range(self.DUPS_PER_THREAD)
            ]
            local = [(p, service.submit(p)) for p in problems]
            for problem, ticket in local:
                response = ticket.result(timeout=300.0)
                with lock:
                    results.append((problem, response))

        with service:
            seed_response = service.submit(base).result(timeout=300.0)
            threads = [
                threading.Thread(target=client, args=(tid,))
                for tid in range(self.NUM_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            pids = list(service.executor.worker_pids())
        stats = service.stats()

        _assert_identical(base, seed_response)
        assert seed_response.cache == CACHE_MISS
        for problem, response in results:
            _assert_identical(problem, response)
        # Queue was sized for the whole stream: zero rejections.
        total = stats["total"]
        assert total["rejected"] == 0
        assert total["errors"] == 0
        assert total["ok"] == 1 + len(results)
        # 20 near-duplicates vs 4 fresh: at least one near-duplicate is
        # served right after a base-family solve in every interleaving,
        # and those hits do §4.7 delta-repair work.
        assert total["hits"] > 0
        assert total["delta_cells"] > 0
        hits = [r for _, r in results if r.cache == CACHE_HIT]
        assert sum(r.delta_cells for r in hits) > 0
        # Graceful drain: the pool's workers are gone.
        assert service.executor.closed
        assert not any(_pid_alive(pid) for pid in pids)

    def test_exact_duplicate_is_the_cheapest_hit(self):
        rng = np.random.default_rng(3)
        problem = LCSProblem(
            *homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH
        )
        with LTDPService(max_workers=2, num_procs=2) as service:
            first = service.submit(problem).result(timeout=300.0)
            again = service.submit(problem).result(timeout=300.0)
        _assert_identical(problem, first)
        _assert_identical(problem, again)
        assert first.cache == CACHE_MISS
        assert again.cache == CACHE_HIT
        # Zero dirty stages: the repair sweep finds nothing to change.
        assert again.delta_cells == 0


class TestBackpressure:
    def test_queue_full_rejects_synchronously_then_drain_serves_rest(self):
        rng = np.random.default_rng(5)
        problems = [
            LCSProblem(
                *homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH
            )
            for _ in range(12)
        ]
        service = LTDPService(
            max_workers=2, num_procs=2, max_queue=5
        )
        # Submit before start(): the queue fills to its bound and the
        # overflow is rejected immediately, on the submitting thread.
        tickets = [service.submit(p) for p in problems]
        rejected = [t for t in tickets if t.done]
        assert len(rejected) == 7
        for ticket in rejected:
            response = ticket.result(timeout=0)
            assert response.status == STATUS_REJECTED
            assert "queue full" in response.reason
            assert "backpressure" in response.reason
        assert service.pending == 5
        # close(drain=True) serves what admission control let in.
        service.start()
        stats = service.close()
        served = [t.result(timeout=0) for t in tickets if t not in rejected]
        for problem, response in zip(problems[:5], served):
            _assert_identical(problem, response)
        assert stats["total"]["rejected"] == 7
        assert stats["total"]["ok"] == 5

    def test_close_without_drain_flushes_queue_as_rejections(self):
        rng = np.random.default_rng(6)
        problem = LCSProblem(
            *homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH
        )
        service = LTDPService(max_workers=2, num_procs=2)
        tickets = [service.submit(problem) for _ in range(3)]
        stats = service.close(drain=False)
        for ticket in tickets:
            response = ticket.result(timeout=0)
            assert response.status == STATUS_REJECTED
            assert "closed before the request was served" in response.reason
        assert stats["total"]["rejected"] == 3
        assert stats["total"]["ok"] == 0


class TestTeardown:
    def test_close_rejects_new_submissions_and_reaps_workers(self):
        rng = np.random.default_rng(7)
        problem = LCSProblem(
            *homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH
        )
        service = LTDPService(max_workers=2, num_procs=2).start()
        response = service.submit(problem).result(timeout=300.0)
        _assert_identical(problem, response)
        pids = list(service.executor.worker_pids())
        service.close()
        assert service.executor.closed
        assert not any(_pid_alive(pid) for pid in pids)
        late = service.submit(problem).result(timeout=0)
        assert late.status == STATUS_REJECTED
        assert "closed" in late.reason
        # Idempotent: a second close just returns the stats snapshot.
        stats = service.close()
        assert stats["total"]["ok"] == 1

    def test_executor_closed_underneath_yields_error_responses(self):
        """A request racing executor shutdown resolves as ``error``.

        The drain path relies on the executor close contract: dispatch
        after close() raises ExecutorError deterministically, so the
        service can answer instead of hanging on a dead transport.
        """
        rng = np.random.default_rng(8)
        problem = LCSProblem(
            *homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH
        )
        pool = PoolProcessExecutor(max_workers=2)
        service = LTDPService(executor=pool, num_procs=2).start()
        try:
            ok = service.submit(problem).result(timeout=300.0)
            _assert_identical(problem, ok)
            pool.close()  # yanked out from under the running service
            response = service.submit(problem).result(timeout=300.0)
            assert response.status == STATUS_ERROR
            assert "executor failure" in response.reason
            assert "closed" in response.reason
        finally:
            stats = service.close()
        # The service reported the failure and still shut down cleanly —
        # and does not close an executor it does not own (already closed
        # here, but the ownership flag is what's under test).
        assert stats["total"]["errors"] == 1
        assert stats["total"]["ok"] == 1

    def test_external_executor_is_not_closed_by_the_service(self):
        rng = np.random.default_rng(9)
        problem = LCSProblem(
            *homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH
        )
        with PoolProcessExecutor(max_workers=2) as pool:
            with LTDPService(executor=pool, num_procs=2) as service:
                response = service.submit(problem).result(timeout=300.0)
                _assert_identical(problem, response)
            assert not pool.closed
            # The pool is still serviceable after the service detached.
            assert pool.check_health()


class TestValidation:
    def test_rejects_non_resident_executor(self):
        from repro.exceptions import ExecutorError
        from repro.machine.executor import SerialExecutor

        with pytest.raises(ExecutorError, match="resident"):
            LTDPService(executor=SerialExecutor())

    @pytest.mark.parametrize(
        "kwargs",
        [{"num_procs": 0}, {"max_queue": 0}, {"max_sessions": 0}],
    )
    def test_rejects_degenerate_limits(self, kwargs):
        with pytest.raises(ValueError):
            LTDPService(executor=_FakePool(), **kwargs)


class _FakePool:
    # Typed capability declaration (the duck-typed
    # ``supports_resident_state`` attribute is no longer consulted).
    from repro.machine.executor import ExecutorCapabilities as _Caps

    capabilities = _Caps(resident_state=True)
