"""ResidentSession unit tests: cache decision, rebase, eviction.

A session is one request class kept resident in the pool; these tests
pin the decision table of :meth:`ResidentSession.serve` — when a
request is answered by §4.7 delta repair versus a fresh sweep — and the
journal-cap rebase that bounds replay cost, each time checking the
answer against a fresh sequential solve.
"""

import numpy as np

from repro.datagen.sequences import homologous_pair
from repro.ltdp.sequential import solve_sequential
from repro.machine.pool import PoolProcessExecutor
from repro.problems.alignment.lcs import LCSProblem
from repro.serve import CACHE_HIT, CACHE_MISS, LTDPService, ResidentSession

SIZE = 32
WIDTH = 8


def _problem(seed, size=SIZE):
    rng = np.random.default_rng(seed)
    return LCSProblem(*homologous_pair(size, rng, divergence=0.1), width=WIDTH)


def _mutated(problem, seed, k=2):
    rng = np.random.default_rng(seed)
    a = np.array(problem.a, copy=True)
    for pos in rng.choice(a.size, size=k, replace=False):
        a[pos] = (a[pos] + rng.integers(1, 4)) % 4
    return LCSProblem(a, problem.b, width=WIDTH)


def _check(problem, solution):
    expected = solve_sequential(problem, use_kernels=False)
    np.testing.assert_array_equal(solution.path, expected.path)
    assert solution.score == expected.score


class TestCacheDecision:
    def test_miss_hit_miss_sequence(self):
        base = _problem(1)
        near = _mutated(base, 2)
        other_b = _problem(3)  # different ``b`` → undiffable → miss
        with PoolProcessExecutor(max_workers=2) as pool:
            session = ResidentSession(pool, base, num_procs=2)
            try:
                solution, cache, _ = session.serve(base)
                _check(base, solution)
                assert cache == CACHE_MISS
                solution, cache, metrics = session.serve(near)
                _check(near, solution)
                assert cache == CACHE_HIT
                assert sum(metrics.fixup_changed_deltas) > 0
                solution, cache, _ = session.serve(other_b)
                _check(other_b, solution)
                assert cache == CACHE_MISS
                # The new canonical is other_b; repairing against it works.
                near2 = _mutated(other_b, 4)
                solution, cache, _ = session.serve(near2)
                _check(near2, solution)
                assert cache == CACHE_HIT
            finally:
                session.finish()

    def test_journal_cap_forces_rebase_to_fresh_solve(self):
        base = _problem(5)
        near = _mutated(base, 6)
        with PoolProcessExecutor(max_workers=2) as pool:
            # A cap of 1 is always exceeded after the first solve: every
            # subsequent request must rebase (fresh runtime, fresh solve).
            session = ResidentSession(pool, base, num_procs=2, journal_cap=1)
            try:
                runtime0 = session.runtime
                solution, cache, _ = session.serve(base)
                assert cache == CACHE_MISS
                _check(base, solution)
                assert session.runtime.journal_len > session.journal_cap
                solution, cache, _ = session.serve(near)
                _check(near, solution)
                assert cache == CACHE_MISS  # near-duplicate, but rebased
                assert session.runtime is not runtime0
            finally:
                session.finish()


class TestSessionEviction:
    def test_lru_eviction_keeps_answers_correct(self):
        """Two request classes through a one-session service: each
        arrival of the other class evicts the resident (worker-side
        state dropped), yet every answer stays bit-identical."""
        small = _problem(7, size=SIZE)
        large = _problem(8, size=SIZE + 8)  # different n → different class
        with LTDPService(
            max_workers=2, num_procs=2, max_sessions=1
        ) as service:
            for problem in (small, large, small, large):
                response = service.submit(problem).result(timeout=300.0)
                assert response.status == "ok", response.reason
                _check(problem, response.solution)
        stats = service.stats()
        # Every request re-entered a freshly built session: all misses.
        assert stats["total"]["ok"] == 4
        assert stats["total"]["hits"] == 0
        assert stats["total"]["misses"] == 4
