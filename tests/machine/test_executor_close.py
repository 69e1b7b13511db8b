"""Executor close contract: dispatch-after-close raises, deterministically.

The serve layer's drain path relies on every executor kind failing fast
after ``close()`` — a request racing shutdown must get a clean
:class:`ExecutorError`, never a hang, a silent no-op, or a lazily
revived worker.
"""

import multiprocessing as mp
from functools import partial

import pytest

from repro.exceptions import ExecutorError
from repro.machine.executor import SerialExecutor, ThreadExecutor
from repro.machine.pool import PoolProcessExecutor


# Module-level so the pool transport can pickle them.
def _square(x):
    return x * x


def _ns_noop(ns):
    return None


def make_tasks(n=3):
    return [partial(_square, i) for i in range(n)]


FACTORIES = {
    "serial": SerialExecutor,
    "thread": lambda: ThreadExecutor(max_workers=2),
    "pool": lambda: PoolProcessExecutor(max_workers=2),
}


@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestRunSuperstepAfterClose:
    def test_close_is_permanent_and_raises(self, kind):
        ex = FACTORIES[kind]()
        assert not ex.closed
        assert ex.run_superstep(make_tasks()) == [0, 1, 4]
        ex.close()
        assert ex.closed
        with pytest.raises(ExecutorError, match="closed"):
            ex.run_superstep(make_tasks())
        # close() is idempotent and the error is stable, not one-shot.
        ex.close()
        with pytest.raises(ExecutorError, match="closed"):
            ex.run_superstep(make_tasks())

    def test_close_without_use_still_guards(self, kind):
        ex = FACTORIES[kind]()
        ex.close()
        with pytest.raises(ExecutorError, match="closed"):
            ex.run_superstep(make_tasks())


class TestPoolCloseLeavesNoWorkers:
    def test_no_lazy_revival_and_no_leaked_workers(self):
        ex = PoolProcessExecutor(max_workers=2)
        assert ex.run_superstep(make_tasks()) == [0, 1, 4]
        pids = set(ex.worker_pids())
        ex.close()
        # Workers are reaped at close — none may be respawned by the
        # failing dispatch (the old lazy-revival behaviour raced the
        # serve layer's drain).
        with pytest.raises(ExecutorError, match="closed"):
            ex.run_superstep(make_tasks())
        with pytest.raises(ExecutorError, match="closed"):
            ex.call_slots([(1, _ns_noop, ())])
        with pytest.raises(ExecutorError, match="closed"):
            ex.broadcast(_ns_noop, ())
        alive = {p.pid for p in mp.active_children()}
        assert not (pids & alive)
