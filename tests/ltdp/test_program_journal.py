"""The instruction program as counter and crash-replay journal.

Every superstep is one dispatch.  What the program still owes the rest
of the engine:

- **numbering**: the superstep counter advances identically whether or
  not tracing is on, so trace spans and metrics records agree;
- **journal**: driver-mediated predecessor installs land in the slot's
  history, so a respawned worker replays them in order;
- **idempotency**: a pool worker answers a re-sent, already-recorded
  instruction from its per-seq reply cache and leaves its resident
  vectors untouched (the post-recovery re-send contract);
- **recovery**: a worker SIGKILLed mid-program is respawned, its slots'
  recorded history replayed, and the solve stays bit-identical.
"""

import numpy as np
import pytest

from repro.ltdp.engine.driver import run_solve_phases
from repro.ltdp.engine.forward import plan_initial_pass
from repro.ltdp.engine.poolrt import PoolRuntime, _w_collect, _w_run_instr
from repro.ltdp.engine.program import InstructionProgram
from repro.ltdp.engine.specs import BackwardInitSpec
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.parallel import ParallelOptions, solve_parallel
from repro.ltdp.partition import partition_stages
from repro.machine.executor import get_executor
from repro.machine.metrics import RunMetrics
from repro.machine.pool import PoolProcessExecutor
from repro.machine.trace import Tracer
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.smith_waterman import SmithWatermanProblem

NUM_PROCS = 4
SEED = 17


def build_problems():
    from repro.datagen.sequences import homologous_pair, random_dna

    rng = np.random.default_rng(23)
    problems = {"matrix": random_matrix_problem(48, 8, rng, integer=True)}
    a, b = homologous_pair(60, rng, divergence=0.08)
    problems["nw"] = NeedlemanWunschProblem(a, b, width=10)
    q = random_dna(12, rng)
    db = random_dna(120, rng)
    db[60:72] = q
    problems["sw"] = SmithWatermanProblem(q, db)
    return problems


PROBLEMS = build_problems()


def solve_with(problem, executor, **overrides):
    opts = ParallelOptions(
        num_procs=NUM_PROCS, seed=SEED, executor=executor, **overrides
    )
    return solve_parallel(problem, opts)


@pytest.fixture(scope="module")
def serial_solutions():
    return {
        name: solve_with(p, get_executor("serial")) for name, p in PROBLEMS.items()
    }


def assert_identical(got, base):
    np.testing.assert_array_equal(got.path, base.path)
    assert got.score == base.score
    assert got.objective_stage == base.objective_stage
    assert got.objective_cell == base.objective_cell
    m, b = got.metrics, base.metrics
    assert m.forward_fixup_iterations == b.forward_fixup_iterations
    assert m.backward_fixup_iterations == b.backward_fixup_iterations
    assert m.fixup_stages == b.fixup_stages


class TestSuperstepNumbering:
    """Numbering is identical traced or not."""

    def test_record_steps_dense_without_tracer(self):
        got = solve_with(PROBLEMS["sw"], get_executor("serial"))
        steps = [r.step for r in got.metrics.supersteps]
        assert steps == list(range(1, len(steps) + 1))

    def test_traced_and_untraced_steps_identical(self):
        plain = solve_with(PROBLEMS["sw"], get_executor("serial"))
        tracer = Tracer()
        traced = solve_with(PROBLEMS["sw"], get_executor("serial"), tracer=tracer)
        assert [r.step for r in traced.metrics.supersteps] == [
            r.step for r in plain.metrics.supersteps
        ]

    def test_superstep_spans_agree_with_record_steps(self):
        tracer = Tracer()
        got = solve_with(PROBLEMS["sw"], get_executor("serial"), tracer=tracer)
        span_steps = {
            s.attrs["label"]: s.attrs["superstep"]
            for s in tracer.spans
            if s.name == "superstep"
        }
        for record in got.metrics.supersteps:
            assert span_steps[record.label] == record.step

    def test_serial_backward_fallback_records_step_zero(self):
        got = solve_with(
            PROBLEMS["matrix"], get_executor("serial"), parallel_backward=False
        )
        assert got.metrics.supersteps[-1].label == "backward"
        assert got.metrics.supersteps[-1].step == 0
        assert all(r.step > 0 for r in got.metrics.supersteps[:-1])


class TestJournal:
    def test_superstep_seqs_are_dense_and_recorded_after_the_barrier(self):
        program = InstructionProgram()
        ranges = partition_stages(60, 3)
        step, init = program.add_superstep(
            plan_initial_pass(ranges, ParallelOptions(num_procs=3)),
            label="forward",
        )
        assert step == 1 and program.step_no == 1
        assert [i.seq for i in init] == [1, 2, 3]
        assert [i.slot for i in init] == [1, 2, 3]
        assert not any(program.is_recorded(i.seq) for i in init)
        for instr in init:
            program.record(instr.seq)
        assert all(program.is_recorded(i.seq) for i in init)
        assert len(program) == 3

    def test_install_journalled_in_slot_history(self):
        program = InstructionProgram()
        ranges = partition_stages(60, 2)
        _, init = program.add_superstep(
            plan_initial_pass(ranges, ParallelOptions(num_procs=2)),
            label="forward",
        )
        install = program.add_install(1, {"payload": True})
        assert install.op == "pred-install"
        assert install.seq == len(init) + 1
        assert install.step == 1  # installs do not advance the counter
        _, (backward,) = program.add_superstep(
            [BackwardInitSpec(proc=1, lo=0, hi=30, start_index=0)],
            label="backward",
        )
        # Slot 1's replay order: its forward instruction, the install,
        # then the backward instruction that reads the installed vectors.
        assert program.slot_history(1) == [init[0], install, backward]
        assert program.slot_history(2) == [init[1]]


class _RecordingRuntime(PoolRuntime):
    """A pool runtime that keeps each dispatched instruction's reply."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replies = {}

    def run(self, specs, label=""):
        results = super().run(specs, label)
        first = len(self.program) - len(specs) + 1
        for k, result in enumerate(results):
            self.replies[first + k] = result
        return results


def _same_reply(a, b):
    assert a.proc == b.proc
    assert a.work == b.work
    assert a.stages_done == b.stages_done
    assert a.converged == b.converged
    assert a.path_updates == b.path_updates
    assert a.objective == b.objective
    if a.boundary is None or b.boundary is None:
        assert a.boundary is b.boundary
    else:
        assert a.boundary.tobytes() == b.boundary.tobytes()


class TestReplyCacheIdempotency:
    """A re-sent, recorded instruction is answered from the seq cache."""

    def test_resent_fixup_returns_first_reply_and_keeps_resident_state(self):
        problem = PROBLEMS["matrix"]
        options = ParallelOptions(num_procs=NUM_PROCS, seed=SEED)
        ranges = partition_stages(problem.num_stages, NUM_PROCS)
        metrics = RunMetrics(num_procs=NUM_PROCS, num_stages=problem.num_stages)
        with PoolProcessExecutor(max_workers=2) as pool:
            runtime = _RecordingRuntime(pool, problem, ranges)
            try:
                run_solve_phases(problem, options, ranges, runtime, metrics)
                fixups = [
                    instr
                    for rg in ranges
                    for instr in runtime.program.slot_history(rg.proc)
                    if instr.label.startswith("fixup")
                ]
                # The sharp case: re-running a fix-up against state its
                # first run already updated would converge at once and
                # report different work.
                assert fixups, "workload must need at least one fix-up"
                key = runtime.session_key
                for instr in fixups:
                    assert runtime.program.is_recorded(instr.seq)
                    slot = instr.slot
                    stages = [i for rg in ranges if rg.proc == slot for i in rg.stages()]
                    snapshot = [
                        (_w_collect, (key, slot, kind, stages)) for kind in ("s", "pred")
                    ]
                    before = pool.call_slots([(slot, fn, args) for fn, args in snapshot])
                    (again,) = pool.call_slots(
                        [(slot, _w_run_instr, (key, instr.seq, instr.spec))]
                    )
                    after = pool.call_slots([(slot, fn, args) for fn, args in snapshot])
                    _same_reply(again, runtime.replies[instr.seq])
                    for old, new in zip(before, after):
                        assert old.keys() == new.keys()
                        for i in old:
                            assert old[i].tobytes() == new[i].tobytes()
            finally:
                runtime.finish()


class TestWorkerKillMidProgram:
    """A pool worker SIGKILLed mid-program at the default dispatch."""

    @pytest.mark.parametrize("seq,worker", [(2, 0), (4, 1)])
    def test_worker_kill_mid_program_recovers(self, seq, worker, serial_solutions):
        with PoolProcessExecutor(max_workers=2, fault_plan={seq: worker}) as ex:
            got = solve_with(PROBLEMS["matrix"], ex)
            assert ex.recovery_stats.respawns == 1
            assert ex.recovery_stats.retries >= 1
        assert_identical(got, serial_solutions["matrix"])
        assert got.metrics.worker_respawns == 1

    def test_worker_kill_with_delta_mode(self, serial_solutions):
        """Worker-resident §4.7 state is the sharpest replay test: a
        double-applied sparse fix-up would corrupt the resident stage
        vectors."""
        with PoolProcessExecutor(max_workers=2, fault_plan={4: 0}) as ex:
            got = solve_with(PROBLEMS["nw"], ex, use_delta=True)
            assert ex.recovery_stats.respawns == 1
        base = serial_solutions["nw"]
        np.testing.assert_array_equal(got.path, base.path)
        assert got.score == base.score
