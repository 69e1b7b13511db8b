"""End-to-end integration: parallel ≡ sequential for every shipped problem.

This is the library-level statement of the paper's correctness theorem,
exercised across problem types, processor counts and executors.
"""

import numpy as np
import pytest

from repro.datagen.hmms import make_hmm_workload
from repro.datagen.packets import make_received_packet
from repro.datagen.sequences import homologous_pair, random_dna, random_series
from repro.ltdp.parallel import ParallelOptions, solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.machine.executor import ThreadExecutor
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from repro.problems.convolutional import CDMA_IS95, VOYAGER
from repro.problems.dtw import DTWProblem
from repro.problems.seam import SeamCarvingProblem


def build_problems():
    """One representative mid-size instance per problem family."""
    rng = np.random.default_rng(2024)
    problems = {}

    _, viterbi = make_received_packet(VOYAGER, 150, rng, error_rate=0.03)
    problems["viterbi-voyager"] = viterbi

    _, viterbi_cdma = make_received_packet(CDMA_IS95, 80, rng, error_rate=0.02)
    problems["viterbi-cdma"] = viterbi_cdma

    _, _, hmm = make_hmm_workload(8, 5, 150, rng, peakedness=3.0)
    problems["hmm-viterbi"] = hmm

    a, b = homologous_pair(150, rng, divergence=0.08)
    problems["lcs"] = LCSProblem(a, b, width=16)
    problems["nw"] = NeedlemanWunschProblem(a, b, width=16)

    q = random_dna(24, rng)
    db = random_dna(400, rng)
    db[200:224] = q
    problems["sw"] = SmithWatermanProblem(q, db)

    problems["dtw"] = DTWProblem(
        random_series(150, rng), random_series(150, rng), width=20
    )
    problems["seam"] = SeamCarvingProblem(rng.random((120, 24)))
    return problems


PROBLEMS = build_problems()


@pytest.fixture(scope="module")
def sequential_solutions():
    return {name: solve_sequential(p, use_kernels=False) for name, p in PROBLEMS.items()}


@pytest.mark.parametrize("name", list(PROBLEMS))
@pytest.mark.parametrize("num_procs", [2, 4, 9])
def test_parallel_matches_sequential(name, num_procs, sequential_solutions):
    problem = PROBLEMS[name]
    seq = sequential_solutions[name]
    par = solve_parallel(problem, num_procs=num_procs, seed=7)
    np.testing.assert_array_equal(seq.path, par.path)
    assert par.score == pytest.approx(seq.score, abs=1e-9)
    assert par.objective_stage == seq.objective_stage
    assert par.objective_cell == seq.objective_cell


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_thread_executor_matches_serial(name, sequential_solutions):
    problem = PROBLEMS[name]
    seq = sequential_solutions[name]
    with ThreadExecutor(max_workers=4) as ex:
        par = solve_parallel(
            problem, ParallelOptions(num_procs=4, seed=7, executor=ex)
        )
    np.testing.assert_array_equal(seq.path, par.path)
    assert par.score == pytest.approx(seq.score, abs=1e-9)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_every_problem_is_valid_ltdp(name):
    report = validate_problem(PROBLEMS[name], num_stage_samples=3, tol=1e-9)
    assert report.ok, report.failures


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_delta_mode_is_result_invariant(name, sequential_solutions):
    problem = PROBLEMS[name]
    seq = sequential_solutions[name]
    par = solve_parallel(problem, num_procs=4, seed=7, use_delta=True)
    np.testing.assert_array_equal(seq.path, par.path)
    assert par.score == pytest.approx(seq.score, abs=1e-9)


def test_extracts_agree_between_sequential_and_parallel():
    rng = np.random.default_rng(5)
    a, b = homologous_pair(100, rng, divergence=0.1)
    problem = LCSProblem(a, b, width=14)
    seq = solve_sequential(problem, use_kernels=False)
    par = solve_parallel(problem, num_procs=6)
    np.testing.assert_array_equal(problem.extract(seq), problem.extract(par))


SMALL_PROBLEMS = {
    name: p
    for name, p in PROBLEMS.items()
    # The blocked solver materializes stage matrices; keep it to the
    # narrow-width families (probing 2q+1-wide SW matrices is O(w²·n)).
    if name in ("lcs", "nw", "dtw", "hmm-viterbi")
}


@pytest.mark.parametrize("name", list(SMALL_PROBLEMS))
@pytest.mark.parametrize("tree_scan", [False, True])
def test_blocked_solver_agrees_on_problem_families(
    name, tree_scan, sequential_solutions
):
    """§4.1 baseline × real problems: same answers, no convergence needed."""
    from repro.ltdp.blocked import solve_blocked

    problem = SMALL_PROBLEMS[name]
    seq = sequential_solutions[name]
    blk = solve_blocked(problem, num_procs=3, tree_scan=tree_scan)
    np.testing.assert_array_equal(seq.path, blk.path)
    assert blk.score == pytest.approx(seq.score, abs=1e-9)
