"""Failure injection and boundary conditions for the LTDP solvers."""

import numpy as np
import pytest

from repro.exceptions import (
    ConvergenceError,
    ProblemDefinitionError,
    ZeroVectorError,
)
from repro.ltdp.matrix_problem import MatrixLTDPProblem, random_matrix_problem
from repro.ltdp.parallel import ParallelOptions, solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.semiring.tropical import NEG_INF

from tests.ltdp.test_parallel import permutation_chain_problem


class TestDegenerateShapes:
    def test_single_stage_parallel(self, rng):
        p = random_matrix_problem(1, 4, rng, integer=True)
        par = solve_parallel(p, num_procs=8)
        seq = solve_sequential(p, use_kernels=False)
        np.testing.assert_array_equal(par.path, seq.path)

    def test_two_stages_two_procs(self, rng):
        p = random_matrix_problem(2, 3, rng, integer=True)
        par = solve_parallel(p, num_procs=2)
        seq = solve_sequential(p, use_kernels=False)
        np.testing.assert_array_equal(par.path, seq.path)

    def test_width_one_stages(self):
        # Width-1 vectors are trivially parallel: instant convergence.
        rng = np.random.default_rng(0)
        mats = [rng.integers(-3, 4, size=(1, 1)).astype(float) for _ in range(12)]
        p = MatrixLTDPProblem(np.array([1.0]), mats)
        par = solve_parallel(p, num_procs=4)
        seq = solve_sequential(p, use_kernels=False)
        assert par.score == seq.score
        assert par.metrics.forward_fixup_iterations == 1

    def test_score_of_all_neg_initial_entries(self, rng):
        init = np.full(3, NEG_INF)
        init[2] = 0.0  # pinned start, like Viterbi
        mats = [rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(8)]
        p = MatrixLTDPProblem(init, mats)
        par = solve_parallel(p, num_procs=4)
        seq = solve_sequential(p, use_kernels=False)
        np.testing.assert_array_equal(par.path, seq.path)
        assert par.path[0] == 2  # path must start at the pinned state


class TestFailurePaths:
    def test_zero_vector_error_in_sequential(self):
        bad = MatrixLTDPProblem(
            np.zeros(2),
            [np.full((2, 2), NEG_INF), np.zeros((2, 2))],
            allow_trivial=True,
        )
        with pytest.raises(ZeroVectorError):
            solve_sequential(bad)

    def test_zero_vector_error_in_parallel(self):
        bad = MatrixLTDPProblem(
            np.zeros(2),
            [np.zeros((2, 2)), np.full((2, 2), NEG_INF), np.zeros((2, 2))],
            allow_trivial=True,
        )
        with pytest.raises(ZeroVectorError):
            solve_parallel(bad, num_procs=3)

    def test_convergence_error_when_iterations_capped(self, rng):
        p = permutation_chain_problem(20, 5, rng)
        with pytest.raises(ConvergenceError):
            solve_parallel(
                p, ParallelOptions(num_procs=5, max_fixup_iterations=2)
            )

    def test_generous_cap_still_succeeds(self, rng):
        p = permutation_chain_problem(20, 5, rng)
        sol = solve_parallel(
            p, ParallelOptions(num_procs=5, max_fixup_iterations=10)
        )
        seq = solve_sequential(p, use_kernels=False)
        np.testing.assert_array_equal(sol.path, seq.path)

    def test_problem_without_stages_rejected(self):
        from repro.ltdp.problem import LTDPProblem

        class Empty(LTDPProblem):
            @property
            def num_stages(self):
                return 0

            def stage_width(self, i):
                return 1

            def initial_vector(self):
                return np.zeros(1)

            def apply_stage(self, i, v):
                return v

        with pytest.raises(ProblemDefinitionError):
            solve_parallel(Empty(), num_procs=2)


class TestWorstCaseBehaviour:
    def test_devolution_costs_at_most_p_iterations(self, rng):
        for procs in (2, 4, 6):
            p = permutation_chain_problem(24, 4, rng)
            sol = solve_parallel(p, num_procs=procs)
            assert sol.metrics.forward_fixup_iterations <= procs

    def test_devolved_total_work_bounded(self, rng):
        """Even devolved, total work ≤ (P+1) × sequential forward work."""
        p = permutation_chain_problem(24, 4, rng)
        procs = 4
        sol = solve_parallel(p, num_procs=procs)
        forward_work = sum(
            s.total_work
            for s in sol.metrics.supersteps
            if s.label == "forward" or s.label.startswith("fixup")
        )
        assert forward_work <= (procs + 1) * p.total_cells()

    def test_backward_devolution_bounded(self, rng):
        p = permutation_chain_problem(24, 4, rng)
        sol = solve_parallel(p, num_procs=4)
        assert sol.metrics.backward_fixup_iterations <= 5


class TestNzEdgeCases:
    def test_narrow_integer_range(self, rng):
        p = random_matrix_problem(16, 4, rng, integer=True)
        sol = solve_parallel(
            p, ParallelOptions(num_procs=4, nz_low=0, nz_high=1)
        )
        seq = solve_sequential(p, use_kernels=False)
        np.testing.assert_array_equal(sol.path, seq.path)

    def test_float_nz_on_integer_problem_still_correct(self, rng):
        """Float nz slows convergence (ulp noise) but never corrupts results."""
        p = random_matrix_problem(16, 4, rng, integer=True)
        sol = solve_parallel(
            p, ParallelOptions(num_procs=4, nz_integer=False)
        )
        seq = solve_sequential(p, use_kernels=False)
        np.testing.assert_array_equal(sol.path, seq.path)
        assert sol.score == seq.score


class TestObjectiveEdgeCases:
    def test_objective_optimum_at_stage_zero(self):
        """A stage-objective problem whose best value is the initial stage."""
        import numpy as np

        from repro.ltdp.problem import LTDPProblem
        from repro.ltdp.parallel import solve_parallel
        from repro.ltdp.sequential import solve_sequential

        class Decaying(LTDPProblem):
            """Values only decay; the max-over-stages sits at stage 0."""

            tracks_stage_objective = True

            @property
            def num_stages(self):
                return 12

            def stage_width(self, i):
                return 3

            def initial_vector(self):
                return np.array([5.0, 1.0, 0.0])

            def apply_stage(self, i, v):
                v = np.asarray(v, dtype=float)
                return v - 1.0  # uniform decay: linear (A = -1 on diagonal)

            def apply_stage_with_pred(self, i, v):
                v = np.asarray(v, dtype=float)
                return v - 1.0, np.arange(3, dtype=np.int64)

            def stage_objective(self, i, vector):
                # Shift-invariant: best cell relative to the last cell.
                cell = int(np.argmax(vector))
                return float(vector[cell] - vector[-1]), cell

            def edge_weight(self, i, j, k):
                return -1.0 if j == k else float("-inf")

        p = Decaying()
        seq = solve_sequential(p, use_kernels=False)
        assert seq.objective_stage == 0
        assert seq.objective_cell == 0
        par = solve_parallel(p, num_procs=4)
        assert par.objective_stage == 0
        assert par.score == seq.score
        np.testing.assert_array_equal(seq.path, par.path)
