"""Regression: an objective optimum at **cell 0** is a real start cell.

The driver used to compute the traceback start as ``obj_cell or 0``,
conflating the sentinel "no stage objective" (``None``) with a
legitimate optimum at cell index 0 — the falsy value Python happily
swallows.  The guard is now an explicit ``is None`` check; these tests
pin a problem whose optimum provably sits at cell 0 and require both
backward implementations to trace from exactly that cell.
"""

import numpy as np
import pytest

from repro.ltdp.parallel import ParallelOptions, solve_parallel
from repro.ltdp.problem import LTDPProblem
from repro.ltdp.sequential import solve_sequential

WIDTH = 4


class CellZeroOptimum(LTDPProblem):
    """Identity stage transforms with a uniform per-stage shift.

    The initial vector is strictly descending, so cell 0 is the argmax
    of every stage vector; the shift profile (rise then decay) puts the
    best *stage* strictly inside the parallel partition.  The stage
    objective is shift-invariant (anchored on the last cell) and names
    cell 0 explicitly — a correct traceback must start there, and with
    diagonal transforms it must stay on cell 0 all the way back.
    """

    tracks_stage_objective = True

    def __init__(self, n=12, peak=3):
        self._n = n
        self._peak = peak

    def _shift(self, i):
        return 1.0 if i <= self._peak else -1.0

    @property
    def num_stages(self):
        return self._n

    def stage_width(self, i):
        return WIDTH

    def initial_vector(self):
        return np.array([3.0, 2.0, 1.0, 0.0])

    def apply_stage(self, i, v):
        return np.asarray(v, dtype=float) + self._shift(i)

    def apply_stage_with_pred(self, i, v):
        out = np.asarray(v, dtype=float) + self._shift(i)
        return out, np.arange(WIDTH, dtype=np.int64)

    def stage_objective(self, i, vector):
        return float(vector[0] - vector[-1]) + min(i, self._peak), 0

    def edge_weight(self, i, j, k):
        return self._shift(i) if j == k else float("-inf")


class TestObjectiveCellZero:
    def test_sequential_optimum_is_cell_zero_mid_stream(self):
        p = CellZeroOptimum()
        seq = solve_sequential(p, use_kernels=False)
        assert seq.objective_cell == 0
        assert 0 < seq.objective_stage < p.num_stages
        # Diagonal transforms: a cell-0 start means a cell-0 path.
        assert not seq.path[: seq.objective_stage + 1].any()

    @pytest.mark.parametrize("parallel_backward", [False, True])
    def test_parallel_traces_from_cell_zero(self, parallel_backward):
        p = CellZeroOptimum()
        seq = solve_sequential(p, use_kernels=False)
        par = solve_parallel(
            p,
            ParallelOptions(
                num_procs=4, parallel_backward=parallel_backward
            ),
        )
        assert par.objective_cell == 0
        assert par.objective_stage == seq.objective_stage
        assert par.score == seq.score
        np.testing.assert_array_equal(par.path, seq.path)
        assert not par.path[: par.objective_stage + 1].any()
