"""Differential tests: the kernel-backed sequential solve against the dense one.

``solve_sequential`` runs its forward pass as one gated block sweep over
stages ``1..n`` when a kernel accepts the instance.  Every observable of
the solve must equal the literal Fig 2 loop (``use_kernels=False``) to
the byte: path, score, final vector, kept stage vectors, the work
ledger, and — for an all-``-inf`` stage — the exception and the stage
it names.  Hypothesis draws instances of every kernel-registered type
(hard, soft and punctured Viterbi, NW, banded and full-band LCS, the
latter served by the bit-parallel kernel) under a bounded budget, with
the degenerate shapes (n=1, a band wider than the sequence, the width-1
terminating stage, argmax ties) in the drawn space.

The ``use_kernels`` tri-state is checked with a spy on
``repro.kernels.block_sweep``: never called under ``False`` or
``REPRO_KERNELS=off``, once per solve under auto, at ``num_procs=1``
through ``solve_parallel`` too.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels
from repro.exceptions import ZeroVectorError
from repro.kernels import (
    BitParallelLCSKernel,
    BlockSweep,
    StageBlockKernel,
    register_kernel,
    reset_plan_cache,
)
from repro.kernels import registry as kregistry
from repro.ltdp.parallel import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.scoring import ScoringScheme
from repro.problems.convolutional import (
    VOYAGER,
    PuncturedViterbiDecoderProblem,
    SoftViterbiDecoderProblem,
    ViterbiDecoderProblem,
)
from repro.problems.dtw import DTWProblem
from repro.semiring.tropical import NEG_INF

BUDGET = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def _solve(problem, use_kernels, keep):
    return solve_sequential(
        problem, keep_stage_vectors=keep, with_metrics=True, use_kernels=use_kernels
    )


def _ledger(solution):
    return [(r.label, list(r.work), r.phase) for r in solution.metrics.supersteps]


def assert_same_solve(problem, keep):
    tier = _solve(problem, True, keep)
    dense = _solve(problem, False, keep)
    np.testing.assert_array_equal(tier.path, dense.path)
    assert np.float64(tier.score).tobytes() == np.float64(dense.score).tobytes()
    assert tier.final_vector.tobytes() == dense.final_vector.tobytes()
    assert tier.objective_stage == dense.objective_stage
    assert tier.objective_cell == dense.objective_cell
    assert _ledger(tier) == _ledger(dense)
    if keep:
        assert len(tier.stage_vectors) == len(dense.stage_vectors)
        for i, (kv, dv) in enumerate(zip(tier.stage_vectors, dense.stage_vectors)):
            assert kv.tobytes() == dv.tobytes(), f"stage vector {i} differs"
    else:
        assert tier.stage_vectors is None and dense.stage_vectors is None


def assert_same_failure(problem):
    with pytest.raises(ZeroVectorError) as dense:
        solve_sequential(problem, use_kernels=False)
    with pytest.raises(ZeroVectorError) as tier:
        solve_sequential(problem, use_kernels=True)
    assert str(tier.value) == str(dense.value)


# -- instance strategies ---------------------------------------------------
symbol_stages = st.integers(1, 40)  # n=1 is in range


@st.composite
def hard_viterbi(draw):
    n = draw(symbol_stages)
    bits = draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n))
    return ViterbiDecoderProblem(
        VOYAGER, np.array(bits, dtype=np.uint8), terminated=draw(st.booleans())
    )


@st.composite
def soft_viterbi(draw):
    n = draw(symbol_stages)
    # Small integer LLRs tie branch metrics often; wide floats never do.
    llr = st.one_of(
        st.integers(-2, 2).map(float),
        st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
    )
    llrs = draw(st.lists(llr, min_size=2 * n, max_size=2 * n))
    return SoftViterbiDecoderProblem(
        VOYAGER, np.array(llrs), terminated=draw(st.booleans())
    )


@st.composite
def punctured_viterbi(draw):
    pattern = np.array([1, 1, 0, 1], dtype=bool)  # 3 kept bits per 2 stages
    periods = draw(st.integers(1, 20))
    kept = draw(st.lists(st.integers(0, 1), min_size=3 * periods, max_size=3 * periods))
    return PuncturedViterbiDecoderProblem(
        VOYAGER,
        np.array(kept, dtype=np.uint8),
        pattern,
        terminated=draw(st.booleans()),
    )


@st.composite
def sequence_pair(draw):
    # A one-symbol alphabet makes every cell an argmax tie.
    alphabet = draw(st.integers(1, 4))
    la = draw(st.integers(1, 30))
    lb = draw(st.integers(max(1, la - 6), la + 6))
    a = draw(st.lists(st.integers(0, alphabet - 1), min_size=la, max_size=la))
    b = draw(st.lists(st.integers(0, alphabet - 1), min_size=lb, max_size=lb))
    # From the narrowest legal band to one wider than either sequence.
    width = draw(st.integers(max(1, abs(la - lb)), max(la, lb) + 4))
    return np.array(a), np.array(b), width


@st.composite
def nw(draw):
    a, b, width = draw(sequence_pair())
    scoring = draw(
        st.sampled_from(
            [
                ScoringScheme(),
                ScoringScheme(match=1.0, mismatch=-1.0, gap_open=1.0, gap_extend=1.0),
                ScoringScheme(match=0.5, mismatch=-0.25, gap_open=0.75, gap_extend=0.75),
            ]
        )
    )
    return NeedlemanWunschProblem(a, b, width=width, scoring=scoring)


@st.composite
def lcs(draw):
    a, b, width = draw(sequence_pair())
    return LCSProblem(a, b, width=width)


@st.composite
def full_band_lcs(draw):
    a, b, _ = draw(sequence_pair())
    return LCSProblem(a, b, width=max(a.size, b.size))


FAMILIES = {
    "viterbi-hard": hard_viterbi(),
    "viterbi-soft": soft_viterbi(),
    "viterbi-punctured": punctured_viterbi(),
    "nw": nw(),
    "lcs": lcs(),
    "lcs-bitparallel": full_band_lcs(),
}


class TestDifferential:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_tier_equals_dense(self, family):
        @BUDGET
        @given(problem=FAMILIES[family], keep=st.booleans())
        def check(problem, keep):
            assert_same_solve(problem, keep)

        check()

    def test_single_stage(self):
        problem = ViterbiDecoderProblem(
            VOYAGER, np.array([1, 0], dtype=np.uint8), terminated=True
        )
        assert problem.num_stages == 1
        assert_same_solve(problem, keep=True)

    @pytest.mark.parametrize("terminated", [False, True])
    def test_width_one_terminating_stage(self, terminated):
        rng = np.random.default_rng(3)
        problem = ViterbiDecoderProblem(
            VOYAGER, rng.integers(0, 2, 60).astype(np.uint8), terminated=terminated
        )
        assert (problem.stage_width(problem.num_stages) == 1) != terminated
        assert_same_solve(problem, keep=True)

    def test_all_ties(self):
        a = np.zeros(25, dtype=np.int64)
        assert_same_solve(LCSProblem(a, a[:20], width=30), keep=True)


class TestAllNegInfStage:
    """An all-``-inf`` stage raises the dense loop's error, at its stage."""

    def test_dead_initial_band(self):
        problem = NeedlemanWunschProblem(np.arange(6) % 4, np.arange(5) % 4, width=3)
        problem.initial_vector = lambda: np.full(problem.stage_width(0), NEG_INF)
        assert_same_failure(problem)

    def test_stage_dying_mid_sequence_in_an_accepted_sweep(self, sweep_spy):
        # No shipped family can die mid-sequence from a valid instance, so
        # an honest toy kernel carries the zero_index of an accepted sweep.
        problem = _DyingToy()
        register_kernel(_DyingToy, _DyingToyKernel())
        try:
            with pytest.raises(ZeroVectorError, match="stage 3 "):
                solve_sequential(problem, use_kernels=False)
            assert_same_failure(problem)
            assert sweep_spy == [True]
        finally:
            kregistry._KERNELS.pop(_DyingToy, None)
            reset_plan_cache()

    def test_dead_viterbi_start(self):
        problem = ViterbiDecoderProblem(VOYAGER, np.zeros(20, dtype=np.uint8))
        problem.initial_vector = lambda: np.full(problem.stage_width(0), NEG_INF)
        assert_same_failure(problem)


class _DyingToy:
    """Five stages of ``v + i``; stage 3 adds ``-inf`` everywhere."""

    num_stages = 5
    tracks_stage_objective = False

    def initial_vector(self):
        return np.zeros(3)

    def stage_width(self, i):
        return 3

    def apply_stage_with_pred(self, i, v):
        step = NEG_INF if i == 3 else float(i)
        return np.asarray(v, dtype=np.float64) + step, np.arange(3, dtype=np.int64)

    def stage_cost(self, i):
        return 3.0


class _DyingToyKernel(StageBlockKernel):
    name = "dying-toy"
    bit_identity_gate = "test stub; every dispatch cross-checked like the real ones"

    def fingerprint(self, problem):
        return "dying-toy"

    def plan(self, problem):
        return "plan"

    def run(self, problem, plan, lo, hi, v, *, capture_state=False):
        rows = [np.asarray(v, dtype=np.float64)]
        for i in range(lo + 1, hi + 1):
            rows.append(rows[-1] + (NEG_INF if i == 3 else float(i)))
        dead = [r for r in range(hi - lo) if np.all(np.isneginf(rows[r + 1]))]
        return BlockSweep(
            values=rows[1:],
            preds=[np.arange(3, dtype=np.int64)] * (hi - lo),
            states=None,
            costs=np.full(hi - lo, 3.0),
            zero_index=dead[0] if dead else None,
        )


# -- the tri-state, observed through block_sweep --------------------------
@pytest.fixture
def sweep_spy(monkeypatch):
    """Record every ``block_sweep`` call and whether it was accepted."""
    calls = []
    real = repro.kernels.block_sweep

    def spy(*args, **kwargs):
        sweep = real(*args, **kwargs)
        calls.append(sweep is not None)
        return sweep

    monkeypatch.setattr(repro.kernels, "block_sweep", spy)
    return calls


def _viterbi():
    rng = np.random.default_rng(8)
    return ViterbiDecoderProblem(VOYAGER, rng.integers(0, 2, 80).astype(np.uint8))


def _problems():
    rng = np.random.default_rng(9)
    a, b = rng.integers(0, 4, 30), rng.integers(0, 4, 28)
    return {
        "viterbi": _viterbi(),
        "nw": NeedlemanWunschProblem(a, b, width=6),
        "lcs": LCSProblem(a, b, width=6),
        "lcs-bitparallel": LCSProblem(a, b, width=30),
    }


class TestUseKernelsTriState:
    @pytest.mark.parametrize("name", list(_problems()))
    def test_auto_sweeps_once_and_is_accepted(self, name, sweep_spy, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        solve_sequential(_problems()[name])
        assert sweep_spy == [True]

    def test_bitparallel_kernel_serves_full_band_lcs(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        served = []
        real = BitParallelLCSKernel.run

        def run(self, *args, **kwargs):
            sweep = real(self, *args, **kwargs)
            served.append(sweep is not None)
            return sweep

        monkeypatch.setattr(BitParallelLCSKernel, "run", run)
        solve_sequential(_problems()["lcs-bitparallel"])
        assert served == [True]

    def test_false_never_sweeps(self, sweep_spy, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        solve_sequential(_viterbi(), use_kernels=False)
        solve_parallel(_viterbi(), num_procs=1, use_kernels=False)
        assert sweep_spy == []

    @pytest.mark.parametrize("value", ["0", "off", "false", "no"])
    def test_kill_switch_stops_auto(self, value, sweep_spy, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", value)
        solve_sequential(_viterbi())
        solve_parallel(_viterbi(), num_procs=1)
        assert sweep_spy == []

    def test_true_overrides_kill_switch(self, sweep_spy, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "off")
        solve_sequential(_viterbi(), use_kernels=True)
        assert sweep_spy == [True]

    def test_auto_follows_the_environment(self, sweep_spy):
        # No monkeypatching: under REPRO_KERNELS=off this checks that the
        # kill switch reaches the num_procs=1 path; otherwise that auto
        # takes the tier there.
        env = os.environ.get("REPRO_KERNELS", "").strip().lower()
        off = env in kregistry._DISABLE_VALUES
        solve_parallel(_viterbi(), num_procs=1)
        assert sweep_spy == ([] if off else [True])

    def test_parallel_p1_passes_the_option_through(self, sweep_spy, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        solve_parallel(_viterbi(), num_procs=1)
        solve_parallel(_viterbi(), num_procs=1, use_kernels=True)
        assert sweep_spy == [True, True]

    def test_unregistered_type_never_sweeps(self, sweep_spy, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        rng = np.random.default_rng(2)
        solve_sequential(DTWProblem(rng.random(20), rng.random(20), width=5))
        assert sweep_spy == []
