"""Tests for LCS: LTDP formulation, bit-parallel baseline, references."""

import numpy as np
import pytest

from repro.datagen.sequences import homologous_pair, random_dna
from repro.exceptions import ProblemDefinitionError
from repro.ltdp.parallel import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.problems.alignment.bitparallel import (
    lcs_length_bitparallel,
    lcs_row_lengths_bitparallel,
)
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.reference import (
    banded_lcs_length_reference,
    lcs_backtrack,
    lcs_length_reference,
    lcs_table,
)


def is_common_subsequence(sub, a, b) -> bool:
    def is_subseq(sub, seq):
        it = iter(seq)
        return all(any(s == x for x in it) for s in sub)

    return is_subseq(list(sub), list(a)) and is_subseq(list(sub), list(b))


class TestBitParallel:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = random_dna(int(rng.integers(1, 40)), rng)
        b = random_dna(int(rng.integers(1, 40)), rng)
        assert lcs_length_bitparallel(a, b) == lcs_length_reference(a, b)

    def test_identical_strings(self, rng):
        a = random_dna(30, rng)
        assert lcs_length_bitparallel(a, a) == 30

    def test_disjoint_alphabets(self):
        assert lcs_length_bitparallel(np.zeros(5, int), np.ones(5, int)) == 0

    def test_empty(self):
        assert lcs_length_bitparallel(np.array([]), np.array([1, 2])) == 0

    def test_row_sweep_matches_table(self, rng):
        a = random_dna(20, rng)
        b = random_dna(25, rng)
        table = lcs_table(a, b)
        rows = lcs_row_lengths_bitparallel(a, b)
        np.testing.assert_array_equal(rows, table[len(a), :])

    def test_wide_inputs_use_bignum(self, rng):
        # > 64 symbols forces multi-word bignum behaviour.
        a = random_dna(200, rng)
        b = random_dna(180, rng)
        assert lcs_length_bitparallel(a, b) == lcs_length_reference(a, b)

    def test_backtrack_is_valid(self, rng):
        a = random_dna(25, rng)
        b = random_dna(25, rng)
        sub = lcs_backtrack(a, b)
        assert len(sub) == lcs_length_reference(a, b)
        assert is_common_subsequence(sub, a, b)


class TestLCSProblem:
    @pytest.mark.parametrize("seed", range(6))
    def test_banded_score_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = random_dna(40, rng)
        b = random_dna(40, rng)
        width = 8
        p = LCSProblem(a, b, width=width)
        sol = solve_sequential(p)
        assert sol.score == banded_lcs_length_reference(a, b, width)

    def test_wide_band_equals_unbanded_lcs(self, rng):
        a = random_dna(30, rng)
        b = random_dna(30, rng)
        p = LCSProblem(a, b, width=60)
        sol = solve_sequential(p)
        assert sol.score == lcs_length_reference(a, b)
        assert sol.score == lcs_length_bitparallel(a, b)

    def test_witness_is_valid_common_subsequence(self, rng):
        a, b = homologous_pair(50, rng, divergence=0.15)
        p = LCSProblem(a, b, width=100)
        sol = solve_sequential(p)
        sub = p.extract(sol)
        assert len(sub) == int(sol.score)
        assert is_common_subsequence(sub, a, b)

    def test_parallel_equals_sequential(self, rng):
        a, b = homologous_pair(120, rng, divergence=0.1)
        p = LCSProblem(a, b, width=16)
        seq = solve_sequential(p, use_kernels=False)
        par = solve_parallel(p, num_procs=5)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score
        np.testing.assert_array_equal(p.extract(seq), p.extract(par))

    def test_band_must_reach_endpoint(self, rng):
        with pytest.raises(ProblemDefinitionError):
            LCSProblem(random_dna(30, rng), random_dna(10, rng), width=5)

    def test_empty_sequences_rejected(self, rng):
        with pytest.raises(ProblemDefinitionError):
            LCSProblem(np.array([], dtype=int), random_dna(4, rng), width=8)

    def test_width_validation(self, rng):
        with pytest.raises(ProblemDefinitionError):
            LCSProblem(random_dna(5, rng), random_dna(5, rng), width=0)

    def test_identical_strings_score_full(self, rng):
        a = random_dna(25, rng)
        sol = solve_sequential(LCSProblem(a, a, width=6))
        assert sol.score == 25.0

    def test_selector_stage_width_one(self, rng):
        p = LCSProblem(random_dna(10, rng), random_dna(10, rng), width=4)
        assert p.stage_width(p.num_stages) == 1
        assert p.num_stages == 11

    def test_is_valid_ltdp(self, rng):
        p = LCSProblem(random_dna(20, rng), random_dna(20, rng), width=5)
        report = validate_problem(p)
        assert report.ok, report.failures

    def test_unequal_lengths(self, rng):
        a = random_dna(30, rng)
        b = random_dna(24, rng)
        p = LCSProblem(a, b, width=10)
        sol = solve_sequential(p)
        assert sol.score == banded_lcs_length_reference(a, b, 10)

    def test_edge_weight_matches_probe(self, rng):
        from repro.ltdp.parallel import edge_weight_by_probe

        p = LCSProblem(random_dna(12, rng), random_dna(12, rng), width=4)
        for i in (1, 5, 12):
            w_out = p.stage_width(i)
            w_in = p.stage_width(i - 1)
            for j in range(0, w_out, 3):
                for k in range(0, w_in, 3):
                    assert p.edge_weight(i, j, k) == edge_weight_by_probe(p, i, j, k)
