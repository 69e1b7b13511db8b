"""Tests for Needleman–Wunsch global alignment as LTDP."""

import numpy as np
import pytest

from repro.datagen.sequences import homologous_pair, random_dna
from repro.exceptions import ProblemDefinitionError
from repro.ltdp.parallel import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.reference import (
    banded_nw_score_reference,
    nw_score_reference,
)
from repro.problems.alignment.scoring import ScoringScheme


class TestScoringScheme:
    def test_linear_detection(self):
        assert ScoringScheme.unit_linear().is_linear
        assert not ScoringScheme(gap_open=3, gap_extend=1).is_linear

    def test_negative_penalties_rejected(self):
        with pytest.raises(ValueError):
            ScoringScheme(gap_open=-1.0)

    def test_open_below_extend_rejected(self):
        with pytest.raises(ValueError):
            ScoringScheme(gap_open=1.0, gap_extend=2.0)

    def test_gap_cost(self):
        s = ScoringScheme(gap_open=3.0, gap_extend=1.0)
        assert s.gap_cost(0) == 0.0
        assert s.gap_cost(1) == 3.0
        assert s.gap_cost(4) == 6.0
        with pytest.raises(ValueError):
            s.gap_cost(-1)

    def test_substitution_matrix(self):
        sub = np.array([[2.0, -3.0], [-3.0, 2.0]])
        s = ScoringScheme(substitution=sub)
        assert s.score_pair(0, 1) == -3.0
        np.testing.assert_array_equal(
            s.score_row(0, np.array([0, 1, 0])), [2.0, -3.0, 2.0]
        )

    def test_substitution_matrix_must_be_square(self):
        with pytest.raises(ValueError):
            ScoringScheme(substitution=np.zeros((2, 3)))

    def test_encode_sequence(self):
        from repro.problems.alignment.scoring import encode_sequence

        np.testing.assert_array_equal(encode_sequence("ACGT"), [0, 1, 2, 3])
        with pytest.raises(ValueError):
            encode_sequence("ACGX")


class TestNWProblem:
    @pytest.mark.parametrize("seed", range(6))
    def test_banded_score_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = random_dna(35, rng)
        b = random_dna(35, rng)
        scoring = ScoringScheme.unit_linear(gap=1.0)
        p = NeedlemanWunschProblem(a, b, width=7, scoring=scoring)
        sol = solve_sequential(p)
        assert sol.score == banded_nw_score_reference(a, b, scoring, 7)

    def test_wide_band_equals_unbanded(self, rng):
        a = random_dna(25, rng)
        b = random_dna(25, rng)
        scoring = ScoringScheme.unit_linear(gap=2.0)
        p = NeedlemanWunschProblem(a, b, width=50, scoring=scoring)
        sol = solve_sequential(p)
        assert sol.score == nw_score_reference(a, b, scoring)

    def test_alignment_prices_to_score(self, rng):
        a, b = homologous_pair(60, rng, divergence=0.1)
        scoring = ScoringScheme.unit_linear(gap=1.0)
        p = NeedlemanWunschProblem(a, b, width=12, scoring=scoring)
        sol = solve_sequential(p)
        aln = p.extract(sol)
        assert aln.priced_score(scoring) == sol.score

    def test_alignment_consumes_both_sequences(self, rng):
        a, b = homologous_pair(40, rng, divergence=0.1)
        p = NeedlemanWunschProblem(a, b, width=10)
        aln = p.extract(solve_sequential(p))
        assert (aln.top != aln.GAP).sum() == len(a)
        assert (aln.bottom != aln.GAP).sum() == len(b)

    def test_identical_sequences_align_perfectly(self, rng):
        a = random_dna(20, rng)
        p = NeedlemanWunschProblem(a, a, width=5)
        sol = solve_sequential(p)
        assert sol.score == 20.0  # all matches at +1
        aln = p.extract(sol)
        assert len(aln) == 20
        np.testing.assert_array_equal(aln.top, aln.bottom)

    def test_parallel_equals_sequential(self, rng):
        a, b = homologous_pair(100, rng, divergence=0.08)
        p = NeedlemanWunschProblem(a, b, width=12)
        seq = solve_sequential(p, use_kernels=False)
        par = solve_parallel(p, num_procs=4)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score

    def test_affine_scoring_rejected(self, rng):
        a = random_dna(5, rng)
        with pytest.raises(ProblemDefinitionError):
            NeedlemanWunschProblem(
                a, a, width=3, scoring=ScoringScheme(gap_open=3, gap_extend=1)
            )

    def test_render_alignment(self, rng):
        a = random_dna(8, rng)
        p = NeedlemanWunschProblem(a, a, width=3)
        text = p.extract(solve_sequential(p)).render()
        top, bottom = text.splitlines()
        assert top == bottom and len(top) == 8

    def test_is_valid_ltdp(self, rng):
        p = NeedlemanWunschProblem(random_dna(18, rng), random_dna(18, rng), width=5)
        report = validate_problem(p)
        assert report.ok, report.failures

    def test_edge_weight_matches_probe(self, rng):
        from repro.ltdp.parallel import edge_weight_by_probe

        p = NeedlemanWunschProblem(random_dna(10, rng), random_dna(10, rng), width=3)
        for i in (1, 4, 10, 11):
            w_out = p.stage_width(i)
            w_in = p.stage_width(i - 1)
            for j in range(w_out):
                for k in range(w_in):
                    assert p.edge_weight(i, j, k) == edge_weight_by_probe(p, i, j, k)

    def test_base_case_column_zero(self):
        """s[i, 0] = -i·d must emerge from the linear recurrence alone."""
        a = np.zeros(4, dtype=int)
        b = np.ones(4, dtype=int)  # no matches at all
        scoring = ScoringScheme(match=1.0, mismatch=-10.0, gap_open=1.0, gap_extend=1.0)
        p = NeedlemanWunschProblem(a, b, width=8, scoring=scoring)
        sol = solve_sequential(p, keep_stage_vectors=True)
        # Row i, column 0 is vector entry 0 while the band starts at 0.
        for i in range(1, 5):
            assert sol.stage_vectors[i][0] == -float(i)
