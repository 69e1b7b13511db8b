"""Tests for BLOSUM62 protein scoring."""

import numpy as np
import pytest

from repro.ltdp.parallel import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.problems.alignment.blosum import (
    AMINO_ACIDS,
    BLOSUM62,
    blosum62_scoring,
    encode_protein,
)
from repro.problems.alignment.reference import sw_score_reference
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from repro.problems.alignment.striped import sw_score_striped


class TestMatrix:
    def test_shape_and_symmetry(self):
        assert BLOSUM62.shape == (20, 20)
        np.testing.assert_array_equal(BLOSUM62, BLOSUM62.T)

    def test_known_entries(self):
        idx = {aa: i for i, aa in enumerate(AMINO_ACIDS)}
        assert BLOSUM62[idx["W"], idx["W"]] == 11  # the famous tryptophan max
        assert BLOSUM62[idx["A"], idx["A"]] == 4
        assert BLOSUM62[idx["I"], idx["V"]] == 3
        assert BLOSUM62[idx["W"], idx["D"]] == -4

    def test_diagonal_dominates_rows(self):
        # Every residue matches itself better than any substitution.
        diag = np.diag(BLOSUM62)
        off = BLOSUM62 - np.diag(diag)
        assert (diag[:, None] > off).all()


class TestEncoding:
    def test_roundtrip_alphabet(self):
        np.testing.assert_array_equal(
            encode_protein(AMINO_ACIDS), np.arange(20)
        )

    def test_lowercase_accepted(self):
        np.testing.assert_array_equal(encode_protein("arnd"), [0, 1, 2, 3])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            encode_protein("AXB")


class TestProteinSearch:
    def test_sw_with_blosum_matches_reference(self, rng):
        scoring = blosum62_scoring()
        query = rng.integers(0, 20, size=12).astype(np.int64)
        db = rng.integers(0, 20, size=60).astype(np.int64)
        expected = sw_score_reference(query, db, scoring)
        problem = SmithWatermanProblem(query, db, scoring=scoring)
        assert solve_sequential(problem).score == expected
        assert sw_score_striped(query, db, scoring, alphabet_size=20) == expected

    def test_planted_protein_motif_found(self, rng):
        scoring = blosum62_scoring()
        motif = encode_protein("WWHKDEFGLMNWW")  # W-rich: very high self-score
        db = rng.integers(0, 20, size=400).astype(np.int64)
        db[200 : 200 + len(motif)] = motif
        problem = SmithWatermanProblem(motif, db, scoring=scoring)
        par = solve_parallel(problem, num_procs=4)
        seq = solve_sequential(problem, use_kernels=False)
        assert par.score == seq.score
        summary = problem.extract(par)
        assert summary.db_window[0] >= 195 and summary.db_window[1] <= 218

    def test_self_alignment_score_is_sum_of_diagonal(self):
        scoring = blosum62_scoring()
        seq = encode_protein("ACDEFGHIKLMNPQRSTVWY")
        problem = SmithWatermanProblem(seq, seq, scoring=scoring)
        sol = solve_sequential(problem)
        expected = sum(BLOSUM62[s, s] for s in seq)
        assert sol.score == expected
