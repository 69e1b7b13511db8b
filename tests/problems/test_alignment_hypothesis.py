"""Property-based tests: alignment LTDP formulations vs reference DPs.

Hypothesis generates arbitrary small sequence pairs and scoring
parameters; the LTDP solutions must match the plain O(nm) oracles and
the parallel solver must match the sequential one on every instance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltdp.parallel import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.problems.alignment.bitparallel import lcs_length_bitparallel
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.reference import (
    banded_lcs_length_reference,
    banded_nw_score_reference,
    lcs_length_reference,
    nw_score_reference,
    sw_score_reference,
)
from repro.problems.alignment.scoring import ScoringScheme
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from repro.problems.alignment.striped import sw_score_striped

dna = st.lists(st.integers(0, 3), min_size=1, max_size=24).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


@settings(max_examples=40, deadline=None)
@given(a=dna, b=dna)
def test_lcs_ltdp_matches_reference_and_bitparallel(a, b):
    width = len(a) + len(b)  # unbanded
    problem = LCSProblem(a, b, width=width)
    sol = solve_sequential(problem)
    assert sol.score == lcs_length_reference(a, b)
    assert sol.score == lcs_length_bitparallel(a, b)


@settings(max_examples=30, deadline=None)
@given(a=dna, b=dna, width=st.integers(1, 12))
def test_banded_lcs_matches_banded_reference(a, b, width):
    if abs(len(a) - len(b)) > width:
        width = abs(len(a) - len(b)) + width
    problem = LCSProblem(a, b, width=width)
    sol = solve_sequential(problem)
    assert sol.score == banded_lcs_length_reference(a, b, width)


@settings(max_examples=30, deadline=None)
@given(
    a=dna,
    b=dna,
    match=st.integers(0, 4),
    mismatch=st.integers(-4, 0),
    gap=st.integers(0, 4),
)
def test_nw_ltdp_matches_reference(a, b, match, mismatch, gap):
    scoring = ScoringScheme(
        match=float(match), mismatch=float(mismatch),
        gap_open=float(gap), gap_extend=float(gap),
    )
    width = len(a) + len(b)
    problem = NeedlemanWunschProblem(a, b, width=width, scoring=scoring)
    sol = solve_sequential(problem)
    assert sol.score == nw_score_reference(a, b, scoring)


@settings(max_examples=25, deadline=None)
@given(a=dna, b=dna, width=st.integers(1, 10))
def test_banded_nw_matches_banded_reference(a, b, width):
    if abs(len(a) - len(b)) > width:
        width = abs(len(a) - len(b)) + width
    scoring = ScoringScheme.unit_linear(gap=1.0)
    problem = NeedlemanWunschProblem(a, b, width=width, scoring=scoring)
    sol = solve_sequential(problem)
    assert sol.score == banded_nw_score_reference(a, b, scoring, width)


@settings(max_examples=30, deadline=None)
@given(
    q=dna,
    db=dna,
    match=st.integers(1, 4),
    mismatch=st.integers(-4, -1),
    open_extra=st.integers(0, 3),
    extend=st.integers(1, 3),
)
def test_sw_ltdp_and_striped_match_gotoh(q, db, match, mismatch, open_extra, extend):
    scoring = ScoringScheme(
        match=float(match),
        mismatch=float(mismatch),
        gap_open=float(extend + open_extra),
        gap_extend=float(extend),
    )
    expected = sw_score_reference(q, db, scoring)
    problem = SmithWatermanProblem(q, db, scoring=scoring)
    assert solve_sequential(problem).score == expected
    assert sw_score_striped(q, db, scoring, alphabet_size=4) == expected


@settings(max_examples=20, deadline=None)
@given(a=dna, b=dna, procs=st.integers(2, 6), seed=st.integers(0, 1000))
def test_parallel_lcs_equals_sequential_always(a, b, procs, seed):
    width = max(4, abs(len(a) - len(b)) + 2)
    problem = LCSProblem(a, b, width=width)
    seq = solve_sequential(problem, use_kernels=False)
    par = solve_parallel(problem, num_procs=procs, seed=seed)
    np.testing.assert_array_equal(seq.path, par.path)
    assert seq.score == par.score


@settings(max_examples=20, deadline=None)
@given(q=dna, db=dna, procs=st.integers(2, 6))
def test_parallel_sw_equals_sequential_always(q, db, procs):
    problem = SmithWatermanProblem(q, db)
    seq = solve_sequential(problem, use_kernels=False)
    par = solve_parallel(problem, num_procs=procs, seed=3)
    assert seq.score == par.score
    assert seq.objective_stage == par.objective_stage
    np.testing.assert_array_equal(seq.path, par.path)
