"""Percentile choice, sample counts and self time."""

import pytest

from perfbench.stats import (
    percentile,
    self_time,
    tail_samples,
    union_length,
)


def test_nearest_rank_returns_an_observed_sample():
    xs = list(range(1, 11))
    assert percentile(xs, 0.5) == 5
    assert percentile(xs, 0.9) == 9
    assert percentile(xs, 1.0) == 10
    # Two modes: the median is a sample of one mode, never the gap between.
    assert percentile([10, 10, 10, 50, 50, 50], 0.5) == 10


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 0.5) == 3


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


@pytest.mark.parametrize(
    "n, beyond",
    [(0, 0), (1, 0), (10, 1), (99, 9), (100, 10), (108, 10), (120, 12)],
)
def test_tail_samples_counts_what_lies_beyond_p90(n, beyond):
    assert tail_samples(n, 0.9) == beyond


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 1), (0, 1)]) == pytest.approx(1.0)
    assert union_length([]) == 0.0


def test_self_time_on_a_synthetic_span_tree():
    # request [0, 10] > phase [1, 6] and phase [6, 9];
    # phase [1, 6] > two overlapping dispatches [2, 4] and [3, 5].
    assert self_time(1, 6, [(2, 4), (3, 5)]) == pytest.approx(2.0)
    assert self_time(0, 10, [(1, 6), (6, 9)]) == pytest.approx(2.0)
    # Children reaching outside the parent count only where they overlap it.
    assert self_time(0, 10, [(-5, 2), (9, 20)]) == pytest.approx(7.0)
    assert self_time(0, 10, []) == pytest.approx(10.0)
