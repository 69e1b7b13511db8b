"""The served request stream comes from the seed alone."""

from itertools import islice

import numpy as np

from perfbench.workloads import get_workload, neardup_stream


def _arrays(wl, seed, count):
    stream = islice(neardup_stream(wl, seed), count)
    return [(r.family, np.asarray(r.problem.a).tolist()) for r in stream]


def test_inputs_are_reproducible_per_seed():
    wl = get_workload("serve-neardup", tiny=True)
    assert _arrays(wl, 5, 12) == _arrays(wl, 5, 12)
    assert _arrays(wl, 5, 12) != _arrays(wl, 6, 12)


def test_neardup_edits_differ_from_their_predecessor_in_a_few_symbols():
    wl = get_workload("serve-neardup", tiny=True)
    stream = list(islice(neardup_stream(wl, 9), 40))
    sizes = {"a": [], "b": []}
    for i, req in enumerate(stream[2:], start=2):
        prev = stream[i - 2]  # same class: classes alternate
        assert req.family == prev.family
        if not np.array_equal(req.problem.b, prev.problem.b):
            continue  # a fresh pair
        sizes[req.family].append(int(np.count_nonzero(req.problem.a != prev.problem.a)))
    # 40 requests, every fifth of each class fresh; edit sizes cycle 1..max_edits.
    for family in "ab":
        assert sizes[family] == [1 + j % wl.max_edits for j in range(16)]
