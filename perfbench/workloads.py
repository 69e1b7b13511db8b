"""Workload definitions: sizes, latency limits and seeded inputs.

Inputs come only from :mod:`repro.datagen` and the problem
constructors, seeded from the ``--seed`` argument; the program under
test receives nothing else.  Every workload splits its traffic into two
request families, ``a`` and ``b``, so that no median falls between two
modes (see README.md for what ``a`` and ``b`` are on each workload).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

__all__ = ["Workload", "WORKLOADS", "get_workload", "Request"]


@dataclass(frozen=True)
class Workload:
    """Sizes, load and limit of one workload (``tiny`` shrinks them for tests)."""

    name: str
    family_a: str
    family_b: str
    latency_limit_ms: float
    # solve-long
    packet_bits: int = 0
    align_len: int = 0
    align_band: int = 0
    seq_every: int = 0  # every k-th pair (request) is also solved sequentially in the loop
    # serve-neardup
    fresh_every: int = 0  # serve-neardup: every k-th request of a class is a fresh pair
    max_edits: int = 0
    neardup_len: int = 0
    neardup_bands: tuple[int, ...] = ()


WORKLOADS = {
    "solve-long": Workload(
        name="solve-long",
        family_a="viterbi decode (Voyager, 64 states), solve_parallel P=nproc",
        family_b="banded Needleman-Wunsch (band 24), solve_parallel P=nproc",
        latency_limit_ms=2000.0,
        packet_bits=3072,
        align_len=1920,
        align_band=24,
        seq_every=6,
    ),
    "serve-neardup": Workload(
        name="serve-neardup",
        family_a="800-stage NW requests (band 32), 4 in 5 editing the previous one",
        family_b="800-stage LCS requests (band 64), 4 in 5 editing the previous one",
        latency_limit_ms=1000.0,
        seq_every=3,  # odd, so that it alternates between the two classes
        fresh_every=5,
        max_edits=3,
        neardup_len=800,
        neardup_bands=(32, 64),
    ),
}

#: Sizes used by the benchmark's own tests (``--tiny``): same shapes of
#: traffic, small enough to run every workload in a few seconds.
_TINY = {
    "solve-long": dict(packet_bits=256, align_len=200, seq_every=2),
    "serve-neardup": dict(neardup_len=120, neardup_bands=(8, 12)),
}


def get_workload(name: str, *, tiny: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[name]
    if tiny:
        wl = replace(wl, **_TINY[name])
    return wl


@dataclass
class Request:
    """One generated input: its family (``"a"``/``"b"``) and the problem."""

    family: str
    problem: object


def _viterbi(bits: int, rng: np.random.Generator):
    from repro import VOYAGER
    from repro.datagen import make_received_packet

    return make_received_packet(VOYAGER, bits, rng, error_rate=0.02)[1]


def _pair(length: int, rng: np.random.Generator):
    from repro.datagen import homologous_pair

    return homologous_pair(length, rng, divergence=0.1)


def _nw(a, b, band: int):
    from repro import NeedlemanWunschProblem

    return NeedlemanWunschProblem(a, b, width=band)


def _lcs(a, b, band: int):
    from repro import LCSProblem

    return LCSProblem(a, b, width=band)


def solve_long_pair(wl: Workload, seed: int, index: int) -> tuple[Request, Request]:
    """The ``index``-th fresh (decode, align) instance pair of a run."""
    rng = np.random.default_rng([seed, 1, index])
    decode = _viterbi(wl.packet_bits, rng)
    a, b = _pair(wl.align_len, rng)
    return Request("a", decode), Request("b", _nw(a, b, wl.align_band))


def warmup_requests(wl: Workload, seed: int) -> list[Request]:
    """Small instances of each request class: pool fork, backend load, first solves."""
    rng = np.random.default_rng([seed, 2])
    if wl.name == "solve-long":
        a, b = _pair(64, rng)
        return [Request("a", _viterbi(64, rng)), Request("b", _nw(a, b, wl.align_band))]
    out = []
    for family, cls, band in zip(("a", "b"), (_nw, _lcs), wl.neardup_bands):
        a, b = _pair(wl.neardup_len, rng)
        out.append(Request(family, cls(a, b, band)))
    return out


def neardup_stream(wl: Workload, seed: int) -> Iterator[Request]:
    """NW (family ``a``) and LCS (``b``) requests, alternating, without end.

    Every ``fresh_every``-th request of a class, the first included, is
    a fresh pair; the others edit their class's previous request:
    1..``max_edits`` substituted symbols of its first sequence, so the
    service can prove a bounded diff against its resident solve and
    answer by §4.7 repair.  The fixed 4-in-5 mix keeps the share of
    hits the same on every seed, and edit sizes cycle through
    1..``max_edits`` so that the mix of sizes is too: a repair's cost
    grows with its edit count far more than with the edit positions,
    which are random.  Families follow the class, not the cache outcome,
    because the two classes differ in cost by about 2x.
    """
    rng = np.random.default_rng([seed, 4])
    classes = list(zip(("a", "b"), (_nw, _lcs), wl.neardup_bands))
    previous: list[tuple] = [()] * len(classes)
    edits = [0] * len(classes)
    for i in itertools.count():
        c = i % len(classes)
        family, make, band = classes[c]
        if (i // len(classes)) % wl.fresh_every:
            a, b = previous[c]
            a = a.copy()
            k = 1 + edits[c] % wl.max_edits
            edits[c] += 1
            where = rng.choice(len(a), size=k, replace=False)
            a[where] = (a[where] + rng.integers(1, 4, size=k)) % 4
        else:
            a, b = _pair(wl.neardup_len, rng)
        previous[c] = (a, b)
        yield Request(family, make(a, b, band))
