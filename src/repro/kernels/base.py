"""Contracts of the raw-speed kernel tier.

A :class:`StageBlockKernel` turns *many* forward stages into one
dispatch: at plan time it lays the problem's stage transforms out as
contiguous arrays (branch-metric matrices, band geometry tables), and
at run time it sweeps a whole ``(lo .. hi]`` stage-block through a
vectorized add-compare-select loop — compiled when a backend is
available (:mod:`repro.kernels.backend`), pure NumPy otherwise.

The tier is an *optimization*, never a semantic: every kernel is gated
exactly like the PR 5 sparse fix-up kernel.  Plans are only built when
the problem's transforms are provably representable in the kernel's
layout; every dispatch re-checks its input against the dense kernel's
expectations and returns ``None`` (automatic dense fallback) on any
mismatch; and the registry cross-checks the first and the last block
stage against the dense per-stage kernel bit-for-bit before accepting a
sweep (:func:`repro.kernels.registry.block_sweep`).  Each kernel class
documents its gate in ``bit_identity_gate`` — a declaration the
registry enforces at registration time and ``repro lint`` (REP006)
enforces statically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BlockSweep", "StageBlockKernel"]


@dataclass
class BlockSweep:
    """One kernel dispatch's output: stages ``lo+1 .. hi`` of a sweep.

    Entry ``r`` of each list describes stage ``lo + 1 + r``.  ``values``
    / ``preds`` rows may be views into one contiguous block allocation;
    the engine treats stage vectors as immutable, so sharing is safe.
    """

    #: Per-stage output vectors (stage width each, float64).
    values: list
    #: Per-stage predecessor vectors (int64).
    preds: list
    #: Per-stage §4.7 kernel states (``None`` unless capture was requested).
    states: list | None
    #: Per-stage modeled work, identical to ``problem.stage_cost(i)``.
    costs: np.ndarray
    #: Offset of the first all-0̄ stage in the block (``None`` if none) —
    #: hoisted out of the per-stage loop so the spec can raise the same
    #: ZeroVectorError the dense path would, without a per-stage scan.
    zero_index: int | None


class StageBlockKernel:
    """A fast-path executor for whole stage-blocks of one problem family.

    Subclasses are registered per *concrete* problem class (never for
    subclasses — an override of any stage method would silently break
    the layout assumptions) and must declare ``bit_identity_gate``: a
    human-readable statement of every condition under which the kernel
    is allowed to replace the dense per-stage path.  The registry
    rejects kernels without one, and the REP006 lint rule enforces the
    declaration statically.
    """

    #: Short stable identifier (plan-cache key component).
    name: str = ""

    #: Required declaration of the kernel's exactness gate (REP006).
    bit_identity_gate: str = ""

    def fingerprint(self, problem) -> tuple:
        """Hashable content key of everything the plan depends on.

        Problems are re-pickled into every pool worker, so plans are
        cached by *content*, not identity; two equal fingerprints must
        imply bit-identical plans.
        """
        raise NotImplementedError

    def plan(self, problem):
        """Build the preplanned layout, or ``None`` when ineligible.

        ``None`` is cached: the problem permanently takes the dense
        path for this kernel.
        """
        raise NotImplementedError

    def run(self, problem, plan, lo: int, hi: int, v: np.ndarray, *, capture_state: bool = False) -> BlockSweep | None:
        """Sweep stages ``lo+1 .. hi`` from input ``v``.

        Returns ``None`` whenever any per-call gate fails (input shape
        mismatch, range outside the planned stages, exactness
        cross-check failure) — the caller falls back to the dense
        per-stage loop, which also owns raising the proper errors for
        genuinely invalid inputs.
        """
        raise NotImplementedError

    def price(self, problem, plan, path: np.ndarray) -> float | None:
        """Vectorized exact-score pricing of a traced path, or ``None``.

        Only returns a value when the summation is provably exact in
        any association order (integral edge weights within the float64
        integer range); otherwise the driver's sequential scalar loop
        runs.
        """
        return None
