"""Kernel registration, plan caching, and the per-dispatch identity gate.

Kernels register per *concrete* problem class; a subclass match is not
a match (an overridden stage method would invalidate the preplanned
layout).  Plans are cached per process by the kernel's content
fingerprint — problems are re-pickled into every pool worker, so
identity-keyed caching would never hit.

Every accepted dispatch is re-proven: :func:`block_sweep` recomputes
the first and the last block stage with the problem's own dense
per-stage kernel and compares values byte-for-byte (catching even
``-0.0`` sign flips), predecessors exactly, and — when §4.7 capture is
on — every captured state plane.  Any disagreement silently discards
the sweep and the caller runs the dense loop, which also owns raising
proper errors for genuinely invalid inputs.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from repro.exceptions import KernelRegistrationError
from repro.kernels.base import BlockSweep, StageBlockKernel
from repro.machine.executor import executor_capability

__all__ = [
    "block_sweep",
    "kernel_tier_enabled",
    "kernel_tier_requested",
    "price_path_fast",
    "register_kernel",
    "registered_kernels",
    "reset_plan_cache",
    "warm_kernels",
]

#: Exact problem type -> ordered tuple of kernels (first eligible wins).
_KERNELS: dict[type, tuple[StageBlockKernel, ...]] = {}

#: (kernel name, fingerprint) -> (plan or _INELIGIBLE, plan array bytes).
#: Bounded by entries and by array bytes, the most recent plan always
#: kept: a whole-instance plan of a long packet is megabytes, so an
#: entry bound alone let the cache pin ~100 MB per process.
_PLAN_CACHE: OrderedDict = OrderedDict()
_PLAN_CACHE_MAX = 32
_PLAN_CACHE_MAX_BYTES = 8 << 20
_INELIGIBLE = object()

#: REPRO_KERNELS values that disable the tier (auto mode only).
_DISABLE_VALUES = frozenset({"0", "off", "false", "no"})


def register_kernel(problem_type: type, kernel: StageBlockKernel) -> None:
    if not isinstance(kernel.bit_identity_gate, str) or not kernel.bit_identity_gate.strip():
        raise KernelRegistrationError(
            f"kernel {type(kernel).__name__!r} declares no bit_identity_gate; "
            "every registered fast-path kernel must document the conditions "
            "under which it may replace the dense per-stage path (REP006)"
        )
    if not kernel.name:
        raise KernelRegistrationError(
            f"kernel {type(kernel).__name__!r} has no name (plan-cache key)"
        )
    _KERNELS[problem_type] = _KERNELS.get(problem_type, ()) + (kernel,)


def registered_kernels(problem_type: type) -> tuple[StageBlockKernel, ...]:
    """Kernels for the *exact* type (no subclass lookup, by design)."""
    return _KERNELS.get(problem_type, ())


def reset_plan_cache() -> None:
    _PLAN_CACHE.clear()


def _plan_nbytes(plan) -> int:
    """Bytes of the plan's array fields (its bulk; scalars are ignored)."""
    fields = getattr(plan, "__dict__", {}).values()
    return sum(f.nbytes for f in fields if isinstance(f, np.ndarray))


def _plan_for(kernel: StageBlockKernel, problem):
    key = (kernel.name, kernel.fingerprint(problem))
    if key in _PLAN_CACHE:
        _PLAN_CACHE.move_to_end(key)
        plan = _PLAN_CACHE[key][0]
    else:
        plan = kernel.plan(problem)
        if plan is None:
            plan = _INELIGIBLE
        _PLAN_CACHE[key] = (plan, _plan_nbytes(plan))
        total = sum(nbytes for _, nbytes in _PLAN_CACHE.values())
        while len(_PLAN_CACHE) > 1 and (
            len(_PLAN_CACHE) > _PLAN_CACHE_MAX or total > _PLAN_CACHE_MAX_BYTES
        ):
            total -= _PLAN_CACHE.popitem(last=False)[1][1]
    return None if plan is _INELIGIBLE else plan


def warm_kernels(problem) -> int:
    """Pre-build plans for ``problem`` (pool worker bind); returns count."""
    built = 0
    for kernel in registered_kernels(type(problem)):
        if _plan_for(kernel, problem) is not None:
            built += 1
    return built


def _stage_matches(problem, i, v_in, sweep, r, capture_state) -> bool:
    """Re-derive stage ``i`` densely from ``v_in``; compare sweep row ``r``."""
    try:
        if capture_state:
            dv, dp, ds = problem.apply_stage_with_state(i, v_in)
        else:
            dv, dp = problem.apply_stage_with_pred(i, v_in)
            ds = None
    except Exception:
        return False  # dense path owns raising this properly, in context
    kv = np.asarray(sweep.values[r])
    kp = np.asarray(sweep.preds[r])
    if kv.shape != dv.shape or kv.tobytes() != dv.tobytes():
        return False
    if not np.array_equal(kp, dp):
        return False
    if capture_state and not _states_equal(sweep.states[r], ds):
        return False
    return True


def _gate_accepts(problem, lo, hi, v, sweep, capture_state) -> bool:
    """The per-dispatch identity gate: shape, first stage, last stage.

    A whole-instance sweep has two structurally special stages — the
    first, and the last (Viterbi's width-1 selector stage, an alignment
    band clipped at the end of the sequence) — so both are re-derived
    densely: the first from ``v``, the last from the sweep's own
    next-to-last row.
    """
    k = hi - lo
    if len(sweep.values) != k or len(sweep.preds) != k:
        return False
    if capture_state and (sweep.states is None or len(sweep.states) != k):
        return False
    if not _stage_matches(problem, lo + 1, v, sweep, 0, capture_state):
        return False
    if k > 1 and not _stage_matches(
        problem, hi, np.asarray(sweep.values[k - 2]), sweep, k - 1, capture_state
    ):
        return False
    return True


def _states_equal(kernel_state, dense_state) -> bool:
    """Field-wise byte comparison; sentinel states compare by equality."""
    if not hasattr(dense_state, "__dataclass_fields__"):
        return kernel_state == dense_state
    if type(kernel_state) is not type(dense_state):
        return False
    for field in dense_state.__dataclass_fields__:
        da = getattr(dense_state, field)
        ka = getattr(kernel_state, field)
        if isinstance(da, np.ndarray):
            if np.shape(ka) != da.shape:
                return False
            if np.ascontiguousarray(ka).tobytes() != np.ascontiguousarray(da).tobytes():
                return False
        elif ka != da:
            return False
    return True


def block_sweep(problem, lo: int, hi: int, v, *, capture_state: bool = False) -> BlockSweep | None:
    """One fast-path dispatch over stages ``lo+1 .. hi``, or ``None``.

    Tries each registered kernel in order; a sweep is returned only
    after its first and last block stages have been re-derived densely
    and matched bit-for-bit.
    """
    for kernel in registered_kernels(type(problem)):
        plan = _plan_for(kernel, problem)
        if plan is None:
            continue
        try:
            sweep = kernel.run(problem, plan, lo, hi, v, capture_state=capture_state)
        except Exception:
            sweep = None
        if sweep is None or not sweep.values:
            continue
        if _gate_accepts(problem, lo, hi, v, sweep, capture_state):
            return sweep
    return None


def price_path_fast(problem, path) -> float | None:
    """Vectorized exact path pricing via any planned kernel, or ``None``."""
    path = np.asarray(path)
    for kernel in registered_kernels(type(problem)):
        plan = _plan_for(kernel, problem)
        if plan is None:
            continue
        try:
            price = kernel.price(problem, plan, path)
        except Exception:
            price = None
        if price is not None:
            return price
    return None


def kernel_tier_requested(use_kernels: bool | None, problem) -> bool:
    """The tri-state ``use_kernels`` gate, without an executor.

    ``False`` forces the dense path, ``True`` forces the tier on
    (overriding the ``REPRO_KERNELS`` environment switch), ``None``
    (auto) honours the switch.  Either way a kernel must be registered
    for the problem's exact type.  This is the whole gate for in-process
    sequential solves (``solve_sequential`` and every ``num_procs=1``
    solve).
    """
    if use_kernels is False:
        return False
    if use_kernels is not True:
        if os.environ.get("REPRO_KERNELS", "").strip().lower() in _DISABLE_VALUES:
            return False
    return bool(registered_kernels(type(problem)))


def kernel_tier_enabled(opts, problem) -> bool:
    """Gate mirroring the PR 5 sparse fix-up kernel's selection shape.

    :func:`kernel_tier_requested` on ``opts.use_kernels``, plus the
    executor must declare the ``block_kernels`` capability.
    """
    return kernel_tier_requested(
        getattr(opts, "use_kernels", None), problem
    ) and executor_capability(opts.executor, "block_kernels")
