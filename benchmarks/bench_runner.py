"""Perf-regression harness entry point (pool sweep).

The implementation lives in :mod:`repro.bench.pool_bench` so that the
``repro bench`` CLI (record/compare/trend/report/check) shares one
matrix runner with this script; this file only bootstraps ``src`` onto
``sys.path`` and re-exports the public surface::

    PYTHONPATH=src python benchmarks/bench_runner.py --smoke
    PYTHONPATH=src python benchmarks/bench_runner.py            # full grid
    PYTHONPATH=src python benchmarks/bench_runner.py --check BENCH_pool.json

See the module docstring of ``repro.bench.pool_bench`` for the grid,
the checks, and the baseline write policy (a regressed run writes a
``*.failed.json`` sidecar; only ``--update-baseline`` replaces a
baseline with a failing run's numbers).
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.matrix import (  # noqa: E402,F401  (re-exported)
    REGRESSION_RATIO,
    GridCell,
    cell_key,
    find_duplicate_cells,
)
from repro.bench.pool_bench import (  # noqa: E402,F401  (re-exported)
    BENCH_SCHEMA_VERSION,
    DEFAULT_OUT,
    DELTA_PROBLEMS,
    KERNEL_TIER_PROBLEMS,
    KERNEL_TIER_SPEEDUP_FULL,
    KERNEL_TIER_SPEEDUP_SMOKE,
    OVERHEAD_RATIO,
    SEED,
    build_problem,
    check_document,
    compare_against_baseline,
    compare_documents,
    failed_sidecar,
    finalize_run,
    main,
    run_bench,
    run_suite,
    throughput_cells_per_second,
    validate_bench_doc,
)
from repro.bench.pool_bench import (  # noqa: E402,F401  (legacy private names)
    _check_delta_fixup_reduction,
    _check_disabled_overhead,
    _check_trace_coverage,
    _fixup_cells,
    _grid,
    _measure,
    _run_grid,
    _run_kernel_tier,
    _timed_solve,
)
from repro.bench.matrix import print_comparison as _print_comparison  # noqa: E402,F401

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_OUT",
    "build_problem",
    "compare_documents",
    "main",
    "run_bench",
    "throughput_cells_per_second",
    "validate_bench_doc",
]


if __name__ == "__main__":
    sys.exit(main())
