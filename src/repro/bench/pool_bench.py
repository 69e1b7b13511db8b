"""Reproducible perf-regression harness: problem x executor x P sweep.

The pool-suite matrix runner behind ``benchmarks/bench_runner.py`` (a
thin path-bootstrap shim) and ``repro bench record --suite pool``.  It
times real ``solve_parallel`` wall-clock on a small grid of synthetic
instances and emits a schema-versioned ``BENCH_pool.json``::

    PYTHONPATH=src python benchmarks/bench_runner.py --smoke
    PYTHONPATH=src python benchmarks/bench_runner.py            # full grid
    PYTHONPATH=src python benchmarks/bench_runner.py --check BENCH_pool.json

When a previous ``--out`` document exists, the runner compares against
it cell by cell and flags regressions.  The baseline is only replaced
when the run *passes*: a regressed (or failed-check, or cross-mode) run
writes its document to a ``*.failed.json`` sidecar instead, so a
regression can never launder itself into the next run's baseline.
Re-baselining after an accepted slowdown is an explicit act
(``--update-baseline``).

Besides the timing grid, the runner asserts two observability
guarantees of the tracing layer (recorded under ``"checks"``):

- ``tracing_disabled_overhead`` — a pool solve with tracing disabled
  (either ``tracer=None`` or a ``Tracer(enabled=False)``) stays within
  5% of the untraced baseline (best-of-N floors, which damp scheduler
  noise the way min-based microbenchmarks do);
- ``trace_coverage`` — an *enabled* trace of a pool solve carries
  exactly one ``superstep`` span per recorded superstep, and every
  ``dispatch`` span has the per-worker send/queue-wait/compute
  breakdown plus serialized byte counts;
- ``delta_fixup_reduction`` — on the sparse-kernel problems (LCS, NW)
  the §4.7 delta-mode fix-up must touch no more cells than dense mode
  on any grid cell, and strictly fewer on at least one;
- ``kernel_tier_speedup`` — the block-kernel fast path
  (``ParallelOptions(use_kernels=True)``) on the scaled ``viterbi_xl``
  and ``nw_xl`` pool rows must be bit-identical to the dense tier-off
  solve and at least ``KERNEL_TIER_SPEEDUP_*`` times faster in
  cells/sec.  The classic grid rows pin ``use_kernels=False`` so their
  timings stay comparable with pre-kernel baselines.

Every result row carries ``"valid"``: a row whose best-of-N floor is
not strictly positive (a broken clock, a sub-resolution measurement)
gets ``valid: false`` and ``cells_per_second: 0.0`` instead of a
silently wrong throughput, and the cell-by-cell comparison skips such
rows loudly rather than dividing by their wall clock.

Timings are floors (min over ``--repeats``); medians are also recorded.
The grid is deliberately small — this is a regression tripwire, not the
paper evaluation (that is ``pytest benchmarks/ --benchmark-only``).
The longitudinal view over many recorded runs lives in
:mod:`repro.bench.history` / :mod:`repro.bench.trend` (``repro bench``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

import numpy as np

from repro.bench.matrix import (
    REGRESSION_RATIO,
    BenchDocumentError,
    GridCell,
    compare_documents,
    find_duplicate_cells,
    load_json_document,
    make_document,
    need,
    print_comparison,
    throughput_cells_per_second,
)
from repro.datagen.packets import make_received_packet
from repro.datagen.sequences import homologous_pair, random_series
from repro.ltdp.parallel import ParallelOptions, solve_parallel
from repro.machine.executor import get_executor
from repro.machine.trace import Tracer
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.convolutional import STANDARD_CODES
from repro.problems.dtw import DTWProblem

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_OUT",
    "build_problem",
    "compare_documents",
    "failed_sidecar",
    "finalize_run",
    "main",
    "run_bench",
    "run_suite",
    "throughput_cells_per_second",
    "validate_bench_doc",
]

#: Bump on any incompatible change to the emitted JSON document.
BENCH_SCHEMA_VERSION = 1

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

DEFAULT_OUT = _REPO_ROOT / "BENCH_pool.json"

#: Acceptance bound for the disabled-tracer overhead check.
OVERHEAD_RATIO = 1.05

#: Minimum cells/sec speedup of the block-kernel tier over the dense
#: per-stage path on the scaled pool rows.  The full-grid instances are
#: big enough to amortize dispatch, so 10x is the contract; the smoke
#: instances are dominated by fixed costs and only have to show 2x.
KERNEL_TIER_SPEEDUP_FULL = 10.0
KERNEL_TIER_SPEEDUP_SMOKE = 2.0

#: Problems with a registered stage-block kernel, at sizes where raw
#: sweep speed dominates (see ``build_problem``).
KERNEL_TIER_PROBLEMS = ("viterbi_xl", "nw_xl")

SEED = 2014  # PPoPP year; fixed so instances are bit-reproducible.


def build_problem(name: str, smoke: bool):
    """Synthetic instance for one grid row (seeded, reproducible)."""
    rng = np.random.default_rng(SEED)
    if name == "lcs":
        size = 120 if smoke else 600
        a, b = homologous_pair(size, rng, divergence=0.1)
        return LCSProblem(a, b, width=24)
    if name == "nw":
        size = 120 if smoke else 600
        a, b = homologous_pair(size, rng, divergence=0.1)
        return NeedlemanWunschProblem(a, b, width=24)
    if name == "viterbi":
        size = 60 if smoke else 240
        _, problem = make_received_packet(
            STANDARD_CODES["Voyager"], size, rng, error_rate=0.02
        )
        return problem
    if name == "viterbi_xl":
        # Kernel-tier row: big enough that per-stage dispatch overhead
        # is amortized and the block kernel's raw speed dominates.  The
        # full size is sized so the forward sweep, not the O(n)
        # traceback + accounting shared by both tiers, dominates the
        # dense wall time (speedup plateaus ~11-12x from ~8k stages).
        size = 960 if smoke else 15360
        _, problem = make_received_packet(
            STANDARD_CODES["Voyager"], size, rng, error_rate=0.02
        )
        return problem
    if name == "nw_xl":
        # Same sizing rationale as viterbi_xl: past ~5k stages the
        # banded block kernel dominates and the speedup plateaus ~12x.
        size = 600 if smoke else 9600
        a, b = homologous_pair(size, rng, divergence=0.1)
        return NeedlemanWunschProblem(a, b, width=24)
    if name == "dtw":
        size = 100 if smoke else 400
        return DTWProblem(random_series(size, rng), random_series(size, rng), width=16)
    raise ValueError(f"unknown benchmark problem {name!r}")


#: Problems benchmarked in both dense and §4.7 delta fix-up mode — the
#: two with a sparse stage kernel, where delta mode changes the cells
#: actually computed (not just the accounting).
DELTA_PROBLEMS = ("lcs", "nw")


def _grid(smoke: bool) -> list[GridCell]:
    """Classic cells of the five-axis matrix (kernel tier pinned off)."""
    problems = ("lcs", "nw", "viterbi") if smoke else ("lcs", "nw", "viterbi", "dtw")
    procs = (2, 4) if smoke else (2, 4, 8)
    return [
        GridCell(problem, executor, p, use_delta=use_delta)
        for problem in problems
        for executor in ("serial", "thread", "pool")
        for p in procs
        for use_delta in ((False, True) if problem in DELTA_PROBLEMS else (False,))
    ]


def _timed_solve(problem, executor, procs: int, tracer=None, use_delta=False,
                 use_kernels: bool | None = False):
    # ``use_kernels`` defaults to *False* (not auto): the classic grid
    # rows must keep timing the dense per-stage path so their floors
    # stay comparable with BENCH_pool.json files written before the
    # kernel tier existed.  The kernel-tier rows opt in explicitly.
    t0 = time.perf_counter()
    solution = solve_parallel(
        problem,
        ParallelOptions(
            num_procs=procs,
            seed=SEED,
            executor=executor,
            tracer=tracer,
            use_delta=use_delta,
            use_kernels=use_kernels,
        ),
    )
    return time.perf_counter() - t0, solution


def _measure(problem, executor, procs: int, repeats: int, tracer=None, use_delta=False,
             use_kernels: bool | None = False):
    """Best-of-N floor + median; returns (times, last_solution)."""
    times = []
    solution = None
    for _ in range(repeats):
        elapsed, solution = _timed_solve(
            problem, executor, procs, tracer, use_delta, use_kernels
        )
        times.append(elapsed)
    return times, solution


def _fixup_cells(metrics) -> float:
    """Cells actually computed across forward fix-up supersteps."""
    return float(
        sum(
            s.total_work
            for s in metrics.supersteps
            if s.label.startswith("fixup")
        )
    )


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------


def _result_row(cell: GridCell, repeats: int, times: list[float], solution) -> dict:
    m = solution.metrics
    cells = float(m.total_work)
    best = min(times)
    cps, valid = throughput_cells_per_second(cells, best)
    if not valid:
        print(
            f"  WARNING: {cell.problem}/{cell.executor}/P={cell.procs} measured a "
            f"non-positive floor ({best!r}); row marked invalid"
        )
    return {
        "problem": cell.problem,
        "executor": cell.executor,
        "procs": cell.procs,
        "use_delta": cell.use_delta,
        "repeats": repeats,
        "wall_seconds": best,
        "wall_seconds_median": statistics.median(times),
        "supersteps": len(m.supersteps),
        "num_barriers": m.num_barriers,
        "forward_fixup_iterations": m.forward_fixup_iterations,
        "bytes_communicated": int(m.bytes_communicated),
        "total_work_cells": cells,
        "fixup_cells": _fixup_cells(m),
        "cells_per_second": cps,
        "valid": valid,
    }


def _run_grid(smoke: bool, repeats: int) -> list[dict]:
    results = []
    for cell in _grid(smoke):
        problem = build_problem(cell.problem, smoke)
        with get_executor(cell.executor) as executor:
            times, solution = _measure(
                problem, executor, cell.procs, repeats, use_delta=cell.use_delta
            )
        results.append(_result_row(cell, repeats, times, solution))
        row = results[-1]
        mode_tag = "delta" if cell.use_delta else "dense"
        print(
            f"  {cell.problem:<8s} {cell.executor:<7s} P={cell.procs:<2d} "
            f"{mode_tag:<5s} best {row['wall_seconds'] * 1e3:8.2f} ms  "
            f"({row['supersteps']} supersteps, "
            f"{row['forward_fixup_iterations']} fixups, "
            f"{row['fixup_cells']:.0f} fixup cells)"
        )
    return results


def _check_delta_fixup_reduction(results: list[dict]) -> dict:
    """§4.7 acceptance: on the sparse-kernel problems, delta-mode fix-up
    must never touch more cells than dense mode on the same cell of the
    grid, and must touch strictly fewer wherever fix-up work exists."""
    pairs = []
    dense = {
        (r["problem"], r["executor"], r["procs"]): r
        for r in results
        if not r.get("use_delta", False)
    }
    for row in results:
        if not row.get("use_delta", False):
            continue
        base = dense.get((row["problem"], row["executor"], row["procs"]))
        if base is None:
            continue
        pairs.append(
            {
                "problem": row["problem"],
                "executor": row["executor"],
                "procs": row["procs"],
                "dense_fixup_cells": base["fixup_cells"],
                "delta_fixup_cells": row["fixup_cells"],
            }
        )
    never_worse = all(
        p["delta_fixup_cells"] <= p["dense_fixup_cells"] for p in pairs
    )
    strictly_better = [
        p for p in pairs if p["delta_fixup_cells"] < p["dense_fixup_cells"]
    ]
    return {
        "pairs": pairs,
        "never_worse": never_worse,
        "strictly_better_cells": len(strictly_better),
        "passed": bool(pairs) and never_worse and bool(strictly_better),
    }


def _run_kernel_tier(smoke: bool, repeats: int) -> tuple[list[dict], dict]:
    """Kernel-tier rows (``kernel_tier: true/false`` at identical sizes)
    plus the ``kernel_tier_speedup`` check.

    For each scaled problem the pool solves once with the block-kernel
    tier off and once with it on.  The check passes iff every pair is
    bit-identical (path, score, fix-up schedule, per-processor work
    ledger — the tier must be invisible in everything but the clock)
    AND the tier-on row is at least ``threshold`` times faster in
    cells/sec.  Both rows land in ``results`` so future runs regression-
    gate the kernel path like any other cell.
    """
    threshold = KERNEL_TIER_SPEEDUP_SMOKE if smoke else KERNEL_TIER_SPEEDUP_FULL
    procs = 2
    rows: list[dict] = []
    pairs: list[dict] = []
    identical = True
    fast_enough = True
    for problem_name in KERNEL_TIER_PROBLEMS:
        problem = build_problem(problem_name, smoke)
        per_mode: dict[bool, tuple[list[float], object]] = {}
        with get_executor("pool") as executor:
            # Warm workers, the problem install, and the kernel plan
            # cache so neither mode pays one-time costs in its floor.
            _timed_solve(problem, executor, procs, use_kernels=True)
            for use_kernels in (False, True):
                per_mode[use_kernels] = _measure(
                    problem, executor, procs, repeats, use_kernels=use_kernels
                )
        cps_by_mode: dict[bool, tuple[float, bool]] = {}
        for use_kernels in (False, True):
            times, solution = per_mode[use_kernels]
            cell = GridCell(problem_name, "pool", procs, kernel_tier=use_kernels)
            row = _result_row(cell, repeats, times, solution)
            row["kernel_tier"] = use_kernels
            cps_by_mode[use_kernels] = (row["cells_per_second"], row["valid"])
            rows.append(row)
            tier_tag = "tier-on" if use_kernels else "tier-off"
            print(
                f"  {problem_name:<10s} pool    P={procs:<2d} {tier_tag:<8s} "
                f"best {row['wall_seconds'] * 1e3:8.2f} ms  "
                f"{row['cells_per_second'] / 1e6:8.2f} Mcells/s"
            )
        off, on = per_mode[False][1], per_mode[True][1]
        cell_identical = bool(
            np.array_equal(off.path, on.path)
            and off.score == on.score
            and off.metrics.forward_fixup_iterations
            == on.metrics.forward_fixup_iterations
            and off.metrics.work_by_processor() == on.metrics.work_by_processor()
        )
        identical &= cell_identical
        (cps_off, valid_off), (cps_on, valid_on) = cps_by_mode[False], cps_by_mode[True]
        speedup = cps_on / cps_off if (valid_off and valid_on and cps_off > 0) else 0.0
        fast_enough &= valid_off and valid_on and speedup >= threshold
        pairs.append(
            {
                "problem": problem_name,
                "procs": procs,
                "cells_per_second_off": cps_off,
                "cells_per_second_on": cps_on,
                "speedup": speedup,
                "bit_identical": cell_identical,
            }
        )
        print(
            f"  {problem_name:<10s} kernel-tier speedup x{speedup:.2f} "
            f"(threshold x{threshold:.0f}, "
            f"bit-identical: {'yes' if cell_identical else 'NO'})"
        )
    check = {
        "rows": pairs,
        "threshold": threshold,
        "bit_identical": identical,
        "passed": bool(pairs) and identical and fast_enough,
    }
    return rows, check


# ----------------------------------------------------------------------
# Tracing checks (acceptance criteria of the observability layer)
# ----------------------------------------------------------------------


def _check_disabled_overhead(smoke: bool, repeats: int) -> dict:
    """Disabled tracing must stay within OVERHEAD_RATIO of untraced.

    The two floors are milliseconds apart in magnitude, so a single
    best-of-N pair on a loaded host can jitter past the 5% threshold
    with no real overhead; a first failure re-measures once with twice
    the repeats before the check is declared failed.  A disabled tracer
    that *records* anything fails immediately — that is a contract
    violation, not noise.
    """
    problem = build_problem("lcs", smoke)
    procs = 4
    check: dict = {}
    for attempt, n in enumerate((repeats, repeats * 2), start=1):
        off = Tracer(enabled=False)
        base_times: list[float] = []
        off_times: list[float] = []
        with get_executor("pool") as executor:
            # Warm-up removes worker-spawn cost; interleaving the two
            # variants makes the floor comparison robust to load that
            # drifts over the measurement window.
            _timed_solve(problem, executor, procs)
            for _ in range(n):
                elapsed, _ = _timed_solve(problem, executor, procs)
                base_times.append(elapsed)
                elapsed, _ = _timed_solve(problem, executor, procs, tracer=off)
                off_times.append(elapsed)
        base, disabled = min(base_times), min(off_times)
        ratio = disabled / base if base > 0 else 1.0
        check = {
            "baseline_seconds": base,
            "disabled_tracer_seconds": disabled,
            "ratio": ratio,
            "threshold": OVERHEAD_RATIO,
            "passed": ratio < OVERHEAD_RATIO,
            "spans_recorded": len(off.spans) + len(off.events),
            "attempts": attempt,
        }
        if off.spans or off.events:
            check["passed"] = False  # a disabled tracer must record nothing
            break
        if check["passed"]:
            break
    return check


def _check_trace_coverage(smoke: bool, trace_path: str | None) -> dict:
    """An enabled pool trace must cover every superstep and dispatch."""
    problem = build_problem("lcs", smoke)
    tracer = Tracer()
    with get_executor("pool") as executor:
        _, solution = _timed_solve(problem, executor, 4, tracer=tracer)
    superstep_spans = [s for s in tracer.spans if s.name == "superstep"]
    dispatch_spans = [s for s in tracer.spans if s.name == "dispatch"]
    breakdown_keys = (
        "worker",
        "send_seconds",
        "queue_wait_seconds",
        "compute_seconds",
        "request_bytes",
        "reply_bytes",
    )
    complete = all(
        all(k in s.attrs for k in breakdown_keys) for s in dispatch_spans
    )
    recorded = len(solution.metrics.supersteps)
    check = {
        "superstep_spans": len(superstep_spans),
        "recorded_supersteps": recorded,
        "dispatch_spans": len(dispatch_spans),
        "dispatch_breakdown_complete": complete,
        "passed": bool(
            superstep_spans
            and len(superstep_spans) == recorded
            and dispatch_spans
            and complete
        ),
    }
    if trace_path:
        tracer.dump_jsonl(trace_path)
        check["trace_path"] = trace_path
    return check


# ----------------------------------------------------------------------
# Schema validation (hand-rolled; no jsonschema dependency)
# ----------------------------------------------------------------------

_RESULT_FIELDS = {
    "problem": str,
    "executor": str,
    "procs": int,
    "repeats": int,
    "wall_seconds": float,
    "wall_seconds_median": float,
    "supersteps": int,
    "num_barriers": int,
    "forward_fixup_iterations": int,
    "bytes_communicated": int,
    "total_work_cells": float,
    "cells_per_second": float,
}


def validate_bench_doc(doc, *, check_duplicates: bool = False) -> None:
    """Raise ``ValueError`` unless ``doc`` matches the BENCH_pool schema.

    ``check_duplicates`` additionally rejects result grids where two
    rows share a cell key (``repro bench check`` and ``--check`` turn
    this on; the in-band comparison path surfaces duplicates through
    ``compare_documents`` instead so they reach the report).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"document must be an object, got {type(doc).__name__}")
    version = need(doc, "schema_version", int, "document")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {version} != supported {BENCH_SCHEMA_VERSION}"
        )
    need(doc, "kind", str, "document")
    if doc["kind"] != "repro-bench":
        raise ValueError(f"kind {doc['kind']!r} != 'repro-bench'")
    need(doc, "mode", str, "document")
    need(doc, "host", dict, "document")
    results = need(doc, "results", list, "document")
    if not results:
        raise ValueError("document: 'results' must be non-empty")
    for idx, row in enumerate(results):
        where = f"results[{idx}]"
        if not isinstance(row, dict):
            raise ValueError(f"{where}: must be an object")
        for key, typ in _RESULT_FIELDS.items():
            types = (int, float) if typ is float else typ
            need(row, key, types, where)
        # Optional fields (schema v1 compatible: absent in older docs).
        if "valid" in row and not isinstance(row["valid"], bool):
            raise ValueError(f"{where}: valid must be a bool")
        if row.get("valid", True) and row["wall_seconds"] <= 0:
            raise ValueError(
                f"{where}: wall_seconds must be positive on a valid row"
            )
        if "use_delta" in row and not isinstance(row["use_delta"], bool):
            raise ValueError(f"{where}: use_delta must be a bool")
        if "kernel_tier" in row and not isinstance(row["kernel_tier"], bool):
            raise ValueError(f"{where}: kernel_tier must be a bool")
        if "fixup_cells" in row and not isinstance(row["fixup_cells"], (int, float)):
            raise ValueError(f"{where}: fixup_cells must be numeric")
    checks = need(doc, "checks", dict, "document")
    for name, check in checks.items():
        if not isinstance(check, dict) or "passed" not in check:
            raise ValueError(f"checks[{name!r}]: must be an object with 'passed'")
    if check_duplicates:
        duplicates = find_duplicate_cells(results)
        if duplicates:
            detail = "; ".join(
                f"{d['problem']}/{d['executor']}/P={d['procs']} "
                f"use_delta={d['use_delta']} kernel_tier={d['kernel_tier']} "
                f"x{d['count']}"
                for d in duplicates
            )
            raise ValueError(
                f"document: {len(duplicates)} duplicate result cell(s): {detail}"
            )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_suite(smoke: bool, repeats: int, trace_path: str | None = None) -> tuple[dict, bool]:
    """Run the sweep + checks; returns ``(document, checks_ok)``.

    No comparison, no file I/O — callers (``run_bench``, ``repro bench
    record``) decide how the document meets the baseline and history.
    """
    mode = "smoke" if smoke else "full"
    print(f"bench runner: mode={mode} repeats={repeats}")
    results = _run_grid(smoke, repeats)

    print("kernel tier:")
    tier_rows, tier_check = _run_kernel_tier(smoke, repeats)
    results.extend(tier_rows)

    print("checks:")
    checks = {
        "tracing_disabled_overhead": _check_disabled_overhead(smoke, repeats + 2),
        "trace_coverage": _check_trace_coverage(smoke, trace_path),
        "delta_fixup_reduction": _check_delta_fixup_reduction(results),
        "kernel_tier_speedup": tier_check,
    }
    for name, check in checks.items():
        print(f"  {name}: {'pass' if check['passed'] else 'FAIL'} {check}")

    doc = make_document("repro-bench", BENCH_SCHEMA_VERSION, mode, results, checks)
    return doc, all(c["passed"] for c in checks.values())


def failed_sidecar(out: pathlib.Path) -> pathlib.Path:
    """``BENCH_pool.json`` -> ``BENCH_pool.failed.json``."""
    return out.with_suffix(".failed.json")


def compare_against_baseline(doc: dict, baseline: pathlib.Path) -> int:
    """Attach + print ``doc["comparison"]`` against the file at ``baseline``.

    Returns 1 when the comparison fails (regressed cells or duplicate
    cell keys on either side), 0 otherwise.  The baseline file is only
    read, never written.
    """
    try:
        old = json.loads(baseline.read_text())
        validate_bench_doc(old)
    except (ValueError, OSError) as exc:
        print(f"previous {baseline.name} unusable ({exc}); skipping comparison")
        return 0
    doc["comparison"] = compare_documents(old, doc)
    print_comparison(doc["comparison"])
    if doc["comparison"]["regressions"] or doc["comparison"]["duplicate_cells"]:
        return 1
    return 0


def finalize_run(doc: dict, out: pathlib.Path, *, checks_ok: bool = True,
                 update_baseline: bool = False) -> int:
    """Compare against the baseline at ``out`` and decide where to write.

    The committed baseline is only replaced by a *passing* run of the
    same mode; a failing run (regression or failed check) or a
    cross-mode run writes its document to the ``*.failed.json`` sidecar
    so the next run still compares against the honest numbers.  Before
    this policy existed, a regressed run exited 1 but overwrote its own
    baseline — the very next run then compared against the regressed
    floors and passed (baseline self-laundering).  ``update_baseline``
    is the explicit re-baselining escape hatch: the document is written
    to ``out`` regardless of the verdict (the exit code still reports
    it).
    """
    exit_code = 0 if checks_ok else 1
    mode_mismatch = False
    if out.exists():
        previous_mode = None
        try:
            previous_mode = json.loads(out.read_text()).get("mode")
        except (ValueError, OSError):
            pass  # unreadable previous file; compare_against_baseline reports it
        mode_mismatch = previous_mode is not None and previous_mode != doc.get("mode")
        if compare_against_baseline(doc, out):
            exit_code = 1
    validate_bench_doc(doc)
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if update_baseline or (exit_code == 0 and not mode_mismatch):
        out.write_text(payload)
        print(f"wrote {out}")
    else:
        sidecar = failed_sidecar(out)
        sidecar.write_text(payload)
        reason = (
            f"mode {doc.get('mode')!r} != baseline mode"
            if mode_mismatch and exit_code == 0
            else "run failed"
        )
        print(f"baseline {out} left untouched ({reason}); wrote {sidecar}")
        print("  (re-baseline intentionally with --update-baseline)")
    return exit_code


def run_bench(
    smoke: bool,
    repeats: int,
    out: pathlib.Path,
    trace_path: str | None = None,
    *,
    update_baseline: bool = False,
) -> tuple[dict, int]:
    """Run the sweep + checks, emit a document, return (document, exit code)."""
    doc, checks_ok = run_suite(smoke, repeats, trace_path)
    exit_code = finalize_run(
        doc, out, checks_ok=checks_ok, update_baseline=update_baseline
    )
    return doc, exit_code


def check_document(path) -> int:
    """``--check``: validate an existing document, exit cleanly on junk."""
    try:
        doc = load_json_document(path)
        validate_bench_doc(doc, check_duplicates=True)
    except BenchDocumentError as exc:
        print(f"bench check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bench check failed: {path}: {exc}", file=sys.stderr)
        return 1
    print(f"{path}: valid repro-bench document (schema v{doc['schema_version']}, "
          f"{len(doc['results'])} cells, mode={doc['mode']})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instances / reduced grid (CI-sized, ~seconds)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions per cell"
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"output document (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="replace --out even when the run regresses or changes mode "
        "(explicit re-baselining; without this a failing run only writes "
        "the *.failed.json sidecar)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="also dump the coverage check's JSONL trace here (CI artifact)",
    )
    parser.add_argument(
        "--check",
        metavar="PATH",
        default=None,
        help="validate an existing document against the schema and exit",
    )
    args = parser.parse_args(argv)

    if args.check:
        return check_document(args.check)

    _, exit_code = run_bench(
        args.smoke,
        args.repeats,
        args.out,
        args.trace,
        update_baseline=args.update_baseline,
    )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
