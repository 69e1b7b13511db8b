"""Repository benchmark: long solves and near-duplicate served requests.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-long --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced pass, each
solve and request time scaled to a reference host speed (see
``perfbench/hostspeed.py``);
``--trace 1`` runs the same seeded pass untraced and then traced and
prints the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The command exits 1 if any
answer differs from ``solve_sequential``, and 2 if the checkout holds
no ``src/repro`` to benchmark.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before anything heavy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Extra set-up runs (each a fresh interpreter) whose median, with this
#: process's own set-up, is reported as ``setup_s``.
SETUP_PROBES = 6

#: End-to-end metrics and their units, in print order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "fam_a_ms.p50": "ms",
    "fam_b_ms.p50": "ms",
    "seq_fam_a_ms.p50": "ms",
    "seq_fam_b_ms.p50": "ms",
    "req_ms.p50": "ms",
    "req_ms.p90": "ms",
    "goodput_rps": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes (the benchmark's own tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _prepare_imports() -> bool:
    """Put the checkout's sources first on ``sys.path``; False if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(src), str(ROOT)]
    # The compiled kernel backend caches its build here, inside the checkout.
    os.environ["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "repro-kernels")
    return True


def _setup_probe(args) -> dict:
    """Set-up timings of one fresh interpreter running this same command."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "1",
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(wl, untraced, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced pass, and their sample counts.

    Every timing is scaled to the reference host speed, unit by unit.
    """
    from perfbench.stats import percentile_or_zero as _p

    def scaled(spans, speed=untraced.speed) -> list[float]:
        return [speed.scaled_ms(start, end) for start, end in spans]

    ok = [r for r in untraced.records if r.status == "ok"]
    fam = {f: scaled((r.start, r.end) for r in ok if r.family == f) for f in ("a", "b")}
    seq = {f: scaled(untraced.seq.get(f, []), untraced.seq_speed) for f in ("a", "b")}
    limit = wl.latency_limit_ms
    if untraced.pairs:
        req = scaled(untraced.pairs)
        by_pair: dict[int, list] = {}
        for r in untraced.records:
            by_pair.setdefault(r.index, []).append(r)
        good = sum(
            1
            for i, ms in enumerate(req)
            if ms <= limit and all(r.status == "ok" and r.correct for r in by_pair[i])
        )
    else:
        req = scaled((r.start, r.end) for r in ok)
        good = sum(1 for r, ms in zip(ok, req) if r.correct and ms <= limit)
    span_s = sum(req) / 1e3
    attempted = max(untraced.attempted, 1)
    values = {
        "setup_s": setup_s,
        "fam_a_ms.p50": _p(fam["a"]),
        "fam_b_ms.p50": _p(fam["b"]),
        "seq_fam_a_ms.p50": _p(seq["a"]),
        "seq_fam_b_ms.p50": _p(seq["b"]),
        "req_ms.p50": _p(req),
        "req_ms.p90": _p(req, 0.9),
        "goodput_rps": good / span_s if span_s > 0 else 0.0,
        "ok_ratio": (attempted - untraced.failed) / attempted,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "fam_a_ms.p50": len(fam["a"]),
        "fam_b_ms.p50": len(fam["b"]),
        "seq_fam_a_ms.p50": len(seq["a"]),
        "seq_fam_b_ms.p50": len(seq["b"]),
        "req_ms.p50": len(req),
        "req_ms.p90": len(req),
        "goodput_rps": good,
        "ok_ratio": attempted,
    }
    return values, samples


def _print_table(title: str, values: dict, units: dict, samples: dict, reasons: dict) -> None:
    from perfbench.stats import tail_samples

    print(title)
    for name, unit in units.items():
        line = f"  {name:<30s} {values[name]:>14.4f} {unit:<6s}"
        n = samples.get(name)
        if n is not None:
            line += f" n={n}"
            if name.endswith(".p90"):
                line += f" beyond={tail_samples(n, 0.9)}"
        if name in reasons:
            line += f"  (zero: {reasons[name]})"
        print(line)


def run(args) -> int:
    from perfbench import harness
    from perfbench.workloads import get_workload

    wl = get_workload(args.workload, tiny=args.tiny)
    ctx = harness.setup(wl, args.seed, T_START)
    if args.setup_probe:
        ctx.close()
        print(json.dumps(ctx.timings))
        return 0
    try:
        return _measure(args, wl, ctx)
    finally:
        ctx.close()


def _measure(args, wl, ctx) -> int:
    from perfbench import harness
    from perfbench.hostspeed import REFERENCE_MS
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.stats import percentile_or_zero

    setups = [ctx.timings] + [_setup_probe(args) for _ in range(1 if args.tiny else SETUP_PROBES)]
    setup_medians = {k: statistics.median(s[k] for s in setups) for k in ctx.timings}
    print(
        f"workload {wl.name}: seed {args.seed}, {args.seconds:g} s, P = {ctx.procs}, "
        f"pool of {ctx.pool.max_workers} workers, latency limit {wl.latency_limit_ms:g} ms"
    )
    print(f"  family a: {wl.family_a}")
    print(f"  family b: {wl.family_b}")
    print("  setup_s runs: " + ", ".join(f"{s['setup_s']:.3f}" for s in setups))

    rec0 = ctx.pool.recovery_stats.snapshot()
    refs: dict = {}
    verify_ms: list[float] = []
    if wl.name == "solve-long":
        untraced = harness.solve_long_pass(ctx, args.seconds)
    else:
        untraced = harness.serve_pass(ctx, args.seconds)
    verify_ms += harness.verify(ctx, untraced, refs)
    passes = [untraced]

    if args.trace:
        layers = _traced(args, wl, ctx, untraced, refs, verify_ms, setup_medians, rec0, passes)
    total_rss, _ = harness.peak_rss_mb(ctx.pool)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    mismatches = sum(p.mismatches for p in passes)
    print(
        f"  answers: {attempted} attempted, {failed} failed "
        f"(failed_ratio {failed / max(attempted, 1):.4f}), {mismatches} wrong"
    )
    print(
        f"  host speed: calibration chunk {untraced.speed.median_ms():.3f} ms median over "
        f"{len(untraced.speed)} samples (reference {REFERENCE_MS:g} ms); raw p50s: "
        + ", ".join(f"{k} {percentile_or_zero(v):.2f} ms" for k, v in _raw_units(untraced).items())
    )
    if args.trace:
        metrics = {k: {"value": layers.values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        values, samples = end_to_end(wl, untraced, setup_medians["setup_s"], total_rss)
        _print_table("end-to-end (untraced pass):", values, END_TO_END_UNITS, samples, {})
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(
        json.dumps(
            {
                "correct": mismatches == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if mismatches else 0


def _raw_units(result) -> dict[str, list[float]]:
    """Unscaled timings of a pass, for the human-readable line."""
    ok = [r for r in result.records if r.status == "ok"]
    out = {f"fam_{f}": [r.ms for r in ok if r.family == f] for f in ("a", "b")}
    out.update({f"seq_fam_{f}": ms for f, ms in result.seq_ms.items()})
    out["req"] = result.pairs_ms or [r.ms for r in ok]
    return out


def _traced(args, wl, ctx, untraced, refs, verify_ms, setup_medians, rec0, passes):
    """Run the same seeded pass with the tracer and probes on; print the layers."""
    from repro.machine.trace import Tracer

    from perfbench import harness
    from perfbench.layers import COVERAGE_FLOOR, PER_LAYER_UNITS, per_layer
    from perfbench.probes import Probes, installed

    tracer = Tracer()
    probes = Probes()
    if wl.name != "solve-long":
        ctx.service.close()
        ctx.service = harness.new_service(ctx, tracer)
        from perfbench.workloads import warmup_requests

        harness.serve_requests(ctx.service, warmup_requests(wl, args.seed))
    with installed(probes):
        if wl.name == "solve-long":
            traced = harness.solve_long_pass(ctx, args.seconds, tracer)
        else:
            traced = harness.serve_pass(ctx, args.seconds)
        verify_ms = verify_ms + harness.verify(ctx, traced, refs)
    passes.append(traced)
    rec1 = ctx.pool.recovery_stats
    _, worker_rss = harness.peak_rss_mb(ctx.pool)
    layers = per_layer(
        wl.name,
        traced,
        untraced,
        tracer,
        probes,
        workers=ctx.pool.max_workers,
        recovery={
            "respawns": rec1.respawns - rec0.respawns,
            "retries": rec1.retries - rec0.retries,
            "replayed_supersteps": rec1.replayed_supersteps - rec0.replayed_supersteps,
        },
        worker_rss_mb=worker_rss,
        setup_medians=setup_medians,
        verify_ms=verify_ms,
    )
    out = ROOT / ".bench_build" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    trace_file = out / f"{wl.name}-seed{args.seed}.jsonl"
    tracer.dump_jsonl(trace_file)
    _print_table(
        "per-layer (traced pass):", layers.values, PER_LAYER_UNITS, layers.samples, layers.reasons
    )
    verdict = "PASS" if layers.coverage_ok else "FAIL"
    print(
        f"  attribution check: named layers cover {layers.values['harness.coverage']:.1%} "
        f"of wall time (floor {COVERAGE_FLOOR:.0%}): {verdict}"
    )
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _prepare_imports():
        print(
            "perfbench: no src/repro next to the benchmark directory; "
            "run it from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
