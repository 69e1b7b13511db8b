"""Per-layer metrics from a traced pass.

Sources, all gathered in the benchmark's process:

- the program's own tracer spans (``serve.request``, ``serve.batch``,
  ``phase``, ``superstep``, ``dispatch``), passed in through
  ``LTDPService(tracer=...)`` / ``ParallelOptions(tracer=...)``;
- counts on ``RunMetrics`` and ``ServeResponse``;
- the call-time wrappers of :mod:`perfbench.probes`.

Attribution of one timed unit (a solve, or a request from its
submission to its answer) to named layers, by self time:

- ``serve``: queue wait (submission to ``serve.request`` start) plus the
  request span minus its phase spans;
- ``engine``: each phase span minus its superstep spans, plus (solves
  outside the service) the solve wall minus its phases — the epilogue;
- ``pool``: superstep spans (dispatch round trips and their main-process
  framing).

Whatever the wall time holds beyond these is ``harness.unattributed_ms``.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field

from perfbench.stats import mean, percentile_or_zero as pct, self_time, union_length

__all__ = ["LayerReport", "per_layer", "PER_LAYER_UNITS", "COVERAGE_FLOOR"]

#: Named layers must cover at least this share of end-to-end wall time.
COVERAGE_FLOOR = 0.90

#: Every per-layer metric with its unit, in print order.
PER_LAYER_UNITS = {
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p90": "ms",
    "serve.service_ms.p50": "ms",
    "serve.self_ms.p50": "ms",
    "serve.batch_size.mean": "count",
    "serve.hit_ratio": "ratio",
    "serve.rejected": "count",
    "serve.errors": "count",
    "engine.forward_ms.p50": "ms",
    "engine.objective_ms.p50": "ms",
    "engine.backward_ms.p50": "ms",
    "engine.epilogue_ms.p50": "ms",
    "engine.supersteps.mean": "count",
    "engine.fixup_rounds.mean": "count",
    "engine.bwd_fixup_rounds.mean": "count",
    "engine.work_efficiency": "ratio",
    "pool.dispatches.mean": "count",
    "pool.compute_ms.p50": "ms",
    "pool.transport_ms.p50": "ms",
    "pool.send_ms.p50": "ms",
    "pool.queue_wait_ms.p50": "ms",
    "pool.request_bytes.mean": "bytes",
    "pool.reply_bytes.mean": "bytes",
    "pool.busy_ratio": "ratio",
    "pool.respawns": "count",
    "pool.retries": "count",
    "pool.replayed_supersteps": "count",
    "pool.worker_rss_mb": "MiB",
    "kernels.sweep_ms": "ms",
    "kernels.sweep_calls": "count",
    "kernels.sweep_hit_ratio": "ratio",
    "kernels.price_ms.p50": "ms",
    "kernels.price_hit_ratio": "ratio",
    "sequential.forward_ms.p50": "ms",
    "sequential.backward_ms.p50": "ms",
    "sequential.verify_ms.p50": "ms",
    "delta.diff_ms.p50": "ms",
    "delta.dirty_stages.mean": "count",
    "delta.changed_cells.mean": "count",
    "engine.forward_ms.hit.p50": "ms",
    "engine.forward_ms.miss.p50": "ms",
    "setup.import_s": "s",
    "setup.spawn_s": "s",
    "setup.warmup_s": "s",
    "harness.trace_overhead": "ratio",
    "harness.unattributed_ms": "ms",
    "harness.coverage": "ratio",
}

_NO_SERVICE = "solve-long calls solve_parallel directly; no LTDPService in the path"
_NO_HITS = "no request on this workload is a near-duplicate of a resident solve"

#: Why a metric may read zero, by metric prefix then workload ("*" = any).
_ZERO_REASONS = {
    "serve.": {"solve-long": _NO_SERVICE},
    "serve.hit_ratio": {"*": _NO_HITS},
    "serve.rejected": {"*": "no request was refused by admission control"},
    "serve.errors": {"*": "no solve failed"},
    "engine.objective_ms": {
        "*": "no request family tracks a stage objective (Viterbi and NW/LCS end at stage n)"
    },
    "engine.fixup_rounds": {"*": "every processor converged without fix-up"},
    "engine.bwd_fixup_rounds": {"*": "the backward phase converged without fix-up"},
    "engine.forward_ms.hit": {"*": _NO_HITS},
    "engine.forward_ms.miss": {"*": "every request was a cache hit"},
    "pool.respawns": {"*": "no worker died"},
    "pool.retries": {"*": "no dispatch was re-sent"},
    "pool.replayed_supersteps": {"*": "no worker state had to be rebuilt"},
    "kernels.sweep": {
        "*": "every block sweep runs in the pool workers (inside pool.compute_ms); "
        "the num_procs=1 path has no kernel tier yet"
    },
    "kernels.price": {"*": "no path was priced in the benchmark's process"},
    "sequential.": {"*": "no solve_sequential call in the benchmark's process"},
    "delta.diff": {"solve-long": _NO_SERVICE, "*": "no cache lookup reached the diff"},
    "delta.": {"*": _NO_HITS},
    "harness.unattributed": {"*": "named layers cover the whole wall time"},
}


def zero_reason(metric: str, workload: str) -> str:
    best = ""
    reason = "nothing of this kind happened in the traced pass"
    for prefix, by_workload in _ZERO_REASONS.items():
        if metric.startswith(prefix) and len(prefix) > len(best):
            text = by_workload.get(workload, by_workload.get("*"))
            if text:
                best, reason = prefix, text
    return reason


@dataclass
class LayerReport:
    values: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)
    coverage_ok: bool = True


class _SpanIndex:
    """Tracer spans on the absolute ``perf_counter`` clock, sorted by start."""

    def __init__(self, tracer) -> None:
        epoch = tracer.epoch
        self.spans = sorted(
            ((s.start + epoch, s.end + epoch, s) for s in tracer.spans),
            key=lambda x: x[0],
        )
        self.starts = [x[0] for x in self.spans]

    def inside(self, lo: float, hi: float) -> dict[str, list]:
        out: dict[str, list] = defaultdict(list)
        i = bisect.bisect_left(self.starts, lo)
        while i < len(self.spans) and self.spans[i][0] < hi:
            if self.spans[i][1] <= hi:
                out[self.spans[i][2].name].append(self.spans[i])
            i += 1
        return out

    def named(self, name: str, lo: float, hi: float) -> list:
        return self.inside(lo, hi).get(name, [])


def _ms(xs):
    return [x * 1e3 for x in xs]


def per_layer(
    workload: str,
    traced,
    untraced,
    tracer,
    probes,
    *,
    workers: int,
    recovery: dict[str, int],
    worker_rss_mb: float,
    setup_medians: dict[str, float],
    verify_ms: list[float],
) -> LayerReport:
    """Every metric in :data:`PER_LAYER_UNITS` for one traced pass."""
    idx = _SpanIndex(tracer)
    lo, hi = traced.window
    serve = workload != "solve-long"
    req_spans = {
        s[2].attrs.get("request_id"): s for s in idx.named("serve.request", lo, hi + 1)
    }

    phase_self: dict[str, list[float]] = defaultdict(list)
    fwd_by_cache: dict[str, list[float]] = defaultdict(list)
    epilogue, queue_wait, service, serve_self = [], [], [], []
    dispatch_counts, dispatches = [], []
    wall_total = attributed_total = 0.0
    for rec in traced.records:
        if rec.status != "ok":
            continue
        if serve:
            span = req_spans.get(rec.request_id)
            if span is None:
                continue
            s0, s1 = span[0], span[1]
            queue_wait.append(max(0.0, s0 - rec.start))
            service.append(s1 - s0)
        else:
            s0, s1 = rec.start, rec.end
        inside = idx.inside(s0, s1)
        phases = inside.get("phase", [])
        outer = (s1 - s0) - union_length((p[0], p[1]) for p in phases)
        attributed = outer + (queue_wait[-1] if serve else 0.0)
        if serve:
            serve_self.append(outer)
            if phases:
                epilogue.append(s1 - max(p[1] for p in phases))
        else:
            epilogue.append(outer)
        steps = inside.get("superstep", [])
        for p in phases:
            mine = [(st[0], st[1]) for st in steps if st[0] >= p[0] and st[1] <= p[1]]
            own = self_time(p[0], p[1], mine)
            phase = p[2].attrs.get("phase", "?")
            phase_self[phase].append(own)
            attributed += own + sum(b - a for a, b in mine)
            if phase == "forward" and serve and rec.cache:
                fwd_by_cache[rec.cache].append(p[1] - p[0])
        disp = inside.get("dispatch", [])
        dispatch_counts.append(len(disp))
        dispatches.extend(d[2] for d in disp)
        wall_total += rec.end - rec.start
        attributed_total += attributed

    ok = [r for r in traced.records if r.status == "ok"]
    units = len(ok) or 1
    metrics_list = [r.solution.metrics for r in ok if r.solution is not None and r.solution.metrics]
    stages = sum(m.num_stages for m in metrics_list)
    fixup_stages = sum(sum(m.fixup_stages.values()) for m in metrics_list)

    compute = [d.attrs.get("compute_seconds", 0.0) for d in dispatches]
    window = max(hi - lo, 1e-9)
    batches = idx.named("serve.batch", lo, hi + 1)

    sweeps = probes.calls.get("kernels.sweep", [])
    prices = probes.calls.get("kernels.price", [])
    diffs = probes.calls.get("delta.diff", [])
    dirty = [o for _, o in diffs if o is not None]
    hits = [r for r in ok if r.cache == "hit"]

    untraced_p50 = _main_p50(untraced)
    traced_p50 = _main_p50(traced)
    unattributed = max(0.0, wall_total - attributed_total)
    coverage = attributed_total / wall_total if wall_total > 0 else 0.0

    v = {
        "serve.queue_wait_ms.p50": pct(_ms(queue_wait)),
        "serve.queue_wait_ms.p90": pct(_ms(queue_wait), 0.9),
        "serve.service_ms.p50": pct(_ms(service)),
        "serve.self_ms.p50": pct(_ms(serve_self)),
        "serve.batch_size.mean": mean([b[2].attrs.get("size", 0) for b in batches]),
        "serve.hit_ratio": len(hits) / units if serve else 0.0,
        "serve.rejected": sum(1 for r in traced.records if r.status == "rejected"),
        "serve.errors": sum(1 for r in traced.records if r.status == "error"),
        "engine.forward_ms.p50": pct(_ms(phase_self["forward"])),
        "engine.objective_ms.p50": pct(_ms(phase_self["objective"])),
        "engine.backward_ms.p50": pct(_ms(phase_self["backward"])),
        "engine.epilogue_ms.p50": pct(_ms(epilogue)),
        "engine.supersteps.mean": mean([len(m.supersteps) for m in metrics_list]),
        "engine.fixup_rounds.mean": mean([m.forward_fixup_iterations for m in metrics_list]),
        "engine.bwd_fixup_rounds.mean": mean([m.backward_fixup_iterations for m in metrics_list]),
        "engine.work_efficiency": stages / (stages + fixup_stages) if stages else 0.0,
        "pool.dispatches.mean": mean(dispatch_counts),
        "pool.compute_ms.p50": pct(_ms(compute)),
        "pool.transport_ms.p50": pct(_ms([d.duration - c for d, c in zip(dispatches, compute)])),
        "pool.send_ms.p50": pct(_ms([d.attrs.get("send_seconds", 0.0) for d in dispatches])),
        "pool.queue_wait_ms.p50": pct(
            _ms([d.attrs.get("queue_wait_seconds", 0.0) for d in dispatches])
        ),
        "pool.request_bytes.mean": mean([d.attrs.get("request_bytes", 0) for d in dispatches]),
        "pool.reply_bytes.mean": mean([d.attrs.get("reply_bytes", 0) for d in dispatches]),
        "pool.busy_ratio": sum(compute) / (workers * window),
        "pool.respawns": recovery.get("respawns", 0),
        "pool.retries": recovery.get("retries", 0),
        "pool.replayed_supersteps": recovery.get("replayed_supersteps", 0),
        "pool.worker_rss_mb": worker_rss_mb,
        "kernels.sweep_ms": sum(s for s, _ in sweeps) * 1e3,
        "kernels.sweep_calls": len(sweeps),
        "kernels.sweep_hit_ratio": mean([1.0 if o else 0.0 for _, o in sweeps]),
        "kernels.price_ms.p50": pct(_ms(probes.seconds("kernels.price"))),
        "kernels.price_hit_ratio": mean([1.0 if o else 0.0 for _, o in prices]),
        "sequential.forward_ms.p50": pct(_ms(probes.seconds("sequential.forward"))),
        "sequential.backward_ms.p50": pct(_ms(probes.seconds("sequential.backward"))),
        "sequential.verify_ms.p50": pct(verify_ms),
        "delta.diff_ms.p50": pct(_ms(probes.seconds("delta.diff"))),
        "delta.dirty_stages.mean": mean(dirty),
        "delta.changed_cells.mean": mean([r.delta_cells for r in hits]),
        "engine.forward_ms.hit.p50": pct(_ms(fwd_by_cache["hit"])),
        "engine.forward_ms.miss.p50": pct(_ms(fwd_by_cache["miss"])),
        "setup.import_s": setup_medians["import_s"],
        "setup.spawn_s": setup_medians["spawn_s"],
        "setup.warmup_s": setup_medians["warmup_s"],
        "harness.trace_overhead": traced_p50 / untraced_p50 if untraced_p50 else 0.0,
        "harness.unattributed_ms": unattributed * 1e3 / units,
        "harness.coverage": coverage,
    }
    report = LayerReport(values={k: float(x) for k, x in v.items()})
    report.samples = {
        "serve.queue_wait_ms.p50": len(queue_wait),
        "serve.queue_wait_ms.p90": len(queue_wait),
        "serve.service_ms.p50": len(service),
        "engine.forward_ms.p50": len(phase_self["forward"]),
        "engine.epilogue_ms.p50": len(epilogue),
        "pool.compute_ms.p50": len(dispatches),
        "kernels.sweep_calls": len(sweeps),
        "kernels.price_ms.p50": len(prices),
        "sequential.forward_ms.p50": len(probes.seconds("sequential.forward")),
        "sequential.verify_ms.p50": len(verify_ms),
        "delta.diff_ms.p50": len(diffs),
        "engine.forward_ms.hit.p50": len(fwd_by_cache["hit"]),
        "engine.forward_ms.miss.p50": len(fwd_by_cache["miss"]),
    }
    report.reasons = {
        k: zero_reason(k, workload) for k, x in report.values.items() if x == 0.0
    }
    report.coverage_ok = coverage >= COVERAGE_FLOOR
    return report


def _main_p50(result) -> float:
    """Median of the pass's unit of work: a (decode, align) pair or a request."""
    if result.pairs_ms:
        return pct(result.pairs_ms)
    return pct([r.ms for r in result.records if r.status == "ok"])
