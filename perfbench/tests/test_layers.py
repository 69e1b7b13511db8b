"""Per-layer attribution on a synthetic trace with known self times."""

import pytest
from repro.machine.trace import Tracer

from perfbench.harness import PassResult, Record
from perfbench.layers import PER_LAYER_UNITS, per_layer, zero_reason
from perfbench.probes import Probes


def _serve_trace():
    # One request due at 9, served in [10, 20], answered at 20.5:
    #   phase forward [11, 15] > superstep [12, 14] > dispatches [12, 13.5], [12.5, 14]
    #   phase backward [15, 18] > superstep [15.5, 17.5]
    t = Tracer()
    t.add_span("serve.batch", 10, 20, size=1)
    t.add_span("serve.request", 10, 20, request_id=1)
    t.add_span("phase", 11, 15, phase="forward")
    t.add_span("superstep", 12, 14)
    t.add_span("dispatch", 12, 13.5, compute_seconds=1.0, send_seconds=0.1)
    t.add_span("dispatch", 12.5, 14, compute_seconds=0.5, send_seconds=0.1)
    t.add_span("phase", 15, 18, phase="backward")
    t.add_span("superstep", 15.5, 17.5)
    rec = Record("a", 0, start=9.0, end=20.5, status="ok", cache="miss", request_id=1)
    result = PassResult(records=[rec], window=(9.0, 20.5), attempted=1)
    return t, result


def _layers(tracer, result):
    return per_layer(
        "serve-neardup",
        result,
        result,
        tracer,
        Probes(),
        workers=2,
        recovery={},
        worker_rss_mb=1.0,
        setup_medians={"import_s": 1.0, "spawn_s": 1.0, "warmup_s": 1.0},
        verify_ms=[],
    )


def test_self_times_and_coverage():
    report = _layers(*_serve_trace())
    v = report.values
    ms = 1e3
    assert v["serve.queue_wait_ms.p50"] == pytest.approx(1.0 * ms)
    assert v["serve.service_ms.p50"] == pytest.approx(10.0 * ms)
    assert v["serve.self_ms.p50"] == pytest.approx(3.0 * ms)  # 10 - (4 + 3)
    assert v["engine.forward_ms.p50"] == pytest.approx(2.0 * ms)  # 4 - 2
    assert v["engine.backward_ms.p50"] == pytest.approx(1.0 * ms)  # 3 - 2
    assert v["engine.forward_ms.miss.p50"] == pytest.approx(4.0 * ms)
    assert v["pool.dispatches.mean"] == 2
    assert v["pool.compute_ms.p50"] == pytest.approx(0.5 * ms)
    assert v["pool.transport_ms.p50"] == pytest.approx(0.5 * ms)  # 1.5 - 1.0 and 1.5 - 0.5
    # Named layers: 1 (queue) + 3 (serve) + 2 + 2 (forward) + 1 + 2 (backward) = 11 of 11.5.
    assert v["harness.unattributed_ms"] == pytest.approx(0.5 * ms)
    assert v["harness.coverage"] == pytest.approx(11 / 11.5)
    assert report.coverage_ok


def test_every_metric_is_reported_and_zeros_are_explained():
    report = _layers(*_serve_trace())
    assert set(report.values) == set(PER_LAYER_UNITS)
    for name, value in report.values.items():
        if value == 0.0:
            assert report.reasons[name]


def test_low_coverage_fails_the_check():
    tracer, result = _serve_trace()
    result.records[0].end = 40.0  # the answer arrives long after the span ends
    result.window = (9.0, 40.0)
    assert not _layers(tracer, result).coverage_ok


def test_zero_reasons_prefer_the_longest_prefix():
    assert "pool workers" in zero_reason("kernels.sweep_calls", "solve-long")
    assert "LTDPService" in zero_reason("serve.queue_wait_ms.p50", "solve-long")
    assert "admission" in zero_reason("serve.rejected", "serve-neardup")
