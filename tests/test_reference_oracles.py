"""The program's own correctness oracles use the dense sequential loop.

`repro serve --selftest`, `repro solve`'s ``parallel == seq`` line and the
serve bench's mismatch count each check answers produced with the kernel
tier against ``solve_sequential``.  Under ``use_kernels=None`` that
reference would run the same block kernels, so a kernel bug the gate
misses would sit on both sides and the check would pass.  These tests pin
every reference solve to ``use_kernels=False`` (the literal Fig 2 loop).
"""

import repro.bench.serve_bench as serve_bench
import repro.cli as cli
import repro.serve.selftest as selftest


def _record_reference_calls(monkeypatch, module) -> list[dict]:
    calls: list[dict] = []
    real = module.solve_sequential

    def spy(problem, **kwargs):
        calls.append(kwargs)
        return real(problem, **kwargs)

    monkeypatch.setattr(module, "solve_sequential", spy)
    return calls


def _all_dense(calls: list[dict]) -> bool:
    return bool(calls) and all(c.get("use_kernels") is False for c in calls)


def test_serve_selftest_reference_is_dense(monkeypatch):
    calls = _record_reference_calls(monkeypatch, selftest)
    report = selftest.run_selftest(
        num_requests=12, num_procs=2, max_workers=2, seed=0, min_served=10
    )
    assert report.verified == report.served_ok >= 10
    assert len(calls) == report.served_ok
    assert _all_dense(calls)


def test_cli_solve_reference_is_dense(monkeypatch, capsys):
    calls = _record_reference_calls(monkeypatch, cli)
    rc = cli.main(
        ["solve", "--problem", "viterbi", "--size", "120", "--procs", "2"]
    )
    assert rc == 0
    assert "parallel == seq  : True" in capsys.readouterr().out
    assert len(calls) == 1
    assert _all_dense(calls)


def test_serve_bench_reference_is_dense(monkeypatch):
    calls = _record_reference_calls(monkeypatch, serve_bench)
    row = serve_bench._run_row("oracle", 8, 32, 2, 2)
    assert row["mismatches"] == 0
    assert len(calls) == row["ok"] == row["verified"]
    assert _all_dense(calls)
