"""Tiny-size runs of every workload through the one command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    human = "\n".join(lines[:-1])
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f" {m['name']} " in human
    if trace:
        assert "attribution check" in human and "PASS" in human
    else:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run(
        "--workload", "solve-long", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
