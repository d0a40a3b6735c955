"""Toy-size smoke test of every workload in both modes.

    python3 -m pytest -q perfbench/tests

Checks the result-line contract: the keys, every metric named in
BENCHMARK.json and nothing else, finite values, a passing gate. Also checks
that a failing correctness check exits non-zero and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, cwd: str = ROOT, script: str = RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "0.5",
           "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] != 0.0, spec["name"]
    for line in ("environment ", "fingerprint "):
        assert any(out.startswith(line) for out in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", ["eval-learned", "eval-baseline"])
def test_eval_timed_passes_never_train(workload):
    metrics = result_line(run_bench(workload, 1))["metrics"]
    assert metrics["estimator.network.batch_backward.calls"]["value"] == 0
    assert metrics["estimator.training.train.calls"]["value"] == 0
    if workload == "eval-baseline":
        for layer in ("estimator.features.extract_features", "estimator.network.predict_errors"):
            assert metrics[f"{layer}.calls"]["value"] == 0
    else:
        assert metrics["estimator.network.predict_errors.calls"]["value"] > 0


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    sys.path.insert(0, BENCH_DIR)
    import run

    run.import_package()
    import workloads

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "score_epoch", broken)
    argv = ["--workload", "eval-baseline", "--seed", "0", "--seconds", "0.2", "--trace", "0", "--scale", "toy"]
    assert run.main(argv) == 1
    out = capsys.readouterr().out
    assert "check FAIL fix_or_named_skip" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path)
    proc = run_bench(WORKLOADS[0], 0, cwd=str(tmp_path), script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
