import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import gate
import harness
from workloads import DEFAULT_SEED, WORKLOADS

SHORT_T = 100  # shorter runs raise the auto step size (0.1 sqrt(n/T)) until sparse_trigger diverges


@pytest.fixture(scope="module", params=list(WORKLOADS))
def short(request):
    workload = WORKLOADS[request.param]
    return workload, harness.one_repeat(workload, DEFAULT_SEED, T=SHORT_T)


def test_short_run_passes_the_gate(short):
    workload, rep = short
    assert gate.check(workload, rep.cfg, rep.result, rep.csv, rep.summary) == []


def test_gate_rejects_wrong_outputs(short):
    workload, rep = short
    last = rep.result.rows[-1]
    bad_bits = dataclasses.replace(rep.result, total_bits=rep.result.total_bits + 1)
    assert any("bits_total" in e for e in gate.check(workload, rep.cfg, bad_bits, rep.csv, rep.summary))
    bad_row = dataclasses.replace(rep.result, rows=[*rep.result.rows[:-1], dataclasses.replace(last, loss=math.nan)])
    assert any("not finite" in e for e in gate.check(workload, rep.cfg, bad_row, rep.csv, rep.summary))
    pinned = dataclasses.replace(workload, T=SHORT_T, recorded={"bits_total": -1, "triggers": -1})
    assert len(gate.check(pinned, rep.cfg, rep.result, rep.csv, rep.summary)) == 2


def test_traced_short_run_is_transparent_and_reports_every_layer(short):
    workload, plain = short
    traced, totals, unrestored = harness.traced_repeat(workload, DEFAULT_SEED, T=SHORT_T)
    assert unrestored == []
    assert traced.csv == plain.csv
    metrics = harness.layer_metrics(totals, traced)
    assert set(metrics) | {"trace.overhead_s"} == set(harness.PER_LAYER)
    n, H = plain.cfg.topology.n, plain.cfg.H
    assert metrics["objective.stochastic_grad.calls"] == metrics["node.local_step.calls"] == n * SHORT_T
    assert metrics["node.should_trigger.calls"] == n * (SHORT_T // H)
    assert metrics["schedule.threshold_at.calls"] == metrics["engine.sync_rounds"] == SHORT_T // H
    assert metrics["compress.compress.calls"] == metrics["engine.triggers"] == plain.result.rows[-1].triggers
    assert metrics["engine.run.self_s"] > 0


def test_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(harness.ROOT / "bench" / "run_bench.py"), "--workload", "paper_ring", "--seconds", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == list(harness.END_TO_END)


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "paper_ring", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
