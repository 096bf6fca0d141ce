"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Every workload must run untraced and traced, emit exactly the metrics that
BENCHMARK.json names, and get every operation right; without the package
next to it the benchmark must fail without printing a result.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_workload_and_metric_names():
    assert WORKLOADS == ["cli", "census-sparse", "census-dense", "contradictions"]
    assert [m["name"] for m in CONFIG["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb", "ok_ratio",
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_without_failures(workload, trace, tmp_path):
    spans = tmp_path / "spans.csv"
    extra = ["--spans", str(spans)] if trace else []
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    assert "(failed_ratio 0)" in proc.stdout
    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    meta = json.loads(lines[0])["meta"]
    assert {"commit", "seed", "nproc", "python", "numpy", "loadavg_before", "loadavg_after"} <= set(meta)
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        touched = ["scenarios.load_scenario.calls", "engine.build_experiment.self_us",
                   "frameworks.enumerate_consistent_frameworks.calls"]
        if workload == "cli":  # the only workload that enters through every module
            touched += ["cli.main.self_ms", "core.parse_scenario_partition.self_us", "frameworks.query_event.self_us"]
        assert all(metrics[name] > 0 for name in touched), metrics
        assert metrics["trace.traced_ops_per_s"] > 0
        with spans.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {"name", "start_us", "end_us", "parent", "op"} <= set(rows[0])


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
