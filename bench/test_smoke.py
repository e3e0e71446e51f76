"""Harness self-test: every workload at reduced size, plus the refusal case.

Runs run.py as a subprocess exactly as a benchmark run does, with
``--smoke`` shrinking each op.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    result = _result(proc)
    assert result["correct"], proc.stdout
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    for name in names:
        assert any(line.startswith(name) for line in proc.stdout.splitlines()), name
    if workload == "cli_runs":
        # every refused op is listed with its error text
        failed = [ln for ln in proc.stdout.splitlines() if ln.startswith("failed ")]
        assert len(failed) == result["failed"]
    else:
        assert result["failed"] == 0, proc.stdout


def test_traced_run_reports_every_layer():
    proc = _run("deep_sweep", 1)
    result = _result(proc)
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["mixed_poisson.mp_coefficients.calls"]["value"] > 0
    # three sweep levels, each followed by one warm revisit
    assert result["metrics"]["nbm.psi_nbm.calls"]["value"] == 6


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("table_models", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
