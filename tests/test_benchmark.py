"""The benchmark's self-test runs with the unit tests, so that a change which
drops a span the benchmark traces (time steps, factorizations, the block
operator) fails here and not only when the benchmark is next run. Each
workload's sweep is also checked in-process against the benchmark's expected
outputs, so that a change of results fails here too."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sgpde.harness import load_config, sweep

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())


def _perfbench_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", PERFBENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", sorted(WORKLOADS["workloads"]))
def test_workload_sweep_matches_expected_outputs(workload):
    # the workload configs are stored at initial-datum amplitude 1, the
    # amplitude at which the expected outputs were taken
    check = _perfbench_check()
    expected = json.loads((PERFBENCH / "expected" / f"{workload}.json").read_text())
    report = sweep(load_config(WORKLOADS["workloads"][workload]["config"]))
    rtol = WORKLOADS["output_check"]["rtol"]
    assert check.check_sweep(check.report_outputs(report), expected, 1.0, rtol) == []
