"""The benchmark's self-test runs with the unit tests, so that a change which
drops a span the benchmark traces (time steps, factorizations, the block
operator) fails here and not only when the benchmark is next run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
