"""The benchmark harness runs end to end: ``benchmarks/smoke.py`` runs every
workload at n = 1, checks the metric names and units against
``BENCHMARK.json`` and checks that its oracles catch a planted wrong answer."""
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_script_passes():
    proc = subprocess.run(
        [sys.executable, "benchmarks/smoke.py"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
