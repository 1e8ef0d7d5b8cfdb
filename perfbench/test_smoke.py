"""Smoke test of the benchmark itself: every workload once at very small n.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
It checks that every metric BENCHMARK.json names is reported with its unit,
for both the end-to-end and the traced run, and that the benchmark refuses a
directory that holds no agemix sources. It does not check timings.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def test_every_named_metric_is_reported_with_its_unit():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            assert f"smoke {workload['name']} trace={trace}" in proc.stdout


def test_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "records-io", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
