"""The benchmark's output gate: every workload's outputs against perfbench/reference/."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_every_benchmark_workload_matches_its_reference():
    # one short run of each workload, checked at the benchmark's own tolerances
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    # the lines before it name each output that differs from its reference
    assert result["correct"] is True, proc.stdout[-4000:]
    assert result["failed"] == 0, proc.stdout[-4000:]
