"""One traced round of the benchmark on each workload: its reference
checks, repeat checks and tracer hooks must all pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["loans_grid", "cashflow_chain", "many_tables"])
def test_traced_round(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["loans_grid", "many_tables"])
def test_untraced_round(workload):
    """One untraced round guards the end-to-end path, whose setup and
    peak-memory runs start processes of their own: it reports every
    end-to-end metric that BENCHMARK.json declares."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {metric["name"] for metric in declared["end_to_end"]}
    assert len(names) == 5 and names <= set(result["metrics"])
