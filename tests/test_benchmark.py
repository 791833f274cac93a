"""Each workload of the benchmark, run once as a subprocess on tiny inputs
with tracing on (about 2 s each): a library change that breaks a hooked
function, a hook's contract or an oracle's answer fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_runs_without_failures(workload):
    env = {k: v for k, v in os.environ.items() if k != "ASYNCDYN_BUDGET"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--tiny", "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=175,
    )
    assert proc.returncode == 0, proc.stderr
    assert "absent hooks: none" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
