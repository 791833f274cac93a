#!/usr/bin/env python3
"""Smoke test of the benchmark itself, about a minute:

    python3 perfbench/smoke_test.py

1. Every workload runs at tiny size, untraced and traced; each prints every
   metric named in BENCHMARK.json with its unit, and every answer checks.
2. On every workload, one deliberately wrong expected answer is counted in
   ``failed``.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits with a non-zero code and prints no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {message}")


def bench(root: Path, workload: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--tiny", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=175)


def result(proc: subprocess.CompletedProcess, label: str) -> dict:
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(doc) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(doc)}")
    check(isinstance(doc["attempted"], int) and doc["attempted"] >= 1, f"{label}: attempted {doc['attempted']}")
    return doc


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            doc = result(bench(ROOT, workload, "--trace", trace), label)
            check(doc["correct"] and doc["failed"] == 0, f"{label}: {doc['failed']} failed items")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            check(got == want, f"{label}: metrics {got}, expected {want}")
            for name, m in doc["metrics"].items():
                check(isinstance(m["value"], (int, float)), f"{label}: {name} is {m['value']!r}")
            print(f"ok  {label}: {doc['attempted']} items, all metrics with units")

        doc = result(bench(ROOT, workload, "--trace", "0", "--wrong-expected"), f"{workload} --wrong-expected")
        check(doc["failed"] == 1 and not doc["correct"], f"{workload}: wrong answer counted {doc['failed']} times")
        print(f"ok  {workload} --wrong-expected: failed = 1")

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, names[0], "--trace", "0")
        check(proc.returncode != 0 and not proc.stdout.strip(), "bare directory: expected a failure without a result")
        print(f"ok  without sources: exit code {proc.returncode}, no result")
    print("smoke test passed")


if __name__ == "__main__":
    main()
