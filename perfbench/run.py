#!/usr/bin/env python3
"""asyncdyn benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload tm-sweep --seed 1 --seconds 38 --trace 0

The workload runs in fresh single-threaded worker processes against the
package sources under ``src/`` of this checkout (see worker.py for how
passes are timed).  With ``--trace 0`` the run reports the end-to-end
metrics: MEASURES workers each measure for an equal share of --seconds, an
item's latency is its best time over all of them, and setup_s is the median
over SETUPS fresh processes (the measuring ones and the rest that only set
up, spread over the run).  With ``--trace 1`` one worker alternates
untraced and traced passes for --seconds and reports the per-layer metrics
and the tracing overhead; its spans are written to ``.bench_out/``.  The last line of output is one JSON
object with the keys correct, attempted, failed and metrics.  Workloads,
seeds and the expected layer-to-metric effects are described in spec.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups per run: the measuring workers' and the rest from set-up-only
# workers, which run in equal groups before each measuring worker so that the
# set-ups are spread over the run rather than bunched in one moment of it.
SETUPS = 9
# Measuring workers per run, each for an equal share of --seconds.  A lone
# process can stay on one CPU slowed by other tenants for its whole life; the
# best over three processes does not depend on where one of them ran.
MEASURES = 3
DEADLINE_S = 170.0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main() -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument(
        "--wrong-expected", action="store_true", help="check the first timed item against a wrong answer"
    )
    args = parser.parse_args()

    if not (ROOT / "src" / "asyncdyn" / "__init__.py").is_file():
        print(f"error: no asyncdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_out"
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )

    def worker(mode: str, seconds: float, *extra: str) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
            "--mode", mode, "--workdir", str(workdir), *extra,
        ]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        if args.trace:
            spans = workdir / f"spans-{args.workload}-seed{args.seed}.json"
            doc = worker("trace", args.seconds, "--spans", str(spans))
            metrics = doc["metrics"]
            absent = ", ".join(doc["absent"]) or "none"
            print(f"# traced {doc['pairs']} pass pairs; spans in {spans}; absent hooks: {absent}")
        else:
            wrong = ["--wrong-expected"] if args.wrong_expected else []
            runs, setups = [], []
            for k in range(MEASURES):
                setups += [worker("setup", 0)["setup_s"] for _ in range((SETUPS - MEASURES) // MEASURES)]
                runs.append(worker("measure", args.seconds / MEASURES, *(wrong if k == 0 else [])))
                setups.append(runs[-1]["setup_s"])
            best = sorted(min(times) for times in zip(*(run["best"] for run in runs)))
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": sum(best), "unit": "s"},
                "latency_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
                "latency_p90_ms": {"value": 1e3 * percentile(best, 90), "unit": "ms"},
                "peak_rss_mb": {"value": runs[0]["peak_rss_mb"], "unit": "MB"},
            }
            n = len(best)
            passes = "+".join(str(run["passes"]) for run in runs)
            doc = {key: sum(run[key] for run in runs) for key in ("attempted", "failed")}
            print(
                f"# {args.workload} seed {args.seed}: {MEASURES} workers made {passes} passes over {n} items; "
                f"latency percentiles over {n} item times, each the best of all its repeats, "
                f"{n - -(-90 * n // 100)} beyond p90; wall_s sums those item times; "
                f"setup_s is the median of {SETUPS} set-ups"
            )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
