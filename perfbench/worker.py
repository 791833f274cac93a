"""One workload in one process: set up, warm up, time passes, check answers.

Started by run.py with the package on PYTHONPATH and one thread per native
library.  Prints one JSON object as its last line of output.

Modes:
  setup    set up (imports, inputs, one warm-up item) and report setup_s only;
  measure  set up, then repeat timed passes over the workload's batch for
           --seconds and report each item's best time;
  trace    set up, then alternate an untraced and a traced pass over the
           batch for --seconds, and report per-layer metrics.

Every pass runs the same batch, so pass-to-pass differences are the
machine's, not the inputs'.  An item's latency is the fastest of its repeats
(run.py takes the fastest over several measuring workers), and wall_s is the
time of one pass over the batch at those latencies.  On a
shared machine whose speed drifts by 15% or more over tens of seconds,
best-of-N estimates the program's cost far more steadily than a median over a
drifting run does.  Each pass runs the batch in a fresh random order: in a
fixed order, runs of neighbouring items were slow in every pass (a slow spot
at the same point of each pass), which spread the tail latency by 40%
between runs.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WRONG = "deliberately-wrong-expected-answer"
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


class Runner:
    def __init__(self, workload, wrong_expected: bool = False):
        self.workload = workload
        self.wrong_expected = wrong_expected
        self.expected = {}
        self.attempted = 0
        self.failed = 0
        self.order_rng = random.Random(0)

    def timed_pass(self, items, tracer=None):
        """Run the items once, in a fresh random order; returns each item's
        latency and output (or the exception it raised) in the items' order."""
        order = list(range(len(items)))
        self.order_rng.shuffle(order)
        latencies, outputs = [0.0] * len(items), [None] * len(items)
        for k in order:
            if tracer is not None:
                tracer.item += 1
                tracer.open("bench.item")
            t0 = perf_counter()
            try:
                output = self.workload.run(items[k])
            except Exception as exc:  # an item that raises is a failed operation
                output = exc
            latencies[k] = perf_counter() - t0
            if tracer is not None:
                tracer.close()
            outputs[k] = output
        return latencies, outputs

    def check(self, items, outputs) -> None:
        for k, (item, output) in enumerate(zip(items, outputs)):
            self.attempted += 1
            problems = self.problems(k, item, output)
            if problems:
                self.failed += 1
                if self.failed <= 5:
                    print(f"# failed item {item!r}: {'; '.join(problems)}", file=sys.stderr)

    def problems(self, k, item, output):
        if isinstance(output, Exception):
            return ["".join(traceback.format_exception_only(type(output), output)).strip()]
        if k not in self.expected:
            self.expected[k] = self.workload.expected(item)
        expected = self.expected[k]
        if self.wrong_expected:
            self.wrong_expected = False
            expected = WRONG
        answer = self.workload.answer(output)
        problems = [] if answer == expected else [f"answer {answer!r}, expected {expected!r}"]
        return problems + self.workload.witness_problems(item, output)


def pin_to_next_cpu(k: int) -> None:
    """Pin this process to the k-th CPU it may use, cycling through them.

    Left alone, a lone busy process tends to stay on one CPU for a whole run.
    On a shared host one CPU can be slowed by other tenants for a minute or
    more; a run stuck there read 1.55x slow in every pass, which best-of-N
    cannot undo.  Moving between CPUs from pass to pass gives every item
    repeats on each of them.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def fits_another(t_loop: float, t_last: float, seconds: float) -> bool:
    """Would one more round as long as the last, begun at t_last, still end
    within ``seconds`` of t_loop?  The first round always runs."""
    now = perf_counter()
    return now - t_loop + (now - t_last) <= seconds


def measure(runner, items, seconds):
    passes = 0
    best = [float("inf")] * len(items)
    t_loop = perf_counter()
    while True:
        pin_to_next_cpu(passes)
        t_pass = perf_counter()
        latencies, outputs = runner.timed_pass(items)
        passes += 1
        if passes == 1:
            # Later passes add only allocator fragmentation, which varies
            # from run to run by several per cent, not program memory.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        best = [min(a, b) for a, b in zip(best, latencies)]
        runner.check(items, outputs)
        if not fits_another(t_loop, t_pass, seconds):
            break
    return {"best": best, "passes": passes, "peak_rss_mb": peak_rss_mb}


def trace(runner, items, seconds, spans_path):
    tracer = tracing.Tracer()
    plain = [float("inf")] * len(items)
    traced = list(plain)
    pairs = 0
    t_loop = perf_counter()
    while True:
        pin_to_next_cpu(pairs)
        t_pair = perf_counter()
        latencies, outputs = runner.timed_pass(items)
        plain = [min(a, b) for a, b in zip(plain, latencies)]
        runner.check(items, outputs)
        tracer.install()
        try:
            latencies, outputs = runner.timed_pass(items, tracer)
        finally:
            tracer.uninstall()
        traced = [min(a, b) for a, b in zip(traced, latencies)]
        runner.check(items, outputs)
        pairs += 1
        if hasattr(runner.workload, "sccs"):
            tracer.values["analyze.sccs"] += sum(
                runner.workload.sccs(out) for out in outputs if not isinstance(out, Exception)
            )
        if not fits_another(t_loop, t_pair, seconds):
            break
    metrics = tracing.layer_metrics(tracer, tracer.item)
    metrics["trace.wall_s"] = {"value": sum(traced), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": sum(traced) - sum(plain), "unit": "s"}
    if spans_path:
        tracer.write_spans(spans_path)
    return {"metrics": metrics, "absent": tracer.absent, "pairs": pairs}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--wrong-expected", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, scratch)
        warm = Runner(workload)
        _, outputs = warm.timed_pass([workload.warmup])
        warm.check([workload.warmup], outputs)
        setup_s = perf_counter() - T_START
        if warm.failed:
            print("# warm-up item failed its check", file=sys.stderr)
            return 1
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        runner = Runner(workload, args.wrong_expected)
        if args.mode == "measure":
            doc = measure(runner, workload.items, args.seconds)
            doc["setup_s"] = setup_s
        else:
            doc = trace(runner, workload.items, args.seconds, args.spans)

    doc.update(attempted=runner.attempted, failed=runner.failed)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
