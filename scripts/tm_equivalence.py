#!/usr/bin/env python3
"""Compare the analyzer's convergence verdict on machine-induced systems with
direct machine simulation, over every machine with up to two non-halting
states, a binary alphabet, and two tape cells.

Two notions of "the machine always terminates" are reported:
  * strict:   every configuration's run reaches a halting machine state;
  * freezing: every run reaches a halting state or a fixed configuration
              (for example a transition (q,s) -> (q,s,stay), whose run stops
              changing without halting).
Convergence of the induced system matches the freezing notion exactly; the
strict notion disagrees on every machine that can freeze, and this script
prints a few of those machines.

The verdicts are decided in batches of CHUNK machines: one tabulation of
the batch's reactions and one graph with a block per machine.

With --progress, the rate (machines per second) and the estimated time
left are printed to stderr after every batch; stdout is unchanged.

Usage: python scripts/tm_equivalence.py [--max-states 1|2] [--examples K] [--progress]
"""

import argparse
import itertools
import sys
import time

from asyncdyn.analyze import decide_convergence_many
from asyncdyn.reductions import TMDescription, tm_family_rows

CHUNK = 4096  # machines per batch: (4096, 144, 3) int64 reaction rows, 14 MB


def tm_step(tm, config):
    q, tape, pos = config
    if q in tm.halting:
        return None
    q2, sym2, move = tm.delta[(q, tape[pos - 1])]
    tape2 = tape[: pos - 1] + (sym2,) + tape[pos:]
    pos2 = pos + move if 1 <= pos + move <= tm.tape_cells else pos
    return (q2, tape2, pos2)


def run_outcome(tm, config):
    seen = set()
    while True:
        if config in seen:
            return "loops"
        seen.add(config)
        nxt = tm_step(tm, config)
        if nxt is None:
            return "halts"
        if nxt == config:
            return "stuck"
        config = nxt


def outcomes(tm):
    kinds = set()
    for q in tm.states:
        if q in tm.halting:
            continue
        for tape in itertools.product(range(tm.n_symbols), repeat=tm.tape_cells):
            for pos in range(1, tm.tape_cells + 1):
                kinds.add(run_outcome(tm, (q, tape, pos)))
    return kinds


def family_size(n_q):
    """The number of machines ``machines(n_q)`` yields."""
    return (6 * (n_q + 1)) ** (2 * n_q)


def machines(n_q):
    states = tuple(f"q{i}" for i in range(n_q)) + ("h",)
    targets = [(q2, s2, m) for q2 in states for s2 in range(2) for m in (-1, 0, 1)]
    keys = [(q, s) for q in states[:n_q] for s in range(2)]
    for combo in itertools.product(targets, repeat=len(keys)):
        yield TMDescription(
            states=states, halting=frozenset({"h"}), n_symbols=2, tape_cells=2,
            delta=dict(zip(keys, combo)),
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-states", type=int, default=2, choices=(1, 2))
    parser.add_argument("--examples", type=int, default=3)
    parser.add_argument("--progress", action="store_true", help="print the rate and the time left to stderr")
    args = parser.parse_args()

    total = strict_mm = freeze_mm = 0
    shown = 0
    expected = sum(map(family_size, range(1, args.max_states + 1)))
    t0 = time.time()
    for n_q in range(1, args.max_states + 1):
        family = machines(n_q)
        while chunk := list(itertools.islice(family, CHUNK)):
            space, rows = tm_family_rows(chunk)
            for tm, convergent in zip(chunk, decide_convergence_many(space, rows).tolist()):
                total += 1
                kinds = outcomes(tm)
                strict = kinds <= {"halts"}
                freezing = kinds <= {"halts", "stuck"}
                strict_mm += convergent != strict
                freeze_mm += convergent != freezing
                if convergent != strict and shown < args.examples:
                    shown += 1
                    print(f"strict mismatch example {shown}: delta = {tm.delta}")
            if args.progress:
                rate = total / max(time.time() - t0, 1e-9)
                print(
                    f"{total}/{expected} machines, {rate:.0f} machines/s, ETA {(expected - total) / rate:.0f}s",
                    file=sys.stderr, flush=True,
                )
    print(
        f"{total} machines: verdict vs strict halting -> {strict_mm} mismatches; "
        f"vs halts-or-freezes -> {freeze_mm} mismatches ({time.time()-t0:.0f}s)"
    )


if __name__ == "__main__":
    main()
