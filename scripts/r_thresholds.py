#!/usr/bin/env python3
"""Print the r-convergence thresholds of the ring family and the snake-gadget
systems: the ring flips from convergent to non-convergent at r = n-1, the
snake systems at r = |S| for the snake length |S| of the underlying hypercube,
one snake row for each n from 5 to --snake-nodes (5, 6 or 7).  The r-counter
product is built on the oscillating components' own edges, over its reached
states only, and the budget counts the product transitions examined: the n=7
row (|S|=14) examines about 33K and 41K of them, within the default budget.
Each row compiles its system once for all its cells.  A cell that exceeds the
enumeration budget reads "budget", and so does every cell of a row whose
compile exceeds it.

With --progress, the rows done out of the total and the time elapsed are
printed to stderr after each row; stdout is unchanged.

Usage: python scripts/r_thresholds.py [--max-ring N] [--snake-nodes N] [--progress]
"""

import argparse
import sys
import time

from asyncdyn.analyze import Convergent, decide_r_convergence, transition_graph
from asyncdyn.errors import BudgetExceeded
from asyncdyn.reductions import build_snake_system, fixture, snake_for_system


def verdict_cell(graph, r: int) -> str:
    """conv or osc, or budget where the r-counter product exceeds the budget."""
    try:
        verdict = decide_r_convergence(graph, r)
    except BudgetExceeded:
        return "budget"
    return "conv" if isinstance(verdict, Convergent) else "osc"


def verdict_cells(system, rs) -> list[str]:
    """The cell of each r, all on one compile of the system; every cell
    reads budget where the compile exceeds the budget."""
    try:
        graph = transition_graph(system)
    except BudgetExceeded:
        return ["budget"] * len(rs)
    return [verdict_cell(graph, r) for r in rs]


def ring_row(n: int) -> str:
    rs = range(1, n + 1)
    cells = verdict_cells(fixture("ring", n=n), rs)
    return f"ring n={n}:  " + "  ".join(f"r={r}:{cell:<4}" for r, cell in zip(rs, cells))


def snake_row(n: int) -> str:
    system = build_snake_system(n)
    q = len(snake_for_system(n))
    t0 = time.time()
    low, high = verdict_cells(system, (q - 1, q))
    return f"snake n={n} (|S|={q}):  r={q-1}:{low}  r={q}:{high}  ({time.time() - t0:.1f}s)"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-ring", type=int, default=6)
    parser.add_argument("--snake-nodes", type=int, default=6, choices=range(5, 8))
    parser.add_argument(
        "--progress", action="store_true", help="print the rows done and the time elapsed to stderr"
    )
    args = parser.parse_args()
    rows = [(ring_row, n) for n in range(3, args.max_ring + 1)] + [(snake_row, n) for n in range(5, args.snake_nodes + 1)]
    t0 = time.time()
    for done, (row, n) in enumerate(rows, 1):
        print(row(n), flush=True)
        if args.progress:
            print(f"{done}/{len(rows)} rows, {time.time() - t0:.1f}s elapsed", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
