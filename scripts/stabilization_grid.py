#!/usr/bin/env python3
"""Self-stabilization grid for the uncoupled protocols.

Sweeps, per protocol, a family of games and reports how many self-stabilize.
The default run covers the exhaustive 2x2 family with utilities in {0,1,2},
seeded random 4x4 games for the 2-recall protocol, seeded 2xk games for
stay-or-roll, and the 2x2x2 fixture game on which stay-or-roll fails (about
0.9 s for the whole run).  With --exhaustive-2x3 it additionally sweeps all
531441 2x3 games with utilities in {0,1,2} through the 3-recall protocol, in
batches of 729 games (8-10 s for the sweep, 9-11 s for the whole run).  Times
are from a shared 2-core VM with Python 3.11.7 and numpy 2.4.6.

With --progress, the games done, the rate (games per second) and the
estimated time left of each exhaustive sweep are printed to stderr after
every batch; stdout is unchanged.

Usage: python scripts/stabilization_grid.py [--exhaustive-2x3] [--progress]
"""

import argparse
import itertools
import random
import sys
import time

import numpy as np

from asyncdyn.core import ActionSpace
from asyncdyn.games import Game
from asyncdyn.uncoupled import (
    Fails,
    NoPNE,
    SelfStabilizing,
    check_self_stabilization,
    check_self_stabilization_many,
    check_self_stabilization_randomized,
    fixture_game_2x2x2,
    to_one_based,
)


def sweep_exhaustive(protocol: str, sizes, values=(0, 1, 2), progress: bool = False):
    """Every game whose utility tables take values in ``values``, one batch
    per choice of the tables of all nodes but the last.  With ``progress``,
    the games done, the rate and the time left go to stderr after each batch."""
    space = ActionSpace(sizes)
    tables = np.array(list(itertools.product(values, repeat=space.num_states)), dtype=np.int64)
    counts = {"self-stabilizing": 0, "fails": 0, "no-pne": 0}
    expected = len(tables) ** space.n
    t0 = time.time()
    batch = np.empty((len(tables), space.n, space.num_states), dtype=np.int64)
    batch[:, -1] = tables
    for head in itertools.product(range(len(tables)), repeat=space.n - 1):
        batch[:, :-1] = tables[list(head)]
        for verdict in check_self_stabilization_many(protocol, space, batch):
            if isinstance(verdict, SelfStabilizing):
                counts["self-stabilizing"] += 1
            elif isinstance(verdict, NoPNE):
                counts["no-pne"] += 1
            else:
                counts["fails"] += 1
        if progress:
            done = sum(counts.values())
            rate = done / max(time.time() - t0, 1e-9)
            print(
                f"{done}/{expected} games, {rate:.0f} games/s, ETA {(expected - done) / rate:.0f}s",
                file=sys.stderr, flush=True,
            )
    total = sum(counts.values())
    print(f"{protocol} on all {total} {'x'.join(map(str, sizes))} games: {counts} ({time.time()-t0:.0f}s)")


def sweep_random(protocol: str, sizes, count: int, seed: int, hi: int = 9):
    rng = random.Random(seed)
    space = ActionSpace(sizes)
    checked = fails = 0
    t0 = time.time()
    while checked < count:
        game = Game(
            space,
            tuple(
                tuple(rng.randrange(hi + 1) for _ in range(space.num_states))
                for _ in range(space.n)
            ),
        )
        if protocol == "stay-or-roll":
            verdict = check_self_stabilization_randomized(game)
        else:
            verdict = check_self_stabilization(protocol, game)
        if isinstance(verdict, NoPNE):
            continue
        checked += 1
        fails += isinstance(verdict, Fails)
    print(
        f"{protocol} on {checked} random {'x'.join(map(str, sizes))} games "
        f"(seed {seed}): {fails} failures ({time.time()-t0:.1f}s)"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exhaustive-2x3", action="store_true")
    parser.add_argument(
        "--progress", action="store_true", help="print the rate and the time left of each exhaustive sweep to stderr"
    )
    args = parser.parse_args()

    sweep_exhaustive("three-recall", (2, 2), progress=args.progress)
    sweep_random("two-recall", (4, 4), count=200, seed=404)
    for k in (2, 3, 4, 5):
        sweep_random("stay-or-roll", (2, k), count=50, seed=500 + k, hi=5)

    verdict = check_self_stabilization_randomized(fixture_game_2x2x2())
    witness = to_one_based(verdict.witness) if isinstance(verdict, Fails) else None
    print(f"stay-or-roll on the 2x2x2 fixture game: {verdict.__class__.__name__}, witness {witness}")

    if args.exhaustive_2x3:
        sweep_exhaustive("three-recall", (2, 3), progress=args.progress)


if __name__ == "__main__":
    main()
