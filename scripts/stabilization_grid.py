#!/usr/bin/env python3
"""Self-stabilization grid for the uncoupled protocols.

Sweeps, per protocol, a family of games and reports how many self-stabilize.
The default run covers the exhaustive 2x2 family with utilities in {0,1,2},
seeded random 4x4 games for the 2-recall protocol, seeded 2xk games for
stay-or-roll, and the 2x2x2 fixture game on which stay-or-roll fails (about
0.5 s for the whole run).  With --exhaustive-2x3 it additionally sweeps all
531441 2x3 games with utilities in {0,1,2} through the 3-recall protocol, in
batches of 729 games (about 0.6 s for the sweep, 1.1 s for the whole run).
Each batch goes through ``check_self_stabilization_many``, which groups its
games by best-response mask and decides each distinct mask once: the 531441
games have 1323 masks.

With --all-masks SIZES (shapes such as 2x2 or 2x2x2, at most 2^20 masks
each) it sweeps every realizable best-response mask of each shape: every
choice of a nonempty set of best responses for each node at each profile of
the other nodes, as 0/1 indicator utilities.  Two games with the same mask
get the same verdict from every protocol here, so this covers every game of
the shape.  Each protocol that applies (3-recall; 2-recall with four or more
actions per node; stay-or-roll) prints its counts and the least failing
mask, in lexicographic order of the indicator tables, with its witness.  The
531441 masks of 2x2x2 take about 6 s through 3-recall and 1.6 s through
stay-or-roll, which fails on 11820 of the 517663 masks that have a PNE.

Times are from a shared 2-core VM with Python 3.11.7 and numpy 2.4.6.

With --progress, the games done, the rate (games per second) and the
estimated time left of each exhaustive sweep are printed to stderr after
every batch; stdout is unchanged.

Usage: python scripts/stabilization_grid.py [--exhaustive-2x3] [--all-masks SIZES ...] [--progress]
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
    PROTOCOLS,
    SelfStabilizing,
    check_self_stabilization,
    check_self_stabilization_many,
    fixture_game_2x2x2,
    to_one_based,
)


MAX_MASKS = 1 << 20  # the most masks --all-masks sweeps in one shape
VERDICTS = {SelfStabilizing: "self-stabilizing", Fails: "fails", NoPNE: "no-pne"}  # a verdict's count key


def sweep(protocol: str, space: ActionSpace, tables, progress: bool = False):
    """Every game whose node-i utility table is a row of ``tables[i]``, in
    lexicographic order, one batch per choice of the tables of all nodes but
    the last, each decided by the mask-grouped ``check_self_stabilization_many``.
    Returns the verdict counts and the first failing game with its verdict,
    or None.  With ``progress``, the games done, the rate and the time left
    go to stderr after each batch."""
    counts = {"self-stabilizing": 0, "fails": 0, "no-pne": 0}
    first = None
    expected = int(np.prod([len(t) for t in tables]))
    t0 = time.time()
    batch = np.empty((len(tables[-1]), space.n, space.num_states), dtype=np.int64)
    batch[:, -1] = tables[-1]
    for head in itertools.product(*map(range, map(len, tables[:-1]))):
        batch[:, :-1] = np.reshape([t[h] for t, h in zip(tables, head)], (space.n - 1, space.num_states))
        for j, verdict in enumerate(check_self_stabilization_many(protocol, space, batch)):
            counts[VERDICTS[type(verdict)]] += 1
            if first is None and isinstance(verdict, Fails):
                first = (tuple(map(tuple, batch[j].tolist())), verdict)
        if progress:
            done = sum(counts.values())
            rate = done / max(time.time() - t0, 1e-9)
            print(
                f"{done}/{expected} games, {rate:.0f} games/s, ETA {(expected - done) / rate:.0f}s",
                file=sys.stderr, flush=True,
            )
    return counts, first


def sweep_exhaustive(protocol: str, sizes, values=(0, 1, 2), progress: bool = False):
    """Every game whose utility tables take values in ``values``."""
    space = ActionSpace(sizes)
    t0 = time.time()
    tables = np.array(list(itertools.product(values, repeat=space.num_states)), dtype=np.int64)
    counts, _ = sweep(protocol, space, [tables] * space.n, progress)
    total = sum(counts.values())
    print(f"{protocol} on all {total} {'x'.join(map(str, sizes))} games: {counts} ({time.time()-t0:.1f}s)")


def mask_tables(space: ActionSpace, node: int) -> np.ndarray:
    """Every 0/1 utility table of node ``node`` (0-based) with a 1 at some
    own action for each profile of the other nodes, in lexicographic order:
    the node's realizable best-response masks, as indicator utilities."""
    tables = np.array(list(itertools.product((0, 1), repeat=space.num_states)), dtype=np.int64)
    digits = space.digits()
    profile = np.arange(space.num_states) - digits[:, node] * space.weights[node]  # own action set to 0
    ok = np.ones(len(tables), dtype=bool)
    for p in np.unique(profile):
        ok &= tables[:, profile == p].any(1)
    return tables[ok]


def mask_count(sizes) -> int:
    """The realizable best-response masks of a shape: a nonempty set of
    best responses per node and profile of the other nodes."""
    states = int(np.prod(sizes))
    return int(np.prod([(2 ** k - 1) ** (states // k) for k in sizes], dtype=object))


def sweep_masks(sizes, progress: bool = False):
    """Every realizable best-response mask of the shape ``sizes``, through
    every protocol that applies to it."""
    space = ActionSpace(sizes)
    tables = [mask_tables(space, i) for i in range(space.n)]
    for protocol in [p for p in PROTOCOLS if p != "two-recall" or min(sizes) >= 4]:
        t0 = time.time()
        counts, first = sweep(protocol, space, tables, progress)
        if first is None:
            least = "none"
        else:
            u, verdict = first
            w = verdict.witness
            w = to_one_based(w) if protocol == "stay-or-roll" else tuple(map(to_one_based, w))
            least = f"u={u}, witness {w}"
        print(
            f"{protocol} on all {sum(counts.values())} {'x'.join(map(str, sizes))} masks: {counts}; "
            f"least failing mask: {least} ({time.time()-t0:.1f}s)"
        )


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
    parser.add_argument(
        "--all-masks", nargs="+", default=[], metavar="SIZES",
        help="sweep every realizable best-response mask of each shape, e.g. 2x2 2x2x2",
    )
    args = parser.parse_args()
    try:
        shapes = [tuple(int(k) for k in s.split("x")) for s in args.all_masks]
    except ValueError:
        parser.error(f"--all-masks takes shapes like 2x2x2, got {args.all_masks}")
    for sizes in shapes:
        if min(sizes) < 1 or mask_count(sizes) > MAX_MASKS:
            parser.error(f"--all-masks takes shapes of at most {MAX_MASKS} masks, got {'x'.join(map(str, sizes))}")

    sweep_exhaustive("three-recall", (2, 2), progress=args.progress)
    sweep_random("two-recall", (4, 4), count=200, seed=404)
    for k in (2, 3, 4, 5):
        sweep_random("stay-or-roll", (2, k), count=50, seed=500 + k, hi=5)

    verdict = check_self_stabilization("stay-or-roll", fixture_game_2x2x2())
    witness = to_one_based(verdict.witness) if isinstance(verdict, Fails) else None
    print(f"stay-or-roll on the 2x2x2 fixture game: {verdict.__class__.__name__}, witness {witness}")

    if args.exhaustive_2x3:
        sweep_exhaustive("three-recall", (2, 3), progress=args.progress)
    for sizes in shapes:
        sweep_masks(sizes, progress=args.progress)


if __name__ == "__main__":
    main()
