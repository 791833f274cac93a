"""The three benchmark workloads.

Each workload turns a seed into one warm-up item and a batch of ``items``
that every pass of the timed loop repeats.  ``run`` sends one item through
the library and is the only timed part; ``expected`` computes the item's
answer with ``oracles``; ``answer`` reads the same answer off the library's
output; ``witness_problems`` checks any witness by stepping its schedule
independently (with the library's reaction as a black box where the
benchmark has no reaction of its own).  Library functions are always
reached through their module attribute (``analyze.decide_convergence``) so
that the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import os
import random

from asyncdyn import analyze, cli, games, reductions, simulate, uncoupled
from asyncdyn.core import ActionSpace

import oracles


def verdict_name(verdict) -> str:
    return "non-convergent" if isinstance(verdict, analyze.NonConvergent) else "convergent"


class TmSweep:
    """Seeded sample of the two-cell, two-symbol machine family: build the
    induced system, decide convergence, replay any witness."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        sample = random.Random(seed).sample(range(oracles.TM_FAMILY), 21 if tiny else 1001)
        self.warmup = oracles.tm_delta(sample.pop())
        self.items = [oracles.tm_delta(i) for i in sample]

    def run(self, item):
        states, delta = item
        tm = reductions.TMDescription(
            states=states, halting=frozenset({oracles.TM_HALT}), n_symbols=2, tape_cells=2, delta=delta
        )
        system = reductions.build_tm(tm)
        verdict = analyze.decide_convergence(system)
        replay = None
        if isinstance(verdict, analyze.NonConvergent):
            replay = simulate.replay_witness(system, verdict.witness)
        return system, verdict, replay

    def expected(self, item):
        states, delta = item
        return "convergent" if oracles.tm_halts_or_freezes(states, delta) else "non-convergent"

    def answer(self, output):
        return verdict_name(output[1])

    def witness_problems(self, item, output):
        system, verdict, replay = output
        if replay is None:
            return []
        if not isinstance(replay, simulate.Cycling):
            return [f"witness replayed as {type(replay).__name__}"]
        w = verdict.witness
        if not oracles.oscillates(system.rule, w.initial[-1], w.prefix, w.cycle):
            return ["witness schedule converges"]
        return []


class MajorityCli:
    """`asyncdyn analyze` in process on seeded G(9, 0.6) majority graphs with
    a convergence request.  Every user has a friend, so all-0 and all-1 are
    both stable and the verdict must be non-convergent.  The warm-up request
    is an 8-user graph: it takes the same code path at a fraction of the cost."""

    USERS = 9
    EDGE_P = 0.6

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.workdir = workdir
        rng = random.Random(seed)
        self.warmup = self._request(rng, 8, "warmup")
        self.items = [self._request(rng, 8 if tiny else self.USERS, k) for k in range(2 if tiny else 10)]

    def _request(self, rng, users, tag):
        while True:
            edges = [
                (u, v)
                for u in range(1, users + 1)
                for v in range(u + 1, users + 1)
                if rng.random() < self.EDGE_P
            ]
            if {x for e in edges for x in e} == set(range(1, users + 1)):
                break
        scenario = {
            "version": 1,
            "system": {"kind": "majority", "users": users, "edges": [list(e) for e in edges]},
            "analysis": {"kind": "convergence"},
        }
        path = os.path.join(self.workdir, f"majority-{tag}.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        return path, users, edges

    def run(self, item):
        out = io.StringIO()
        code = cli.run_command(["analyze", "--scenario", item[0]], out=out)
        return code, json.loads(out.getvalue())

    def expected(self, item):
        _, users, edges = item
        stable = oracles.fixed_points(oracles.majority_reaction(users, edges), (2,) * users)
        # Every user has a friend, so all-0 and all-1 are both stable; with two
        # or more stable states no system converges.
        return {"stable": [list(s) for s in stable], "verdict": "non-convergent", "exit": cli.EXIT_NEGATIVE}

    def answer(self, output):
        code, doc = output
        return {"stable": doc.get("stable_states"), "verdict": doc.get("verdict"), "exit": code}

    def witness_problems(self, item, output):
        _, users, edges = item
        witness = output[1].get("witness")
        if witness is None:
            return []
        cycle = [set(s) for s in witness["cycle"]]
        if set().union(*cycle) != set(range(1, users + 1)):
            return ["witness cycle does not activate every user"]
        react = oracles.majority_reaction(users, edges)
        if not oracles.oscillates(react, witness["initial"][-1], witness["prefix"], cycle):
            return ["witness schedule converges"]
        return []

    @staticmethod
    def sccs(output) -> int:
        return output[1]["statistics"]["sccs"]


class Stabilization2x3:
    """Seeded 2x3 games with utilities in {0,1,2} through the 3-recall
    checker and the stay-or-roll checker."""

    SIZES = (2, 3)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = random.Random(seed)
        tables = [
            tuple(tuple(rng.randrange(3) for _ in range(6)) for _ in self.SIZES)
            for _ in range(21 if tiny else 501)
        ]
        self.warmup = tables.pop()
        self.items = tables

    def run(self, utilities):
        game = games.Game(ActionSpace(self.SIZES), utilities)
        return (
            uncoupled.check_self_stabilization("three-recall", game),
            uncoupled.check_self_stabilization_randomized(game),
        )

    def expected(self, utilities):
        if not oracles.pure_nash(self.SIZES, utilities):
            return ("no-pne", "no-pne")
        # 3-recall self-stabilizes on every game that has a pure Nash equilibrium.
        failure = oracles.stay_or_roll_failure(self.SIZES, utilities)
        return ("self-stabilizing", "self-stabilizing" if failure is None else ("fails", failure))

    def answer(self, output):
        return tuple(self._name(v) for v in output)

    def witness_problems(self, item, output):
        return []

    @staticmethod
    def _name(verdict):
        if isinstance(verdict, uncoupled.NoPNE):
            return "no-pne"
        if isinstance(verdict, uncoupled.SelfStabilizing):
            return "self-stabilizing"
        return ("fails", verdict.witness)


WORKLOADS = {
    "tm-sweep": TmSweep,
    "majority-cli": MajorityCli,
    "stabilization-2x3": Stabilization2x3,
}
