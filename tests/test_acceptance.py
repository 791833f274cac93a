"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s -v tests/test_acceptance.py`` to see the lines live).

Criterion 9 is asserted twice: once against the strict halting oracle, which
is expected to fail because the head procedure freezes at non-halting fixed
configurations (a machine stepping delta(q,s) = (q,s,0), or bumping against a
tape edge forever, stops changing without ever halting), and once against the
halts-or-freezes oracle, which is the equivalence the construction actually
provides.  Every non-convergence or stabilization-failure witness produced
along the way is registered and replayed in criterion 11.
"""

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from asyncdyn.analyze import (
    Convergent,
    NonConvergent,
    decide_convergence,
    decide_convergence_many,
    decide_r_convergence,
    spectrum,
    stable_states,
)
from asyncdyn.core import ActionSpace, HistorylessSystem, check_r_fair
from asyncdyn.errors import NonUniqueBestResponse
from asyncdyn.games import Game, br_system, enumerate_pne, induced_game
from asyncdyn.reductions import (
    build_disjointness,
    build_snake_system,
    build_tm,
    disjointness_snake,
    fixture,
    longest_snake,
    tm_family_rows,
)
from asyncdyn.simulate import Cycling, replay_witness
from asyncdyn.uncoupled import (
    Fails,
    NoPNE,
    SelfStabilizing,
    check_self_stabilization,
    check_self_stabilization_randomized,
    fixture_game_2x2x2,
    to_one_based,
)

from _helpers import (
    enumerate_tms,
    oracle_always_stabilizes,
    oracle_max_induced_cycle,
    oracle_shc,
    random_game,
    random_self_independent_system,
    reference_simulate_stay_or_roll,
    support_system,
)

WITNESS_REGISTRY = []  # (label, replay thunk returning True on success)


def report(criterion: str, passed: bool, detail: str, elapsed: float):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} {detail} ({elapsed:.2f}s)")


def register_oscillation_witness(label, system, witness):
    WITNESS_REGISTRY.append(
        (label, lambda: isinstance(replay_witness(system, witness), Cycling))
    )


def test_criterion_01_fig1_reproduction():
    t0 = time.perf_counter()
    system = fixture("fig1")
    stables = stable_states(system)
    verdict = decide_convergence(system)
    ok = stables == {(0, 0), (1, 1)} and isinstance(verdict, NonConvergent)
    if ok:
        register_oscillation_witness("criterion-1 fig1", system, verdict.witness)
        ok = isinstance(replay_witness(system, verdict.witness), Cycling)
    elapsed = time.perf_counter() - t0
    report("1", ok and elapsed < 1.0, "fig1 stable states and oscillation witness", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_multiple_equilibria_never_converge():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    produced = 0
    exceptions = 0
    while produced < 1000:
        system = random_self_independent_system(rng, max_nodes=4, max_actions=3)
        if len(stable_states(system)) < 2:
            continue
        produced += 1
        verdict = decide_convergence(system)
        if isinstance(verdict, NonConvergent):
            register_oscillation_witness(f"criterion-2 #{produced}", system, verdict.witness)
        else:
            exceptions += 1
    elapsed = time.perf_counter() - t0
    ok = exceptions == 0 and elapsed < 60.0
    report("2", ok, f"1000 self-independent multi-equilibrium systems, {exceptions} exceptions", elapsed)
    assert exceptions == 0
    assert elapsed < 60.0


def test_criterion_02b_multiple_equilibria_are_not_n_minus_1_convergent():
    """The sharp form of criterion 2 (Jaggard, Schapira and Wright, ICS
    2011): on the same 1000 systems, two stable states already rule out
    convergence under every (n-1)-fair schedule.  Each witness schedule,
    prefix plus three copies of its cycle, is checked to be (n-1)-fair, and
    every tenth witness is replayed in criterion 11."""
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    produced = 0
    exceptions = 0
    while produced < 1000:
        system = random_self_independent_system(rng, max_nodes=4, max_actions=3)
        if len(stable_states(system)) < 2:
            continue
        produced += 1
        r = system.space.n - 1
        verdict = decide_r_convergence(system, r)
        if not isinstance(verdict, NonConvergent):
            exceptions += 1
            continue
        sched = list(verdict.witness.prefix) + list(verdict.witness.cycle) * 3
        exceptions += not check_r_fair(sched, r, system.space.n)
        if produced % 10 == 0:
            register_oscillation_witness(f"criterion-2b #{produced} r={r}", system, verdict.witness)
    elapsed = time.perf_counter() - t0
    ok = exceptions == 0 and elapsed < 60.0
    report("2b", ok, f"1000 self-independent multi-equilibrium systems at r = n-1, {exceptions} exceptions", elapsed)
    assert exceptions == 0
    assert elapsed < 60.0


def test_criterion_03_counterexample_fixtures():
    t0 = time.perf_counter()
    three = fixture("ex-three-stable")
    ok = decide_convergence(three) == Convergent() and len(stable_states(three)) == 3
    latched = fixture("ex-unbounded-latched")
    projections = {s[:2] for s in stable_states(latched)}
    ok = ok and decide_convergence(latched) == Convergent() and projections == {(0, 0), (1, 1)}
    elapsed = time.perf_counter() - t0
    report("3", ok and elapsed < 1.0, "three-stable and latched examples convergent", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_04_game_system_equivalence():
    t0 = time.perf_counter()
    space = ActionSpace((2, 2))
    generic = 0
    for u1 in itertools.product(range(3), repeat=4):
        for u2 in itertools.product(range(3), repeat=4):
            game = Game(space, (u1, u2))
            try:
                system = br_system(game)
            except NonUniqueBestResponse:
                continue
            generic += 1
            assert enumerate_pne(game) == stable_states(system)
    round_trips = 0
    for g1 in itertools.product(range(2), repeat=2):
        for g2 in itertools.product(range(2), repeat=2):
            rows = [(g1[b], g2[a]) for (a, b) in space.states()]
            system = HistorylessSystem.from_table(space, rows)
            assert br_system(induced_game(system)).reaction_rows().tolist() == system.reaction_rows().tolist()
            round_trips += 1
    elapsed = time.perf_counter() - t0
    ok = generic == 1296 and round_trips == 16 and elapsed < 60.0
    report("4", ok, f"{generic} generic 2x2 games and {round_trips} system round trips", elapsed)
    assert ok


def test_criterion_05_ring_threshold():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5):
        ring = fixture("ring", n=n)
        for r in range(1, n + 1):
            verdict = decide_r_convergence(ring, r)
            expected = r < n - 1
            ok = ok and isinstance(verdict, Convergent) == expected
            if isinstance(verdict, NonConvergent):
                register_oscillation_witness(f"criterion-5 ring n={n} r={r}", ring, verdict.witness)
                sched = list(verdict.witness.prefix) + list(verdict.witness.cycle) * 3
                ok = ok and check_r_fair(sched, r, n)
    elapsed = time.perf_counter() - t0
    report("5", ok and elapsed < 30.0, "ring r-convergent exactly for r < n-1 (n = 4, 5)", elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_06_futile_count():
    t0 = time.perf_counter()
    futile = fixture("futile", n=3)
    nonempty = sum(1 for s in futile.space.states() if spectrum(futile, s))
    elapsed = time.perf_counter() - t0
    ok = nonempty == 14 and elapsed < 5.0
    report("6", ok, f"futile n=3 has {nonempty} states with nonempty spectrum", elapsed)
    assert nonempty == 14
    assert elapsed < 5.0


def test_criterion_07_snake_threshold():
    t0 = time.perf_counter()
    q = oracle_max_induced_cycle(3)
    assert len(longest_snake(3)) == q
    system = build_snake_system(5)
    low = decide_r_convergence(system, q - 1)
    high = decide_r_convergence(system, q)
    ok = isinstance(low, Convergent) and isinstance(high, NonConvergent)
    if isinstance(high, NonConvergent):
        register_oscillation_witness("criterion-7 snake", system, high.witness)
        sched = list(high.witness.prefix) + list(high.witness.cycle) * 3
        ok = ok and check_r_fair(sched, q, 5)
    elapsed = time.perf_counter() - t0
    report("7", ok and elapsed < 300.0, f"snake system r-convergent at r={q-1}, not at r={q}", elapsed)
    assert ok
    assert elapsed < 300.0


def test_criterion_08_disjointness_sweep():
    t0 = time.perf_counter()
    q = len(disjointness_snake(5))
    assert q == oracle_max_induced_cycle(3)
    mismatches = 0
    witnesses = 0
    for abits in range(1 << q):
        A = {j + 1 for j in range(q) if abits >> j & 1}
        for bbits in range(1 << q):
            B = {j + 1 for j in range(q) if bbits >> j & 1}
            system = build_disjointness(5, A, B)
            verdict = decide_convergence(system)
            if isinstance(verdict, Convergent) != (not (A & B)):
                mismatches += 1
            elif isinstance(verdict, NonConvergent):
                witnesses += 1
                if witnesses % 40 == 0:  # replay a systematic sample in criterion 11
                    register_oscillation_witness(
                        f"criterion-8 A={sorted(A)} B={sorted(B)}", system, verdict.witness
                    )
                else:
                    assert isinstance(replay_witness(system, verdict.witness), Cycling)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 600.0
    report("8", ok, f"4^{q} disjointness pairs, {mismatches} mismatches", elapsed)
    assert mismatches == 0
    assert elapsed < 600.0


@dataclass
class TmSweep:
    machines: int
    strict_mismatches: int
    stabilize_mismatches: int
    witness_failures: int
    elapsed: float


TM_CHUNK = 4096  # machines tabulated at once: (4096, 144, 3) int64 rows, 14 MB


@pytest.fixture(scope="module")
def tm_sweep():
    """Every machine's verdict from the batched family path, compared with
    both simulation oracles; every 97th non-convergent machine is decided
    alone and its witness replayed."""
    t0 = time.perf_counter()
    machines = strict_mm = stab_mm = witness_failures = 0
    replay_stride = 0
    for n_q in (1, 2):
        family = enumerate_tms(n_q, symbols=2, cells=2)
        while chunk := list(itertools.islice(family, TM_CHUNK)):
            space, rows = tm_family_rows(chunk)
            for tm, convergent in zip(chunk, decide_convergence_many(space, rows).tolist()):
                machines += 1
                if convergent != oracle_shc(tm):
                    strict_mm += 1
                if convergent != oracle_always_stabilizes(tm):
                    stab_mm += 1
                if not convergent:
                    replay_stride += 1
                    if replay_stride % 97 == 0:  # replay a systematic sample
                        system = build_tm(tm)
                        verdict = decide_convergence(system)
                        if not (
                            isinstance(verdict, NonConvergent)
                            and isinstance(replay_witness(system, verdict.witness), Cycling)
                        ):
                            witness_failures += 1
    return TmSweep(
        machines=machines,
        strict_mismatches=strict_mm,
        stabilize_mismatches=stab_mm,
        witness_failures=witness_failures,
        elapsed=time.perf_counter() - t0,
    )


@pytest.mark.xfail(
    strict=True,
    reason="machines can freeze at a non-halting fixed configuration (for example"
    " a transition (q,s) -> (q,s,stay), or a head pushed against a tape edge"
    " forever); the induced dynamics converge there, so convergence cannot"
    " match strict halting",
)
def test_criterion_09_tm_equivalence_strict_halting(tm_sweep):
    ok = tm_sweep.strict_mismatches == 0
    report(
        "9",
        ok,
        f"{tm_sweep.machines} machines vs strict halting oracle, "
        f"{tm_sweep.strict_mismatches} mismatches (freezing machines are counted"
        " as non-halting by the strict oracle)",
        tm_sweep.elapsed,
    )
    assert tm_sweep.strict_mismatches == 0
    assert tm_sweep.elapsed < 300.0


def test_criterion_09b_tm_equivalence_halts_or_freezes(tm_sweep):
    """The equivalence the reduction does provide: the system is convergent
    exactly when every configuration's run halts or freezes."""
    ok = tm_sweep.stabilize_mismatches == 0 and tm_sweep.witness_failures == 0
    report(
        "9b",
        ok and tm_sweep.elapsed < 300.0,
        f"{tm_sweep.machines} machines vs halts-or-freezes oracle, "
        f"{tm_sweep.stabilize_mismatches} mismatches",
        tm_sweep.elapsed,
    )
    assert tm_sweep.stabilize_mismatches == 0
    assert tm_sweep.witness_failures == 0
    assert tm_sweep.elapsed < 300.0


def test_criterion_10_stabilization_grid():
    t0 = time.perf_counter()
    failures = []

    # (a) exhaustive 2x2 games with utilities in {0,1,2} and at least one PNE
    space = ActionSpace((2, 2))
    swept = 0
    for u1 in itertools.product(range(3), repeat=4):
        for u2 in itertools.product(range(3), repeat=4):
            game = Game(space, (u1, u2))
            verdict = check_self_stabilization("three-recall", game)
            if isinstance(verdict, NoPNE):
                continue
            swept += 1
            if not isinstance(verdict, SelfStabilizing):
                failures.append(("three-recall", game))

    # (b) 200 seeded random 4x4 games with a PNE
    rng = random.Random(404)
    checked = 0
    while checked < 200:
        game = random_game(rng, (4, 4), hi=9)
        verdict = check_self_stabilization("two-recall", game)
        if isinstance(verdict, NoPNE):
            continue
        checked += 1
        if not isinstance(verdict, SelfStabilizing):
            failures.append(("two-recall", game))

    # (c) 200 seeded random 2xk games, k in 2..5, with a PNE
    rng = random.Random(505)
    checked = 0
    while checked < 200:
        k = rng.randrange(2, 6)
        game = random_game(rng, (2, k), hi=5)
        verdict = check_self_stabilization_randomized(game)
        if isinstance(verdict, NoPNE):
            continue
        checked += 1
        if not isinstance(verdict, SelfStabilizing):
            failures.append(("stay-or-roll", game))

    # (d) stay-or-roll fails on the 2x2x2 fixture game with the known witness
    m1m2 = fixture_game_2x2x2()
    verdict = check_self_stabilization_randomized(m1m2)
    d_ok = isinstance(verdict, Fails) and to_one_based(verdict.witness) == (1, 1, 2)
    if not d_ok:
        failures.append(("stay-or-roll m1m2", verdict))
    else:
        def replay_fails_witness(game=m1m2, witness=verdict.witness):
            sup = support_system(game)
            frontier, seen = {witness}, {witness}
            while frontier:
                nxt = set()
                for s in frontier:
                    nxt.update(sup.successors(s))
                frontier = nxt - seen
                seen |= frontier
            unreachable = not (seen & enumerate_pne(game))
            return unreachable and not reference_simulate_stay_or_roll(game, witness, seed=11, max_steps=3000)

        WITNESS_REGISTRY.append(("criterion-10d m1m2 witness", replay_fails_witness))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    report(
        "10",
        ok,
        f"grid: {swept} exhaustive 2x2 + 200 4x4 + 200 2xk games, {len(failures)} failures",
        elapsed,
    )
    assert not failures
    assert elapsed < 300.0


def test_criterion_11_witness_integrity():
    t0 = time.perf_counter()
    failures = [label for label, thunk in WITNESS_REGISTRY if not thunk()]
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(
        "11",
        ok,
        f"{len(WITNESS_REGISTRY)} registered witnesses replayed, {len(failures)} failures",
        elapsed,
    )
    assert not failures
