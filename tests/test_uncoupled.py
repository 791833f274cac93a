"""Uncoupled protocols: step case analyses, proof-structure properties, and
the exhaustive self-stabilization checkers."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncdyn.core import ActionSpace, Synchronous, lift_k_recall
from asyncdyn.errors import BudgetExceeded, InvalidInput, Unsupported
from asyncdyn.games import Game, best_response_table, enumerate_pne
from asyncdyn import core, uncoupled
from asyncdyn.simulate import run, Converged
from asyncdyn.uncoupled import (
    Fails,
    NoPNE,
    SelfStabilizing,
    check_self_stabilization,
    check_self_stabilization_many,
    check_self_stabilization_randomized,
    fixture_game_2x2x2,
    protocol_system,
    to_one_based,
)

from _helpers import (
    cyclic_successor,
    empty_store,
    naive_check_self_stabilization,
    naive_failing_windows,
    naive_stay_or_roll,
    node_utility,
    random_game,
    reference_protocol_system,
    reference_simulate_stay_or_roll,
    stay_or_roll_support,
    support_system,
    three_recall_step,
    two_recall_step,
)


@pytest.fixture
def m1m2():
    return fixture_game_2x2x2()


@pytest.fixture
def coordination():
    space = ActionSpace((2, 2))
    return Game(space, ((1, 0, 0, 1), (1, 0, 0, 1)))


def trapped(game, rng):
    """``game`` with a stay-or-roll trap like m1m2's: node 3's last action is
    always a best response, and nodes 1 and 2 play matching pennies while
    node 3 plays it."""
    last = game.space.sizes[2] - 1
    tables = [list(t) for t in game.utilities]
    for idx, (a, b, c) in enumerate(game.space.states()):
        tables[2][idx] = 1 if c == last else rng.randrange(2)
        if c == last:
            tables[0][idx], tables[1][idx] = int(a == b), int(a != b)
    return Game(game.space, tuple(map(tuple, tables)))


def protocol_graphs(every=1):
    """(protocol, space, nxt, pne): window successor graphs of both
    deterministic protocols, batched per shape, for arbitrary bool
    best-response masks (mostly dense, so that many games have PNEs) and
    random least responses; ``every`` > 1 keeps that share of the games."""
    rng = np.random.default_rng(24)
    cases = [("three-recall", sizes, 650) for sizes in [(1, 2), (3,), (2, 3), (2, 2, 2), (4,)]]
    cases += [("three-recall", (4, 4), 60), ("three-recall", (5, 4), 30)]
    cases += [("two-recall", sizes, 300) for sizes in [(4,), (4, 4), (5, 4)]]
    for protocol, sizes, games in cases:
        space = ActionSpace(sizes)
        games //= every
        density = rng.random(games) ** 0.25
        is_br = rng.random((games, space.num_states, space.n)) < density[:, None, None]
        least = rng.integers(0, sizes, size=is_br.shape)
        nxt = uncoupled._window_successors(protocol, space, is_br, least, uncoupled._windows(protocol, space))
        yield protocol, space, nxt, is_br.all(-1)


def cycles_of(nxt):
    """The cycles of the functional graph ``nxt``, each as a list of points
    in the order the graph visits them."""
    seen = [False] * len(nxt)
    cycles = []
    for start in range(len(nxt)):
        path, on_path, node = [], {}, start
        while not seen[node]:
            seen[node] = True
            on_path[node] = len(path)
            path.append(node)
            node = nxt[node]
        if node in on_path:
            cycles.append(path[on_path[node]:])
    return cycles


def matching_pennies():
    space = ActionSpace((2, 2))
    match = (1, 0, 0, 1)
    differ = (0, 1, 1, 0)
    return Game(space, (match, differ))


class TestCyclicSuccessor:
    def test_examples(self):
        space = ActionSpace((2, 2))
        assert cyclic_successor(space, (0, 0)) == (0, 1)
        assert cyclic_successor(space, (0, 1)) == (1, 0)
        assert cyclic_successor(space, (1, 1)) == (0, 0)  # wraparound to least

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    @settings(max_examples=30)
    def test_orbit_visits_every_state(self, sizes):
        space = ActionSpace(tuple(sizes))
        state = tuple(0 for _ in sizes)
        seen = set()
        while state not in seen:
            seen.add(state)
            state = cyclic_successor(space, state)
        assert len(seen) == space.num_states


class TestThreeRecallStep:
    def test_query_keeps_best_response(self, coordination):
        u = node_utility(coordination, 1)
        c = (0, 0)
        assert three_recall_step(u, ((1, 1), c, c)) == 0

    def test_query_answers_min_best_response(self, coordination):
        u = node_utility(coordination, 1)
        c = (1, 0)  # node 1 not best-responding; BR = {0}
        assert three_recall_step(u, ((0, 0), c, c)) == 0

    def test_query_min_of_tied_set(self, m1m2):
        u = node_utility(m1m2, 2)
        c = (0, 1, 1)  # node 2's utility 0 here; both actions tie at 0
        assert three_recall_step(u, ((0, 0, 0), c, c)) == min(u.best_responses(c))

    def test_move_on_plays_successor(self, coordination):
        u1 = node_utility(coordination, 1)
        u2 = node_utility(coordination, 2)
        a = (0, 1)
        window = (a, a, (1, 1))
        successor = cyclic_successor(coordination.space, a)
        assert (three_recall_step(u1, window), three_recall_step(u2, window)) == successor

    def test_repeat_keeps_last_state(self, coordination):
        u = node_utility(coordination, 2)
        window = ((0, 0), (1, 0), (0, 1))
        assert three_recall_step(u, window) == 1


class TestTwoRecallStep:
    @pytest.fixture
    def game4(self):
        rng = random.Random(12)
        return random_game(rng, (4, 4), hi=9)

    def test_needs_four_actions(self, coordination):
        u = node_utility(coordination, 1)
        with pytest.raises(Unsupported):
            two_recall_step(u, ((0, 0), (0, 0)))

    def test_repeat_window(self, game4):
        u = node_utility(game4, 1)
        window = ((0, 0), (3, 1))  # differences outside both case conditions
        assert two_recall_step(u, window) == 3  # repeats the last state

    def test_cases(self, game4):
        space = game4.space
        u1 = node_utility(game4, 1)
        # query at a repeated state: best responders stay
        b = (2, 3)
        window = (b, b)
        if 2 in u1.best_responses(b):
            assert two_recall_step(u1, window) == 2
        else:
            assert two_recall_step(u1, window) == (2 - 1) % 4
        # move-on: a != b with a_j - b_j in {0, 1}
        a = (2, 1)
        b = (1, 1)
        successor = cyclic_successor(space, a)
        assert two_recall_step(u1, (a, b)) == successor[0]

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30)
    def test_move_on_and_query_disjoint_and_sequenced(self, seed):
        """With four or more actions per node the move-on and query windows
        are disjoint, and a move-on window is always followed by a query
        window under the synchronous schedule."""
        rng = random.Random(seed)
        game = random_game(rng, (4, 4), hi=6)
        space = game.space
        utilities = [node_utility(game, i) for i in (1, 2)]
        a = tuple(rng.randrange(4) for _ in range(2))
        b = tuple(rng.randrange(4) for _ in range(2))
        move_on = a != b and all((a[j] - b[j]) % 4 in (0, 1) for j in range(2))
        query = all((b[j] - a[j]) % 4 in (0, 1, 2) for j in range(2))
        assert not (move_on and query)
        if move_on:
            nxt = tuple(two_recall_step(u, (a, b)) for u in utilities)
            assert all((nxt[j] - b[j]) % 4 in (0, 1, 2) for j in range(2))


class TestThreeRecallStructure:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_query_reached_within_two_steps(self, seed):
        """Every window is followed within two synchronous steps by a query
        window (one whose two most recent states agree)."""
        rng = random.Random(seed)
        game = random_game(rng, (2, 2), hi=2)
        system = protocol_system("three-recall", game)
        window = tuple(
            tuple(rng.randrange(2) for _ in range(2)) for _ in range(3)
        )
        for _ in range(2):
            if window[1] == window[2]:
                break
            window = window[1:] + (system.rule(window),)
        assert window[1] == window[2]

    def test_query_at_pne_locks(self, coordination):
        system = protocol_system("three-recall", coordination)
        pne = (0, 0)
        window = ((1, 0), pne, pne)
        for _ in range(5):
            window = window[1:] + (system.rule(window),)
            assert window[-1] == pne


class TestUncoupledness:
    def test_steps_read_only_own_utility(self, m1m2):
        """Mutating the other nodes' utility tables never changes a node's
        protocol step or stay-or-roll support."""
        rng = random.Random(4)
        space = m1m2.space
        u2 = node_utility(m1m2, 2)
        mutated = Game(
            space,
            (
                tuple(rng.randrange(9) for _ in range(8)),
                m1m2.utilities[1],
                tuple(rng.randrange(9) for _ in range(8)),
            ),
        )
        u2_mutated = node_utility(mutated, 2)
        states = list(space.states())
        for _ in range(40):
            w3 = tuple(rng.choice(states) for _ in range(3))
            assert three_recall_step(u2, w3) == three_recall_step(u2_mutated, w3)
        for s in states:
            assert stay_or_roll_support(u2, s) == stay_or_roll_support(u2_mutated, s)

    @given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([(2, 2, 2), (2, 3), (4, 4)]))
    @settings(max_examples=30, deadline=None)
    def test_arrays_read_only_own_utility(self, seed, sizes):
        """Redrawing the other nodes' utility tables never changes node i's
        best-response entries nor node i's action in any window successor."""
        rng = random.Random(seed)
        game = random_game(rng, sizes, hi=3)
        space = game.space
        protocol = "two-recall" if min(sizes) >= 4 else "three-recall"
        digits = space.digits()
        is_br, least = best_response_table(space, [game.utilities])
        windows = uncoupled._windows(protocol, space)
        actions = digits[uncoupled._window_successors(protocol, space, is_br, least, windows) % space.num_states]
        for i in range(space.n):
            other = random_game(rng, sizes, hi=3)
            tables = list(other.utilities)
            tables[i] = game.utilities[i]
            mutated = Game(space, tuple(tables))
            is_br2, least2 = best_response_table(space, [mutated.utilities])
            assert (is_br2[..., i] == is_br[..., i]).all()
            assert (least2[..., i] == least[..., i]).all()
            nxt2 = uncoupled._window_successors(protocol, space, is_br2, least2, windows)
            assert (digits[nxt2 % space.num_states][..., i] == actions[..., i]).all()


class TestStayOrRoll:
    def test_m1m2_node3_stays(self, m1m2):
        u3 = node_utility(m1m2, 3)
        assert stay_or_roll_support(u3, (0, 0, 1)) == {1}

    def test_m1m2_node2_rolls(self, m1m2):
        u2 = node_utility(m1m2, 2)
        assert stay_or_roll_support(u2, (0, 0, 1)) == {0, 1}

    def test_pne_supports_are_current_actions(self, m1m2):
        for p in enumerate_pne(m1m2):
            for node in (1, 2, 3):
                u = node_utility(m1m2, node)
                assert stay_or_roll_support(u, p) == {p[node - 1]}

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30)
    def test_support_shape(self, seed):
        """Best-responding nodes have singleton support; others can move."""
        rng = random.Random(seed)
        game = random_game(rng, (2, 3), hi=4)
        for state in game.space.states():
            for node in (1, 2):
                u = node_utility(game, node)
                support = stay_or_roll_support(u, state)
                if u.is_best_responding(state):
                    assert support == {state[node - 1]}
                else:
                    assert any(a != state[node - 1] for a in support)


class TestCheckSelfStabilization:
    def test_three_recall_on_coordination(self, coordination):
        assert check_self_stabilization("three-recall", coordination) == SelfStabilizing()

    def test_no_pne_is_vacuous(self):
        assert check_self_stabilization("three-recall", matching_pennies()) == NoPNE()

    def test_no_pne_is_reported_before_the_window_budget(self, coordination):
        """No window is tabulated for a game without a PNE, so its verdict
        does not depend on the budget; a game with one still hits it."""
        assert check_self_stabilization("three-recall", matching_pennies(), budget=10) == NoPNE()
        with pytest.raises(BudgetExceeded):
            check_self_stabilization("three-recall", coordination, budget=10)

    def test_two_recall_needs_four_actions(self, coordination):
        with pytest.raises(Unsupported):
            check_self_stabilization("two-recall", coordination)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_two_recall_on_4x4_games(self, seed):
        game = random_game(random.Random(seed), (4, 4), hi=9)
        verdict = check_self_stabilization("two-recall", game)
        assert isinstance(verdict, (SelfStabilizing, NoPNE))

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_three_recall_on_random_2x3_games(self, seed):
        game = random_game(random.Random(seed), (2, 3), hi=2)
        verdict = check_self_stabilization("three-recall", game)
        assert isinstance(verdict, (SelfStabilizing, NoPNE))

    def test_fails_witness_is_least_bad_window(self, coordination, monkeypatch):
        """A rule that repeats the last state is stuck wherever a window
        ends; the witness is the first window, in encoded order (oldest state
        most significant), that ends at a non-PNE state."""

        def repeat_last(protocol, space, is_br, least, parts):
            n_states = space.num_states
            w = np.arange(n_states ** 3)
            return np.tile(w % n_states ** 2 * n_states + w % n_states, (len(is_br), 1))

        monkeypatch.setattr(uncoupled, "_window_successors", repeat_last)
        verdict = check_self_stabilization("three-recall", coordination)
        assert verdict == Fails(witness=((0, 0), (0, 0), (0, 1)))

    def test_window_budget_is_checked_before_any_window_array(self):
        """A 3x3x3x3 game has 81^3 windows (4 MB of int64 successors); over
        the budget it is refused before any of them is allocated."""
        game = random_game(random.Random(8), (3, 3, 3, 3), hi=9)
        assert enumerate_pne(game)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="531441 window states"):
                check_self_stabilization("three-recall", game, budget=10 ** 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_three_recall_trajectory_agrees(self, coordination):
        """The checker's verdict matches a direct synchronous run."""
        system = protocol_system("three-recall", coordination)
        for w0 in itertools.product(coordination.space.states(), repeat=3):
            _, verdict = run(system, w0, Synchronous(), max_steps=300)
            assert isinstance(verdict, Converged)
            assert verdict.state in enumerate_pne(coordination)


class TestArrayProtocols:
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.sampled_from([("three-recall", (2, 2)), ("three-recall", (2, 3)),
                         ("three-recall", (2, 2, 2)), ("two-recall", (4, 4))]),
    )
    @settings(max_examples=25, deadline=None)
    def test_window_successors_equal_the_reference_rule(self, seed, case):
        """For every window of every game in a batch, the array successor is
        the window shifted by the per-node reference rule's new state."""
        protocol, sizes = case
        rng = random.Random(seed)
        batch = [random_game(rng, sizes, hi=rng.choice([1, 2, 9])) for _ in range(3)]
        space = batch[0].space
        is_br, least = best_response_table(space, [g.utilities for g in batch])
        nxt = uncoupled._window_successors(protocol, space, is_br, least, uncoupled._windows(protocol, space))
        for game, row in zip(batch, nxt):
            lifted = lift_k_recall(reference_protocol_system(protocol, game))
            windows = itertools.product(space.states(), repeat=lifted.k)
            assert row.tolist() == [lifted.encode(w[1:] + (lifted.base.rule(w),)) for w in windows]

    def test_doubling_classifier_matches_the_chain_walk(self):
        """On the window successor graphs of both deterministic protocols,
        for arbitrary best-response masks (realizable or not) and random
        least responses, jumping to a constant PNE window marks the same
        failing windows as the chain walk; many of the games have failing
        windows, some have none."""
        outcomes = []
        for protocol, space, nxt, pne in protocol_graphs():
            fails = uncoupled._failing_windows(nxt, pne)
            newest = pne[:, np.arange(nxt.shape[1]) % space.num_states]
            for row, f, p in zip(fails, nxt.tolist(), newest.tolist()):
                expected = naive_failing_windows(f, p)
                assert row.tolist() == expected, (protocol, space.sizes)
                outcomes.append(any(expected))
        assert len(outcomes) > 4000
        assert sum(outcomes) >= len(outcomes) // 4
        assert not all(outcomes)

    def test_jumping_reaches_the_end_of_long_paths(self):
        """Protocol graphs have short tails, so the rounds are pinned here:
        on one random path through all M = N^k points, closed into a cycle
        at a random point, with each PNE's constant window made a fixed
        point, a window fails iff its path misses those fixed points."""
        rnd = random.Random(24)
        outcomes = []
        for _ in range(300):
            n, k = rnd.randrange(1, 8), rnd.choice([2, 3])
            m = n ** k
            order = rnd.sample(range(m), m)
            nxt = [0] * m
            for j, p in enumerate(order):
                nxt[p] = order[j + 1] if j + 1 < m else order[rnd.randrange(m)]
            pne = [rnd.random() < 0.2 for _ in range(n)]
            fixed = [False] * m
            for c in range(n):
                if pne[c]:
                    w = c * sum(n ** i for i in range(k))
                    nxt[w], fixed[w] = w, True
            got = uncoupled._failing_windows(np.array([nxt]), np.array([pne]))[0]
            expected = naive_failing_windows(nxt, fixed)
            assert got.tolist() == expected
            outcomes.append(sum(expected))
        assert 0 < sum(map(bool, outcomes)) < len(outcomes)

    def test_every_pne_cycle_is_one_constant_window(self):
        """The lemma behind the classifier: on those graphs, every cycle of
        windows whose newest states are all PNEs is a single window
        (c, ..., c), and c is a PNE."""
        checked = 0
        for protocol, space, nxt, pne in protocol_graphs(every=3):
            windows = core.window_space(space, uncoupled._recall(protocol, space))
            for row, p in zip(nxt.tolist(), pne.tolist()):
                for cycle in cycles_of(row):
                    if all(p[w % space.num_states] for w in cycle):
                        assert len(cycle) == 1, (protocol, space.sizes, cycle)
                        assert len(set(windows.decode(cycle[0]))) == 1
                        checked += 1
        assert checked > 1000

    def test_many_equals_one_by_one_on_all_2x2_games(self):
        space = ActionSpace((2, 2))
        tables = list(itertools.product(range(3), repeat=4))
        utilities = [(u1, u2) for u1 in tables for u2 in tables]
        singles = [check_self_stabilization("three-recall", Game(space, u)) for u in utilities]
        assert check_self_stabilization_many("three-recall", space, utilities) == singles
        # 64 windows a game: the 81 distinct masks go in chunks of 10
        assert check_self_stabilization_many("three-recall", space, utilities, budget=640) == singles

    @given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([(2, 2, 2), (2, 3)]))
    @settings(max_examples=15, deadline=None)
    def test_many_equals_the_reference_check_on_seeded_families(self, seed, sizes):
        rng = random.Random(seed)
        batch = [random_game(rng, sizes, hi=rng.choice([1, 2])) for _ in range(20)]
        space = batch[0].space
        for protocol in ("three-recall", "two-recall"):
            try:
                expected = [naive_check_self_stabilization(protocol, g) for g in batch]
            except Unsupported:
                with pytest.raises(Unsupported):
                    check_self_stabilization_many(protocol, space, [g.utilities for g in batch])
                continue
            got = check_self_stabilization_many(protocol, space, [g.utilities for g in batch], budget=3000)
            assert got == expected

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_two_recall_equals_the_reference_check(self, seed):
        game = random_game(random.Random(seed), (4, 4), hi=2)
        assert check_self_stabilization("two-recall", game) == naive_check_self_stabilization("two-recall", game)


class TestProtocolSystem:
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.sampled_from([("three-recall", (2, 2)), ("three-recall", (2, 3)),
                         ("three-recall", (2, 2, 2)), ("two-recall", (4, 4))]),
    )
    @settings(max_examples=20, deadline=None)
    def test_rule_equals_the_reference_rule(self, seed, case):
        """The per-window view of the array form answers every window as the
        per-node reference steps do."""
        protocol, sizes = case
        rng = random.Random(seed)
        game = random_game(rng, sizes, hi=rng.choice([1, 2, 9]))
        system = protocol_system(protocol, game)
        reference = reference_protocol_system(protocol, game)
        assert (system.k, system.stationary, system.name) == (reference.k, True, protocol)
        for window in itertools.product(game.space.states(), repeat=system.k):
            assert system.rule(window) == reference.rule(window)

    def test_rule_refuses_out_of_range_states(self, coordination):
        rule = protocol_system("three-recall", coordination).rule
        for window in [((0, 0), (0, 0), (0, 2)), ((0, 0), (-1, 0), (0, 0)), ((0, 0), (0, 0), (0, 0, 0))]:
            with pytest.raises(InvalidInput):
                rule(window)
        with pytest.raises(InvalidInput):
            rule(((0, 0), (0, 0)))


class TestRandomizedChecker:
    def test_2xk_games_stabilize(self):
        rng = random.Random(77)
        checked = 0
        while checked < 60:
            k = rng.randrange(2, 6)
            game = random_game(rng, (2, k), hi=4)
            verdict = check_self_stabilization_randomized(game)
            if isinstance(verdict, NoPNE):
                continue
            checked += 1
            assert verdict == SelfStabilizing()

    def test_m1m2_fails_with_expected_witness(self, m1m2):
        verdict = check_self_stabilization_randomized(m1m2)
        assert isinstance(verdict, Fails)
        assert to_one_based(verdict.witness) == (1, 1, 2)

    def test_single_action_nodes_change_no_verdict(self, m1m2):
        """Seventy nodes with one action each (always best-responding) put in
        front of m1m2 leave the state indices and both verdicts as they were."""
        space = ActionSpace((1,) * 70 + (2, 2, 2))
        game = Game(space, ((0,) * 8,) * 70 + m1m2.utilities)
        assert check_self_stabilization_randomized(game) == Fails(witness=(0,) * 70 + (0, 0, 1))
        assert check_self_stabilization("three-recall", game) == SelfStabilizing()
        assert enumerate_pne(game) == {(0,) * 73}

    def test_all_pne_game_stabilizes(self):
        space = ActionSpace((2, 2))
        game = Game(space, ((1,) * 4, (1,) * 4))
        assert check_self_stabilization_randomized(game) == SelfStabilizing()

    def test_fails_witness_cannot_reach_pne(self, m1m2):
        verdict = check_self_stabilization_randomized(m1m2)
        sup = support_system(m1m2)
        frontier = {verdict.witness}
        seen = set(frontier)
        while frontier:
            nxt = set()
            for s in frontier:
                nxt.update(sup.successors(s))
            frontier = nxt - seen
            seen |= frontier
        assert not (seen & enumerate_pne(m1m2))
        assert not reference_simulate_stay_or_roll(m1m2, verdict.witness, seed=17, max_steps=3000)

    def test_reachability_equals_the_fixpoint(self, m1m2):
        """Verdicts and least witnesses equal the repeat-until-unchanged
        fixpoint over the support graph; the draws include failing games."""
        outcomes = []

        @given(
            st.integers(min_value=0, max_value=10 ** 6),
            st.sampled_from([(2, 2, 2), (2, 3), (3, 3), (2, 2, 3)]),
            st.booleans(),
        )
        @settings(max_examples=150, deadline=None)
        def compare(seed, sizes, trap):
            rng = random.Random(seed)
            game = random_game(rng, sizes, hi=rng.choice([1, 2, 4]))
            if trap and len(sizes) == 3:
                game = trapped(game, rng)
            verdict = check_self_stabilization_randomized(game)
            assert verdict == naive_stay_or_roll(game)
            # a budget of N states builds the key rows one mask at a time
            assert check_self_stabilization_randomized(game, budget=game.space.num_states) == verdict
            outcomes.append(isinstance(verdict, Fails))

        compare()
        assert sum(outcomes) >= 10
        assert check_self_stabilization_randomized(m1m2) == naive_stay_or_roll(m1m2)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_monte_carlo_consistency(self, seed):
        """When the support checker accepts, seeded stay-or-roll runs reach a
        PNE from every initial state."""
        rng = random.Random(seed)
        game = random_game(rng, (2, 3), hi=3)
        verdict = check_self_stabilization_randomized(game)
        if verdict == SelfStabilizing():
            for state in game.space.states():
                assert reference_simulate_stay_or_roll(game, state, seed=seed, max_steps=5000)


class TestPerShapeConstants:
    """The checkers read the constants of a shape, kept once per shape, and
    each game's one best-response table; verdicts and witnesses are those of
    the per-node reference checkers."""

    def test_both_checkers_equal_the_naive_ones_on_all_2x2_games(self):
        space = ActionSpace((2, 2))
        tables = list(itertools.product(range(3), repeat=4))
        for u1 in tables:
            for u2 in tables:
                game = Game(space, (u1, u2))
                assert check_self_stabilization("three-recall", game) == naive_check_self_stabilization(
                    "three-recall", game
                )
                assert check_self_stabilization_randomized(game) == naive_stay_or_roll(game)

    @pytest.mark.parametrize("sizes", [(2, 3), (3, 3), (2, 2, 2), (2, 2, 3)])
    def test_both_checkers_equal_the_naive_ones_on_seeded_games(self, sizes):
        """Seeded games with utilities up to 1, 2 or 4, and games with a
        stay-or-roll trap like m1m2's where the shape has three nodes."""
        rng = random.Random(sum(sizes) * 1000 + len(sizes))
        outcomes = []
        for j in range(12):
            game = random_game(rng, sizes, hi=(1, 2, 4)[j % 3])
            if len(sizes) == 3 and j % 2:
                game = trapped(game, rng)
            three = check_self_stabilization("three-recall", game)
            assert three == naive_check_self_stabilization("three-recall", game)
            verdict = check_self_stabilization_randomized(game)
            assert verdict == naive_stay_or_roll(game)
            outcomes.append(type(verdict))
        assert SelfStabilizing in outcomes
        if len(sizes) == 3:
            assert Fails in outcomes

    def test_a_fresh_equal_space_gives_the_same_verdicts(self):
        """Games on a new ``ActionSpace`` equal to one already used read the
        same kept constants and get the same verdicts and witnesses."""
        rng = random.Random(23)
        used = ActionSpace((2, 2, 2))
        tables = [random_game(rng, used.sizes, hi=2).utilities for _ in range(30)]
        tables.append(fixture_game_2x2x2().utilities)

        def verdicts(space):
            return [
                (
                    check_self_stabilization("three-recall", Game(space, u)),
                    check_self_stabilization_randomized(Game(space, u)),
                )
                for u in tables
            ]

        first = verdicts(used)
        fresh = ActionSpace((2, 2, 2))
        assert fresh is not used and verdicts(fresh) == first
        assert check_self_stabilization_many("three-recall", fresh, tables) == [v for v, _ in first]
        assert uncoupled._windows("three-recall", fresh) is uncoupled._windows("three-recall", used)
        assert first[-1][1] == Fails(witness=(0, 0, 1))

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 2, 2), (4, 4)])
    def test_constants_built_per_call_give_the_same_verdicts(self, sizes, monkeypatch):
        """A shape beyond ``KEPT_BYTES`` builds its constants at every call
        and keeps none: the verdicts and witnesses are those of a kept shape."""
        rng = random.Random(sum(sizes))
        batch = [random_game(rng, sizes, hi=(1, 2, 4)[j % 3]) for j in range(20)] + [fixture_game_2x2x2()] * (
            sizes == (2, 2, 2)
        )
        protocol = "two-recall" if min(sizes) >= 4 else "three-recall"

        def verdicts():
            games = [Game(g.space, g.utilities) for g in batch]  # fresh tables
            return (
                [check_self_stabilization(protocol, g) for g in games],
                [check_self_stabilization_randomized(g) for g in games],
                check_self_stabilization_many(protocol, batch[0].space, [g.utilities for g in games]),
                check_self_stabilization_many("stay-or-roll", batch[0].space, [g.utilities for g in games]),
            )

        kept = verdicts()
        monkeypatch.setattr(core, "KEPT_BYTES", 0)
        monkeypatch.setattr(core, "_KEPT", {})
        assert verdicts() == kept and not core._KEPT
        assert any(isinstance(v, Fails) for v in kept[1]) == (sizes == (2, 2, 2))
        assert kept[3] == kept[1]

    def test_m1m2_still_fails_at_its_least_state(self, m1m2):
        assert check_self_stabilization_randomized(m1m2) == Fails(witness=(0, 0, 1))
        assert check_self_stabilization_randomized(m1m2, budget=m1m2.space.num_states) == Fails(witness=(0, 0, 1))

    def test_a_large_shape_keeps_nothing_after_its_check(self):
        """The 3x3x3x3 game's 531,441 windows are beyond ``KEPT_BYTES``: their
        constants are built for the call and freed after it, and the call
        peaks below the 33.5 MiB of per-call successors it took before."""
        game = random_game(random.Random(8), (3, 3, 3, 3), hi=9)
        tracemalloc.start()
        try:
            verdict = check_self_stabilization("three-recall", game)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict == SelfStabilizing()
        assert kept < 1 << 20
        assert peak < 33.5 * (1 << 20)


class TestBatchedStayOrRoll:
    """Stay-or-roll is one batched checker: ``check_self_stabilization_many``
    decides each distinct mask of a batch once, and the one-game call is its
    case B=1.  Every verdict and witness is the naive fixpoint's."""

    def test_all_2x2_games_equal_the_naive_and_the_one_game_check(self):
        space = ActionSpace((2, 2))
        tables = list(itertools.product(range(3), repeat=4))
        games = [Game(space, (u1, u2)) for u1 in tables for u2 in tables]
        batched = check_self_stabilization_many("stay-or-roll", space, [g.utilities for g in games])
        assert batched == [naive_stay_or_roll(g) for g in games]
        assert batched == [check_self_stabilization_randomized(g) for g in games]

    def test_sampled_2x2x2_masks_equal_the_naive_check_at_every_budget(self, monkeypatch):
        """0/1 games (random masks) and games with m1m2's trap, in one batch
        at the default budget, at N states (the mask rows of one game one at
        a time), and at budgets that cut the batch into chunks of games; the
        same with ``KEPT_BYTES`` at 0, where the rows are those of the masks
        that occur, built at every call and, at small budgets, per chunk."""
        rng = random.Random(2023)
        space = ActionSpace((2, 2, 2))
        games = [random_game(rng, space.sizes, hi=1) for _ in range(200)]
        games += [trapped(random_game(rng, space.sizes, hi=2), rng) for _ in range(100)] + [fixture_game_2x2x2()]
        expected = [naive_stay_or_roll(g) for g in games]
        assert sum(isinstance(v, Fails) for v in expected) >= 30
        assert sum(isinstance(v, NoPNE) for v in expected) >= 5
        utilities = [g.utilities for g in games]
        for budget in (None, 8, 3 * 8, 64, 5 * 64 + 7):
            assert check_self_stabilization_many("stay-or-roll", space, utilities, budget) == expected
        for budget in (None, 8, 20):
            assert [check_self_stabilization_randomized(g, budget) for g in games] == expected
        monkeypatch.setattr(core, "KEPT_BYTES", 0)
        monkeypatch.setattr(core, "_KEPT", {})
        for budget in (None, 8, 3 * 8, 64):
            assert check_self_stabilization_many("stay-or-roll", space, utilities, budget) == expected

    def test_each_distinct_mask_is_decided_once(self, monkeypatch):
        """The 6,561 2x2 games with utilities in {0, 1, 2} have 81 distinct
        masks: each protocol decides 81 rows.  That the verdicts scattered
        back equal the one-game ones is checked above and in
        ``TestArrayProtocols``."""
        space = ActionSpace((2, 2))
        tables = list(itertools.product(range(3), repeat=4))
        utilities = [(u1, u2) for u1 in tables for u2 in tables]
        decided = []
        for name, at in (("_stay_or_roll", 1), ("_check_windows", 2)):
            real = getattr(uncoupled, name)

            def counted(*args, real=real, at=at):
                decided.append(len(args[at]))
                return real(*args)

            monkeypatch.setattr(uncoupled, name, counted)
        grouped = [check_self_stabilization_many(p, space, utilities) for p in ("three-recall", "stay-or-roll")]
        assert decided == [81, 81]
        assert [len(verdicts) for verdicts in grouped] == [6561, 6561]
        assert all(sum(isinstance(v, NoPNE) for v in verdicts) == 162 for verdicts in grouped)

    def test_an_empty_batch_has_no_verdicts(self):
        space = ActionSpace((2, 3))
        for protocol in ("three-recall", "stay-or-roll"):
            assert check_self_stabilization_many(protocol, space, np.zeros((0, 2, 6), dtype=np.int64)) == []

    def test_an_unknown_protocol_is_refused_with_every_name(self, coordination):
        space = ActionSpace((2, 2))
        assert uncoupled.PROTOCOLS == ("three-recall", "two-recall", "stay-or-roll")
        calls = [
            lambda: check_self_stabilization_many("foo", space, np.zeros((0, 2, 4), dtype=np.int64)),
            lambda: check_self_stabilization("foo", coordination),
            lambda: protocol_system("foo", coordination),
        ]
        for call in calls:
            with pytest.raises(InvalidInput) as info:
                call()
            assert all(name in str(info.value) for name in uncoupled.PROTOCOLS)

    def test_stay_or_roll_by_name_is_the_randomized_check(self, m1m2):
        rng = random.Random(24)
        games = [random_game(rng, sizes, hi=2) for sizes in [(2, 2), (2, 3), (2, 2, 2)] * 10] + [m1m2]
        for game in games:
            for budget in (None, game.space.num_states):
                got = check_self_stabilization("stay-or-roll", game, budget)
                assert got == check_self_stabilization_randomized(game, budget)
        assert got == Fails(witness=(0, 0, 1))

    def test_stay_or_roll_has_no_protocol_system(self, m1m2):
        with pytest.raises(Unsupported):
            protocol_system("stay-or-roll", m1m2)

    def test_m1m2_fails_at_its_least_state_in_a_batch(self, m1m2):
        for budget in (None, m1m2.space.num_states):
            got = check_self_stabilization_many("stay-or-roll", m1m2.space, [m1m2.utilities] * 3, budget)
            assert got == [Fails(witness=(0, 0, 1))] * 3

    def test_the_key_table_is_kept_per_shape(self):
        """The keys of every mask code, (N, 2^L) for L nodes with more than
        one action, are built once per shape and shared by equal spaces."""
        space = ActionSpace((1, 2, 3))
        with empty_store() as store:
            check_self_stabilization_randomized(random_game(random.Random(1), space.sizes, hi=2))
            keys = store["stay-or-roll keys", space.sizes][0]
            assert keys.shape == (6, 4) and not keys.flags.writeable
            check_self_stabilization_many("stay-or-roll", ActionSpace((1, 2, 3)), [((0,) * 6,) * 3])
            assert store["stay-or-roll keys", space.sizes][0] is keys
        # row j holds j·N plus each state's index with the nodes outside mask j at action 0
        digits = space.digits()
        for j in range(4):
            kept = (digits * [0, j & 1, j >> 1 & 1]) @ space.weights
            assert keys[:, j].tolist() == (kept + 6 * j).tolist()


class TestFixtureGame:
    def test_matrix_values(self, m1m2):
        assert [m1m2.utility(i, (0, 0, 0)) for i in (1, 2, 3)] == [1, 1, 1]
        assert [m1m2.utility(i, (1, 0, 0)) for i in (1, 2, 3)] == [0, 1, 0]
        assert [m1m2.utility(i, (1, 1, 1)) for i in (1, 2, 3)] == [1, 0, 1]

    def test_unique_pne(self, m1m2):
        assert enumerate_pne(m1m2) == {(0, 0, 0)}

    def test_action_two_always_best_for_node3(self, m1m2):
        u3 = node_utility(m1m2, 3)
        assert all(1 in u3.best_responses(s) for s in m1m2.space.states())
