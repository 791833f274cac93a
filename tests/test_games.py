"""Games, PNE enumeration, and the two conversions with historyless systems."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncdyn.analyze import Convergent, NonConvergent, decide_convergence, stable_states
from asyncdyn.core import ActionSpace, HistorylessSystem, check_self_independent
from asyncdyn.errors import InvalidInput, NonUniqueBestResponse
from asyncdyn.games import (
    Game,
    best_response_table,
    best_responses,
    br_system,
    enumerate_pne,
    induced_game,
)
from asyncdyn.reductions import SocialGraph, build_majority, fixture
from asyncdyn.uncoupled import fixture_game_2x2x2

from _helpers import naive_br_rows, naive_pne, random_game, random_self_independent_system


@pytest.fixture
def coordination():
    space = ActionSpace((2, 2))
    return Game(space, ((1, 0, 0, 1), (1, 0, 0, 1)))


def all_2x2_games(values=(0, 1, 2)):
    space = ActionSpace((2, 2))
    for u1 in itertools.product(values, repeat=4):
        for u2 in itertools.product(values, repeat=4):
            yield Game(space, (u1, u2))


def test_utilities_must_be_integers():
    """A fraction is refused, not truncated: [1.5, 1] has one PNE, not two."""
    space = ActionSpace((2,))
    for bad in (1.5, 1.0, "1", None):
        with pytest.raises(InvalidInput, match="integers"):
            Game(space, ((bad, 1),))
    game = Game(space, ((np.int64(2), 1),))
    assert game.utilities == ((2, 1),) and type(game.utilities[0][0]) is int
    assert enumerate_pne(game) == {(0,)}


class TestBestResponses:
    def test_m1m2_tie(self):
        game = fixture_game_2x2x2()
        assert best_responses(game, 3, (0, 0, 1)) == {0, 1}

    def test_constant_utility_full_set(self):
        space = ActionSpace((3, 2))
        game = Game(space, ((1,) * 6, (1,) * 6))
        assert best_responses(game, 1, (0, 0)) == {0, 1, 2}

    def test_coordination(self, coordination):
        assert best_responses(coordination, 1, (0, 1)) == {1}
        assert best_responses(coordination, 1, (1, 0)) == {0}


class TestEnumeratePne:
    def test_m1m2_unique(self):
        assert enumerate_pne(fixture_game_2x2x2()) == {(0, 0, 0)}

    def test_coordination(self, coordination):
        assert enumerate_pne(coordination) == {(0, 0), (1, 1)}

    def test_constant_utility_all_states(self):
        space = ActionSpace((2, 2))
        game = Game(space, ((3,) * 4, (3,) * 4))
        assert enumerate_pne(game) == set(space.states())


class TestBrSystem:
    def test_single_edge_majority_game_is_fig1(self):
        """The two-user majority game (tie favours X) induces exactly the
        copy-each-other dynamics."""
        graph = SocialGraph(n=2, edges=((1, 2),))
        game = induced_game(build_majority(graph))
        system = br_system(game)
        assert system.reaction_rows().tolist() == fixture("fig1").reaction_rows().tolist()

    def test_dominant_actions_give_constant_reactions(self):
        space = ActionSpace((2, 3))
        game = Game(
            space,
            (
                tuple(5 if a == 1 else 0 for a, _ in space.states()),
                tuple(7 if b == 2 else b for _, b in space.states()),
            ),
        )
        system = br_system(game)
        assert all(system.reaction(s) == (1, 2) for s in space.states())

    def test_tie_raises_without_flag(self):
        with pytest.raises(NonUniqueBestResponse):
            br_system(fixture_game_2x2x2())

    def test_min_tie_break(self):
        system = br_system(fixture_game_2x2x2(), tie_break="min")
        assert system.reaction((0, 0, 1))[2] == 0  # least-indexed of the tied pair

    def test_result_is_self_independent(self, coordination):
        assert check_self_independent(br_system(coordination)).ok


class TestBestResponseTable:
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4), (1, 3)]),
        st.sampled_from([0, 1, 9, 10 ** 30]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_state_oracle(self, seed, sizes, hi):
        """PNEs, best-response rows, ties and the tie message agree with the
        per-state best-response sets, also for utilities beyond 64 bits."""
        rng = random.Random(seed)
        game = random_game(rng, sizes, lo=-hi, hi=hi)
        is_br, least = best_response_table(game.space, [game.utilities])
        for s, state in enumerate(game.space.states()):
            for i in range(game.n):
                brs = best_responses(game, i + 1, state)
                assert is_br[0, s, i] == (state[i] in brs)
                assert least[0, s, i] == min(brs)
        assert enumerate_pne(game) == naive_pne(game)
        assert br_system(game, tie_break="min").reaction_rows().tolist() == naive_br_rows(game, "min")
        try:
            expected = naive_br_rows(game)
        except NonUniqueBestResponse as exc:
            with pytest.raises(NonUniqueBestResponse) as got:
                br_system(game)
            assert str(got.value) == str(exc)
        else:
            assert br_system(game).reaction_rows().tolist() == expected


class TestInducedGame:
    def test_fig1_values(self):
        game = induced_game(fixture("fig1"))
        assert [game.utility(i, (0, 0)) for i in (1, 2)] == [1, 1]
        assert [game.utility(i, (0, 1)) for i in (1, 2)] == [0, 0]

    def test_identity_system_all_ones(self):
        space = ActionSpace((2, 2))
        system = HistorylessSystem.from_rule(space, lambda s: s)
        game = induced_game(system)
        assert all(
            game.utility(i, s) == 1 for i in (1, 2) for s in space.states()
        )

    def test_pne_of_induced_fig1(self):
        assert enumerate_pne(induced_game(fixture("fig1"))) == {(0, 0), (1, 1)}


class TestConversionInvariants:
    def test_pne_equals_stables_for_all_generic_2x2_games(self):
        checked = 0
        for game in all_2x2_games():
            try:
                system = br_system(game)
            except NonUniqueBestResponse:
                continue
            checked += 1
            assert enumerate_pne(game) == stable_states(system)
        assert checked == 1296

    def test_round_trip_on_all_self_independent_2x2_systems(self):
        space = ActionSpace((2, 2))
        for g1 in itertools.product(range(2), repeat=2):
            for g2 in itertools.product(range(2), repeat=2):
                rows = [(g1[b], g2[a]) for (a, b) in space.states()]
                system = HistorylessSystem.from_table(space, rows)
                assert br_system(induced_game(system)).reaction_rows().tolist() == system.reaction_rows().tolist()

    def test_stables_equal_pne_of_induced_for_self_independent(self):
        rng = random.Random(99)
        for _ in range(30):
            system = random_self_independent_system(rng)
            assert stable_states(system) == enumerate_pne(induced_game(system))

    def test_stables_equal_pne_of_induced_for_three_stable_example(self):
        system = fixture("ex-three-stable")
        assert stable_states(system) == enumerate_pne(induced_game(system))

    def test_stables_subset_of_induced_pne_generally(self):
        """Without self-independence only the inclusion holds: a node whose
        induced utility column is all zero is trivially best-responding, so a
        never-fixed reaction (e.g. always-switch) makes every state a PNE."""
        space = ActionSpace((2, 2))
        switch = HistorylessSystem.from_rule(space, lambda s: (1 - s[0], 1 - s[1]))
        assert stable_states(switch) == frozenset()
        assert enumerate_pne(induced_game(switch)) == set(space.states())
        rng = random.Random(5)
        for _ in range(40):
            from _helpers import random_table_system

            system = random_table_system(rng)
            assert stable_states(system) <= enumerate_pne(induced_game(system))

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_generic_multi_pne_games_oscillate(self, seed):
        """Two or more equilibria in a generic game make best-response
        dynamics non-convergent."""
        rng = random.Random(seed)
        game = random_game(rng, (rng.randrange(2, 4), rng.randrange(2, 4)), hi=6)
        try:
            system = br_system(game)
        except NonUniqueBestResponse:
            return
        if len(enumerate_pne(game)) >= 2:
            assert isinstance(decide_convergence(system), NonConvergent)

    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=-5, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_positive_affine_invariance(self, seed, scale, shift):
        rng = random.Random(seed)
        game = random_game(rng, (2, 3), hi=5)
        node = rng.randrange(1, 3)
        tables = list(game.utilities)
        tables[node - 1] = tuple(u * scale + shift for u in tables[node - 1])
        scaled = Game(space=game.space, utilities=tuple(tables))
        for state in game.space.states():
            assert best_responses(game, node, state) == best_responses(scaled, node, state)
        assert enumerate_pne(game) == enumerate_pne(scaled)
        try:
            assert br_system(game).reaction_rows().tolist() == br_system(scaled).reaction_rows().tolist()
        except NonUniqueBestResponse:
            with pytest.raises(NonUniqueBestResponse):
                br_system(scaled)
