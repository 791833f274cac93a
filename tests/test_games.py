"""Games, PNE enumeration, and the two conversions with historyless systems."""

import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncdyn.analyze import Convergent, NonConvergent, decide_convergence, stable_states
from asyncdyn import core, games
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
from asyncdyn.uncoupled import (
    check_self_stabilization,
    check_self_stabilization_many,
    check_self_stabilization_randomized,
    fixture_game_2x2x2,
    protocol_system,
)

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


class TestUtilityTypes:
    """``best_response_table`` takes bool and integer arrays, and object
    arrays of integers (the exact form of utilities beyond 64 bits); like
    ``Game``, it refuses anything else instead of comparing it."""

    SPACE = ActionSpace((2, 2))

    @pytest.mark.parametrize(
        "utilities",
        [
            [[[0.5, 1, 0, 0], [0, 0, 0, 0]]],
            [[[float("nan"), 1, 0, 0], [0, 0, 0, 0]]],
            [[["1", "0", "0", "0"], ["0", "0", "0", "0"]]],
            np.zeros((1, 2, 4)),
            np.array([[[1, 2.0, 0, 0], [0, 0, 0, 0]]], dtype=object),
            [[[1, 0, 0], [0, 0, 0, 0]]],
        ],
        ids=["fraction", "nan", "strings", "float-array", "object-float", "ragged"],
    )
    def test_non_integers_are_refused(self, utilities):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                best_response_table(self.SPACE, utilities)
            with pytest.raises(InvalidInput):
                check_self_stabilization_many("three-recall", self.SPACE, utilities)

    def test_bool_and_integer_dtypes_agree(self):
        """The same tables as bools, as any integer dtype, as Python ints
        beyond 64 bits (shifted by 2^70) and mixed with int64 scalars."""
        tables = np.array([[[1, 0, 0, 1], [0, 1, 1, 1]]])
        expected = best_response_table(self.SPACE, tables.astype(np.int64))
        wide = [[[v + 2 ** 70 for v in row] for row in game] for game in tables.tolist()]
        mixed = np.array([[[np.int64(v) for v in row] for row in game] for game in tables.tolist()], dtype=object)
        for u in (tables.astype(bool), tables.astype(np.uint8), tables.astype(np.int32), wide, mixed):
            got = best_response_table(self.SPACE, u)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))


    @pytest.mark.parametrize("sizes", [(2, 3), (3, 3), (2, 2, 2), (1, 3), (4, 1, 2)])
    def test_a_shape_beyond_the_kept_bytes_gets_the_same_table(self, sizes, monkeypatch):
        """With nothing kept, each call takes one node at a time through the
        own-action axes instead of one gather: the tables are the same."""
        rng = random.Random(len(sizes) * 100 + sum(sizes))
        utilities = [random_game(rng, sizes, lo=-h, hi=h).utilities for h in (1, 2, 9, 10 ** 30)]
        space = ActionSpace(sizes)
        gathered = [best_response_table(space, [u]) for u in utilities]
        monkeypatch.setattr(core, "KEPT_BYTES", 0)
        monkeypatch.setattr(core, "_KEPT", {})
        for u, expected in zip(utilities, gathered):
            got = best_response_table(space, [u])
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, expected))
        assert not core._KEPT


class TestOneTablePerGame:
    def test_the_table_is_built_once_and_read_only(self, monkeypatch):
        """PNE enumeration, best-response dynamics and both checkers read the
        game's one table: it is built once, on first use."""
        calls = []
        build = games.best_response_table
        monkeypatch.setattr(games, "best_response_table", lambda *args: calls.append(args) or build(*args))
        game = fixture_game_2x2x2()
        assert enumerate_pne(game) == {(0, 0, 0)}
        br_system(game, tie_break="min")
        check_self_stabilization("three-recall", game)
        check_self_stabilization_randomized(game)
        protocol_system("three-recall", game).rule(((0, 0, 0),) * 3)
        assert len(calls) == 1
        is_br, least = game.br_table
        assert is_br.shape == least.shape == (8, 3)
        assert not is_br.flags.writeable and not least.flags.writeable
        fresh = build(game.space, [game.utilities])
        assert np.array_equal(is_br, fresh[0][0]) and np.array_equal(least, fresh[1][0])


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
