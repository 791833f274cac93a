"""The one tabulation of a reaction (``reaction_rows``) against per-state
reactions, and every reader of it against a per-state oracle."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncdyn.analyze import NonConvergent, decide_convergence, stable_states
from asyncdyn.core import (
    ActionSpace,
    HistorylessSystem,
    KRecallSystem,
    check_self_independent,
    lift_k_recall,
)
from asyncdyn.errors import InvalidInput
from asyncdyn.games import induced_game
from asyncdyn.reductions import fixture
from asyncdyn.simulate import Cycling, replay_witness

from _helpers import (
    naive_self_independence_violations,
    random_self_independent_system,
    random_table_system,
)

FIXTURES = [
    fixture("fig1"),
    fixture("ex-three-stable"),
    fixture("ex-unbounded-latched"),
    fixture("ring", n=4),
    fixture("futile", n=3),
]


def random_systems(seed):
    """A table system and a self-independent rule system."""
    rng = random.Random(seed)
    return [random_table_system(rng), random_self_independent_system(rng)]


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_reaction_rows_match_per_state_reaction(seed):
    for system in random_systems(seed):
        rows = system.reaction_rows()
        assert rows.dtype == np.int64
        assert rows.tolist() == [list(system.reaction(s)) for s in system.space.states()]


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_every_constructor_gives_the_same_reaction(seed):
    """One random reaction as a table, as a per-state rule and as an array
    rule: every reader of the three systems agrees."""
    rng = random.Random(seed)
    space = ActionSpace(tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))))
    table = [tuple(rng.randrange(k) for k in space.sizes) for _ in range(space.num_states)]
    systems = [
        HistorylessSystem.from_table(space, table),
        HistorylessSystem.from_rule(space, lambda s: table[space.encode(s)]),
        HistorylessSystem.from_array_rule(space, lambda d: np.array(table)[np.ravel_multi_index(d.T, space.sizes)]),
    ]
    for system in systems:
        assert system.reaction_rows().tolist() == [list(row) for row in table]
        for state, row in zip(space.states(), table):
            assert system.reaction(state) == system.rule(state) == row
            assert all(type(a) is int for a in system.reaction(state) + system.rule(state))
    assert len({check_self_independent(system) for system in systems}) == 1
    assert len({decide_convergence(system) for system in systems}) == 1


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_lifted_reaction_rows_match_per_window_reaction(seed):
    rng = random.Random(seed)
    space = rng.choice([ActionSpace((2,)), ActionSpace((3,)), ActionSpace((1, 2)), ActionSpace((1, 3))])
    states = list(space.states())
    table = {w: rng.choice(states) for w in itertools.product(states, repeat=2)}
    lifted = lift_k_recall(KRecallSystem(space=space, k=2, rule=lambda w: table[w]))
    rows = lifted.reaction_rows()
    assert rows.shape == (len(states) ** 2, space.n)
    for i, row in enumerate(rows.tolist()):
        assert tuple(row) == lifted.base.reaction(lifted.decode(i))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_self_independence_matches_naive_oracle(seed):
    for system in random_systems(seed):
        everything = naive_self_independence_violations(system, float("inf"))
        for cap in (1, 3, 16):
            report = check_self_independent(system, max_violations=cap)
            assert list(report.violations) == naive_self_independence_violations(system, cap)
            assert report.ok == (not everything)


@pytest.mark.parametrize("system", FIXTURES, ids=lambda s: s.name or "fixture")
def test_fixture_self_independence_matches_naive_oracle(system):
    for cap in (1, 3, 16):
        report = check_self_independent(system, max_violations=cap)
        assert list(report.violations) == naive_self_independence_violations(system, cap)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_induced_game_matches_per_state_oracle(seed):
    for system in random_systems(seed):
        game = induced_game(system)
        for node in range(1, system.n + 1):
            expected = tuple(
                int(system.reaction(s)[node - 1] == s[node - 1]) for s in system.space.states()
            )
            assert game.utilities[node - 1] == expected


@pytest.mark.parametrize(
    "row",
    [(0,), (0, 0, 0), (0.5, 0), (1.0, 0), (2, 0), (0, -1), ("a", 0)],
    ids=["short-row", "long-row", "fraction", "float", "out-of-range", "negative", "string"],
)
def test_from_table_refuses_malformed_rows(row):
    """One bad last row among good ones (wrong row counts: test_core)."""
    with pytest.raises(InvalidInput):
        HistorylessSystem.from_table(ActionSpace((2, 2)), [(0, 0)] * 3 + [row])


def test_from_table_stores_python_ints():
    rows = np.array([(1, 0), (0, 1), (1, 1), (0, 0)], dtype=np.int32)
    system = HistorylessSystem.from_table(ActionSpace((2, 2)), rows)
    reactions = list(map(system.reaction, system.space.states()))
    assert reactions == [(1, 0), (0, 1), (1, 1), (0, 0)]
    assert all(type(a) is int for row in reactions for a in row)
    assert system.reaction_rows().dtype == np.int64


class TestNumpyIntegerActions:
    """A rule may return numpy integers; every reader accepts them the same
    way, and every reader refuses a non-integer action."""

    space = ActionSpace((2, 2))

    def swap(self, action):
        return HistorylessSystem.from_rule(self.space, lambda s: (action(s[1]), action(s[0])))

    def test_numpy_integers_are_accepted(self):
        system = self.swap(np.int64)
        assert stable_states(system) == {(0, 0), (1, 1)}
        assert system.reaction_rows().tolist() == fixture("fig1").reaction_rows().tolist()
        assert system.reaction((0, 1)) == (1, 0)
        assert all(type(a) is int for a in system.reaction((0, 1)))
        verdict = decide_convergence(system)
        assert isinstance(verdict, NonConvergent)
        assert isinstance(replay_witness(system, verdict.witness), Cycling)

    def test_fractions_are_refused_by_every_reader(self):
        witness = decide_convergence(self.swap(np.int64)).witness
        system = HistorylessSystem.from_rule(self.space, lambda s: (0.5, s[0]))
        with pytest.raises(InvalidInput, match="not an integer"):
            system.reaction((0, 1))
        with pytest.raises(InvalidInput, match="not an integer"):
            system.rule((0, 1))
        with pytest.raises(InvalidInput):
            stable_states(system)
        with pytest.raises(InvalidInput):
            system.reaction_rows()
        with pytest.raises(InvalidInput):
            replay_witness(system, witness)

    def test_validate_state_returns_python_ints(self):
        state = self.space.validate_state((np.int64(1), np.uint8(0)))
        assert state == (1, 0)
        assert all(type(a) is int for a in state)
        with pytest.raises(InvalidInput, match="out of range"):
            self.space.validate_state((np.int64(2), 0))
