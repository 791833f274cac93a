"""Trajectory runs, verdict soundness, witness replay, traces."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from asyncdyn.core import (
    ActionSpace,
    ExplicitList,
    HistorylessSystem,
    KRecallSystem,
    Periodic,
    RoundRobin,
    SeededRandom,
    Synchronous,
    step,
)
from asyncdyn.errors import InsufficientHistory, InvalidInput, InvalidWitness
from asyncdyn.games import Game
from asyncdyn.reductions import fixture
from asyncdyn.simulate import (
    BudgetExhausted,
    Converged,
    Cycling,
    Witness,
    replay_witness,
    run,
    trace_lines,
)
from asyncdyn.uncoupled import protocol_system

from _helpers import random_table_system


@pytest.fixture
def fig1():
    return fixture("fig1")


class TestRun:
    def test_fig1_synchronous_cycles(self, fig1):
        _, verdict = run(fig1, (0, 1), Synchronous())
        assert verdict == Cycling(period=2, segment=((0, 1), (1, 0), (0, 1)))

    def test_stable_initial_converges_at_zero(self, fig1):
        for schedule in (Synchronous(), RoundRobin(), SeededRandom(seed=1)):
            _, verdict = run(fig1, (0, 0), schedule)
            assert verdict == Converged(state=(0, 0), time=0)

    def test_ring_pairwise_cycle(self):
        ring = fixture("ring", n=4)
        schedule = Periodic(cycle=({1, 2}, {2, 3}, {3, 4}, {4, 1}))
        _, verdict = run(ring, (1, 0, 0, 0), schedule)
        assert isinstance(verdict, Cycling)

    def test_round_robin_converges_fig1(self, fig1):
        # sequential activation from (0,1): node 1 copies node 2, then 2 copies 1
        _, verdict = run(fig1, (0, 1), RoundRobin())
        assert isinstance(verdict, Converged)
        assert verdict.state == (1, 1)

    def test_seeded_schedule_never_claims_cycling(self, fig1):
        _, verdict = run(fig1, (0, 1), SeededRandom(seed=5, p=1.0), max_steps=200)
        assert isinstance(verdict, BudgetExhausted)

    def test_seeded_reproducible(self, fig1):
        t1, v1 = run(fig1, (0, 1), SeededRandom(seed=42, p=0.5), max_steps=50)
        t2, v2 = run(fig1, (0, 1), SeededRandom(seed=42, p=0.5), max_steps=50)
        assert v1 == v2
        assert t1.states == t2.states
        assert t1.trace == t2.trace

    @pytest.mark.parametrize(
        "schedule", [Synchronous(), RoundRobin(), SeededRandom(seed=5, p=0.5)], ids=["sync", "round-robin", "seeded"]
    )
    def test_a_historyless_run_reacts_once_per_step(self, monkeypatch, schedule):
        """The fixed-window test and the update of a step share one call of
        the reaction; the step that ends the run makes only the test."""
        ring = fixture("ring", n=4)
        reaction, calls = HistorylessSystem.reaction, []
        monkeypatch.setattr(
            HistorylessSystem, "reaction", lambda self, s, *budget: calls.append(s) or reaction(self, s, *budget)
        )
        trajectory, verdict = run(ring, (1, 0, 0, 0), schedule, max_steps=40)
        steps = len(trajectory.trace) - 1
        assert steps > 0
        assert calls == [state for state, _ in trajectory.trace[: steps + (not isinstance(verdict, BudgetExhausted))]]

    @pytest.mark.parametrize("budget", [1, 15, 16, None])
    def test_a_reaction_is_tabulated_only_within_the_run_budget(self, budget):
        """ring n=4 has 16 states: a smaller budget leaves the reaction
        untabulated and evaluates it one state at a time, to the same run."""
        ring, reference = fixture("ring", n=4), fixture("ring", n=4)
        trajectory, verdict = run(ring, (1, 0, 0, 0), RoundRobin(), max_steps=40, budget=budget)
        assert (trajectory, verdict) == run(reference, (1, 0, 0, 0), RoundRobin(), max_steps=40)
        assert (ring._reaction._rows is None) == (budget is not None and budget < 16)

    def test_budget_must_be_positive(self, fig1):
        with pytest.raises(InvalidInput):
            run(fig1, (0, 1), Synchronous(), max_steps=0)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_replaying_recorded_activations_reproduces_trajectory(self, seed):
        rng = random.Random(seed)
        system = random_table_system(rng, max_nodes=3, max_actions=3)
        initial = tuple(rng.randrange(k) for k in system.space.sizes)
        traj, _ = run(system, initial, SeededRandom(seed=seed, p=0.6), max_steps=30)
        activations = [active for _, active in traj.trace if active is not None]
        if not activations:
            return
        replayed, _ = run(system, initial, ExplicitList(sets=activations), max_steps=len(activations))
        assert replayed.states == traj.states[: len(replayed.states)]

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_converged_is_absorbing(self, seed):
        """After a Converged verdict, any schedule suffix leaves the state."""
        rng = random.Random(seed)
        system = random_table_system(rng, max_nodes=3, max_actions=3)
        initial = tuple(rng.randrange(k) for k in system.space.sizes)
        _, verdict = run(system, initial, SeededRandom(seed=seed), max_steps=200)
        if isinstance(verdict, Converged):
            _, resumed = run(
                system, verdict.state, SeededRandom(seed=seed + 1), max_steps=50
            )
            assert resumed == Converged(state=verdict.state, time=0)

    def test_unfair_periodic_freeze_detected_as_cycling(self, fig1):
        # the empty-set cycle never converges to a stable state and repeats
        _, verdict = run(fig1, (0, 1), Periodic(cycle=(frozenset(),)))
        assert verdict == Cycling(period=1, segment=((0, 1), (0, 1)))


    @pytest.mark.parametrize(
        "schedule, bad",
        [
            (Periodic(cycle=({3},)), {3}),
            (Periodic(cycle=({1, 2},), prefix=({0},)), {0}),
            (ExplicitList([{0}, {-1}]), {0}),
            (ExplicitList([{1}, {1, 2, 5}]), {1, 2, 5}),
        ],
    )
    def test_sets_outside_the_system_are_refused(self, fig1, schedule, bad):
        """A finite schedule naming a node outside 1..n is refused before the
        run, as ``step`` refuses that set, not run as if the node were absent."""
        with pytest.raises(InvalidInput, match="out of range 1..2"):
            step(fig1, (0, 1), bad)
        with pytest.raises(InvalidInput, match="out of range 1..2"):
            run(fig1, (0, 1), schedule)

    def test_sets_outside_a_k_recall_system_are_refused(self):
        """Also for a non-stationary system, whose run has no phase check."""
        system = KRecallSystem(space=ActionSpace((2,)), k=1, rule=lambda w, t: (t % 2,), stationary=False)
        with pytest.raises(InvalidInput, match="out of range 1..1"):
            run(system, ((0,),), Periodic(cycle=({1}, {2})), max_steps=5)

    @pytest.mark.parametrize("nodes", [{1.5, True}, {"2"}, {1, 2.0}])
    def test_nodes_must_be_integers(self, nodes):
        """Node indices are not truncated or parsed: 1.5 is not node 1."""
        with pytest.raises(InvalidInput, match="is not an integer"):
            Periodic(cycle=(nodes,))
        with pytest.raises(InvalidInput, match="is not an integer"):
            ExplicitList([nodes])

class TestKRecallRun:
    @pytest.fixture
    def coordination(self):
        space = ActionSpace((2, 2))
        return Game(space, ((1, 0, 0, 1), (1, 0, 0, 1)))

    def test_three_recall_synchronous_converges(self, coordination):
        system = protocol_system("three-recall", coordination)
        _, verdict = run(system, ((0, 1), (0, 1), (0, 1)), Synchronous(), max_steps=200)
        assert isinstance(verdict, Converged)
        assert verdict.state in {(0, 0), (1, 1)}

    def test_short_window_rejected(self, coordination):
        system = protocol_system("three-recall", coordination)
        with pytest.raises(InsufficientHistory):
            run(system, ((0, 1),), Synchronous())

    def test_nonstationary_never_converges_or_cycles(self):
        space = ActionSpace((2,))
        system = KRecallSystem(
            space=space, k=1, rule=lambda w, t: ((t % 2),), stationary=False
        )
        _, verdict = run(system, ((0,),), Synchronous(), max_steps=50)
        assert isinstance(verdict, BudgetExhausted)


class TestReplayWitness:
    def test_fig1_witness_cycles(self, fig1):
        witness = Witness(initial=((0, 1),), cycle=(frozenset({1, 2}),))
        assert isinstance(replay_witness(fig1, witness), Cycling)

    def test_unfair_witness_rejected(self, fig1):
        with pytest.raises(InvalidWitness):
            replay_witness(fig1, Witness(initial=((0, 1),), cycle=(frozenset(),)))
        with pytest.raises(InvalidWitness):
            replay_witness(fig1, Witness(initial=((0, 1),), cycle=(frozenset({1}),)))

    def test_convergent_system_witness_candidates_converge(self):
        system = fixture("ex-three-stable")
        for initial in system.space.states():
            for cycle in ((frozenset({1, 2}),), (frozenset({1}), frozenset({2}))):
                verdict = replay_witness(system, Witness(initial=(initial,), cycle=cycle))
                assert isinstance(verdict, Converged)


class TestTrace:
    def test_lines_format(self, fig1):
        traj, _ = run(fig1, (0, 1), Synchronous(), max_steps=10)
        lines = trace_lines(traj)
        assert lines[0] == "0\t0,1\t-"
        assert lines[1] == "1\t1,0\t{1,2}"

    def test_trace_limit_keeps_tail(self, fig1):
        traj, verdict = run(
            fig1, (0, 1), SeededRandom(seed=9, p=1.0), max_steps=50, trace_limit=10
        )
        assert isinstance(verdict, BudgetExhausted)
        assert len(traj.states) == 10
        assert traj.dropped == 41
        rows = traj.rows()
        assert rows[0][0] == 41  # global time indices survive trimming
        assert rows[-1][1] == verdict.last_state
        assert all(active is not None for _, _, active in rows)
