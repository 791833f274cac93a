"""Whole-graph analysis against independent brute-force oracles.

The convergence oracle searches, from every state, for a closed walk whose
activation labels cover all nodes and which changes the state; commitment and
spectra are checked against plain reachability closures.  Expected values in
the named-example tests were computed with these oracles and frozen.
"""

import functools
import io
import itertools
import operator
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncdyn import analyze
from asyncdyn.analyze import (
    Convergent,
    NonConvergent,
    committed_map,
    decide_convergence,
    decide_convergence_many,
    decide_r_convergence,
    scc_count,
    spectrum,
    stable_states,
    subset_to_nodes,
    successor_matrix,
    transition_graph,
)
from asyncdyn.analyze import (
    _counter_product,
    _oscillating_components,
    _oscillating_edges,
    _strong_components,
    _successor_blocks,
)
from asyncdyn.cli import export_dot
from asyncdyn.core import ActionSpace, HistorylessSystem, check_r_fair, lift_k_recall, KRecallSystem
from asyncdyn.errors import BudgetExceeded, InvalidInput
from asyncdyn.reductions import (
    FIXTURES,
    SocialGraph,
    TMDescription,
    build_disjointness,
    build_majority,
    build_snake_system,
    build_tm,
    fixture,
    snake_for_system,
    tm_family_rows,
)
from asyncdyn.simulate import Cycling, replay_witness

from _helpers import (
    all_subsets,
    edge_triples,
    naive_dynamics,
    naive_successor_csr,
    naive_r_convergent,
    naive_spectrum,
    naive_stables,
    oracle_committed,
    oracle_convergent,
    oracle_oscillating_components,
    oracle_witness_walk,
    random_lifted_system,
    random_self_independent_system,
    random_table_system,
    whole_graph_r_convergent,
)


@pytest.fixture
def fig1():
    return fixture("fig1")


def assert_witness_replays(system, verdict):
    assert isinstance(verdict, NonConvergent)
    witness = verdict.witness
    n = system.space.n if isinstance(system, (HistorylessSystem, KRecallSystem)) else system.n
    assert frozenset().union(*witness.cycle) == frozenset(range(1, n + 1))
    replay_on = system.base if hasattr(system, "base") else system
    replayed = replay_witness(replay_on, witness)
    assert isinstance(replayed, Cycling)
    assert len(set(replayed.segment)) >= 2  # the oscillation really moves


def assert_r_witness(system, verdict, r):
    """An r-witness starts on its cycle: its prefix is only the k-1 sets of
    every node that fill a k-window's history (none for a historyless
    system).  It replays as cycling, and prefix plus three cycles is r-fair."""
    assert_witness_replays(system, verdict)
    witness = verdict.witness
    n = len(witness.initial[0])
    assert witness.prefix == (frozenset(range(1, n + 1)),) * (len(witness.initial) - 1)
    assert check_r_fair(list(witness.prefix) + list(witness.cycle) * 3, r, n)


class TestTransitionGraph:
    def test_fig1_shape(self, fig1):
        edges = edge_triples(transition_graph(fig1))
        assert len({a for a, _, _ in edges}) == 4
        assert len(edges) == 16
        assert ((0, 1), frozenset({2}), (0, 0)) in edges

    def test_single_node_identity(self):
        system = HistorylessSystem.from_rule(ActionSpace((1,)), lambda s: s)
        edges = edge_triples(transition_graph(system))
        assert len({a for a, _, _ in edges}) == 1
        assert len(edges) == 2
        assert all(a == b for a, _, b in edges)

    def test_out_degree_and_empty_loops(self):
        system = random_table_system(random.Random(3), max_nodes=3)
        n = system.space.n
        per_state = {}
        for a, s, b in edge_triples(transition_graph(system)):
            per_state[a] = per_state.get(a, 0) + 1
            if not s:
                assert a == b
        assert all(count == 2 ** n for count in per_state.values())

    def test_budget(self):
        system = HistorylessSystem.from_rule(ActionSpace((4, 4, 4)), lambda s: s)
        with pytest.raises(BudgetExceeded):
            transition_graph(system, budget=10)

    def test_budget_counts_distinct_edges(self, fig1):
        edges = successor_matrix(fig1).size
        assert fig1.num_states < edges - 1  # the state budget passes at edges - 1
        assert successor_matrix(fig1, budget=edges).size == edges
        with pytest.raises(BudgetExceeded, match=f"{edges} distinct transitions"):
            successor_matrix(fig1, budget=edges - 1)

    def test_edge_budget_is_checked_before_the_edges_are_built(self):
        """Every node of a 15-node binary rule always flips: its 2^15 states
        are within the default budget, but they have 2^30 distinct
        transitions, refused before any edge is allocated."""
        system = HistorylessSystem.from_rule(ActionSpace((2,) * 15), lambda s: tuple(1 - a for a in s))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=f"{2 ** 30} distinct transitions"):
                transition_graph(system, budget=2 ** 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_edges_beyond_int32_are_refused_before_they_are_built(self):
        """16 always-flipping binary nodes have 2^32 distinct transitions:
        within a budget of 2^40, but past scipy's int32 graph indices."""
        system = HistorylessSystem.from_array_rule(ActionSpace((2,) * 16), lambda d: 1 - d)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=f"{2 ** 32} distinct transitions do not fit"):
                transition_graph(system, budget=2 ** 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @staticmethod
    def swap_first_two(sizes):
        """Nodes 1 and 2 swap their binary actions, as in fig1, and the nodes
        of the given sizes keep theirs: a state moves only where nodes 1 and 2
        disagree."""

        def rule(d):
            out = d.copy()
            out[:, [0, 1]] = d[:, [1, 0]]
            return out

        return HistorylessSystem.from_array_rule(ActionSpace((2, 2) + sizes), rule)

    def test_many_nodes_are_decided_within_the_edge_budget(self):
        """17 binary nodes: 2^17 states, 5 * 2^16 distinct transitions, within
        the default budget; the node count alone refuses nothing."""
        system = self.swap_first_two((2,) * 15)
        assert successor_matrix(system).size == 5 * 2 ** 16
        verdict = decide_convergence(system)
        assert isinstance(replay_witness(system, verdict.witness), Cycling)
        assert len(stable_states(system)) == 2 ** 16

    def test_labels_hold_31_nodes_and_refuse_32_before_any_edge_array(self):
        """Bit i-1 of an int32 label is node i, so a 32nd node does not fit;
        it is refused before any edge array exists."""
        verdict = decide_convergence(self.swap_first_two((1,) * 29))
        assert verdict.witness.cycle == (frozenset(range(1, 32)),)
        system = self.swap_first_two((1,) * 30)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="32 nodes do not fit"):
                decide_convergence(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_dot_lines_are_counted_against_the_budget_first(self, fig1):
        """``export_dot`` writes a line per state and activation subset: a
        31-node system of 4 states would have 2^33, refused before the graph
        or any line is built."""
        out = io.StringIO()
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=f"^{4 << 31} DOT edges exceed"):
                export_dot(self.swap_first_two((1,) * 29), out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1
        assert peak < 2 ** 20
        assert out.getvalue() == ""
        export_dot(fig1, out, budget=16)
        assert out.getvalue().count(" -> ") == 16
        with pytest.raises(BudgetExceeded, match="^16 DOT edges exceed the enumeration budget 15$"):
            export_dot(fig1, io.StringIO(), budget=15)

    @pytest.mark.parametrize(
        "bad_rule",
        [lambda s: (0.7, s[1]), lambda s: (0,), lambda s: (2, 0)],
        ids=["fraction", "short-row", "out-of-range"],
    )
    def test_rejects_rules_that_reaction_rejects(self, bad_rule):
        """Non-integer actions are not truncated and short rows are not
        broadcast: the analyzer refuses what ``reaction`` refuses."""
        system = HistorylessSystem.from_rule(ActionSpace((2, 2)), bad_rule)
        with pytest.raises(InvalidInput):
            system.reaction((0, 0))
        with pytest.raises(InvalidInput):
            stable_states(system)


FIXTURE_SYSTEMS = [
    ("fig1", {}),
    ("ex-three-stable", {}),
    ("ex-unbounded-latched", {}),
    ("ring", {"n": 4}),
    ("futile", {"n": 3}),
]


@pytest.mark.parametrize("name, params", FIXTURE_SYSTEMS)
def test_graph_answers_match_system_answers(name, params):
    """Every operation gives the same answer, witnesses included, on the
    compiled graph as on the system it was compiled from."""
    system = fixture(name, **params)
    graph = transition_graph(system)
    assert stable_states(graph) == stable_states(system)
    assert scc_count(graph) == scc_count(system)
    assert decide_convergence(graph) == decide_convergence(system)
    for r in (2, 4):
        assert decide_r_convergence(graph, r) == decide_r_convergence(system, r)
    assert committed_map(graph) == committed_map(system)
    for state in system.space.states():
        assert spectrum(graph, state) == spectrum(system, state)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_lifted_successors_match_transition(seed):
    """The compiled graph's successor of every window under every activation
    mask is the window that LiftedSystem.transition produces, on random
    2-recall systems over spaces of at most three states."""
    lifted = random_lifted_system(random.Random(seed))
    space = lifted.base.space
    states = list(space.states())
    successors = {(w, active): nxt for w, active, nxt in edge_triples(transition_graph(lifted))}
    assert len(successors) == len(states) ** 2 * 2 ** space.n
    for window in itertools.product(states, repeat=2):
        for mask in range(1 << space.n):
            active = subset_to_nodes(mask, space.n)
            assert successors[window, active] == lifted.transition(window, active)


class TestStableStates:
    def test_fig1(self, fig1):
        assert stable_states(fig1) == {(0, 0), (1, 1)}

    def test_ring(self):
        for n in (3, 4, 5):
            ring = fixture("ring", n=n)
            assert stable_states(ring) == {(0,) * n, (1,) * n}

    def test_futile(self):
        futile = fixture("futile", n=3)
        assert stable_states(futile) == {(0, 0, 0), (2, 2, 2)}

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30)
    def test_matches_naive_fixed_points(self, seed):
        system = random_table_system(random.Random(seed))
        assert stable_states(system) == naive_stables(system)


class TestSpectrum:
    def test_fig1_uncommitted_state_sees_both(self, fig1):
        expected = naive_spectrum(fig1, (0, 1))  # oracle: BFS closure
        assert expected == {(0, 0), (1, 1)}
        assert spectrum(fig1, (0, 1)) == expected

    def test_stable_state_is_its_own_spectrum(self, fig1):
        for b in stable_states(fig1):
            assert spectrum(fig1, b) == {b}

    def test_futile_middle_is_empty(self):
        futile = fixture("futile", n=3)
        assert spectrum(futile, (1, 1, 1)) == frozenset()

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_matches_reachability_oracle(self, seed):
        rng = random.Random(seed)
        system = random_table_system(rng)
        state = tuple(rng.randrange(k) for k in system.space.sizes)
        assert spectrum(system, state) == naive_spectrum(system, state)


class TestCommittedMap:
    def test_fig1(self, fig1):
        cmap = committed_map(fig1)
        assert cmap[(0, 0)] == (0, 0)
        assert cmap[(1, 1)] == (1, 1)
        assert cmap[(0, 1)] is None
        assert cmap[(1, 0)] is None
        for state in fig1.space.states():
            assert cmap[state] == oracle_committed(fig1, state)

    def test_three_stable_example(self):
        """Every stable state commits to itself; the origin reaches all three
        stable states, so it is uncommitted despite the system converging."""
        system = fixture("ex-three-stable")
        cmap = committed_map(system)
        for b in stable_states(system):
            assert cmap[b] == b
        assert cmap[(0, 0)] is None
        assert len(spectrum(system, (0, 0))) == 3

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_matches_per_state_oracle(self, seed):
        system = random_table_system(random.Random(seed), max_nodes=2, max_actions=3)
        cmap = committed_map(system)
        for state in system.space.states():
            assert cmap[state] == oracle_committed(system, state)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_consistency_with_spectrum(self, seed):
        system = random_table_system(random.Random(seed))
        cmap = committed_map(system)
        convergent = isinstance(decide_convergence(system), Convergent)
        for state in system.space.states():
            target = cmap[state]
            if target is not None:
                assert spectrum(system, state) == {target}
            elif convergent:
                # uncommitted with no reachable oscillation: several options
                assert len(spectrum(system, state)) >= 2


class TestDecideConvergence:
    def test_fig1_witness(self, fig1):
        verdict = decide_convergence(fig1)
        assert verdict.witness.initial == ((0, 1),)
        assert verdict.witness.cycle == (frozenset({1, 2}),)
        assert_witness_replays(fig1, verdict)

    def test_three_stable_example_convergent(self):
        assert decide_convergence(fixture("ex-three-stable")) == Convergent()

    def test_latched_example_convergent(self):
        assert decide_convergence(fixture("ex-unbounded-latched")) == Convergent()

    def test_single_state(self):
        system = HistorylessSystem.from_rule(ActionSpace((1, 1)), lambda s: s)
        assert decide_convergence(system) == Convergent()

    def test_exhaustive_two_node_binary_systems(self):
        """All 256 reaction tables over the 2x2 space against the closed-walk
        oracle, witnesses replayed."""
        space = ActionSpace((2, 2))
        states = list(space.states())
        for rows in itertools.product(states, repeat=4):
            system = HistorylessSystem.from_table(space, rows)
            verdict = decide_convergence(system)
            assert isinstance(verdict, Convergent) == oracle_convergent(system)
            if isinstance(verdict, NonConvergent):
                assert_witness_replays(system, verdict)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_random_systems_match_oracle(self, seed):
        system = random_table_system(random.Random(seed), max_nodes=3, max_actions=3)
        verdict = decide_convergence(system)
        assert isinstance(verdict, Convergent) == oracle_convergent(system)
        if isinstance(verdict, NonConvergent):
            assert_witness_replays(system, verdict)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_multiple_stable_self_independent_never_converges(self, seed):
        """Self-independent dynamics with two or more fixed points always
        admit a fair oscillation."""
        system = random_self_independent_system(random.Random(seed))
        if len(stable_states(system)) >= 2:
            verdict = decide_convergence(system)
            assert_witness_replays(system, verdict)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_committed_neighbours_share_target(self, seed):
        """In self-independent systems, committed states differing in one
        coordinate are committed to the same stable state."""
        system = random_self_independent_system(random.Random(seed), max_nodes=3)
        cmap = committed_map(system)
        space = system.space
        for state in space.states():
            t1 = cmap[state]
            if t1 is None:
                continue
            for i in range(space.n):
                for alt in range(space.sizes[i]):
                    if alt == state[i]:
                        continue
                    other = state[:i] + (alt,) + state[i + 1:]
                    t2 = cmap[other]
                    if t2 is not None:
                        assert t1 == t2

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_two_stables_imply_an_uncommitted_state(self, seed):
        system = random_self_independent_system(random.Random(seed), max_nodes=3)
        if len(stable_states(system)) >= 2:
            cmap = committed_map(system)
            assert None in cmap.values()


def search_every_leg(graph, start, goal):
    """``analyze._path`` as it was before a leg that starts at its goal
    skipped its search: every leg runs one breadth-first search."""
    order, parent = analyze.breadth_first_order(graph.adjacency, start, return_predecessors=True)
    v = reached = int(order[np.argmax(goal[order])])
    path = []
    while v != start:
        u = int(parent[v])
        lo = graph.indptr[u]
        path.append(int(graph.label[lo + graph.dst[lo : graph.indptr[u + 1]].tolist().index(v)]))
        v = u
    return path[::-1], reached


def witness_systems():
    """Every system fixture, snake and disjointness systems at n=5, and 50
    random table systems."""
    systems = [fixture(name) for name, entry in FIXTURES.items() if entry.kind == "system"]
    systems.append(build_snake_system(5))
    systems += [build_disjointness(5, A, B) for A, B in [(set(), set()), ({1, 2}, {2, 3}), ({1, 3}, {2}), ({1}, {1})]]
    rng = random.Random(20)
    systems += [random_table_system(rng) for _ in range(50)]
    return systems


class TestWitnessWalk:
    """A leg of the witness walk that starts at its goal is the empty path,
    found without a search; the witnesses are those of a search per leg."""

    def test_a_leg_that_starts_at_its_goal_runs_no_search(self, monkeypatch, fig1):
        calls, search = [], analyze.breadth_first_order

        def counted(graph, start, **kw):
            calls.append(start)
            return search(graph, start, **kw)

        monkeypatch.setattr(analyze, "breadth_first_order", counted)
        succ = transition_graph(fig1).succ
        goal = np.arange(succ.rows) == fig1.space.encode((1, 0))
        assert analyze._path(succ, 2, goal) == ([], 2) and calls == []
        assert analyze._path(succ, 1, goal) == search_every_leg(succ, 1, goal) == ([3], 2)
        assert calls == [1, 1]

    def test_witnesses_equal_those_of_a_search_per_leg_and_replay(self):
        nonconvergent, at_goal, path = 0, [], analyze._path

        def count_legs_at_their_goal(graph, start, goal):
            at_goal.append(bool(goal[start]))
            return path(graph, start, goal)

        for system in witness_systems():
            graph = transition_graph(system)
            with mock.patch.object(analyze, "_path", count_legs_at_their_goal):
                verdict = decide_convergence(graph)
            with mock.patch.object(analyze, "_path", search_every_leg):
                assert decide_convergence(graph) == verdict
            if isinstance(verdict, NonConvergent):
                nonconvergent += 1
                assert_witness_replays(system, verdict)
        assert nonconvergent >= 20 and 0 < sum(at_goal) < len(at_goal)


class TestDecideRConvergence:
    def test_ring_threshold(self):
        for n in (4, 5):
            ring = fixture("ring", n=n)
            for r in range(1, n + 1):
                verdict = decide_r_convergence(ring, r)
                assert isinstance(verdict, Convergent) == (r < n - 1)
                if isinstance(verdict, NonConvergent):
                    assert_r_witness(ring, verdict, r)

    def test_ring_5_witness_takes_no_cover_detour(self):
        """Every product cycle activates every node, so the walk returns to
        its first state-changing edge by the shortest path."""
        ring = fixture("ring", n=5)
        verdict = decide_r_convergence(ring, 5)
        assert len(verdict.witness.cycle) == 6
        assert_r_witness(ring, verdict, 5)

    def test_product_keys_beyond_int32(self):
        """One always-flipping node and nine single-action nodes at r=10: the
        product keys state * 10^10 + counters exceed 2^31."""
        system = HistorylessSystem.from_rule(ActionSpace((2,) + (1,) * 9), lambda s: (1 - s[0],) + s[1:])
        assert_r_witness(system, decide_r_convergence(system, 10), 10)

    def test_r_must_be_positive(self, fig1):
        with pytest.raises(InvalidInput):
            decide_r_convergence(fig1, 0)

    def test_monotone_in_r(self):
        ring = fixture("ring", n=4)
        verdicts = [
            isinstance(decide_r_convergence(ring, r), Convergent) for r in range(1, 6)
        ]
        # once non-convergent at some r, non-convergent for every larger r
        assert verdicts == sorted(verdicts, reverse=True)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_convergent_implies_r_convergent(self, seed):
        system = random_table_system(random.Random(seed), max_nodes=3, max_actions=2)
        if isinstance(decide_convergence(system), Convergent):
            for r in (1, 2, 3):
                assert isinstance(decide_r_convergence(system, r), Convergent)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_r_witnesses_replay_and_are_r_fair(self, seed):
        system = random_table_system(random.Random(seed), max_nodes=3, max_actions=2)
        for r in (2, 3):
            verdict = decide_r_convergence(system, r)
            if isinstance(verdict, NonConvergent):
                assert_r_witness(system, verdict, r)

    def test_budget(self, fig1):
        """The budget counts the product transitions examined: 34 for fig1 at
        r=8, though its graph has only 10 edges over 4 states."""
        assert successor_matrix(fig1).size == 10
        assert isinstance(decide_r_convergence(fig1, 8, budget=34), NonConvergent)
        with pytest.raises(BudgetExceeded, match="34 product transitions"):
            decide_r_convergence(fig1, 8, budget=33)

    def test_no_product_without_an_scc_of_two_or_more_states(self, fig1):
        """Every step of the halving system moves down, so every SCC is one
        state: no component is a candidate, the scan gathers nothing per
        edge, and a budget of one product transition is never spent.  fig1,
        which has such an SCC, builds its product and exceeds that budget."""
        graph = transition_graph(HistorylessSystem.from_array_rule(ActionSpace((5, 5)), lambda d: d // 2))
        assert graph.components[0] == graph.succ.rows
        osc, internal, row_labels = _oscillating_components(graph.succ, graph.components, 3)
        assert not osc.any() and internal is None and row_labels is None
        for r in (1, 2, 5):
            assert decide_r_convergence(graph, r, budget=1) == Convergent()
        with pytest.raises(BudgetExceeded, match="product transitions"):
            decide_r_convergence(transition_graph(fig1), 1, budget=1)

    @pytest.mark.parametrize(
        "kind, n, rs",
        [("ring", n, range(1, n + 1)) for n in (3, 4, 5, 6)]
        + [("snake", 5, range(1, 7)), ("snake", 6, range(1, 9)), ("futile", 3, range(1, 5)), ("fig1", 2, range(1, 9))],
    )
    def test_fixtures_match_the_whole_graph_product(self, kind, n, rs):
        """The product of the oscillating components' edges gives the
        verdict of the product of the whole graph, and its witnesses start on
        their cycle."""
        system = build_snake_system(n) if kind == "snake" else fixture(kind, **({"n": n} if kind != "fig1" else {}))
        graph = transition_graph(system)
        for r in rs:
            verdict = decide_r_convergence(graph, r)
            assert isinstance(verdict, Convergent) == whole_graph_r_convergent(graph, r, budget=2 ** 22)
            if isinstance(verdict, NonConvergent):
                assert_r_witness(system, verdict, r)

    def test_snake_7_threshold_at_the_default_budget(self):
        """|S| = 14 for n = 7: both sides of the threshold are decided at the
        default budget, the product examining 33,075 and 41,128 transitions
        where the whole graph's examined about 6.1M and 8.0M."""
        system = build_snake_system(7)
        graph = transition_graph(system)
        graph.components
        assert isinstance(decide_r_convergence(graph, 13), Convergent)
        tracemalloc.start()
        try:
            verdict = decide_r_convergence(graph, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20
        assert_r_witness(system, verdict, 14)
        with pytest.raises(BudgetExceeded, match="41128 product transitions"):
            decide_r_convergence(graph, 14, budget=41_127)

    def test_snake_6_threshold_at_the_default_budget(self):
        """|S| = 8 for n = 6: only the reached product states are built, so
        the threshold is decided within the default budget."""
        system = build_snake_system(6)
        assert len(snake_for_system(6)) == 8
        assert isinstance(decide_r_convergence(system, 7), Convergent)
        tracemalloc.start()
        try:
            verdict = decide_r_convergence(system, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert_r_witness(system, verdict, 8)

    def test_product_keys_beyond_int64_are_refused_before_allocation(self):
        """16 nodes at r=16 have 16^16 = 2^64 product keys per state.  With
        single-action nodes no component oscillates, so there is no product
        and the answer is Convergent; when node 1 flips between two actions,
        the two states oscillate and their 2^65 keys are refused."""
        fixed = transition_graph(HistorylessSystem.from_rule(ActionSpace((1,) * 16), lambda s: s))
        flip = transition_graph(HistorylessSystem.from_rule(ActionSpace((2,) + (1,) * 15), lambda s: (1 - s[0],) + s[1:]))
        tracemalloc.start()
        try:
            assert decide_r_convergence(fixed, 16, budget=2 ** 62) == Convergent()
            with pytest.raises(BudgetExceeded, match="overflow int64"):
                decide_r_convergence(flip, 16, budget=2 ** 62)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


class TestLiftedAnalysis:
    def test_lifted_stables_are_fixed_windows(self, fig1):
        wrapped = KRecallSystem(
            space=fig1.space, k=2, rule=lambda w: fig1.reaction(w[-1]), stationary=True
        )
        lifted = lift_k_recall(wrapped)
        stables = stable_states(lifted)
        assert stables == {((0, 0), (0, 0)), ((1, 1), (1, 1))}
        for window in stables:
            assert spectrum(lifted, window) == {window}


# ---------------------------------------------------------------------------
# The sparse transition graph against the naive oracles
# ---------------------------------------------------------------------------

SYSTEM_KINDS = ["table", "self-independent", "lifted"]


def random_system(kind, rng, max_actions=3):
    """A random table or self-independent system over at most three nodes,
    or a lifted 2-recall system over at most three states."""
    if kind == "table":
        return random_table_system(rng, max_nodes=3, max_actions=max_actions)
    if kind == "self-independent":
        return random_self_independent_system(rng, max_nodes=3, max_actions=max_actions)
    return random_lifted_system(rng)


system_cases = given(st.sampled_from(SYSTEM_KINDS), st.integers(min_value=0, max_value=10 ** 6))


class TestSparseGraphAgainstOracles:
    @system_cases
    @settings(max_examples=100, deadline=None)
    def test_edges_match_naive_step(self, kind, seed):
        system = random_system(kind, random.Random(seed))
        graph = transition_graph(system)
        states, step, n = naive_dynamics(system)
        edges = edge_triples(graph)
        assert len(edges) == len(states) * 2 ** n
        assert all(b == step(a, active) for a, active, b in edges)

    @system_cases
    @settings(max_examples=100, deadline=None)
    def test_one_edge_per_distinct_successor_with_the_largest_label(self, kind, seed):
        system = random_system(kind, random.Random(seed))
        graph = transition_graph(system)
        _, step, n = naive_dynamics(system)
        succ = graph.succ
        for u in range(succ.rows):
            a = graph.node(u)
            lo, hi = succ.indptr[u], succ.indptr[u + 1]
            row = [graph.node(int(v)) for v in succ.dst[lo:hi]]
            assert sorted(row) == sorted({step(a, s) for s in all_subsets(n)})
            for b, mask in zip(row, succ.label[lo:hi].tolist()):
                label = subset_to_nodes(mask, n)
                assert step(a, label) == b
                assert all(s <= label for s in all_subsets(n) if step(a, s) == b)

    @system_cases
    @settings(max_examples=100, deadline=None)
    def test_decide_convergence_matches_oracle(self, kind, seed):
        """The verdict matches the oracle, and the witness is the one the
        plain-dict walk confined to the component finds."""
        system = random_system(kind, random.Random(seed))
        graph = transition_graph(system)
        verdict = decide_convergence(graph)
        assert isinstance(verdict, Convergent) == oracle_convergent(system)
        walk = oracle_witness_walk(graph)
        assert (walk is None) == isinstance(verdict, Convergent)
        if isinstance(verdict, NonConvergent):
            assert verdict.witness == graph.witness(*walk)
            assert_witness_replays(system, verdict)

    @system_cases
    @settings(max_examples=60, deadline=None)
    def test_committed_map_and_spectrum_match_oracles(self, kind, seed):
        system = random_system(kind, random.Random(seed), max_actions=2)
        cmap = committed_map(system)
        for state in naive_dynamics(system)[0]:
            assert cmap[state] == oracle_committed(system, state)
            assert spectrum(system, state) == naive_spectrum(system, state)

    @system_cases
    @settings(max_examples=100, deadline=None)
    def test_decide_r_convergence_matches_the_whole_graph_product(self, kind, seed):
        """Restricting the product to the oscillating components' edges
        keeps every verdict, and every witness starts on its cycle."""
        system = random_system(kind, random.Random(seed))
        graph = transition_graph(system)
        for r in (1, 2, 3, 4):
            verdict = decide_r_convergence(graph, r)
            assert isinstance(verdict, Convergent) == whole_graph_r_convergent(graph, r)
            if isinstance(verdict, NonConvergent):
                assert_r_witness(system, verdict, r)

    @system_cases
    @settings(max_examples=80, deadline=None)
    def test_decide_r_convergence_matches_oracle(self, kind, seed):
        system = random_system(kind, random.Random(seed), max_actions=2)
        graph = transition_graph(system)
        for r in (1, 2, 3):
            verdict = decide_r_convergence(graph, r)
            assert isinstance(verdict, Convergent) == naive_r_convergent(system, r)
            if isinstance(verdict, NonConvergent):
                assert_r_witness(system, verdict, r)


def random_family(seed, self_independent):
    """A space of at most four nodes and up to 12 random systems over it, as
    (space, (B, N, n) rows).  A self-independent system's node i reads only
    the others: its column is constant along axis i."""
    gen = np.random.default_rng(seed)
    space = ActionSpace(tuple(gen.integers(1, 4, size=gen.integers(1, 5)).tolist()))
    rows = gen.integers(0, space.sizes, size=(gen.integers(1, 13), space.num_states, space.n))
    if self_independent:
        for i in range(space.n):
            column = rows[:, :, i].reshape((-1,) + space.sizes)
            rows[:, :, i] = np.broadcast_to(column.take([0], axis=i + 1), column.shape).reshape(rows.shape[:2])
    return space, rows


class TestDecideConvergenceMany:
    @pytest.mark.parametrize("self_independent", [False, True])
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_one_by_one(self, self_independent, seed):
        space, rows = random_family(seed, self_independent)
        expected = [
            isinstance(decide_convergence(HistorylessSystem.from_table(space, r)), Convergent) for r in rows
        ]
        assert decide_convergence_many(space, rows).tolist() == expected
        # a budget of the largest system's edges splits the family into chunks
        edges = [successor_matrix(HistorylessSystem.from_table(space, r)).size for r in rows]
        assert decide_convergence_many(space, rows, budget=max(edges)).tolist() == expected

    def test_one_chunk_per_system_at_the_tightest_budget(self):
        space = ActionSpace((2, 2, 2))
        copy_next = space.digits()[:, [1, 2, 0]]  # node i copies node i+1
        flip = 1 - space.digits()  # every node flips: 8 edges per state
        rows = np.stack([space.digits(), copy_next, flip, fixture("ex-unbounded-latched").reaction_rows()])
        expected = [True, False, False, True]
        for budget in (8 * 8, 8 * 8 + 1, 10 ** 6):
            assert decide_convergence_many(space, rows, budget).tolist() == expected

    def test_empty_family(self):
        space = ActionSpace((2, 2))
        assert decide_convergence_many(space, np.zeros((0, 4, 2), dtype=np.int64)).tolist() == []

    def test_refuses_malformed_rows(self):
        space = ActionSpace((2, 2))
        with pytest.raises(InvalidInput):
            decide_convergence_many(space, np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(InvalidInput):
            decide_convergence_many(space, np.zeros((1, 3, 2), dtype=np.int64))
        with pytest.raises(InvalidInput):
            decide_convergence_many(space, np.full((1, 4, 2), 2))
        with pytest.raises(InvalidInput):
            decide_convergence_many(space, np.full((1, 4, 2), 0.5))

    def test_rows_it_does_not_own_are_checked_where_they_lie(self):
        """A strided slice of a larger array is read in place: decided as
        its copy is, in any integer dtype, and refused when an action is
        out of range or not an integer."""
        space = ActionSpace((2, 2))
        rows = np.stack([space.digits(), space.digits()[:, ::-1], 1 - space.digits()])
        expected = decide_convergence_many(space, rows.copy()).tolist()
        assert expected == [True, False, False]
        for dtype, bads in ((np.int64, (2, -1, np.iinfo(np.int64).min)), (np.int32, (2, -1)), (np.uint8, (2, 255))):
            wide = rows.repeat(2, axis=2).astype(dtype)
            assert decide_convergence_many(space, wide[:, :, ::2]).tolist() == expected
            for bad in bads:
                wide[2, 3, 2] = bad
                with pytest.raises(InvalidInput, match="out of range"):
                    decide_convergence_many(space, wide[:, :, ::2])
        with pytest.raises(InvalidInput, match="not an integer"):
            decide_convergence_many(space, rows.repeat(2, axis=2).astype(float)[:, :, ::2])

    def test_a_machine_batch_is_decided_without_a_copy(self):
        """The first batch of ``scripts/tm_equivalence.py``: 4,096 two-state
        machines, whose (4,096, 144, 3) int64 rows take 13.5 MiB.  The rows
        are read and never kept, so they are checked where they lie: the call
        peaks 13.5 MiB below the 75.4 MiB it took when it copied them, leaves
        them unchanged and decides each machine as ``decide_convergence``
        does on it alone."""
        states = ("q0", "q1", "h")
        targets = [(q, s, m) for q in states for s in range(2) for m in (-1, 0, 1)]
        keys = [(q, s) for q in states[:2] for s in range(2)]
        machines = [
            TMDescription(states, frozenset({"h"}), 2, 2, dict(zip(keys, combo)))
            for combo in itertools.islice(itertools.product(targets, repeat=len(keys)), 4096)
        ]
        space, rows = tm_family_rows(machines)
        before = rows.copy()
        decide_convergence_many(space, rows[:1])  # whatever the first call builds and keeps
        tracemalloc.start()
        try:
            verdicts = decide_convergence_many(space, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (75.4 - 13) * (1 << 20)
        assert np.array_equal(rows, before)
        assert verdicts.tolist() == [isinstance(decide_convergence(build_tm(tm)), Convergent) for tm in machines]

    def test_a_system_over_the_budget_is_refused(self):
        space = ActionSpace((2,) * 4)
        rows = np.stack([space.digits(), 1 - space.digits()])
        assert decide_convergence_many(space, rows[:1], budget=16).tolist() == [True]
        with pytest.raises(BudgetExceeded):
            decide_convergence_many(space, rows, budget=16 * 16 - 1)


# ---------------------------------------------------------------------------
# The oscillation scan: one reduction per CSR row
# ---------------------------------------------------------------------------

SCAN_KINDS = SYSTEM_KINDS + ["family", "self-independent family"]
PRODUCT_CASES = [("ring", n, r) for n in (3, 4, 5) for r in range(1, 7)] + [("snake", 5, r) for r in range(1, 8)]


def scan_graph(kind, seed):
    """(graph, n): the successor graph of a random system, or the one block
    CSR that ``decide_convergence_many`` builds for a random family."""
    if kind.endswith("family"):
        space, rows = random_family(seed, kind.startswith("self-independent"))
        return _successor_blocks(space, rows.reshape(-1, space.n), space.num_states, None), space.n
    graph = transition_graph(random_system(kind, random.Random(seed)))
    return graph.succ, graph.n


def product_graph(kind, n, r):
    """(r-counter product, underlying state of every product node): the
    product that ``decide_r_convergence`` scans."""
    system = fixture("ring", n=n) if kind == "ring" else build_snake_system(n)
    graph = transition_graph(system)
    product, state = _counter_product(_oscillating_edges(graph), n, r, None)
    return product, state.tolist()


def plain_edges(succ):
    indptr, dst = succ.indptr.tolist(), succ.dst.tolist()
    return [(u, dst[e]) for u in range(succ.rows) for e in range(indptr[u], indptr[u + 1])]


def assert_scan_matches_oracle(succ, cover, changing):
    """The oscillating components, against the oracle that reads the
    ``changing`` edges (one bool per edge) where the scan reads only the
    component sizes; and the internal edges and each row's OR of internal
    labels, computed only while ``cover`` is set and some component has an
    internal changing edge, against plain lists over the edge list."""
    components = _strong_components(succ)
    osc, internal, row_labels = _oscillating_components(succ, components, cover)
    assert osc.tolist() == oracle_oscillating_components(succ, components, cover, changing)
    if not cover or not any(oracle_oscillating_components(succ, components, 0, changing)):
        assert internal is None and row_labels is None
        return
    labels, indptr, label = components[1].tolist(), succ.indptr.tolist(), succ.label.tolist()
    inside = [labels[u] == labels[v] for u, v in plain_edges(succ)]
    assert internal.tolist() == inside
    rows = [range(indptr[u], indptr[u + 1]) for u in range(succ.rows)]
    ored = [functools.reduce(operator.or_, (label[e] for e in row if inside[e]), 0) for row in rows]
    assert row_labels.tolist() == ored


class TestOscillationScan:
    @given(st.sampled_from(SCAN_KINDS), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=120, deadline=None)
    def test_systems_and_family_blocks_match_oracle(self, kind, seed):
        """With every node, with a random subset of the nodes and with no
        node to cover; the state-changing edges are those whose ends differ,
        so with no node to cover this checks the lemma: a component has an
        internal changing edge iff it has two or more nodes."""
        succ, n = scan_graph(kind, seed)
        changing = [u != v for u, v in plain_edges(succ)]
        for cover in ((1 << n) - 1, random.Random(seed).randrange(1 << n), 0):
            assert_scan_matches_oracle(succ, cover, changing)

    @pytest.mark.parametrize("kind, n, r", PRODUCT_CASES)
    def test_r_counter_products_match_oracle(self, kind, n, r):
        """The lemma in the product, where an edge changes the state iff
        the underlying states of its ends differ."""
        product, state = product_graph(kind, n, r)
        assert_scan_matches_oracle(product, 0, [state[u] != state[v] for u, v in plain_edges(product)])

    @given(st.sampled_from(SCAN_KINDS), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=120, deadline=None)
    def test_every_row_of_a_successor_graph_has_an_edge(self, kind, seed):
        """``reduceat`` over the row starts reads an empty row as the next
        row's first edge, so the scan relies on every row having one: here
        the step of the empty activation set, and in the r-counter product
        the edge activating every node, which resets every counter."""
        succ, n = scan_graph(kind, seed)
        assert np.diff(succ.indptr).min() >= 1
        for r in (1, 2, 3):
            product = _counter_product(succ, n, r, None)[0]
            assert np.diff(product.indptr).min() >= 1

    @given(st.sampled_from(SCAN_KINDS), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=120, deadline=None)
    def test_the_last_edge_of_every_row_activates_every_node(self, kind, seed):
        """Row a's last edge activates all of D(a), so it is labelled with
        every node: the r-counter product keeps it in every row."""
        succ, n = scan_graph(kind, seed)
        assert (succ.label[succ.indptr[1:] - 1] == (1 << n) - 1).all()

    @system_cases
    @settings(max_examples=100, deadline=None)
    def test_the_product_reads_the_oscillating_edges_and_each_last_edge(self, kind, seed):
        """The sub-graph that the r-counter product is built on keeps, in
        CSR order, exactly the internal edges of the oscillating components
        and the last edge of every row, so no row of it, or of its product,
        is empty.  With no oscillating component there is no sub-graph."""
        graph = transition_graph(random_system(kind, random.Random(seed)))
        succ, n = graph.succ, graph.n
        labels = graph.components[1].tolist()
        oscillating = oracle_oscillating_components(succ, graph.components, (1 << n) - 1, [u != v for u, v in plain_edges(succ)])
        if not any(oscillating):
            assert _oscillating_edges(graph) is None
            return
        indptr = succ.indptr.tolist()
        kept = [
            (u, v, s)
            for (u, v), s, e in zip(plain_edges(succ), succ.label.tolist(), range(succ.size))
            if e == indptr[u + 1] - 1 or (labels[u] == labels[v] and oscillating[labels[u]])
        ]
        sub = _oscillating_edges(graph)
        assert sub.rows == succ.rows
        assert [(u, v, s) for (u, v), s in zip(plain_edges(sub), sub.label.tolist())] == kept
        assert np.diff(sub.indptr).min() >= 1
        for r in (1, 2, 3):
            assert np.diff(_counter_product(sub, n, r, None)[0].indptr).min() >= 1

    @pytest.mark.parametrize("kind, n, r", PRODUCT_CASES)
    def test_every_row_of_a_fixture_product_has_an_edge(self, kind, n, r):
        assert np.diff(product_graph(kind, n, r)[0].indptr).min() >= 1

    def test_peak_bytes_per_edge_on_a_large_majority_graph(self):
        """A G(12, 0.6) majority graph (perfbench's generator, seed 1) has
        877,055 edges.  With its SCCs computed beforehand, the scan and the
        witness walk hold a bool mask and one or two int32 arrays per edge at
        a time: at most 12 bytes per edge.  An intp index array of the
        internal edges (56% of them) kept during the scan exceeds that."""
        graph = transition_graph(large_majority())
        assert graph.succ.size == 877_055
        graph.components
        tracemalloc.start()
        try:
            verdict = decide_convergence(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(verdict, NonConvergent)
        assert peak <= 12 * graph.succ.size


@functools.cache
def large_majority():
    """The majority system of a G(12, 0.6) graph (perfbench's generator,
    seed 1): 4096 states and 877,055 distinct transitions."""
    rng, users = random.Random(1), 12
    while True:
        edges = [(u, v) for u in range(1, users + 1) for v in range(u + 1, users + 1) if rng.random() < 0.6]
        if {x for e in edges for x in e} == set(range(1, users + 1)):
            return build_majority(SocialGraph(users, tuple(edges)))


# ---------------------------------------------------------------------------
# The successor build: one prefix sum over packed edge words, in chunks
# ---------------------------------------------------------------------------


def build_inputs(kind, seed):
    """(space, rows, block) of a random system or family, as
    ``_successor_blocks`` takes them."""
    if kind.endswith("family"):
        space, rows = random_family(seed, kind.startswith("self-independent"))
        return space, rows.reshape(-1, space.n), space.num_states
    system = random_system(kind, random.Random(seed))
    rows = system.reaction_rows()
    return (system.space if isinstance(system, HistorylessSystem) else system.base.space), rows, rows.shape[0]


def assert_built_like_the_naive_csr(space, rows, block):
    """The int32 CSR equals the naive one with the default chunks and with
    chunks of 1, 2, 7 and 64 edges (7 rounds down to 4): every row wider
    than a chunk is cut into pieces."""
    expected = naive_successor_csr(space, rows, block)
    for edges in (analyze._CHUNK_EDGES, 1, 2, 7, 64):
        with mock.patch.object(analyze, "_CHUNK_EDGES", edges):
            succ = _successor_blocks(space, rows, block, None)
        assert all(a.dtype == np.int32 for a in (succ.indptr, succ.dst, succ.label))
        assert [succ.indptr.tolist(), succ.dst.tolist(), succ.label.tolist()] == list(expected)


class TestSuccessorBuild:
    @given(st.sampled_from(SCAN_KINDS), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_random_systems_and_family_blocks(self, kind, seed):
        """Random table, self-independent and lifted systems, and the block
        CSR of random families (``decide_convergence_many``'s)."""
        assert_built_like_the_naive_csr(*build_inputs(kind, seed))

    @pytest.mark.parametrize(
        "system",
        [
            TestTransitionGraph.swap_first_two((1,) * 29),  # a 31-node label
            HistorylessSystem.from_array_rule(ActionSpace((2,) * 8), lambda d: 1 - d),  # 256 edges a row
            HistorylessSystem.from_array_rule(ActionSpace((3, 4, 2)), lambda d: d[:, ::-1] % [3, 4, 2]),
            HistorylessSystem.from_array_rule(ActionSpace((5, 5)), lambda d: d // 2),  # every step down
            lift_k_recall(KRecallSystem(ActionSpace((2, 3)), 2, lambda w: (1 - w[0][0], (w[1][1] + 1) % 3))),
        ],
        ids=["31-nodes", "flip-8", "mixed-radix", "halving", "lifted"],
    )
    def test_wide_rows_and_negative_steps(self, system):
        rows = system.reaction_rows()
        space = system.space if isinstance(system, HistorylessSystem) else system.base.space
        assert_built_like_the_naive_csr(space, rows, rows.shape[0])

    def test_empty_family_and_all_fixed_systems(self):
        space = ActionSpace((2, 3, 2))
        empty = _successor_blocks(space, np.zeros((0, space.n), dtype=np.int64), space.num_states, None)
        assert (empty.indptr.tolist(), empty.size) == ([0], 0)
        assert decide_convergence_many(space, np.zeros((0, 12, 3), dtype=np.int64)).tolist() == []
        fixed = HistorylessSystem.from_array_rule(space, lambda d: d)
        succ = successor_matrix(fixed)
        assert succ.indptr.tolist() == list(range(13))
        assert succ.dst.tolist() == list(range(12)) and succ.label.tolist() == [7] * 12
        assert isinstance(decide_convergence(fixed), Convergent)
        assert stable_states(fixed) == frozenset(space.states())
        assert decide_convergence_many(space, np.stack([space.digits()] * 3)).tolist() == [True] * 3

    def test_peak_bytes_per_edge_of_the_build(self):
        """``dst`` and ``label`` take 8 bytes per edge; the chunks keep every
        temporary of the build within 2 more.  In one chunk of 2^20 edges
        the same build peaks at about 29.6 bytes per edge."""
        system = large_majority()
        system.reaction_rows()
        tracemalloc.start()
        try:
            succ = successor_matrix(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert succ.size == 877_055
        assert peak <= 10 * succ.size

    def test_the_searches_copy_no_edge_array(self):
        """The scipy matrix wraps ``dst`` and ``indptr`` and weighs every edge
        with one stride-0 float, so the SCC pass allocates well under a byte
        per edge; a float64 weight array would take 8."""
        graph = transition_graph(large_majority())
        tracemalloc.start()
        try:
            graph.components
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= graph.succ.size
