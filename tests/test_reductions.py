"""Gadget builders: circuits, majority, BGP, Turing machines, snakes,
disjointness, and the named fixtures."""

import itertools
import random
import time

import pytest

from asyncdyn.analyze import (
    Convergent,
    NonConvergent,
    decide_convergence,
    decide_r_convergence,
    spectrum,
    stable_states,
)
from asyncdyn.core import ActionSpace, HistorylessSystem, check_self_independent
from asyncdyn.errors import BudgetExceeded, InvalidInput
from asyncdyn.reductions import (
    FIXTURES,
    BgpInstance,
    CircuitDescription,
    GateSpec,
    Snake,
    SocialGraph,
    TMDescription,
    _cube_columns,
    build_bgp,
    build_circuit,
    build_disjointness,
    build_majority,
    build_snake_system,
    build_tm,
    disjointness_snake,
    fixture,
    is_snake,
    longest_snake,
    snake_for_system,
)
from asyncdyn.simulate import Cycling, replay_witness

from _helpers import (
    enumerate_tms,
    naive_stables,
    oracle_always_stabilizes,
    oracle_max_induced_cycle,
    oracle_shc,
    orientation_rule,
    tm_head_codec,
)


class TestCircuits:
    def test_inverter_feedback_has_no_stable_state(self):
        circuit = CircuitDescription(
            inputs=(),
            gates=(GateSpec(name="not", inputs=("not",), table=(1, 0)),),
        )
        system = build_circuit(circuit)
        assert system.reaction((0, 1)) == (0, 0)  # node 2 is the identity node "not.id"
        assert system.num_states == 4
        assert stable_states(system) == frozenset()
        assert isinstance(decide_convergence(system), NonConvergent)
        assert check_self_independent(system).ok

    def test_cross_coupled_buffers(self):
        circuit = CircuitDescription(
            inputs=(),
            gates=(
                GateSpec(name="g1", inputs=("g2",), table=(0, 1)),
                GateSpec(name="g2", inputs=("g1",), table=(0, 1)),
            ),
        )
        system = build_circuit(circuit)
        assert stable_states(system) == {(0, 0), (1, 1)}
        assert isinstance(decide_convergence(system), NonConvergent)

    def test_constant_input_buffer_converges(self):
        circuit = CircuitDescription(
            inputs=(("x", 1),),
            gates=(GateSpec(name="buf", inputs=("x",), table=(0, 1)),),
        )
        system = build_circuit(circuit)
        assert stable_states(system) == {(1, 1)}
        assert decide_convergence(system) == Convergent()

    def test_stable_states_are_consistent_assignments(self):
        circuit = CircuitDescription(
            inputs=(("x", 1), ("y", 0)),
            gates=(
                GateSpec(name="and", inputs=("x", "y"), table=(0, 0, 0, 1)),
                GateSpec(name="or", inputs=("and", "y"), table=(0, 1, 1, 1)),
            ),
        )
        system = build_circuit(circuit)
        assert stable_states(system) == {(1, 0, 0, 0)}
        assert check_self_independent(system).ok

    def test_validation(self):
        with pytest.raises(InvalidInput):
            GateSpec(name="g", inputs=("a", "b"), table=(0, 1))
        with pytest.raises(InvalidInput):
            CircuitDescription(inputs=(("x", 1),), gates=(GateSpec("g", ("z",), (0, 1)),))


class TestMajority:
    def test_single_edge_is_fig1(self):
        system = build_majority(SocialGraph(n=2, edges=((1, 2),)))
        assert system.reaction_rows().tolist() == fixture("fig1").reaction_rows().tolist()

    def test_single_edge_oscillates(self):
        system = build_majority(SocialGraph(n=2, edges=((1, 2),)))
        assert stable_states(system) == {(0, 0), (1, 1)}
        assert isinstance(decide_convergence(system), NonConvergent)

    def test_triangle_unanimous_states_stable(self):
        system = build_majority(SocialGraph(n=3, edges=((1, 2), (2, 3), (1, 3))))
        stables = stable_states(system)
        assert (0, 0, 0) in stables and (1, 1, 1) in stables

    def test_star_matches_hand_enumeration(self):
        system = build_majority(SocialGraph(n=3, edges=((1, 2), (1, 3))))
        assert stable_states(system) == naive_stables(system)
        # the hub follows the leaf majority (a split ties to X), leaves copy the hub
        assert system.reaction((1, 0, 1)) == (0, 1, 1)
        assert system.reaction((1, 1, 1)) == (1, 1, 1)
        assert system.reaction((0, 1, 0)) == (0, 0, 0)

    def test_any_edge_implies_oscillation(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randrange(2, 5)
            possible = list(itertools.combinations(range(1, n + 1), 2))
            edges = tuple(e for e in possible if rng.random() < 0.6) or (possible[0],)
            system = build_majority(SocialGraph(n=n, edges=edges))
            assert check_self_independent(system).ok
            assert isinstance(decide_convergence(system), NonConvergent)

    def test_isolated_users_prefer_x(self):
        system = build_majority(SocialGraph(n=2, edges=()))
        assert system.reaction((1, 1)) == (0, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInput):
            SocialGraph(n=2, edges=((1, 1),))

    def test_users_are_counted_before_the_adjacency_matrix_exists(self):
        """10^9 users would ask for a dense 10^9 × 10^9 matrix."""
        with pytest.raises(BudgetExceeded, match="1000000000 users exceed"):
            build_majority(SocialGraph(n=10 ** 9, edges=()))


def disagree_instance():
    """Two ASes that each prefer the route through the other over their direct
    route to the destination 0, with full export."""
    return BgpInstance(
        dest=0,
        edges=((0, 1), (0, 2), (1, 2)),
        rankings=(
            (1, ((1, 2, 0), (1, 0))),
            (2, ((2, 1, 0), (2, 0))),
        ),
    )


class TestBgp:
    def test_disagree_has_two_stable_trees_and_oscillates(self):
        system = build_bgp(disagree_instance())
        assert system.num_states == 9
        assert check_self_independent(system).ok
        stables = stable_states(system)
        assert len(stables) == 2
        verdict = decide_convergence(system)
        assert isinstance(verdict, NonConvergent)
        assert isinstance(replay_witness(system, verdict.witness), Cycling)

    def test_stable_states_form_trees_toward_destination(self):
        instance = disagree_instance()
        system = build_bgp(instance)
        for state in stable_states(system):
            # action a of an AS is its a-th ranked route; the last is the empty route
            routes = {
                node: (ranked + ((),))[action]
                for node, ((_, ranked), action) in enumerate(zip(instance.rankings, state), start=1)
            }
            assert all(r and r[-1] == 0 for r in routes.values())
            # next hops are consistent: a route through a neighbour extends
            # that neighbour's chosen route
            for node, route in routes.items():
                if len(route) > 2:
                    assert route[1:] == routes[route[1]]

    def test_single_as_direct_route_converges(self):
        instance = BgpInstance(dest=0, edges=((0, 1),), rankings=((1, ((1, 0),)),))
        system = build_bgp(instance)
        assert decide_convergence(system) == Convergent()
        assert stable_states(system) == {(0,)}

    def test_export_deny_blocks_route(self):
        instance = BgpInstance(
            dest=0,
            edges=((0, 1), (1, 2)),
            rankings=((1, ((1, 0),)), (2, ((2, 1, 0),))),
            export_deny=((1, (1, 0), 2),),
        )
        system = build_bgp(instance)
        # AS 2 can never learn the denied route, so its only steady action is
        # the empty route
        assert stable_states(system) == {(0, 1)}

    def test_route_validation(self):
        with pytest.raises(InvalidInput):
            BgpInstance(dest=0, edges=((0, 1),), rankings=((1, ((1, 1, 0),)),))
        with pytest.raises(InvalidInput):
            BgpInstance(dest=0, edges=((0, 1),), rankings=((1, ((1, 2),)),))
        with pytest.raises(InvalidInput):
            BgpInstance(dest=0, edges=((0, 1),), rankings=((1, ((1, 2, 0),)),))


class TestTuringMachines:
    def test_halting_initial_state_converges(self):
        tm = TMDescription(
            states=("h",), halting=frozenset({"h"}), n_symbols=2, tape_cells=2, delta={}
        )
        system = build_tm(tm)
        assert decide_convergence(system) == Convergent()

    def test_flipper_oscillates_and_matches_oracle(self):
        tm = TMDescription(
            states=("q0", "h"),
            halting=frozenset({"h"}),
            n_symbols=2,
            tape_cells=2,
            delta={("q0", 0): ("q0", 1, 1), ("q0", 1): ("q0", 0, 1)},
        )
        assert not oracle_shc(tm)
        verdict = decide_convergence(build_tm(tm))
        assert isinstance(verdict, NonConvergent)
        system = build_tm(tm)
        assert isinstance(replay_witness(system, verdict.witness), Cycling)

    def test_self_loop_machine_is_dynamically_stable_but_not_halting(self):
        """A transition delta(q,s) = (q,s,0) freezes the run without reaching
        a halting state: the system converges although the machine never
        halts.  This pins the reduction's behaviour on degenerate machines."""
        tm = TMDescription(
            states=("q0", "h"),
            halting=frozenset({"h"}),
            n_symbols=2,
            tape_cells=2,
            delta={("q0", 0): ("q0", 0, 0), ("q0", 1): ("h", 1, 0)},
        )
        assert not oracle_shc(tm)
        assert oracle_always_stabilizes(tm)
        assert decide_convergence(build_tm(tm)) == Convergent()

    def test_sample_equivalence_with_stabilization_oracle(self):
        rng = random.Random(3)
        machines = list(enumerate_tms(1))
        rng.shuffle(machines)
        for tm in machines[:60]:
            system = build_tm(tm)
            convergent = isinstance(decide_convergence(system), Convergent)
            assert convergent == oracle_always_stabilizes(tm)

    def test_head_action_roundtrip(self):
        tm = TMDescription(
            states=("q0", "q1", "h"),
            halting=frozenset({"h"}),
            n_symbols=2,
            tape_cells=3,
            delta={
                (q, s): ("h", s, 0) for q in ("q0", "q1") for s in (0, 1)
            },
        )
        decode, encode = tm_head_codec(tm)
        head_actions = build_tm(tm).space.sizes[-1]
        assert head_actions == 3 * 2 * 3 * 3
        for action in range(head_actions):
            assert encode(*decode(action)) == action

    def test_delta_must_be_total(self):
        with pytest.raises(InvalidInput):
            TMDescription(
                states=("q0", "h"),
                halting=frozenset({"h"}),
                n_symbols=2,
                tape_cells=2,
                delta={("q0", 0): ("h", 0, 0)},
            )


class TestSnakeSearch:
    def test_dimension_two_is_the_square(self):
        snake = longest_snake(2)
        assert snake.vertices == (0, 1, 3, 2)

    @pytest.mark.parametrize("z", [2, 3, 4])
    def test_matches_induced_cycle_oracle(self, z):
        snake = longest_snake(z)
        assert is_snake(z, snake.vertices)
        assert len(snake) == oracle_max_induced_cycle(z)

    def test_deterministic(self):
        assert longest_snake(3).vertices == longest_snake(3).vertices == (0, 1, 3, 7, 6, 4)

    @pytest.mark.parametrize(
        "z, vertices",
        [
            (2, (0, 1, 3, 2)),
            (3, (0, 1, 3, 7, 6, 4)),
            (4, (0, 1, 3, 7, 6, 14, 10, 8)),
            (5, (0, 1, 3, 7, 6, 14, 10, 26, 27, 25, 29, 21, 20, 16)),
        ],
    )
    def test_representative_is_the_least_longest_cycle(self, z, vertices):
        assert longest_snake(z).vertices == vertices

    def test_each_dimension_is_searched_once(self):
        longest_snake.cache_clear()
        disjointness_snake.cache_clear()
        snake = longest_snake(5)
        build_snake_system(7)
        build_disjointness(7, {1}, {2})
        assert snake_for_system(7) is disjointness_snake(7) is snake  # Q_5's snake avoids all-ones
        assert (longest_snake.cache_info().misses, disjointness_snake.cache_info().misses) == (1, 1)

    def test_range_checks(self):
        with pytest.raises(InvalidInput):
            longest_snake(1)
        for z in (6, 7, 8):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceeded):
                longest_snake(z)
            assert time.perf_counter() - t0 < 1

    def test_snake_validation(self):
        with pytest.raises(InvalidInput):
            Snake(dimension=3, vertices=(0, 1, 3, 2, 6, 4))  # chord 0-2

    @pytest.mark.parametrize(
        "z, snake",
        [(z, lambda z=z: longest_snake(z)) for z in (3, 4, 5)]
        + [(n - 2, lambda n=n: disjointness_snake(n)) for n in (5, 6, 7)],
        ids=["Q3", "Q4", "Q5", "disjointness-5", "disjointness-6", "disjointness-7"],
    )
    def test_orientation_follows_its_rule(self, z, snake):
        vertices = snake().vertices
        # the oracle lists dimensions 0..z-1; the columns start at node 3, dimension z-1
        assert _cube_columns(z, vertices).tolist() == [row[::-1] for row in orientation_rule(z, vertices)]


class TestSnakeSystem:
    def test_unique_stable_state(self):
        system = build_snake_system(5)
        assert stable_states(system) == {(1, 1, 1, 1, 1)}
        assert check_self_independent(system).ok

    def test_spectra_point_at_all_ones(self):
        system = build_snake_system(5)
        top = (1,) * 5
        assert spectrum(system, top) == {top}
        for state in system.space.states():
            assert spectrum(system, state) <= {top}

    def test_r_threshold_at_snake_length(self):
        system = build_snake_system(5)
        q = len(snake_for_system(5))
        assert isinstance(decide_r_convergence(system, q - 1), Convergent)
        verdict = decide_r_convergence(system, q)
        assert isinstance(verdict, NonConvergent)
        assert isinstance(replay_witness(system, verdict.witness), Cycling)

    def test_node_range(self):
        with pytest.raises(InvalidInput):
            build_snake_system(4)
        with pytest.raises(InvalidInput):
            build_snake_system(10)
        # the snake search covers Q_2 .. Q_5: n = 8 and 9 are refused before
        # any search
        for build in (snake_for_system, disjointness_snake, build_snake_system):
            for n in (8, 9):
                with pytest.raises(InvalidInput, match="5 <= n <= 7"):
                    build(n)


class TestDisjointness:
    def test_universe_avoids_all_ones(self):
        snake = disjointness_snake(5)
        assert is_snake(3, snake.vertices)
        assert (1 << 3) - 1 not in set(snake.vertices)

    def test_universe_is_the_searched_snake_moved_off_all_ones(self):
        assert disjointness_snake(5).vertices == (2, 3, 1, 5, 4, 6)
        for n in (6, 7):
            assert disjointness_snake(n).vertices == longest_snake(n - 2).vertices

    def test_disjoint_converges_overlapping_oscillates(self):
        q = len(disjointness_snake(5))
        assert decide_convergence(build_disjointness(5, set(), set())) == Convergent()
        assert decide_convergence(build_disjointness(5, {1}, {2})) == Convergent()
        verdict = decide_convergence(build_disjointness(5, {1, 2}, {2, 3}))
        assert isinstance(verdict, NonConvergent)
        system = build_disjointness(5, {1, 2}, {2, 3})
        assert isinstance(replay_witness(system, verdict.witness), Cycling)
        assert decide_convergence(build_disjointness(5, set(range(1, q + 1)), set())) == Convergent()

    def test_self_independent(self):
        assert check_self_independent(build_disjointness(5, {1, 3}, {2})).ok

    def test_sampled_pairs_match_intersection(self):
        rng = random.Random(15)
        q = len(disjointness_snake(5))
        for _ in range(25):
            A = {j for j in range(1, q + 1) if rng.random() < 0.3}
            B = {j for j in range(1, q + 1) if rng.random() < 0.3}
            verdict = decide_convergence(build_disjointness(5, A, B))
            assert isinstance(verdict, Convergent) == (not (A & B))

    def test_index_range_checked(self):
        with pytest.raises(InvalidInput):
            build_disjointness(5, {7}, set())


class TestFixtures:
    def test_fig1_table(self):
        fig1 = fixture("fig1")
        assert fig1.reaction_rows().tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]

    def test_futile_count(self):
        futile = fixture("futile", n=3)
        assert stable_states(futile) == {(0, 0, 0), (2, 2, 2)}
        nonempty = sum(1 for s in futile.space.states() if spectrum(futile, s))
        assert nonempty == 14

    def test_futile_scales_with_n(self):
        futile = fixture("futile", n=4)
        nonempty = sum(1 for s in futile.space.states() if spectrum(futile, s))
        assert nonempty == 18

    def test_latched_example(self):
        system = fixture("ex-unbounded-latched")
        assert decide_convergence(system) == Convergent()
        projections = {s[:2] for s in stable_states(system)}
        assert projections == {(0, 0), (1, 1)}

    def test_m1m2_is_game(self):
        from asyncdyn.games import Game

        assert isinstance(fixture("m1m2"), Game)

    def test_unknown_name(self):
        with pytest.raises(InvalidInput):
            fixture("nope")

    def test_table_kinds_and_bounds(self):
        from asyncdyn.games import Game

        for name, (_, kind, min_n) in FIXTURES.items():
            assert isinstance(fixture(name), HistorylessSystem if kind == "system" else Game)
            if min_n is not None:
                assert fixture(name, n=min_n).n == min_n
                with pytest.raises(InvalidInput, match=f"needs n >= {min_n}"):
                    fixture(name, n=min_n - 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fixture("ring", N=6),
        lambda: fixture("fig1", n=3),
        lambda: fixture("ring", n=4.0),
        lambda: SocialGraph(n=2, edges=((True, 2.0),)),
        lambda: GateSpec(name="g", inputs=("a",), table=(1.0, 0)),
        lambda: CircuitDescription(inputs=(("a", 1.0),), gates=()),
        lambda: ActionSpace((2.7, 2)),
        lambda: build_disjointness(5, [1.0], []),
        lambda: BgpInstance(dest=0, edges=((0, 1.0),), rankings=((1, ((1, 0),)),)),
        lambda: BgpInstance(dest=0, edges=((0, 1),), rankings=((1, (("1", 0),)),)),
        lambda: Snake(dimension=3, vertices=(0, 1, 3, 7, 6, 4.0)),
        lambda: TMDescription(states=("q", "h"), halting={"h"}, n_symbols=1, tape_cells=1, delta={("q", 0.0): ("h", 0, 0)}),
    ],
    ids=[
        "fixture-unknown-param",
        "fixture-inapplicable-param",
        "fixture-float-n",
        "majority-float-user",
        "gate-float-bit",
        "circuit-float-input",
        "action-space-float-size",
        "disjointness-float-index",
        "bgp-float-as",
        "bgp-string-route",
        "snake-float-vertex",
        "tm-float-symbol",
    ],
)
def test_builders_refuse_what_they_would_coerce(build):
    """Integers are read with ``operator.index``: a float or a string is
    refused, not truncated, and a fixture refuses a parameter it does not take."""
    with pytest.raises(InvalidInput):
        build()
