"""Core model: spaces, reactions, schedules, single-step semantics."""

import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import asyncdyn
from asyncdyn import core
from asyncdyn.analyze import NonConvergent, decide_convergence, decide_convergence_many
from asyncdyn.core import (
    DEFAULT_STATE_BUDGET,
    KEPT_BYTES,
    ActionSpace,
    ExplicitList,
    HistorylessSystem,
    KRecallSystem,
    Periodic,
    RoundRobin,
    SeededRandom,
    SeededRFair,
    Synchronous,
    _checked_rows,
    _periodic,
    check_r_fair,
    check_self_independent,
    is_stable,
    lift_k_recall,
    schedule_prefix,
    step,
    step_history,
    window_space,
)
from asyncdyn.errors import InsufficientHistory, InvalidInput, Unsupported
from asyncdyn.reductions import SocialGraph, TMDescription, _tm_space, build_majority, build_tm, fixture, tm_family_rows
from asyncdyn.simulate import Converged, run
from asyncdyn.uncoupled import (
    Fails,
    check_self_stabilization,
    check_self_stabilization_many,
    check_self_stabilization_randomized,
)

from _helpers import (
    all_subsets,
    empty_store,
    random_game,
    random_lifted_system,
    random_self_independent_system,
    random_table_system,
)


@pytest.fixture
def fig1():
    return fixture("fig1")


def assert_digits_decode(space):
    digits = space.digits()
    assert digits.shape == (space.num_states, space.n) and digits.dtype == np.int64
    assert [tuple(row) for row in digits.tolist()] == [space.decode(i) for i in range(space.num_states)]


class TestActionSpace:
    def test_counts(self):
        space = ActionSpace((2, 3, 4))
        assert space.n == 3
        assert space.num_states == 24

    def test_num_states_is_computed_once(self):
        """The count is cached on first use, like ``weights``; equality and
        hashing still read only the sizes."""
        space, fresh = ActionSpace((2, 3, 4)), ActionSpace((2, 3, 4))
        assert space.num_states == 24
        assert vars(space)["num_states"] == 24 and "num_states" not in vars(fresh)
        assert space == fresh and hash(space) == hash(fresh) and repr(space) == repr(fresh)
        assert space != ActionSpace((2, 3, 5))
        assert {space: 1}[fresh] == 1

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    def test_encode_decode_roundtrip(self, sizes):
        space = ActionSpace(tuple(sizes))
        states = list(space.states())
        assert len(states) == space.num_states
        for idx, state in enumerate(states):
            assert space.encode(state) == idx
            assert space.decode(idx) == state

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6))
    def test_digits_rows_decode_their_index(self, sizes):
        assert_digits_decode(ActionSpace(tuple(sizes)))

    @pytest.mark.parametrize("sizes", [(1,) * 70, (2,) + (1,) * 69 + (3,), (1, 3, 1, 2, 1)])
    def test_digits_of_spaces_with_many_single_action_nodes(self, sizes):
        """70 nodes are more than numpy's 64 array dimensions, so no index
        grid of the whole space exists; the digits must not need one."""
        assert_digits_decode(ActionSpace(sizes))

    def test_digits_are_kept_read_only_within_the_default_budget(self):
        """Like ``weights``: built on first use, then the same read-only
        array at every call.  The store keys them by the sizes, so an equal
        fresh space gets the very same digits and weights."""
        space, fresh = ActionSpace((2, 3, 4)), ActionSpace((2, 3, 4))
        digits, weights = space.digits(), space.weights
        assert space.digits() is digits and not digits.flags.writeable
        assert space.weights is weights and not weights.flags.writeable
        assert fresh is not space and space == fresh and hash(space) == hash(fresh)
        assert fresh.digits() is digits and fresh.weights is weights
        with pytest.raises(ValueError):
            digits[0, 0] = 1
        with pytest.raises(ValueError):
            weights[0] = 1

    def test_digits_beyond_the_default_budget_are_fresh_and_kept_nowhere(self):
        """One node with one action more than the default budget allows: each
        call builds its own writable 8 MiB array, and dropping it frees it."""
        space = ActionSpace((DEFAULT_STATE_BUDGET + 1,))
        assert not space.within_default_budget
        tracemalloc.start()
        try:
            first, second = space.digits(), space.digits()
            assert first is not second and first.flags.writeable and second.flags.writeable
            assert first[-1, 0] == DEFAULT_STATE_BUDGET and np.array_equal(first, second)
            del first, second
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1 << 16

    def test_digits_are_kept_only_within_the_kept_bytes(self):
        """Digits of at most ``KEPT_BYTES`` are kept; one state more and each
        call builds its own, although the space is far within the default
        budget.  The spaces of the benchmark's Turing-machine sweep (96 and
        144 states of 3 nodes) and of its 9-user majority graph keep theirs."""
        for space in (_tm_space(2, 2, 2), _tm_space(2, 2, 3), ActionSpace((2,) * 9)):
            assert space.digits() is space.digits() and not space.digits().flags.writeable
        largest = ActionSpace((KEPT_BYTES // 8,))
        assert largest.digits() is largest.digits()
        beyond = ActionSpace((KEPT_BYTES // 8 + 1,))
        assert beyond.within_default_budget
        first, second = beyond.digits(), beyond.digits()
        assert first is not second and first.flags.writeable and np.array_equal(first, second)

    def test_an_array_rule_that_writes_into_its_input_raises(self):
        """The rule reads the kept digits, so a write into them raises, and
        the digits stay those of a fresh divide-and-modulo build."""
        space = ActionSpace((2, 3))
        fresh = np.arange(space.num_states)[:, None] // space.weights % np.array(space.sizes)

        def bump(d):
            d[:, 0] = 1 - d[:, 0]
            return d

        def shift(d):
            d += 0
            return d

        for rule in (bump, shift):
            system = HistorylessSystem.from_array_rule(space, rule)
            with pytest.raises(ValueError, match="read-only"):
                system.reaction_rows()
            assert np.array_equal(space.digits(), fresh)

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            ActionSpace(())
        with pytest.raises(InvalidInput):
            ActionSpace((2, 0))
        space = ActionSpace((2, 2))
        with pytest.raises(InvalidInput):
            space.validate_state((0, 2))
        with pytest.raises(InvalidInput):
            space.validate_state((0,))
        with pytest.raises(InvalidInput):
            space.validate_active({0})
        with pytest.raises(InvalidInput):
            space.validate_active({3})


def two_state_machines(rng, count):
    """Random two-cell, two-symbol machines of one state and a halting one."""
    targets = [(q, s, m) for q in ("q", "h") for s in (0, 1) for m in (-1, 0, 1)]
    return [
        TMDescription(("q", "h"), frozenset({"h"}), 2, 2, {("q", 0): rng.choice(targets), ("q", 1): rng.choice(targets)})
        for _ in range(count)
    ]


def run_fresh(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter that imports
    this checkout of the package."""
    env = dict(os.environ, PYTHONPATH=str(Path(asyncdyn.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestShapeStore:
    def test_importing_the_package_keeps_nothing(self):
        """No import-time work: a fresh interpreter that imports every module
        of the package finds the store empty and every ``functools.cache``
        of the package (module functions and methods alike) unfilled."""
        code = """if True:
            import json, sys
            import asyncdyn, asyncdyn.cli, asyncdyn.reductions, asyncdyn.uncoupled
            sizes = {}
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "asyncdyn":
                    found = list(vars(module).values())
                    found += [m for c in found if isinstance(c, type) for m in vars(c).values()]
                    for f in found:
                        if hasattr(f, "cache_info") and f.__module__.startswith("asyncdyn"):
                            sizes[f"{f.__module__}.{f.__qualname__}"] = f.cache_info().currsize
            print(json.dumps([len(asyncdyn.core._KEPT), sizes]))
        """
        kept, sizes = run_fresh(code)
        assert kept == 0
        assert {
            "asyncdyn.core.window_space", "asyncdyn.analyze._ruler", "asyncdyn.analyze._sparse",
            "asyncdyn.analyze._checked_csr",
            "asyncdyn.reductions._tm_space", "asyncdyn.cli.build_parser", "asyncdyn.reductions.longest_snake",
            "asyncdyn.reductions.disjointness_snake",
        } <= set(sizes)
        assert set(sizes.values()) == {0}, sizes

    def test_scipy_is_imported_by_the_first_graph_search(self, tmp_path):
        """The package imports scipy on its first graph search, not with
        itself: the games and uncoupled layers, ``simulate.run`` and the CLI
        commands that search no graph leave it unimported, and
        ``decide_convergence`` imports it."""
        game = {"sizes": [2, 3], "utilities": [[1, 0, 0, 0, 1, 0], [1, 0, 0, 0, 1, 0]]}
        requests = {
            "pne": {"version": 1, "game": game},
            "uncoupled-check": {
                "version": 1, "game": game, "analysis": {"kind": "uncoupled-check", "protocol": "three-recall"},
            },
            "build": {"version": 1, "system": {"kind": "majority", "users": 3, "edges": [[1, 2], [2, 3]]}},
            "export-dot": {"version": 1, "system": {"kind": "fixture", "name": "fig1"}},
            "simulate": {
                "version": 1, "system": {"kind": "fixture", "name": "fig1"},
                "simulation": {"initial": [0, 1], "schedule": {"kind": "periodic", "cycle": [[1], [2]]}},
            },
        }
        paths = {}
        for command, doc in requests.items():
            paths[command] = str(tmp_path / f"{command}.json")
            Path(paths[command]).write_text(json.dumps(doc))
        code = f"""if True:
            import io, json, sys
            import asyncdyn, asyncdyn.cli
            from asyncdyn import analyze, cli, games, reductions, simulate, uncoupled
            from asyncdyn.core import ActionSpace, Periodic
            paths, loaded = {list(paths.items())!r}, ["scipy" in sys.modules]
            game = games.Game(ActionSpace({game["sizes"]!r}), {game["utilities"]!r})
            uncoupled.check_self_stabilization("three-recall", game)
            uncoupled.check_self_stabilization_randomized(game)
            games.enumerate_pne(game)
            system = reductions.fixture("fig1")
            simulate.run(system, (0, 1), Periodic(({{1}}, {{2}})), max_steps=50)
            loaded.append("scipy" in sys.modules)
            codes = [cli.run_command([command, "--scenario", path], out=io.StringIO()) for command, path in paths]
            loaded.append("scipy" in sys.modules)
            analyze.decide_convergence(system)
            loaded.append("scipy" in sys.modules)
            print(json.dumps([codes, loaded]))
        """
        assert run_fresh(code) == [[0, 0, 0, 0, 0], [False, False, False, True]]

    def test_a_bound_of_zero_keeps_nothing_and_changes_no_answer(self, monkeypatch):
        """With ``KEPT_BYTES`` at 0 every per-shape array is built for its
        call: the store stays empty, and the reaction rows, the verdicts and
        their witnesses are those read from the kept arrays."""
        machines = two_state_machines(random.Random(4), 40)
        protocols = (("three-recall", (2, 3)), ("three-recall", (2, 2, 2)), ("two-recall", (4, 4)))

        def answers():
            rng = random.Random(9)
            systems = [fixture(name) for name in ("fig1", "ex-three-stable", "ex-unbounded-latched", "ring", "futile")]
            systems += [build_tm(tm) for tm in machines[:8]] + [build_majority(SocialGraph(5, ((1, 2), (2, 3), (4, 5))))]
            space, family = tm_family_rows(machines)
            games = {shape: [random_game(rng, shape[1], hi=3) for _ in range(10)] for shape in protocols}
            games["three-recall", (2, 2, 2)].append(fixture("m1m2"))
            return (
                [system.reaction_rows().tolist() for system in systems],
                [decide_convergence(system) for system in systems],
                family.tolist(),
                decide_convergence_many(space, family).tolist(),
                [(check_self_stabilization(p, g), check_self_stabilization_randomized(g)) for (p, _), b in games.items() for g in b],
                [check_self_stabilization_many(p, ActionSpace(sizes), [g.utilities for g in b]) for (p, sizes), b in games.items()],
            )

        with empty_store() as store:
            kept = answers()
            assert store
        monkeypatch.setattr(core, "KEPT_BYTES", 0)
        with empty_store() as store:
            assert answers() == kept
            assert not store
        assert any(isinstance(v, NonConvergent) for v in kept[1]) and not all(kept[3])
        assert any(isinstance(v, Fails) for pair in kept[4] for v in pair)


def four_pass_checked_rows(space, rows, count):
    """The row check as it was before its range test became one unsigned
    comparison: a lower and an upper bound, each compared and reduced."""
    try:
        rows = np.array(rows)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"reaction produced a malformed state: {exc}") from exc
    if rows.dtype.kind not in "biu":
        raise InvalidInput(f"reaction produced an action that is not an integer (type {rows.dtype})")
    if rows.shape != (count, space.n):
        raise InvalidInput(f"reaction must give {count} rows of {space.n} actions, got shape {rows.shape}")
    rows = rows.astype(np.int64, copy=False)
    if (rows < 0).any() or (rows >= np.array(space.sizes, dtype=np.int64)).any():
        raise InvalidInput(f"reaction produced an action out of range for sizes {space.sizes}")
    return rows


EXTREMES = [-(2 ** 63), -(2 ** 32), -(2 ** 31), -1, 2 ** 31, 2 ** 32, 2 ** 63 - 1]


@st.composite
def candidate_rows(draw):
    """(space, rows, count): rows of every integer width and of bools, with
    values in range, just outside it and at the extremes of int64, plus
    float, ragged and mis-shaped rows."""
    space = ActionSpace(tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))))
    count, n = draw(st.integers(1, 4)), space.n
    kind = draw(st.sampled_from(["int64", "uint64", "int32", "int8", "bool", "float", "list", "ragged", "shape"]))
    if kind == "ragged":
        return space, [[0] * n] * (count - 1) + [[0] * (n + 1)], count
    if kind == "shape":
        shape = draw(st.sampled_from([(count, n + 1), (count + 1, n), (count * n,), (count, n, 1), (0, n)]))
        return space, np.zeros(shape, dtype=np.int64), count
    values = draw(st.lists(st.one_of(st.integers(-2, 6), st.sampled_from(EXTREMES)), min_size=count * n, max_size=count * n))
    rows = np.array(values, dtype=np.int64).reshape(count, n)
    if kind == "uint64":
        rows = rows.view(np.uint64)
    elif kind in ("int32", "int8"):
        rows = rows.astype(kind)  # wraps, like any narrowing cast
    elif kind == "bool":
        rows = rows % 2 == 1
    elif kind == "float":
        rows = rows.astype(float)
    elif kind == "list":
        rows = rows.tolist()
    return space, rows, count


def check_outcome(check, space, rows, count):
    try:
        checked = check(space, rows, count)
    except InvalidInput as exc:
        return "refused", str(exc)
    assert checked.dtype == np.int64
    return "passed", checked.tolist()


class TestCheckedRows:
    """``_checked_rows`` tests the range of every action with one unsigned
    comparison against the kept sizes; it refuses exactly what the old
    four-pass check refused, with the same messages."""

    @given(candidate_rows())
    @settings(max_examples=400, deadline=None)
    def test_refuses_exactly_what_the_four_pass_check_refused(self, case):
        assert check_outcome(_checked_rows, *case) == check_outcome(four_pass_checked_rows, *case)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.int8])
    def test_each_column_refuses_a_negative_and_its_size(self, dtype):
        space = ActionSpace((2, 3, 1, 5))
        message = f"reaction produced an action out of range for sizes {space.sizes}"
        # the extremes of the signed type; as uint64 they read 2^63 and 2^63 - 1
        signed = np.iinfo(np.int64 if dtype is np.uint64 else dtype)
        for j, k in enumerate(space.sizes):
            for bad in (-1, k, signed.min, signed.max):
                rows = space.digits().copy()
                rows[-1, j] = bad
                rows = rows.view(np.uint64) if dtype is np.uint64 else rows.astype(dtype)
                for check in (_checked_rows, four_pass_checked_rows):
                    with pytest.raises(InvalidInput, match=re.escape(message)):
                        check(space, rows, space.num_states)
        assert np.array_equal(_checked_rows(space, space.digits(), space.num_states), space.digits())


    def test_a_fresh_int64_result_is_not_copied(self):
        """Rows that the rule made as a fresh, owned, writable int64 array are
        returned as they are; a view, a read-only array, another dtype and
        the rule's own input are copied."""
        space = ActionSpace((2, 3))
        rows = space.digits().copy()
        assert _checked_rows(space, rows, space.num_states) is rows
        assert _checked_rows(space, rows, space.num_states, rows) is not rows
        for other in (rows[:], space.digits(), rows.astype(np.int32)):
            checked = _checked_rows(space, other, space.num_states)
            assert checked is not other and not np.shares_memory(checked, other)
            assert np.array_equal(checked, rows)

    def test_an_identity_rule_gets_a_copy_of_its_input(self):
        """Beyond ``KEPT_BYTES`` the rule's input is fresh writable digits:
        an identity rule that returns them still gets its rows copied."""
        for space in (ActionSpace((2, 3)), ActionSpace((KEPT_BYTES // 8 + 1,))):
            seen = []
            system = HistorylessSystem.from_array_rule(space, lambda d: seen.append(d) or d)
            rows = system.reaction_rows()
            assert rows is not seen[0] and not np.shares_memory(rows, seen[0])
            assert np.array_equal(rows, seen[0])


class TestStep:
    def test_fig1_simultaneous(self, fig1):
        assert step(fig1, (0, 1), {1, 2}) == (1, 0)

    def test_fig1_single(self, fig1):
        assert step(fig1, (1, 0), {1}) == (0, 0)

    def test_empty_activation_is_identity(self, fig1):
        for state in fig1.space.states():
            assert step(fig1, state, set()) == state

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30)
    def test_empty_activation_random_systems(self, seed):
        import random

        system = random_table_system(random.Random(seed))
        for state in system.space.states():
            assert step(system, state, set()) == state

    def test_out_of_range_errors(self, fig1):
        with pytest.raises(InvalidInput):
            step(fig1, (0, 2), {1})
        with pytest.raises(InvalidInput):
            step(fig1, (0, 1), {3})


class TestIsStable:
    def test_fig1(self, fig1):
        assert is_stable(fig1, (0, 0))
        assert is_stable(fig1, (1, 1))
        assert not is_stable(fig1, (0, 1))

    def test_identity_system(self):
        space = ActionSpace((2, 3))
        system = HistorylessSystem.from_rule(space, lambda s: s)
        assert all(is_stable(system, s) for s in space.states())

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30)
    def test_stable_iff_fixed_under_every_subset(self, seed):
        import random

        system = random_table_system(random.Random(seed))
        subsets = all_subsets(system.space.n)
        for state in system.space.states():
            fixed_everywhere = all(step(system, state, s) == state for s in subsets)
            assert is_stable(system, state) == fixed_everywhere


class TestSelfIndependence:
    def test_fig1_is_self_independent(self, fig1):
        report = check_self_independent(fig1)
        assert report.ok
        assert report.violations == ()

    def test_own_action_dependence_detected(self):
        system = fixture("ex-three-stable")
        report = check_self_independent(system)
        assert not report
        node, a, b = report.violations[0]
        # the two witness states differ only at the violating node's coordinate
        diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        assert diffs == [node - 1]

    def test_constant_reactions(self):
        space = ActionSpace((3, 2))
        system = HistorylessSystem.from_rule(space, lambda s: (1, 0))
        assert check_self_independent(system).ok

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25)
    def test_activated_coordinate_ignores_own_action(self, seed):
        """In self-independent systems, states differing only at node i give i
        the same activated action."""
        import random

        rng = random.Random(seed)
        system = random_self_independent_system(rng)
        space = system.space
        subsets = [s for s in all_subsets(space.n) if s]
        for _ in range(20):
            state = tuple(rng.randrange(k) for k in space.sizes)
            i = rng.randrange(space.n)
            alt = rng.randrange(space.sizes[i])
            other = state[:i] + (alt,) + state[i + 1:]
            active = rng.choice(subsets) | {i + 1}
            assert step(system, state, active)[i] == step(system, other, active)[i]


class TestKRecall:
    def wrap_fig1(self, fig1):
        return KRecallSystem(
            space=fig1.space, k=1, rule=lambda w: fig1.reaction(w[-1]), stationary=True
        )

    def test_one_recall_reduces_to_step(self, fig1):
        system = self.wrap_fig1(fig1)
        for state in fig1.space.states():
            for active in all_subsets(2):
                assert step_history(system, (state,), 1, active) == step(
                    fig1, state, active
                )

    def test_empty_activation(self, fig1):
        system = self.wrap_fig1(fig1)
        assert step_history(system, ((0, 1), (1, 0)), 2, set()) == (1, 0)

    def test_short_window_rejected(self, fig1):
        deep = KRecallSystem(space=fig1.space, k=3, rule=lambda w: w[-1], stationary=True)
        with pytest.raises(InsufficientHistory):
            step_history(deep, ((0, 0), (0, 1)), 3, {1})

    def test_nonstationary_needs_time(self, fig1):
        system = KRecallSystem(
            space=fig1.space, k=1, rule=lambda w, t: w[-1], stationary=False
        )
        with pytest.raises(InvalidInput):
            step_history(system, ((0, 0),), None, {1})
        assert step_history(system, ((0, 1),), 5, {1, 2}) == (0, 1)


class TestLift:
    def test_k1_is_identity_embedding(self, fig1):
        wrap = KRecallSystem(
            space=fig1.space, k=1, rule=lambda w: fig1.reaction(w[-1]), stationary=True
        )
        lifted = lift_k_recall(wrap)
        assert lifted.num_states == fig1.num_states
        for state in fig1.space.states():
            for active in all_subsets(2):
                assert lifted.transition((state,), active) == (step(fig1, state, active),)

    def test_window_counts(self):
        space22 = ActionSpace((2, 2))
        three = KRecallSystem(space=space22, k=3, rule=lambda w: w[-1], stationary=True)
        assert lift_k_recall(three).num_states == 64
        space44 = ActionSpace((4, 4))
        two = KRecallSystem(space=space44, k=2, rule=lambda w: w[-1], stationary=True)
        assert lift_k_recall(two).num_states == 256

    def test_lift_agrees_with_step_history(self, fig1):
        system = KRecallSystem(
            space=fig1.space,
            k=2,
            rule=lambda w: fig1.reaction(w[0]),  # react to the older state
            stationary=True,
        )
        lifted = lift_k_recall(system)
        for idx in range(lifted.num_states):
            window = lifted.decode(idx)
            for active in all_subsets(2):
                expected = window[1:] + (step_history(system, window, 2, active),)
                assert lifted.transition(window, active) == expected

    def test_nonstationary_rejected(self, fig1):
        system = KRecallSystem(
            space=fig1.space, k=1, rule=lambda w, t: w[-1], stationary=False
        )
        with pytest.raises(Unsupported):
            lift_k_recall(system)

    @pytest.mark.parametrize("k", [2, 3])
    def test_windows_round_trip_through_the_window_space(self, k):
        space = ActionSpace((2, 3))
        n_states = space.num_states
        lifted = lift_k_recall(KRecallSystem(space=space, k=k, rule=lambda w: w[-1]))
        assert lifted.num_states == window_space(space, k).num_states == n_states ** k
        for i in range(lifted.num_states):
            assert window_space(space, k).decode(i) == tuple(i // n_states ** j % n_states for j in reversed(range(k)))
            assert lifted.encode(lifted.decode(i)) == i
        windows = set(map(lifted.decode, range(lifted.num_states)))
        assert len(windows) == lifted.num_states


def _first_run_state(system, window, active):
    """The state that the first step of ``run`` computes from ``window`` when
    the schedule activates ``active`` there (sigma(1..k-1) predate it); a run
    that starts at a fixed window takes no step, and keeps its state."""
    schedule = ExplicitList([frozenset()] * (len(window) - 1) + [active])
    trajectory, verdict = run(system, window, schedule, max_steps=1)
    if isinstance(verdict, Converged) and verdict.time == len(window) - 1:
        return window[-1]
    return trajectory.states[len(window)]


class TestOneUpdateRule:
    @given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(["table", "self-independent"]))
    @settings(max_examples=60, deadline=None)
    def test_historyless_steps_agree(self, seed, kind):
        """step, step_history on the k=1 wrapper, the lifted transition and
        run give the same new state."""
        rng = random.Random(seed)
        make = random_table_system if kind == "table" else random_self_independent_system
        system = make(rng, max_nodes=3, max_actions=3)
        wrap = KRecallSystem(space=system.space, k=1, rule=lambda w: system.reaction(w[-1]))
        lifted = lift_k_recall(wrap)
        for state in system.space.states():
            for active in all_subsets(system.n):
                new = step(system, state, active)
                assert step_history(wrap, (state,), None, active) == new
                assert lifted.transition((state,), active) == (new,)
                assert _first_run_state(system, (state,), active) == new

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_lifted_steps_agree(self, seed):
        lifted = random_lifted_system(random.Random(seed))
        for idx in range(lifted.num_states):
            window = lifted.decode(idx)
            for active in all_subsets(lifted.n):
                new = lifted.transition(window, active)[-1]
                assert step_history(lifted.base, window, None, active) == new
                assert _first_run_state(lifted.base, window, active) == new


class TestSchedules:
    def test_synchronous_prefix(self):
        assert schedule_prefix(Synchronous(), 3, 2) == [frozenset({1, 2})] * 3

    def test_round_robin_prefix(self):
        assert schedule_prefix(RoundRobin(), 3, 2) == [
            frozenset({1}),
            frozenset({2}),
            frozenset({1}),
        ]

    def test_explicit_continues_empty(self):
        sched = ExplicitList(sets=({1},))
        assert schedule_prefix(sched, 3, 2) == [frozenset({1}), frozenset(), frozenset()]

    def test_periodic(self):
        sched = Periodic(cycle=({1}, {2}), prefix=({1, 2},))
        assert schedule_prefix(sched, 5, 2) == [
            frozenset({1, 2}),
            frozenset({1}),
            frozenset({2}),
            frozenset({1}),
            frozenset({2}),
        ]
        with pytest.raises(InvalidInput):
            Periodic(cycle=())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_finite_schedules_are_periodic(self, n):
        """Each finite schedule reads as its explicit (prefix, cycle) form."""
        full, singles = frozenset(range(1, n + 1)), [frozenset({i}) for i in range(1, n + 1)]
        sets = [frozenset({1}), frozenset(range(1, n + 1)), frozenset()]
        pairs = [
            (Synchronous(), Periodic(cycle=(full,))),
            (RoundRobin(), Periodic(cycle=tuple(singles))),
            (ExplicitList(sets=()), Periodic(cycle=(frozenset(),))),
            (ExplicitList(sets=sets), Periodic(cycle=(frozenset(),), prefix=sets)),
        ]
        for schedule, periodic in pairs:
            assert schedule_prefix(schedule, 12, n) == schedule_prefix(periodic, 12, n)
            for t in range(1, 13):
                assert _periodic(schedule, n).phase(t) == periodic.phase(t)
        for t in range(1, 13):
            assert _periodic(Synchronous(), n).phase(t) == 0
            assert _periodic(RoundRobin(), n).phase(t) == (t - 1) % n
            assert _periodic(ExplicitList(sets=sets), n).phase(t) == (("prefix", t) if t <= 3 else 0)
        assert _periodic(SeededRandom(seed=1), n) is None
        assert _periodic(SeededRFair(seed=1, r=2), n) is None

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=25)
    def test_seeded_reproducible(self, seed):
        a = schedule_prefix(SeededRandom(seed=seed, p=0.4), 30, 3)
        b = schedule_prefix(SeededRandom(seed=seed, p=0.4), 30, 3)
        assert a == b

    @given(
        st.integers(min_value=0, max_value=10 ** 9),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40)
    def test_seeded_r_fair_satisfies_constraint(self, seed, r, n):
        prefix = schedule_prefix(SeededRFair(seed=seed, r=r), 40, n)
        assert check_r_fair(prefix, r, n)


class TestCheckRFair:
    def test_synchronous_is_1_fair(self):
        prefix = schedule_prefix(Synchronous(), 5, 3)
        assert check_r_fair(prefix, 1, 3)

    def test_round_robin_threshold(self):
        for n in (2, 3, 4):
            prefix = schedule_prefix(RoundRobin(), 4 * n, n)
            assert check_r_fair(prefix, n, n)
            if n > 1:
                assert not check_r_fair(prefix, n - 1, n)

    def test_first_window_counts(self):
        assert not check_r_fair([{1}, {1}, {2}], 2, 2)
        assert check_r_fair([{1, 2}, {1}, {2}], 2, 2)

    def test_invalid_r(self):
        with pytest.raises(InvalidInput):
            check_r_fair([{1}], 0, 1)


class TestBudget:
    def test_env_override(self, monkeypatch):
        from asyncdyn.core import resolve_budget

        monkeypatch.setenv("ASYNCDYN_BUDGET", "123")
        assert resolve_budget() == 123
        assert resolve_budget(7) == 7  # explicit argument wins
        monkeypatch.delenv("ASYNCDYN_BUDGET")
        assert resolve_budget() == 2 ** 20

    def test_check_budget_raises(self):
        from asyncdyn.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            ActionSpace((2,) * 8).check_budget(100)


class TestSystemConstruction:
    def test_table_shape_checked(self):
        space = ActionSpace((2, 2))
        with pytest.raises(InvalidInput):
            HistorylessSystem.from_table(space, [(0, 0)] * 3)
        with pytest.raises(InvalidInput):
            HistorylessSystem.from_table(space, [(0, 0, 0)] * 4)

    def test_tabulate_matches_rule(self, fig1):
        space = fig1.space
        system = HistorylessSystem.from_rule(space, lambda s: (s[1], s[0]))
        assert system.reaction_rows().tolist() == fig1.reaction_rows().tolist()

    def test_needs_table_or_rule(self):
        with pytest.raises(InvalidInput):
            HistorylessSystem(space=ActionSpace((2,)))
