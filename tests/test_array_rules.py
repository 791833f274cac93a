"""Each builder's array rule against its per-state rule in ``_helpers``, the
batched machine-family tabulation against the one-machine builder, and the
per-state views of an array rule: ``reaction`` and ``rule``."""

import contextlib
import dataclasses
import gc
import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncdyn.core import DEFAULT_STATE_BUDGET, ActionSpace, HistorylessSystem, KRecallSystem, lift_k_recall
from asyncdyn.errors import BudgetExceeded, InvalidInput
from asyncdyn import reductions
from asyncdyn.games import br_system
from asyncdyn.reductions import (
    BgpInstance,
    CircuitDescription,
    GateSpec,
    SocialGraph,
    TMDescription,
    build_bgp,
    build_circuit,
    build_disjointness,
    build_majority,
    build_snake_system,
    build_tm,
    disjointness_snake,
    fixture,
    tm_family_rows,
)

from _helpers import (
    bgp_rule,
    circuit_rule,
    disjointness_rule,
    empty_store,
    enumerate_tms,
    fixture_rule,
    majority_rule,
    rule_rows,
    snake_rule,
    tm_rule,
)

SEEDS = st.integers(min_value=0, max_value=10 ** 6)


def random_graph(rng, max_users=9):
    n = rng.randrange(1, max_users + 1)
    p = rng.random()
    return SocialGraph(n=n, edges=tuple(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
    ))


def random_circuit(rng):
    inputs = tuple((f"x{i}", rng.randrange(2)) for i in range(rng.randrange(3)))
    names = [f"g{i}" for i in range(rng.randrange(1, 5))]
    wires = [name for name, _ in inputs] + names
    gates = []
    for name in names:
        reads = tuple(rng.choice(wires) for _ in range(rng.randrange(1, 4)))
        gates.append(GateSpec(name, reads, tuple(rng.randrange(2) for _ in range(1 << len(reads)))))
    return CircuitDescription(inputs=inputs, gates=tuple(gates))


def simple_paths(adjacency, a, dest, path=()):
    path = path + (a,)
    if a == dest:
        yield path
        return
    for b in sorted(adjacency.get(a, ())):
        if b not in path:
            yield from simple_paths(adjacency, b, dest, path)


def random_bgp(rng):
    ases = list(range(1, rng.randrange(2, 5)))
    edges = tuple(
        (u, v) for u in [0] + ases for v in ases if u < v and rng.random() < 0.7
    ) + ((0, ases[0]),)
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    rankings = []
    for a in ases:
        paths = list(simple_paths(adjacency, a, 0))
        rng.shuffle(paths)
        rankings.append((a, tuple(paths[: rng.randrange(len(paths) + 1)])))
    deny = tuple(
        (nb, route, a)
        for nb, routes in rankings
        for route in routes
        for a in sorted(adjacency.get(nb, ()))
        if a != 0 and rng.random() < 0.3
    )
    return BgpInstance(dest=0, edges=edges, rankings=tuple(rankings), export_deny=deny)


def random_tm(rng):
    count = rng.randrange(2, 4)
    states = tuple(f"s{i}" for i in range(count))
    halting = frozenset(rng.sample(states, rng.randrange(1, count)))
    symbols, cells = rng.randrange(1, 4), rng.randrange(1, 4)
    delta = {
        (q, s): (rng.choice(states), rng.randrange(symbols), rng.choice((-1, 0, 1)))
        for q in states if q not in halting for s in range(symbols)
    }
    return TMDescription(states=states, halting=halting, n_symbols=symbols, tape_cells=cells, delta=delta)


def assert_rows_match(system, rule):
    assert system.reaction_rows().tolist() == rule_rows(system.space, rule)


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_majority(seed):
    graph = random_graph(random.Random(seed))
    assert_rows_match(build_majority(graph), majority_rule(graph))


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_circuit(seed):
    circuit = random_circuit(random.Random(seed))
    assert_rows_match(build_circuit(circuit), circuit_rule(circuit))


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_bgp(seed):
    instance = random_bgp(random.Random(seed))
    assert_rows_match(build_bgp(instance), bgp_rule(instance))


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_tm(seed):
    tm = random_tm(random.Random(seed))
    assert_rows_match(build_tm(tm), tm_rule(tm))


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_tm_family_rows_stack_the_builder_rows(seed):
    rng = random.Random(seed)
    states = ("q0", "q1", "h")[-rng.randrange(2, 4):]
    machines = [
        TMDescription(
            states=states, halting=frozenset({"h"}), n_symbols=2, tape_cells=2,
            delta={(q, s): (rng.choice(states), rng.randrange(2), rng.choice((-1, 0, 1)))
                   for q in states[:-1] for s in range(2)},
        )
        for _ in range(rng.randrange(1, 40))
    ]
    space, rows = tm_family_rows(machines)
    assert rows.shape == (len(machines), space.num_states, space.n)
    for tm, r in zip(machines, rows):
        system = build_tm(tm)
        assert system.space == space
        assert r.tolist() == system.reaction_rows().tolist() == rule_rows(space, tm_rule(tm))


def test_tm_family_rows_refuse_mixed_empty_and_oversized_families():
    one, two = next(enumerate_tms(1)), next(enumerate_tms(2))
    with pytest.raises(InvalidInput):
        tm_family_rows([one, two])
    with pytest.raises(InvalidInput):
        tm_family_rows([])
    space, _ = tm_family_rows([one])
    with pytest.raises(BudgetExceeded):
        tm_family_rows([one, one], budget=2 * space.num_states - 1)


def shaped_tm(rng, cells, symbols, count, halting, names="s"):
    """A random machine of the given shape; ``halting`` holds state indices."""
    states = tuple(f"{names}{i}" for i in range(count))
    return TMDescription(
        states=states, halting=frozenset(states[i] for i in halting), n_symbols=symbols, tape_cells=cells,
        delta={(q, s): (rng.choice(states), rng.randrange(symbols), rng.choice((-1, 0, 1)))
               for i, q in enumerate(states) if i not in halting for s in range(symbols)},
    )


def random_shape(rng):
    """1-3 cells, 1-3 symbols, 2-4 machine states and any halting set."""
    count = rng.randrange(2, 5)
    halting = tuple(sorted(rng.sample(range(count), rng.randrange(count + 1))))
    return rng.randrange(1, 4), rng.randrange(1, 4), count, halting


@contextlib.contextmanager
def whole_frames_built():
    """The shapes whose frame at every state ``reductions._tm_frame`` builds
    in the block, once a build; a frame of fewer rows is not listed."""
    built, build = [], reductions._tm_frame

    def counted(cells, symbols, n_states, halting, d):
        if len(d) == reductions._tm_space(cells, symbols, n_states).num_states:
            built.append((cells, symbols, n_states, halting))
        return build(cells, symbols, n_states, halting, d)

    reductions._tm_frame = counted
    try:
        yield built
    finally:
        reductions._tm_frame = build


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_tm_frames_of_interleaved_shapes_match_the_oracle(seed):
    """Machines of three random shapes, tabulated in random order: each
    shape's frame is built once and kept beside the others, and every
    machine's rows are still its per-state rule's, also where the array rule
    is given a few states in any order rather than the whole space."""
    rng = random.Random(seed)
    shapes = [random_shape(rng) for _ in range(3)]
    order = [rng.choice(shapes) for _ in range(8)]
    with empty_store(), whole_frames_built() as built:
        for shape in order:
            tm = shaped_tm(rng, *shape)
            assert reductions._tm_shape(tm) == shape
            system = build_tm(tm)
            assert_rows_match(system, tm_rule(tm))
            some = [system.space.decode(rng.randrange(system.num_states)) for _ in range(5)]
            assert system.array_rule(np.array(some)).tolist() == [list(tm_rule(tm)(s)) for s in some]
    assert sorted(built) == sorted(set(order))


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_tm_frame_reads_no_state_names(seed):
    """Two machines that differ only in the names of their states share one
    frame and have the same rows."""
    shape = random_shape(random.Random(seed))
    one, other = (shaped_tm(random.Random(seed), *shape, names=names) for names in ("s", "renamed-"))
    assert one.states != other.states
    with empty_store(), whole_frames_built() as built:
        assert build_tm(one).reaction_rows().tolist() == build_tm(other).reaction_rows().tolist()
    assert built == [shape]


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_tm_frame_at_its_own_digits_is_a_copy_and_other_rows_are_built(seed):
    """At the space's own kept digits the frame is read as a fresh copy with
    the kept, read-only entries; any other N rows, a permutation of the
    states or an equal copy of the digits, get the rows and entries of their
    own states in their order."""
    rng = random.Random(seed)
    shape = random_shape(rng)
    space = reductions._tm_space(*shape[:3])
    with empty_store():
        digits = space.digits()
        rows, entry = reductions._tm_frame_at(shape, space, digits)
        expected = reductions._tm_frame(*shape, digits)
        assert rows.tolist() == expected[0].tolist() and entry.tolist() == expected[1].tolist()
        assert rows.flags.writeable and not entry.flags.writeable
        perm = np.array(rng.sample(range(space.num_states), space.num_states))
        for d, order in ((digits[perm], perm), (digits.copy(), np.arange(space.num_states))):
            moved = reductions._tm_frame_at(shape, space, d)
            assert moved[0].tolist() == rows[order].tolist() == reductions._tm_frame(*shape, d)[0].tolist()
            assert moved[1].tolist() == entry[order].tolist() == reductions._tm_frame(*shape, d)[1].tolist()


def test_tm_frame_is_read_only_and_no_machine_rows_alias_it():
    """The kept frame, like every array the store keeps, is read-only, and
    each machine's rows are a copy of it, not a view."""
    rng = random.Random(7)
    machines = [shaped_tm(rng, 2, 2, 3, (2,)) for _ in range(3)]
    with empty_store() as store:
        systems = [build_tm(tm) for tm in machines]
        tabulated = [system.reaction_rows() for system in systems]
        _, family = tm_family_rows(machines)
    assert (("tm-frame", (2,)), systems[0].space.sizes) in store
    for a in (a for arrays in store.values() for a in arrays):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
        assert not any(np.shares_memory(a, rows) for rows in tabulated + [family])
    assert family.flags.writeable and family.tolist() == [rows.tolist() for rows in tabulated]


def test_tm_family_rows_of_two_alternating_shapes_stack_the_builder_rows():
    rng = random.Random(3)
    shapes = [(2, 2, 3, (2,)), (3, 1, 2, ())]
    for shape in shapes * 3:
        machines = [shaped_tm(rng, *shape) for _ in range(4)]
        space, rows = tm_family_rows(machines)
        assert rows.tolist() == [build_tm(tm).reaction_rows().tolist() for tm in machines]
        assert all(build_tm(tm).space is space for tm in machines)


def test_tm_reaction_beyond_the_default_budget_evaluates_one_row_and_keeps_no_frame():
    """14 cells, 2 symbols and 3 machine states make 4,128,768 states, beyond
    the default budget: building the system and one ``reaction`` allocate
    nothing state-sized, and the store keeps no frame and no digits."""
    rng = random.Random(14)
    tm = shaped_tm(rng, 14, 2, 3, (2,))
    states = [tuple(rng.randrange(2) for _ in range(14)) + (rng.randrange(252),) for _ in range(20)]
    with empty_store() as store:
        tracemalloc.start()
        try:
            system = build_tm(tm)
            reactions = [system.reaction(s) for s in states]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert system.num_states == 4_128_768 > DEFAULT_STATE_BUDGET
    assert reactions == [tm_rule(tm)(s) for s in states]
    assert peak < 1 << 20
    assert all(a.size <= system.n for arrays in store.values() for a in arrays)  # no digits, no frame


@pytest.mark.parametrize("n", [5, 6, 7])
def test_snake(n):
    assert_rows_match(build_snake_system(n), snake_rule(n))


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_disjointness(seed):
    rng = random.Random(seed)
    n = rng.choice((5, 6))
    q = len(disjointness_snake(n))
    A = {j for j in range(1, q + 1) if rng.random() < 0.4}
    B = {j for j in range(1, q + 1) if rng.random() < 0.4}
    assert_rows_match(build_disjointness(n, A, B), disjointness_rule(n, A, B))


FIXTURES = [
    ("fig1", {}),
    ("ex-three-stable", {}),
    ("ex-unbounded-latched", {}),
    ("ring", {"n": 2}),
    ("ring", {"n": 5}),
    ("futile", {"n": 3}),
    ("futile", {"n": 4}),
]


@pytest.mark.parametrize("name, params", FIXTURES, ids=lambda x: str(x))
def test_fixtures(name, params):
    assert_rows_match(fixture(name, **params), fixture_rule(name, **params))


@pytest.mark.parametrize("name, params", FIXTURES, ids=lambda x: str(x))
def test_derived_rule_and_reaction_are_the_per_state_rule(name, params):
    system, oracle = fixture(name, **params), fixture_rule(name, **params)
    for state in system.space.states():
        assert system.rule(state) == system.reaction(state) == oracle(state)
        assert all(type(a) is int for a in system.rule(state) + system.reaction(state))


BUILT = {
    "majority": lambda: build_majority(SocialGraph(n=3, edges=((1, 2), (2, 3)))),
    "circuit": lambda: build_circuit(random_circuit(random.Random(1))),
    "bgp": lambda: build_bgp(random_bgp(random.Random(1))),
    "tm": lambda: build_tm(random_tm(random.Random(1))),
    "snake": lambda: build_snake_system(5),
    "disjointness": lambda: build_disjointness(5, {1, 3}, {2}),
    "best-response": lambda: br_system(fixture("m1m2"), tie_break="min"),
    **{f"{name}-{params}": lambda name=name, params=params: fixture(name, **params) for name, params in FIXTURES},
}


@pytest.mark.parametrize("build", BUILT.values(), ids=BUILT.keys())
def test_replacing_the_rule_keeps_the_array_reaction(build):
    """A per-state wrapper around ``rule`` (as a tracer installs) sees only
    direct calls: the tabulation and ``reaction`` read the array rule."""
    system = build()
    state = system.space.decode(system.num_states - 1)
    calls = []
    wrapped = dataclasses.replace(system, rule=lambda s: calls.append(s) or system.rule(s))
    assert wrapped.reaction_rows().tolist() == system.reaction_rows().tolist()
    assert wrapped.reaction(state) == system.reaction(state)
    assert calls == []
    assert wrapped.rule(state) == system.reaction(state) and calls == [state]


def test_one_tabulation_serves_rule_and_reaction():
    """The array rule runs once, on every state; ``rule`` and ``reaction``
    then read its rows at every state without calling it again."""
    calls = []
    space = ActionSpace((2, 3, 2))
    system = HistorylessSystem.from_array_rule(space, lambda d: calls.append(len(d)) or d[:, [2, 0, 0]])
    assert system.rule((1, 2, 0)) == (0, 1, 1) and calls == [space.num_states]
    rows = system.reaction_rows()
    for state, row in zip(space.states(), rows.tolist()):
        assert system.rule(state) == system.reaction(state) == tuple(row)
    assert system.reaction_rows() is rows and calls == [space.num_states]


def test_replace_keeps_the_one_tabulation():
    """A copy made by ``dataclasses.replace`` with the same array rule shares
    its tabulation: ``rule`` and ``reaction`` run the array rule once in all."""
    calls = []
    space = ActionSpace((2, 2))
    system = HistorylessSystem.from_array_rule(space, lambda d: calls.append(len(d)) or 1 - d)
    renamed = dataclasses.replace(system, name="renamed")
    assert renamed.rule((0, 1)) == renamed.reaction((0, 1)) == (1, 0)
    assert calls == [space.num_states]
    traced = dataclasses.replace(system, rule=lambda s: system.rule(s))
    assert traced.reaction((1, 1)) == traced.rule((1, 1)) == (0, 0)
    assert system.reaction((0, 0)) == (1, 1) and calls == [space.num_states]
    identity = dataclasses.replace(system, array_rule=lambda d: d)
    assert identity.rule((0, 1)) == identity.reaction((0, 1)) == (0, 1)


def test_from_table_keeps_one_copy_of_its_table():
    """The rows that the array rule indexes are the cached tabulation itself."""
    system = HistorylessSystem.from_table(ActionSpace((2, 2)), [(1, 1), (0, 1), (1, 0), (0, 0)])
    held = [c.cell_contents for c in system.array_rule.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    assert len(held) == 1
    assert np.shares_memory(system.reaction_rows(), held[0])
    assert system.reaction((1, 0)) == (1, 0) and system.rule((0, 1)) == (0, 1)


def test_cached_rows_are_freed_with_their_system():
    """With the cyclic collector off, dropping a system frees its rows at
    once: nothing the system holds refers back to it."""
    systems = [
        lambda: fixture("fig1"),
        lambda: HistorylessSystem.from_table(ActionSpace((2, 2)), [(1, 1), (0, 1), (1, 0), (0, 0)]),
        lambda: HistorylessSystem.from_rule(ActionSpace((2, 2)), lambda s: (s[1], 1 - s[0])),
        BUILT["majority"],
    ]
    gc.disable()
    try:
        for build in systems:
            system = build()
            system.rule(system.space.decode(0))
            rows = weakref.ref(system.reaction_rows())
            assert rows() is not None
            del system
            assert rows() is None
    finally:
        gc.enable()


def test_reaction_reads_the_rows_tabulated_once():
    system = build_majority(SocialGraph(n=4, edges=((1, 2), (2, 3), (3, 4))))
    rows = system.reaction_rows()
    assert rows is system.reaction_rows()
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1
    assert [system.reaction(s) for s in system.space.states()] == list(map(tuple, rows.tolist()))


def test_reaction_beyond_the_default_budget_evaluates_one_row():
    """A 24-user majority system has 2^24 states, beyond the default budget:
    ``reaction`` must not tabulate them (that would be 3 GB of rows)."""
    rng = random.Random(24)
    graph = SocialGraph(n=24, edges=tuple(
        (u, v) for u, v in itertools.combinations(range(1, 25), 2) if rng.random() < 0.3
    ))
    system, oracle = build_majority(graph), majority_rule(graph)
    assert system.num_states > DEFAULT_STATE_BUDGET
    states = [tuple(rng.randrange(2) for _ in range(24)) for _ in range(50)]
    tracemalloc.start()
    try:
        reactions = [system.reaction(s) for s in states]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reactions == [oracle(s) for s in states]
    assert peak < 1 << 20
    with pytest.raises(BudgetExceeded):
        system.reaction_rows()


def test_cells_beyond_the_budget_are_refused_before_any_array_exists():
    """Rows of n actions hold N·n cells, counted against 64 cells a budgeted
    state: 2^20 states of 1,020 nodes are refused at the default budget, and
    1,024 states of 1,010 nodes at a budget of 2^13 states, though their
    states fit.  ``reaction`` then evaluates one row."""
    wide = HistorylessSystem.from_array_rule(ActionSpace((2,) * 20 + (1,) * 1000), lambda d: d)
    narrow = HistorylessSystem.from_array_rule(ActionSpace((2,) * 10 + (1,) * 1000), lambda d: d)
    state = (1, 0) * 10 + (0,) * 1000
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="1048576 joint states of 1020 nodes"):
            wide.reaction_rows()
        with pytest.raises(BudgetExceeded, match="1024 joint states of 1010 nodes"):
            narrow.reaction_rows(budget=1 << 13)
        assert wide.reaction(state) == state
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert narrow.reaction_rows(budget=1 << 14).shape == (1024, 1010)
    # a lifted system's N^k windows hold N^k·n cells: 16 windows of 101 nodes
    lifted = lift_k_recall(KRecallSystem(ActionSpace((2,) + (1,) * 100), k=4, rule=lambda w: w[-1]))
    with pytest.raises(BudgetExceeded, match="16 window states of 101 nodes"):
        lifted.reaction_rows(budget=16)
    assert lifted.reaction_rows(budget=26).shape == (16, 101)


def test_array_rules_are_checked_like_every_tabulation():
    space = ActionSpace((2, 2))
    too_big = HistorylessSystem.from_array_rule(space, lambda d: d + 1)
    with pytest.raises(InvalidInput):
        too_big.reaction_rows()
    with pytest.raises(InvalidInput):
        too_big.reaction((1, 1))
    with pytest.raises(InvalidInput):
        too_big.rule((1, 1))
    floats = HistorylessSystem.from_array_rule(space, lambda d: d / 2)
    with pytest.raises(InvalidInput):
        floats.reaction_rows()
    narrow = HistorylessSystem.from_array_rule(space, lambda d: d[:, :1])
    with pytest.raises(InvalidInput):
        narrow.reaction((0, 0))
    assert np.array_equal(
        HistorylessSystem.from_array_rule(space, lambda d: d[:, ::-1]).reaction_rows(),
        fixture("fig1").reaction_rows(),
    )
