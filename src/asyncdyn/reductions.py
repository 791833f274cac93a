"""Builders that compile application gadgets into historyless systems: boolean
circuits, majority diffusion in social networks, BGP route selection, space-
bounded Turing machines, snake-in-the-box r-convergence gadgets, and the
set-disjointness system, plus the named example fixtures.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import ActionSpace, HistorylessSystem, _as_int, _check_rows, shape_constant
from .errors import BudgetExceeded, InvalidInput
from .uncoupled import fixture_game_2x2x2

# ---------------------------------------------------------------------------
# Asynchronous circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateSpec:
    """A logic gate: truth table over its input wires, first wire most
    significant in the table index."""

    name: str
    inputs: tuple[str, ...]
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "table", tuple(_as_int(b, f"gate {self.name}: table entry") for b in self.table))
        if len(self.table) != 1 << len(self.inputs):
            raise InvalidInput(
                f"gate {self.name}: table has {len(self.table)} rows for {len(self.inputs)} inputs"
            )
        if any(b not in (0, 1) for b in self.table):
            raise InvalidInput(f"gate {self.name}: table entries must be bits")


@dataclass(frozen=True)
class CircuitDescription:
    inputs: tuple[tuple[str, int], ...]  # (name, fixed bit value)
    gates: tuple[GateSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple((str(n), _as_int(v, f"input {n}: value")) for n, v in self.inputs))
        object.__setattr__(self, "gates", tuple(self.gates))
        names = [n for n, _ in self.inputs] + [g.name for g in self.gates]
        if len(set(names)) != len(names):
            raise InvalidInput("input and gate names must be unique")
        if any(v not in (0, 1) for _, v in self.inputs):
            raise InvalidInput("circuit input values must be bits")
        known = set(names)
        for g in self.gates:
            for w in g.inputs:
                if w not in known:
                    raise InvalidInput(f"gate {g.name}: unknown wire {w!r}")


def build_circuit(circuit: CircuitDescription) -> HistorylessSystem:
    """One binary node per input (constant reaction) and per gate (truth table
    over its inputs' actions).  A gate reading its own output gets an
    interposed identity node, so every reaction is self-independent; stable
    states are exactly the assignments consistent with every gate."""
    base_names = [n for n, _ in circuit.inputs] + [g.name for g in circuit.gates]
    index = {name: i for i, name in enumerate(base_names)}
    identity_of = {}
    for g in circuit.gates:
        if g.name in g.inputs:
            identity_of[g.name] = len(base_names) + len(identity_of)
    sources = [
        [identity_of[w] if w == g.name else index[w] for w in g.inputs] for g in circuit.gates
    ]
    tables = [np.array(g.table, dtype=np.int64) for g in circuit.gates]
    input_values = [v for _, v in circuit.inputs]
    identity_reads = [index[name] for name in identity_of]
    ni, total = len(input_values), len(base_names) + len(identity_of)

    def array_rule(d: np.ndarray) -> np.ndarray:
        out = np.empty_like(d)
        out[:, :ni] = input_values
        for g, (table, srcs) in enumerate(zip(tables, sources)):
            # the first input wire is the most significant bit of the row
            place = 1 << np.arange(len(srcs) - 1, -1, -1, dtype=np.int64)
            out[:, ni + g] = table[d[:, srcs] @ place]
        out[:, ni + len(tables):] = d[:, identity_reads]
        return out

    space = ActionSpace((2,) * total)
    return HistorylessSystem.from_array_rule(space, array_rule, name="circuit")


# ---------------------------------------------------------------------------
# Technology diffusion on social networks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SocialGraph:
    """Undirected friendship graph over users 1..n, no self-loops."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if _as_int(self.n, "user count") < 1:
            raise InvalidInput("a social graph needs at least one user")
        seen = set()
        cleaned = []
        for u, v in self.edges:
            u, v = _as_int(u, "user"), _as_int(v, "user")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InvalidInput(f"edge ({u},{v}) references unknown users")
            if u == v:
                raise InvalidInput(f"self-loop at user {u}")
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                cleaned.append(key)
        object.__setattr__(self, "edges", tuple(cleaned))


def build_majority(graph: SocialGraph, budget: int | None = None) -> HistorylessSystem:
    """Each user adopts technology X (action 0) when at least half of their
    friends use it, else Y (action 1); ties favour X, and friendless users
    stick with X.  The users × users cells of the adjacency matrix are
    counted against the budget before it exists."""
    _check_rows(graph.n, graph.n, "users", budget)
    adjacency = np.zeros((graph.n, graph.n), dtype=np.int64)
    for u, v in graph.edges:
        adjacency[u - 1, v - 1] = adjacency[v - 1, u - 1] = 1
    degree = adjacency.sum(axis=0)

    def array_rule(d: np.ndarray) -> np.ndarray:
        using_x = (d == 0).astype(np.int64) @ adjacency
        return (2 * using_x < degree).astype(np.int64)

    space = ActionSpace((2,) * graph.n)
    return HistorylessSystem.from_array_rule(space, array_rule, name="majority")


# ---------------------------------------------------------------------------
# BGP route selection
# ---------------------------------------------------------------------------

Route = tuple[int, ...]


def _route(route) -> Route:
    return tuple(_as_int(x, "AS") for x in route)


@dataclass(frozen=True)
class BgpInstance:
    """Interdomain routing instance: an AS graph with destination ``dest``,
    per-AS ranked lists of permitted simple routes (best first), and an export
    policy given as explicit denials (everything else is exported)."""

    dest: int
    edges: tuple[tuple[int, int], ...]
    rankings: tuple[tuple[int, tuple[Route, ...]], ...]
    export_deny: tuple[tuple[int, Route, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dest", _as_int(self.dest, "AS"))
        edges = tuple(tuple(sorted((_as_int(u, "AS"), _as_int(v, "AS")))) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        rankings = tuple((_as_int(a, "AS"), tuple(map(_route, routes))) for a, routes in self.rankings)
        object.__setattr__(self, "rankings", rankings)
        object.__setattr__(
            self,
            "export_deny",
            tuple((_as_int(a, "AS"), _route(r), _as_int(nb, "AS")) for a, r, nb in self.export_deny),
        )
        links = set(edges)
        as_ids = [a for a, _ in self.rankings]
        if len(set(as_ids)) != len(as_ids):
            raise InvalidInput("duplicate AS in rankings")
        if self.dest in as_ids:
            raise InvalidInput("the destination is not a source AS")
        for a, routes in self.rankings:
            if len(set(routes)) != len(routes):
                raise InvalidInput(f"AS {a}: duplicate route in ranking")
            for r in routes:
                if len(set(r)) != len(r):
                    raise InvalidInput(f"AS {a}: route {r} is not simple")
                if not r or r[0] != a or r[-1] != self.dest:
                    raise InvalidInput(f"AS {a}: route {r} must run from {a} to {self.dest}")
                for x, y in zip(r, r[1:]):
                    if (min(x, y), max(x, y)) not in links:
                        raise InvalidInput(f"AS {a}: route {r} uses the missing link ({x},{y})")

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return adj


def build_bgp(instance: BgpInstance) -> HistorylessSystem:
    """BGP dynamics: each AS's action is one of its permitted routes or the
    empty route; its reaction recomputes the set of loop-free routes available
    through neighbours (respecting export policy) and picks the best-ranked
    one, or the empty route when none is available.  Stable states are the
    stable routing trees."""
    as_ids = [a for a, _ in instance.rankings]
    node_of = {a: i for i, a in enumerate(as_ids)}
    ranked = {a: list(routes) for a, routes in instance.rankings}
    adjacency = instance.adjacency()
    denied = set(instance.export_deny)
    sizes = tuple(len(ranked[a]) + 1 for a in as_ids)  # last action = empty route
    # AS a's reaction is its best-ranked candidate, or the empty route (its
    # last action) when none is available: the direct route when adjacent to
    # the destination, and for each neighbour AS nb, the route through nb's
    # current route when that is nonempty, loop-free and exported to a.
    # ``through[i]`` holds AS i's rank of the direct route and, for each
    # neighbour AS, its node and the rank of the candidate through each of
    # its actions; an unavailable candidate ranks as the empty route.
    through = []
    for a in as_ids:
        rank_of = {r: i for i, r in enumerate(ranked[a])}
        empty = len(ranked[a])
        direct = rank_of.get((a, instance.dest), empty) if instance.dest in adjacency.get(a, ()) else empty
        tables = []
        for nb in sorted(adjacency.get(a, set()) & set(node_of)):
            routes = ranked[nb] + [()]
            tables.append((node_of[nb], np.array([
                rank_of.get((a,) + r, empty) if r and a not in r and (nb, r, a) not in denied else empty
                for r in routes
            ], dtype=np.int64)))
        through.append((direct, tables))

    def array_rule(d: np.ndarray) -> np.ndarray:
        out = np.empty_like(d)
        for i, (direct, tables) in enumerate(through):
            out[:, i] = direct
            for j, rank in tables:
                np.minimum(out[:, i], rank[d[:, j]], out=out[:, i])
        return out

    space = ActionSpace(sizes)
    return HistorylessSystem.from_array_rule(space, array_rule, name="bgp")


# ---------------------------------------------------------------------------
# Space-bounded Turing machines
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TMDescription:
    """A Turing machine confined to ``tape_cells`` cells: machine states with a
    designated halting subset, tape symbols 0..n_symbols-1, and a transition
    table (state, symbol) -> (state, symbol, move) total on non-halting states.
    Moves off the tape edge leave the head in place."""

    states: tuple[str, ...]
    halting: frozenset[str]
    n_symbols: int
    tape_cells: int
    delta: Mapping

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "halting", frozenset(self.halting))
        if len(set(self.states)) != len(self.states):
            raise InvalidInput("duplicate machine state names")
        if not self.halting <= set(self.states):
            raise InvalidInput("halting states must be machine states")
        object.__setattr__(self, "n_symbols", _as_int(self.n_symbols, "symbol count"))
        object.__setattr__(self, "tape_cells", _as_int(self.tape_cells, "tape cell count"))
        if self.n_symbols < 1 or self.tape_cells < 1:
            raise InvalidInput("need at least one symbol and one tape cell")
        delta = {}
        for key, value in dict(self.delta).items():
            q, sym = key
            q2, sym2, move = value
            try:  # operator.index inline: this runs for every transition of every machine of a sweep
                sym, sym2, move = operator.index(sym), operator.index(sym2), operator.index(move)
            except TypeError:
                raise InvalidInput(f"transition from ({q!r}, {sym!r}): symbols and moves must be integers") from None
            if q not in self.states or q in self.halting:
                raise InvalidInput(f"transition from invalid state {q!r}")
            if q2 not in self.states:
                raise InvalidInput(f"transition to unknown state {q2!r}")
            if not (0 <= sym < self.n_symbols and 0 <= sym2 < self.n_symbols):
                raise InvalidInput("transition symbol out of range")
            if move not in (-1, 0, 1):
                raise InvalidInput(f"move must be -1, 0 or 1, got {move}")
            delta[(q, sym)] = (q2, sym2, move)
        for q in self.states:
            if q in self.halting:
                continue
            for sym in range(self.n_symbols):
                if (q, sym) not in delta:
                    raise InvalidInput(f"delta is not total: missing ({q!r}, {sym})")
        object.__setattr__(self, "delta", delta)


def build_tm(tm: TMDescription, budget: int | None = None) -> HistorylessSystem:
    """One node per tape cell (actions = symbols) plus a head node whose action
    is (machine state, pending symbol, position, pending move).  A cell copies
    the head's pending symbol when addressed; the head waits until the
    addressed cell shows the pending symbol, then moves (clamped to the tape)
    and applies the transition table at the new position.  The head is the
    identity on halting machine states, so halting configurations are stable.

    The reaction is a frame of the machine's shape plus the machine's code
    vector (see ``_tm_frame``): a row's head action is its frame value plus
    ``code[entry]``.  Machines of one shape share one ``ActionSpace``, and
    the frame of each shape is kept by ``core.shape_constant`` if it takes
    at most ``KEPT_BYTES``, under the indices of the halting states on that
    space (whose sizes give the cells, symbols and machine states).  The
    frame holds 8 * (cells + 2) bytes a state; the sweep's 144-state shape
    takes 4.6 KB.  It is built on the first tabulation, so building a system
    allocates nothing state-sized.  Beyond the bound, and for fewer rows than
    the whole space, the frame of the rows asked for is built afresh.  The
    tape's cells count against the budget before the space is built."""
    shape, code = _tm_shape(tm), _tm_code(tm)
    space = _tm_space(*shape[:3], budget)
    cells = tm.tape_cells

    def array_rule(d: np.ndarray) -> np.ndarray:
        rows, entry = _tm_frame_at(shape, space, d)
        rows[:, cells] += code[entry]
        return rows

    return HistorylessSystem.from_array_rule(space, array_rule, name="tm")


def tm_family_rows(tms: Sequence[TMDescription], budget: int | None = None) -> tuple[ActionSpace, np.ndarray]:
    """The action space and the (B, N, n) reaction rows of ``build_tm`` for
    each of B machines that share their machine states, halting states,
    alphabet and tape: the input of ``analyze.decide_convergence_many``.
    The B * N rows and their cells count against the budget before they exist.
    Every machine's rows are the one frame of the family's shape plus its own
    code vector, and the frame is kept as ``build_tm`` keeps it."""
    if not tms:
        raise InvalidInput("a machine family needs at least one machine")
    tm = tms[0]
    same = (tm.states, tm.halting, tm.n_symbols, tm.tape_cells)
    if any((t.states, t.halting, t.n_symbols, t.tape_cells) != same for t in tms):
        raise InvalidInput("the machines of a family must share states, halting states, symbols and cells")
    shape = _tm_shape(tm)
    space = _tm_space(*shape[:3], budget)
    _check_rows(len(tms) * space.num_states, space.n, "machine-system states", budget)
    frame, entry = _tm_frame_at(shape, space, space.digits())
    rows = np.repeat(frame[None], len(tms), axis=0)
    rows[:, :, tm.tape_cells] += np.array([_tm_code(t) for t in tms])[:, entry]
    return space, rows


def _tm_shape(tm: TMDescription) -> tuple[int, int, int, tuple[int, ...]]:
    """What the frame of a machine depends on: cells, symbols, the number of
    machine states and the indices of the halting ones (not their names)."""
    halting = tuple(i for i, q in enumerate(tm.states) if q in tm.halting)
    return tm.tape_cells, tm.n_symbols, len(tm.states), halting


@functools.cache
def _tm_space(cells: int, symbols: int, n_states: int, budget: int | None = None) -> ActionSpace:
    """The one action space of a machine shape: a node per cell, then the
    head.  Its nodes are counted as one state against the cell budget first,
    so no tuple of a size per cell exists beyond it."""
    _check_rows(1, cells + 1, "joint state", budget)
    return ActionSpace((symbols,) * cells + (n_states * symbols * cells * 3,))


def _tm_code(tm: TMDescription) -> np.ndarray:
    """The machine's code vector: entry ``q * symbols + s`` is the head action
    that delta(q, s) leads to, less its new position (which the frame holds);
    the last entry, read by every waiting head, is 0."""
    index = {q: i for i, q in enumerate(tm.states)}
    symbols, step = tm.n_symbols, 3 * tm.tape_cells
    code = [0] * (len(tm.states) * symbols + 1)
    for (q, s), (q2, s2, move) in tm.delta.items():
        code[index[q] * symbols + s] = (index[q2] * symbols + s2) * step + move + 1
    return np.array(code, dtype=np.int64)


def _tm_frame(cells: int, symbols: int, n_states: int, halting: tuple[int, ...], d: np.ndarray):
    """The frame of a machine shape at the states of ``d``: the reaction rows
    with a moving head's new action reduced to its new position (times 3),
    and each state's entry in the code vector, the last entry (0) where the
    head waits.  Every cell but the addressed one keeps its symbol, which
    becomes the pending symbol; the head waits on a halting state or until
    the addressed cell shows the pending symbol, else it moves (clamped to the
    tape) and reads the cell at its new position."""
    tape, head = d[:, :cells], d[:, cells]
    move = head % 3 - 1
    pos = head // 3 % cells
    sym = head // (3 * cells) % symbols
    q = head // (3 * cells * symbols)
    at = np.arange(d.shape[0])
    halts = np.zeros(n_states, dtype=bool)
    halts[list(halting)] = True
    waits = halts[q] | (tape[at, pos] != sym)
    new_pos = np.where((pos + move < 0) | (pos + move >= cells), pos, pos + move)
    rows = np.array(d, dtype=np.int64)
    rows[at, pos] = sym
    rows[:, cells] = np.where(waits, head, new_pos * 3)
    entry = np.where(waits, n_states * symbols, q * symbols + tape[at, new_pos])
    return rows, entry


def _tm_frame_at(shape, space: ActionSpace, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame rows, a fresh copy, and the code entries, which the caller
    only reads, at the states of ``d``: read from the kept frame when ``d`` is the space's own
    digits, as in every tabulation, and the frame (rows and entries) fits
    ``KEPT_BYTES``; else built for ``d`` alone (as for the one row of a
    reaction that its budget leaves untabulated).  The length is compared
    first, so a one-row call never asks for the digits of a large space."""
    kept = len(d) == space.num_states and shape_constant(
        ("tm-frame", shape[3]), space, lambda: _tm_frame(*shape, space.digits()), 8 * space.num_states * (space.n + 1)
    )
    if not kept or d is not space.digits():
        return _tm_frame(*shape, d)
    frame, entry = kept
    return frame.copy(), entry


# ---------------------------------------------------------------------------
# Snakes in the box
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Snake:
    """A simple chordless cycle in the hypercube Q_z, as a vertex sequence of
    bitmask integers."""

    dimension: int
    vertices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(_as_int(v, "snake vertex") for v in self.vertices))
        if not is_snake(self.dimension, self.vertices):
            raise InvalidInput(f"{self.vertices} is not a snake in Q_{self.dimension}")

    def __len__(self) -> int:
        return len(self.vertices)


def is_snake(z: int, vertices) -> bool:
    """Simple chordless cycle test: consecutive vertices differ in one bit and
    no other pair is adjacent in the hypercube."""
    vs = list(vertices)
    length = len(vs)
    if length < 4 or len(set(vs)) != length:
        return False
    if any(not 0 <= v < (1 << z) for v in vs):
        return False
    for i in range(length):
        for j in range(i + 1, length):
            adjacent = bin(vs[i] ^ vs[j]).count("1") == 1
            consecutive = j - i == 1 or (i == 0 and j == length - 1)
            if adjacent != consecutive:
                return False
    return True


@functools.cache
def longest_snake(z: int) -> Snake:
    """The lexicographically least of the longest chordless simple cycles in
    Q_z, found once per dimension by a depth-first search over chordless
    paths from the prefix (0, 1, 3); any snake maps onto one with that prefix
    by a hypercube automorphism, so the prefix loses no length.  Only Q_2 ..
    Q_5 are searched: the snake and disjointness systems need no more, and
    the search space grows too fast beyond them.

    ``near[v]`` is the bitmask of v's cube neighbours.  A vertex v off the
    path extends it when its only neighbour on the path is the last vertex,
    and closes the cycle when its neighbours on the path are the last vertex
    and 0.  Neighbours are tried in increasing order, so paths are visited in
    lexicographic order and the first longest cycle found is the least."""
    if z < 2:
        raise InvalidInput(f"snakes need dimension >= 2, got {z}")
    if z > 5:
        raise BudgetExceeded(f"the snake search covers Q_2 .. Q_5, not Q_{z}")
    neighbours = [sorted(v ^ 1 << b for b in range(z)) for v in range(1 << z)]
    near = [sum(1 << w for w in ws) for ws in neighbours]
    best: tuple[int, ...] = ()

    def grow(path: tuple[int, ...], on_path: int):
        nonlocal best
        last = path[-1]
        for v in neighbours[last]:
            if on_path >> v & 1:
                continue
            touching = near[v] & on_path
            if touching == 1 << last | 1:
                if len(path) >= len(best):
                    best = path + (v,)
            elif touching == 1 << last:
                grow(path + (v,), on_path | 1 << v)

    grow((0, 1, 3), 0b1011)
    return Snake(dimension=z, vertices=best)


def _cube_columns(z: int, vertices: tuple[int, ...]) -> np.ndarray:
    """(2^z, z) array: at cube vertex v, the actions of the cube nodes 3..n
    along the snake orientation; node j reads dimension n - j.

    The dimension-b edge between v0 and v1 = v0 | 2^b points at v1 iff v1 is
    on the snake and either v0 is off it or the snake runs from v0 to v1:
    snake edges follow the cycle, edges with one end on the snake point at
    it, and the others point at their lesser end.  Both ends read bit b of
    the end it points at, which is what makes the induced reactions
    self-independent."""
    on = np.zeros(1 << z, dtype=bool)
    on[list(vertices)] = True
    after = np.full(1 << z, -1, dtype=np.int64)
    after[list(vertices)] = vertices[1:] + vertices[:1]
    dims = 1 << np.arange(z - 1, -1, -1, dtype=np.int64)  # node 3 reads the top dimension
    v = np.arange(1 << z, dtype=np.int64)[:, None]
    v0, v1 = v & ~dims, v | dims
    return (on[v1] & (~on[v0] | (after[v0] == v1))).astype(np.int64)


def _cube_vertex(d: np.ndarray) -> np.ndarray:
    """The cube vertex of each state: node 3's action is the most significant bit."""
    cube = d[:, 2:]
    return cube @ (1 << np.arange(cube.shape[1] - 1, -1, -1, dtype=np.int64))


def snake_for_system(n: int) -> Snake:
    """The snake used by build_snake_system for n nodes (in Q_{n-2}).  It
    holds the one check of n for the snake and disjointness systems."""
    if not 5 <= n <= 7:
        raise InvalidInput(f"snake and disjointness systems support 5 <= n <= 7, got {n}")
    return longest_snake(n - 2)


def build_snake_system(n: int) -> HistorylessSystem:
    """The r-convergence gadget: nodes 1 and 2 play 0 only when everyone else
    does; cube nodes walk the snake orientation unless both 1 and 2 play 1, in
    which case they head for all-ones.  The unique stable state is all-ones,
    and the system is r-convergent exactly below the snake length."""
    snake = snake_for_system(n)
    cube = _cube_columns(n - 2, snake.vertices)

    def array_rule(d: np.ndarray) -> np.ndarray:
        out = np.ones_like(d)
        out[:, 0] = d[:, 1:].any(axis=1)
        out[:, 1] = d[:, 0] | d[:, 2:].any(axis=1)
        walk = (d[:, 0] == 0) | (d[:, 1] == 0)
        out[walk, 2:] = cube[_cube_vertex(d[walk])]
        return out

    space = ActionSpace((2,) * n)
    return HistorylessSystem.from_array_rule(space, array_rule, name="snake")


@functools.cache
def disjointness_snake(n: int) -> Snake:
    """The snake indexing the disjointness instance universe [q]: the maximal
    snake of Q_{n-2}, translated (if needed) so the all-ones vertex is not on
    it; the translation keeps length and chordlessness.  Found once per n."""
    snake = snake_for_system(n)
    z = n - 2
    all_ones = (1 << z) - 1
    members = set(snake.vertices)
    if all_ones not in members:
        return snake
    shift = min(t for t in range(1 << z) if (all_ones ^ t) not in members)
    return Snake(dimension=z, vertices=tuple(v ^ shift for v in snake.vertices))


def build_disjointness(n: int, A: Iterable[int], B: Iterable[int]) -> HistorylessSystem:
    """Set-disjointness gadget over the universe [q], q the snake length.

    Node 1 plays 0 exactly when the cube spells a snake vertex indexed by A
    and node 2's action is 1 (symmetrically for node 2 with B); cube nodes
    follow the snake orientation only while both 1 and 2 play 0, else they
    head for all-ones.  The system is convergent iff A and B are disjoint.
    """
    snake = disjointness_snake(n)
    z = n - 2
    q = len(snake)
    A = frozenset(_as_int(j, "index") for j in A)
    B = frozenset(_as_int(j, "index") for j in B)
    for j in A | B:
        if not 1 <= j <= q:
            raise InvalidInput(f"index {j} outside the universe 1..{q}")
    in_a = np.zeros(1 << z, dtype=bool)
    in_a[[snake.vertices[j - 1] for j in A]] = True
    in_b = np.zeros(1 << z, dtype=bool)
    in_b[[snake.vertices[j - 1] for j in B]] = True
    cube = _cube_columns(z, snake.vertices)

    def array_rule(d: np.ndarray) -> np.ndarray:
        v = _cube_vertex(d)
        out = np.ones_like(d)
        out[:, 0] = ~(in_a[v] & (d[:, 1] == 1))
        out[:, 1] = ~(in_b[v] & (d[:, 0] == 1))
        walk = (d[:, 0] == 0) & (d[:, 1] == 0)
        out[walk, 2:] = cube[v[walk]]
        return out

    space = ActionSpace((2,) * n)
    return HistorylessSystem.from_array_rule(space, array_rule, name="disjointness")


# ---------------------------------------------------------------------------
# Named fixtures
# ---------------------------------------------------------------------------


def _fig1() -> HistorylessSystem:
    space = ActionSpace((2, 2))
    return HistorylessSystem.from_array_rule(space, lambda d: d[:, ::-1], name="fig1")  # each node copies the other


def _ex_three_stable() -> HistorylessSystem:
    space = ActionSpace((2, 2))

    def array_rule(d: np.ndarray) -> np.ndarray:
        return np.where((d == 0).all(axis=1, keepdims=True), 1, d)  # (0, 0) -> (1, 1)

    return HistorylessSystem.from_array_rule(space, array_rule, name="ex-three-stable")


def _ex_unbounded_latched() -> HistorylessSystem:
    """Historyless stand-in for the unbounded-recall example: node 2 copies
    node 1; a latch node remembers ever observing node 2 at action 1; node 1
    plays 1 exactly when the latch is set.  The latch reads its own action, so
    the system is not self-independent, and it converges with stable states
    projecting to (0,0) and (1,1) on the first two nodes."""
    space = ActionSpace((2, 2, 2))

    def array_rule(d: np.ndarray) -> np.ndarray:
        a1, a2, latch = d.T
        return np.stack([latch, a1, latch | a2], axis=1)

    return HistorylessSystem.from_array_rule(space, array_rule, name="ex-unbounded-latched")


def _ring(n: int = 4) -> HistorylessSystem:
    space = ActionSpace((2,) * n)

    def array_rule(d: np.ndarray) -> np.ndarray:
        # a node plays 0 exactly when every other node does
        playing_1 = d != 0
        return (playing_1.sum(axis=1, keepdims=True) - playing_1 > 0).astype(np.int64)

    return HistorylessSystem.from_array_rule(space, array_rule, name="ring")


def _futile(n: int = 3) -> HistorylessSystem:
    """Three-action system in which random initialization is futile: the two
    unanimous states 0^n and 2^n are the only stable states, and they are
    reachable exactly from the 4n+2 states that already have n-1 agreeing
    extreme actions.  Every other state is trapped: extreme counts can never
    grow past n-2 again, and the trapped region churns around the all-1 state
    forever (the all-1 state bumps its last node to 2, everything else in the
    region pulls back to all-1), so no trajectory from it stabilizes."""
    space = ActionSpace((3,) * n)

    def array_rule(d: np.ndarray) -> np.ndarray:
        zeros, twos = d == 0, d == 2
        # a node follows the others when they all play 0 or all play 2,
        # else it plays 1; the last node of the all-1 state plays 2
        out = np.ones_like(d)
        out[:, n - 1] += (d == 1).all(axis=1)
        out[zeros.sum(axis=1, keepdims=True) - zeros == n - 1] = 0
        out[twos.sum(axis=1, keepdims=True) - twos == n - 1] = 2
        return out

    return HistorylessSystem.from_array_rule(space, array_rule, name="futile")


class Fixture(NamedTuple):
    """A named example: its builder, whether it is a "system" or a "game",
    and the least n it takes, or None when it takes no parameter."""

    build: Callable
    kind: str
    min_n: int | None = None


FIXTURES = {
    "fig1": Fixture(_fig1, "system"),
    "ex-three-stable": Fixture(_ex_three_stable, "system"),
    "ex-unbounded-latched": Fixture(_ex_unbounded_latched, "system"),
    "ring": Fixture(_ring, "system", min_n=2),  # n defaults to 4
    "futile": Fixture(_futile, "system", min_n=3),  # n defaults to 3
    "m1m2": Fixture(fixture_game_2x2x2, "game"),
}


def fixture(name: str, budget: int | None = None, **params):
    """The named example instance of ``FIXTURES``; only a fixture with an n
    bound takes a parameter, its size n, counted against the budget as the
    nodes of one state before the fixture is built."""
    if name not in FIXTURES:
        raise InvalidInput(f"unknown fixture {name!r}")
    build, _, min_n = FIXTURES[name]
    extra = set(params) - (set() if min_n is None else {"n"})
    if extra:
        raise InvalidInput(f"fixture {name!r} takes no parameter {sorted(extra)}")
    if "n" in params:
        params["n"] = _as_int(params["n"], "fixture size n")
        if params["n"] < min_n:
            raise InvalidInput(f"fixture {name!r} needs n >= {min_n}, got {params['n']}")
        _check_rows(1, params["n"], "joint state", budget)  # before the fixture builds a tuple of n sizes
    return build(**params)
