"""Exact decision procedures over the full transition graph.

Every operation enumerates the whole state space (within the enumeration
budget), so verdicts are exact rather than sampled.  Non-convergence verdicts
always carry a replayable witness: an initial state plus a periodic schedule
read off a closed walk whose activation labels cover every node and which
changes the state at least once.  Such a walk exists inside a strongly
connected component if and only if some fair trajectory oscillates forever, so
SCC decomposition decides convergence.

A system is compiled once by ``transition_graph``; every operation accepts
the resulting TransitionGraph in place of the system, so a caller asking
several questions builds the graph and its SCCs once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .core import (
    ActionSpace,
    ActivationSet,
    HistorylessSystem,
    LiftedSystem,
    resolve_budget,
)
from .errors import BudgetExceeded, InvalidInput, Unsupported
from .simulate import Witness

MAX_SUBSET_NODES = 16  # 2^n activation subsets are enumerated per state


def subset_to_nodes(s: int, n: int) -> ActivationSet:
    return frozenset(i + 1 for i in range(n) if (s >> i) & 1)


@dataclass(frozen=True)
class Convergent:
    pass


@dataclass(frozen=True)
class NonConvergent:
    witness: Witness


ConvergenceVerdict = Union[Convergent, NonConvergent]


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Compiled form of a historyless or lifted k-recall system.

    ``succ[s, a]`` is the encoded successor of state (or window) a under the
    activation subset with bitmask s (bit i-1 = node i).  The SCC labels and
    the fixed-point mask are computed on first use and cached.
    """

    system: HistorylessSystem | LiftedSystem
    succ: np.ndarray

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def _codec(self):
        # ActionSpace and LiftedSystem share encode / decode / validate_state
        return self.system.space if isinstance(self.system, HistorylessSystem) else self.system

    def node(self, idx: int):
        """The state (or window, for a lifted system) with encoded index idx."""
        return self._codec.decode(idx)

    def window(self, idx: int):
        """The history window of node idx: a historyless state is a window of one."""
        node = self.node(idx)
        return (node,) if isinstance(self.system, HistorylessSystem) else node

    def index(self, state) -> int:
        return self._codec.encode(self._codec.validate_state(state))

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """(number of SCCs, SCC label of every node)."""
        return _strong_components(self.succ)

    @cached_property
    def fixed(self) -> np.ndarray:
        """Mask of the nodes that every activation subset keeps in place."""
        idx = np.arange(self.succ.shape[1], dtype=np.int64)
        return (self.succ[0] == idx) & (self.succ[-1] == idx)

    @property
    def states(self) -> tuple:
        return tuple(map(self.node, range(self.succ.shape[1])))

    @property
    def edges(self) -> tuple:
        """One (state, activation set, state) edge per state and subset."""
        states = self.states
        labels = [subset_to_nodes(s, self.n) for s in range(self.succ.shape[0])]
        return tuple(
            (a, labels[s], states[b])
            for a, column in zip(states, self.succ.T.tolist())
            for s, b in enumerate(column)
        )


@dataclass(frozen=True, eq=False)
class CommitMap:
    """Per-state commitment: the single stable state every fair trajectory
    reaches, or None for uncommitted states."""

    entries: dict

    def target(self, state):
        return self.entries[state]

    def is_committed(self, state) -> bool:
        return self.entries[state] is not None

    def uncommitted(self):
        return sorted(s for s, t in self.entries.items() if t is None)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def successor_matrix(system, budget: int | None = None) -> np.ndarray:
    """(2^n, N) array: entry [s, a] is the encoded successor of state a under
    the activation subset with bitmask s (bit i-1 = node i).

    A historyless system is a lifted one whose windows hold one state: the
    successor of a window drops its oldest state and appends the newest one
    with the activated coordinates replaced by the reaction.
    """
    if isinstance(system, HistorylessSystem):
        space = system.space
    elif isinstance(system, LiftedSystem):
        space = system.base.space
    else:
        raise Unsupported(f"no transition interface for {type(system).__name__}")
    n = space.n
    if n > MAX_SUBSET_NODES:
        raise BudgetExceeded(
            f"{n} nodes means 2^{n} activation subsets per state; refusing beyond {MAX_SUBSET_NODES}"
        )
    rows = system.reaction_rows(budget)
    nb = space.num_states
    count = rows.shape[0]
    # the digits of a window index are those of its newest state
    delta = ((rows.reshape(-1, nb, n) - space.digits()) * space.weights).reshape(count, n)
    idx = np.arange(count, dtype=np.int64)
    succ = np.empty((1 << n, count), dtype=np.int64)
    succ[0] = (idx % (count // nb)) * nb + idx % nb
    for b in range(n):  # a subset with highest bit b adds node b+1 to a smaller one
        succ[1 << b : 2 << b] = succ[: 1 << b] + delta[:, b]
    return succ


def transition_graph(system, budget: int | None = None) -> TransitionGraph:
    """Compile a historyless or lifted k-recall system into its transition
    graph; every analyze operation accepts the result in place of the system."""
    return TransitionGraph(system, successor_matrix(system, budget))


def _compiled(system, budget: int | None) -> TransitionGraph:
    return system if isinstance(system, TransitionGraph) else transition_graph(system, budget)


def _strong_components(targets: np.ndarray) -> tuple[int, np.ndarray]:
    """SCCs of the graph with an edge u -> targets[s, u] for every s where
    that entry is >= 0 (negative entries are forbidden moves)."""
    m, count = targets.shape
    flat = targets.T.ravel()
    keep = flat >= 0
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(keep.reshape(count, m).sum(axis=1), out=indptr[1:])
    graph = sparse.csr_matrix(
        (np.ones(int(indptr[-1]), dtype=np.int8), flat[keep], indptr), shape=(count, count)
    )
    ncomp, labels = connected_components(graph, directed=True, connection="strong")
    return int(ncomp), labels


def _bfs_inside(targets: np.ndarray, labels, comp, start: int, is_goal):
    """Deterministic BFS over the edges u -> targets[s, u] that stay inside
    component comp; returns (subset labels along the path, goal node)."""
    if is_goal(start):
        return [], start
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for s, v in enumerate(targets[:, u].tolist()):
            if v < 0 or labels[v] != comp or v in parent:
                continue
            parent[v] = (u, s)
            if is_goal(v):
                path = []
                node = v
                while parent[node] is not None:
                    node, ps = parent[node]
                    path.append(ps)
                return list(reversed(path)), v
            queue.append(v)
    raise AssertionError("no internal path found; SCC invariant violated")


def _primitive_cycle(cycle: tuple) -> tuple:
    length = len(cycle)
    for p in range(1, length):
        if length % p == 0 and cycle == cycle[:p] * (length // p):
            return cycle[:p]
    return cycle


def _oscillating_components(graph: TransitionGraph) -> np.ndarray:
    """Components with an internal state-changing edge whose internal labels
    jointly activate every node."""
    succ = graph.succ
    ncomp, labels = graph.components
    idx = np.arange(succ.shape[1], dtype=np.int64)
    cover = np.zeros(ncomp, dtype=np.int64)
    changing = np.zeros(ncomp, dtype=bool)
    for s in range(succ.shape[0]):
        v = succ[s]
        internal = labels == labels[v]
        np.bitwise_or.at(cover, labels[internal], s)
        moved = internal & (v != idx)
        if moved.any():
            np.logical_or.at(changing, labels[moved], True)
    return changing & (cover == (1 << graph.n) - 1)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def scc_count(system, budget: int | None = None) -> int:
    """Number of strongly connected components of the transition graph."""
    return _compiled(system, budget).components[0]


def stable_states(system, budget: int | None = None) -> frozenset:
    """Exactly the fixed points of the full reaction map."""
    graph = _compiled(system, budget)
    return frozenset(graph.node(int(i)) for i in np.where(graph.fixed)[0])


def spectrum(system, state, budget: int | None = None) -> frozenset:
    """Stable states reachable from the given state in the transition graph."""
    graph = _compiled(system, budget)
    succ = graph.succ
    start = graph.index(state)
    visited = np.zeros(succ.shape[1], dtype=bool)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        nxt = np.unique(succ[:, frontier])
        nxt = nxt[~visited[nxt]]
        visited[nxt] = True
        frontier = nxt
    return frozenset(graph.node(int(i)) for i in np.where(graph.fixed & visited)[0])


def decide_convergence(system, budget: int | None = None) -> ConvergenceVerdict:
    """Does every fair trajectory from every initial state converge?

    NonConvergent verdicts carry a witness: any state of an oscillating SCC as
    the initial state, with the periodic schedule read off a covering closed
    walk inside that SCC.
    """
    graph = _compiled(system, budget)
    labels = graph.components[1]
    osc = _oscillating_components(graph)
    if not osc.any():
        return Convergent()
    start = int(np.argmax(osc[labels]))
    return NonConvergent(_component_witness(graph, int(labels[start])))


def _component_witness(graph: TransitionGraph, comp: int) -> Witness:
    succ = graph.succ
    labels = graph.components[1]
    n = graph.n
    m = succ.shape[0]
    members = np.where(labels == comp)[0]
    # deterministic first state-changing internal edge
    edge = None
    for u in members.tolist():
        for s in range(1, m):
            v = int(succ[s, u])
            if v != u and labels[v] == comp:
                edge = (u, s, v)
                break
        if edge:
            break
    assert edge is not None, "oscillating component must contain a changing edge"
    u0, s0, v0 = edge
    walk = [s0]
    covered = s0
    pos = v0
    full = (1 << n) - 1
    for b in range(n):
        if covered >> b & 1:
            continue

        def has_b_edge(x, _b=b):
            return any(
                (s >> _b) & 1 and labels[int(succ[s, x])] == comp for s in range(m)
            )

        path, reached = _bfs_inside(succ, labels, comp, pos, has_b_edge)
        walk.extend(path)
        s_b = next(
            s for s in range(m) if (s >> b) & 1 and labels[int(succ[s, reached])] == comp
        )
        walk.append(s_b)
        covered |= s_b
        pos = int(succ[s_b, reached])
        if covered == full:
            break
    back, _ = _bfs_inside(succ, labels, comp, pos, lambda x: x == u0)
    walk.extend(back)
    cycle = _primitive_cycle(tuple(subset_to_nodes(s, n) for s in walk))
    return Witness(initial=graph.window(u0), cycle=cycle)


def committed_map(system, budget: int | None = None) -> CommitMap:
    """For each state: the unique stable state all fair trajectories reach, or
    None when the state is uncommitted (several reachable stable states, or a
    reachable fair oscillation)."""
    graph = _compiled(system, budget)
    succ = graph.succ
    count = succ.shape[1]
    ncomp, labels = graph.components
    osc = _oscillating_components(graph)

    pair_keys = set()
    for s in range(succ.shape[0]):
        lu = labels
        lv = labels[succ[s]]
        diff = lu != lv
        if diff.any():
            keys = np.unique(lu[diff].astype(np.int64) * ncomp + lv[diff])
            pair_keys.update(keys.tolist())
    cadj: list[list[int]] = [[] for _ in range(ncomp)]
    radj: list[list[int]] = [[] for _ in range(ncomp)]
    indeg = [0] * ncomp
    for key in sorted(pair_keys):
        cu, cv = divmod(key, ncomp)
        cadj[cu].append(cv)
        radj[cv].append(cu)
        indeg[cv] += 1

    reaches_osc = osc.copy()
    queue = deque(int(c) for c in np.where(osc)[0])
    while queue:
        c = queue.popleft()
        for p in radj[c]:
            if not reaches_osc[p]:
                reaches_osc[p] = True
                queue.append(p)

    stable_idx = np.where(graph.fixed)[0].tolist()
    stable_bit = {int(si): 1 << j for j, si in enumerate(stable_idx)}
    own_bits = [0] * ncomp
    for si in stable_idx:
        own_bits[int(labels[si])] |= stable_bit[int(si)]

    order = []
    todo = deque(c for c in range(ncomp) if indeg[c] == 0)
    indeg_work = list(indeg)
    while todo:
        c = todo.popleft()
        order.append(c)
        for child in cadj[c]:
            indeg_work[child] -= 1
            if indeg_work[child] == 0:
                todo.append(child)
    reach_bits = list(own_bits)
    for c in reversed(order):
        for child in cadj[c]:
            reach_bits[c] |= reach_bits[child]

    entries = {}
    for i in range(count):
        c = int(labels[i])
        bits = reach_bits[c]
        if reaches_osc[c] or bits == 0 or bits & (bits - 1):
            entries[graph.node(i)] = None
        else:
            entries[graph.node(i)] = graph.node(stable_idx[bits.bit_length() - 1])
    return CommitMap(entries=entries)


# ---------------------------------------------------------------------------
# r-fair convergence via the counter product graph
# ---------------------------------------------------------------------------


def decide_r_convergence(system, r: int, budget: int | None = None) -> ConvergenceVerdict:
    """Does every r-fair trajectory converge?

    Each state is augmented with per-node steps-since-activation counters in
    0..r-1 (initially 0); transitions that would push a counter to r are
    forbidden, so every infinite path of the product graph is exactly an r-fair
    run.  The system is r-convergent iff no cycle reachable from a zero-counter
    state changes the underlying state.
    """
    if r < 1:
        raise InvalidInput(f"r must be >= 1, got {r}")
    graph = _compiled(system, budget)
    succ = graph.succ
    n = graph.n
    m, count = succ.shape
    M = r ** n
    limit = resolve_budget(budget)
    if count * M > limit:
        raise BudgetExceeded(
            f"product graph has {count * M} states, exceeding the budget {limit}"
        )

    counters = ActionSpace((r,) * n)
    rweights = counters.weights
    cdig = counters.digits()
    masks = ((np.arange(m)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    cmap = np.empty((m, M), dtype=np.int64)
    for s in range(m):
        new = np.where(masks[s][None, :], 0, cdig + 1)
        bad = (new >= r).any(axis=1)
        enc = new @ rweights
        enc[bad] = -1
        cmap[s] = enc

    total = count * M
    sources = np.arange(count, dtype=np.int64) * M  # all counters zero
    visited = np.zeros(total, dtype=bool)
    visited[sources] = True
    parent = np.full(total, -1, dtype=np.int64)
    pedge = np.full(total, -1, dtype=np.int16)
    frontier = sources
    while frontier.size:
        pieces = []
        for s in range(m):
            vc = cmap[s, frontier % M]
            ok = vc >= 0
            if not ok.any():
                continue
            src = frontier[ok]
            tgt = succ[s, src // M] * M + vc[ok]
            fresh = ~visited[tgt]
            if not fresh.any():
                continue
            t_new = tgt[fresh]
            s_new = src[fresh]
            uniq, first = np.unique(t_new, return_index=True)
            visited[uniq] = True
            parent[uniq] = s_new[first]
            pedge[uniq] = s
            pieces.append(uniq)
        frontier = np.sort(np.concatenate(pieces)) if pieces else np.empty(0, dtype=np.int64)

    # product edges between reachable states, by position in ``reachable``:
    # targets[s, j] is the position of the successor of reachable[j] under s,
    # or -1 where s would push a counter to r
    reachable = np.where(visited)[0]
    pos = np.full(total, -1, dtype=np.int64)
    pos[reachable] = np.arange(reachable.size)
    vc = cmap[:, reachable % M]
    u_state = reachable // M
    targets = np.where(vc >= 0, pos[succ[:, u_state] * M + vc], -1)
    labels = _strong_components(targets)[1]

    moved = (targets >= 0) & (labels[targets] == labels) & (u_state[targets] != u_state)
    if not moved.any():
        return Convergent()

    # deterministic changing edge: smallest (product index, subset)
    j, s_chg = divmod(int(np.argmax(moved.T.ravel())), m)
    comp = int(labels[j])

    prefix_subsets = []
    node = int(reachable[j])
    while parent[node] >= 0:
        prefix_subsets.append(int(pedge[node]))
        node = int(parent[node])
    prefix_subsets.reverse()
    source_state = int(node // M)

    back, _ = _bfs_inside(targets, labels, comp, int(targets[s_chg, j]), lambda x: x == j)
    cycle = _primitive_cycle(
        tuple(subset_to_nodes(s, n) for s in [s_chg] + back)
    )
    prefix = tuple(subset_to_nodes(s, n) for s in prefix_subsets)
    full_nodes = frozenset(range(1, n + 1))
    assert frozenset().union(*cycle) == full_nodes, "r-fair cycle must activate every node"
    return NonConvergent(
        Witness(initial=graph.window(source_state), cycle=cycle, prefix=prefix)
    )
