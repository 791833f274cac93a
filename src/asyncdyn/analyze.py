"""Exact decision procedures over the full transition graph.

Every operation enumerates the whole state space (within the enumeration
budget), so verdicts are exact rather than sampled.  Non-convergence verdicts
always carry a replayable witness: an initial state plus a periodic schedule
read off a closed walk whose activation labels cover every node and which
changes the state at least once.  Such a walk exists inside a strongly
connected component if and only if some fair trajectory oscillates forever, so
SCC decomposition decides convergence.

The graph holds one edge per distinct successor.  Let D(a) be the nodes whose
reaction differs from their current action in state a (for a lifted system,
in the newest state of the window).  Activating T and activating
T | (nodes outside D(a)) take the same step, so state a has one edge per
subset T of D(a), labelled with that larger activation set; activating more
nodes keeps every fairness and r-fairness property.  An SCC then oscillates
iff it has an internal state-changing edge and the labels of its internal
edges cover every node.

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
    _check_count,
    _checked_rows,
    resolve_budget,
)
from .errors import BudgetExceeded, InvalidInput, Unsupported
from .simulate import Witness

MAX_SUBSET_NODES = 16  # export-dot lists 2^n activation subsets per state


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
class SuccessorGraph:
    """A graph with labelled edges in CSR form.

    The edges of node u are ``indptr[u]:indptr[u+1]``; edge e leads from
    ``src[e]`` to ``dst[e]`` under the activation set ``label[e]`` (a bitmask,
    bit i-1 = node i).
    """

    indptr: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    label: np.ndarray

    @property
    def rows(self) -> int:
        return self.indptr.size - 1

    @property
    def size(self) -> int:
        """Number of edges."""
        return self.dst.size

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.src.nbytes + self.dst.nbytes + self.label.nbytes


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Compiled form of a historyless or lifted k-recall system.

    ``succ`` holds the distinct successors of every state (or window): the
    edges of state a are in ascending order of T, the subset of D(a) they
    activate, so the first edge is the step of the empty activation set.  The
    SCC labels and the fixed-point mask are computed on first use and cached.
    """

    system: HistorylessSystem | LiftedSystem
    succ: SuccessorGraph

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

    def witness(self, idx: int, cycle: tuple, prefix: tuple = ()) -> Witness:
        """A witness whose run starts at node idx.  A replay spends the first
        k-1 activation sets of the schedule on the history inside a k-window,
        so those come first, as sets that activate every node."""
        node = self.node(idx)
        window = (node,) if isinstance(self.system, HistorylessSystem) else node
        everyone = frozenset(range(1, self.n + 1))
        return Witness(initial=window, cycle=cycle, prefix=(everyone,) * (len(window) - 1) + prefix)

    def index(self, state) -> int:
        return self._codec.encode(self._codec.validate_state(state))

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """(number of SCCs, SCC label of every node)."""
        return _strong_components(self.succ)

    @cached_property
    def fixed(self) -> np.ndarray:
        """Mask of the nodes that every activation subset keeps in place."""
        indptr = self.succ.indptr
        idx = np.arange(self.succ.rows, dtype=np.int64)
        return (np.diff(indptr) == 1) & (self.succ.dst[indptr[:-1]] == idx)

    @property
    def states(self) -> tuple:
        return tuple(map(self.node, range(self.succ.rows)))

    @property
    def edges(self) -> tuple:
        """One (state, activation set, state) edge per state and subset: the
        subset s at state a takes the edge whose T is s & D(a)."""
        states = self.states
        full = (1 << self.n) - 1
        subsets = [subset_to_nodes(s, self.n) for s in range(full + 1)]
        indptr, dst, label = (arr.tolist() for arr in (self.succ.indptr, self.succ.dst, self.succ.label))
        edges = []
        for a, state in enumerate(states):
            lo, hi = indptr[a], indptr[a + 1]
            changing = full ^ label[lo]
            by_t = {t & changing: states[b] for t, b in zip(label[lo:hi], dst[lo:hi])}
            edges.extend((state, subsets[s], by_t[s & changing]) for s in range(full + 1))
        return tuple(edges)


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


def successor_matrix(system, budget: int | None = None) -> SuccessorGraph:
    """The distinct successors of every state (or window) of the system.

    Row a holds one edge per subset T of D(a), in ascending order of T,
    labelled T | (nodes outside D(a)).  The edges are counted from the
    degrees |D(a)| and checked against the budget before they are built.
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
    rows = system.reaction_rows(budget)
    return _successor_blocks(space, rows, rows.shape[0], budget)


def _successor_blocks(space: ActionSpace, rows: np.ndarray, block: int, budget: int | None) -> SuccessorGraph:
    """One CSR over reaction rows stacked in blocks of ``block`` rows: the
    windows (or states) of one system, each block a separate system whose
    node ids are offset by the block's first row."""
    n, nb = space.n, space.num_states
    if n > MAX_SUBSET_NODES:
        raise BudgetExceeded(
            f"{n} nodes means 2^{n} activation subsets per state; refusing beyond {MAX_SUBSET_NODES}"
        )
    count = rows.shape[0]
    # the digits of a window index are those of its newest state
    delta = ((rows.reshape(-1, nb, n) - space.digits()) * space.weights).reshape(count, n)
    changes = delta != 0
    # D(a) of every row, ascending, row after row
    rows_d, nodes_d = np.nonzero(changes)
    degree = np.bincount(rows_d, minlength=count)
    width = 1 << degree
    total = _check_count(int(width.sum()), "distinct transitions", budget)

    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(width, out=indptr[1:])
    src = np.repeat(np.arange(count, dtype=np.int64), width)
    dst = np.empty(total, dtype=np.int64)
    label = np.empty(total, dtype=np.int64)
    idx = np.arange(count, dtype=np.int64)
    window = idx % block
    dst[indptr[:-1]] = idx - window + (window % (block // nb)) * nb + idx % nb
    label[indptr[:-1]] = ~changes @ (1 << np.arange(n, dtype=np.int64))
    first_d = np.cumsum(degree) - degree
    step, bit = delta[rows_d, nodes_d], 1 << nodes_d
    for b in range(int(degree.max(initial=0))):
        # the subsets whose highest node is the b-th of D(a) are the 2^b after
        # the first 2^b, and each adds that node to the one 2^b before it
        a = np.flatnonzero(degree > b)
        e = ((indptr[a] + (1 << b))[:, None] + np.arange(1 << b)).ravel()
        k = np.repeat(first_d[a] + b, 1 << b)
        dst[e] = dst[e - (1 << b)] + step[k]
        label[e] = label[e - (1 << b)] | bit[k]
    return SuccessorGraph(indptr, src, dst, label)


def transition_graph(system, budget: int | None = None) -> TransitionGraph:
    """Compile a historyless or lifted k-recall system into its transition
    graph; every analyze operation accepts the result in place of the system."""
    return TransitionGraph(system, successor_matrix(system, budget))


def _compiled(system, budget: int | None) -> TransitionGraph:
    return system if isinstance(system, TransitionGraph) else transition_graph(system, budget)


def _row_edges(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges of the given rows, row by row in CSR order, and for each
    edge the position of its row in ``rows``."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), lens)
    ends = np.cumsum(lens)
    return np.arange(owner.size, dtype=np.int64) + (starts - (ends - lens))[owner], owner


def _strong_components(graph: SuccessorGraph) -> tuple[int, np.ndarray]:
    """(number of SCCs, SCC label of every node) of a CSR graph."""
    # float64 data is what scipy works on: other types are converted by a copy
    # that also sorts and deduplicates, though each row's targets are distinct
    adjacency = sparse.csr_matrix(
        (np.ones(graph.size, dtype=np.float64), graph.dst, graph.indptr),
        shape=(graph.rows, graph.rows),
    )
    ncomp, labels = connected_components(adjacency, directed=True, connection="strong")
    return int(ncomp), labels


def _bfs_inside(graph: SuccessorGraph, labels, comp, start: int, is_goal):
    """Deterministic BFS over the edges that stay inside component comp;
    returns (activation labels along the path, goal node)."""
    if is_goal(start):
        return [], start
    indptr, dst, label = graph.indptr, graph.dst, graph.label
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        lo, hi = indptr[u], indptr[u + 1]
        for v, s in zip(dst[lo:hi].tolist(), label[lo:hi].tolist()):
            if labels[v] != comp or v in parent:
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


def _oscillating_components(succ: SuccessorGraph, components, n: int, src, dst) -> np.ndarray:
    """Components with an internal edge that changes the underlying state,
    from ``src[e]`` to ``dst[e]``, and whose internal labels jointly activate
    every node."""
    ncomp, labels = components
    comp = labels[succ.src]
    internal = comp == labels[succ.dst]
    cover = np.zeros(ncomp, dtype=np.int64)
    np.bitwise_or.at(cover, comp[internal], succ.label[internal])
    changing = np.zeros(ncomp, dtype=bool)
    changing[comp[internal & (dst != src)]] = True
    return changing & (cover == (1 << n) - 1)


def _oscillation(succ: SuccessorGraph, components, n: int, src, dst):
    """None if no component oscillates.  Otherwise (u, cycle): the activation
    sets of a covering, state-changing closed walk from node u inside the
    oscillating component that holds the lowest-numbered node."""
    labels = components[1]
    osc = _oscillating_components(succ, components, n, src, dst)
    if not osc.any():
        return None
    comp = int(labels[np.argmax(osc[labels])])
    return _component_witness(succ, labels, comp, n, src, dst)


def _component_witness(succ: SuccessorGraph, labels, comp: int, n: int, src, dst):
    inside = (labels[succ.src] == comp) & (labels[succ.dst] == comp)
    # deterministic first state-changing internal edge
    moves = inside & (dst != src)
    assert moves.any(), "oscillating component must contain a changing edge"
    e0 = int(np.argmax(moves))
    u0 = int(succ.src[e0])
    walk = [int(succ.label[e0])]
    covered = walk[0]
    pos = int(succ.dst[e0])
    full = (1 << n) - 1
    for b in range(n):
        if covered == full:
            break
        if covered >> b & 1:
            continue
        # the first internal edge activating node b+1 of every node that has one
        with_b = np.flatnonzero(inside & (succ.label >> b & 1 == 1))
        nodes, first = np.unique(succ.src[with_b], return_index=True)
        b_edge = dict(zip(nodes.tolist(), with_b[first].tolist()))
        path, reached = _bfs_inside(succ, labels, comp, pos, b_edge.__contains__)
        e = b_edge[reached]
        walk.extend(path)
        walk.append(int(succ.label[e]))
        covered |= walk[-1]
        pos = int(succ.dst[e])
    back, _ = _bfs_inside(succ, labels, comp, pos, lambda x: x == u0)
    walk.extend(back)
    return u0, _primitive_cycle(tuple(subset_to_nodes(s, n) for s in walk))


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
    visited = np.zeros(succ.rows, dtype=bool)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        nxt = np.unique(succ.dst[_row_edges(succ.indptr, frontier)[0]])
        nxt = nxt[~visited[nxt]]
        visited[nxt] = True
        frontier = nxt
    return frozenset(graph.node(int(i)) for i in np.where(graph.fixed & visited)[0])


def decide_convergence(system, budget: int | None = None) -> ConvergenceVerdict:
    """Does every fair trajectory from every initial state converge?

    NonConvergent verdicts carry a witness: a state of an oscillating SCC as
    the initial state, with the periodic schedule read off a covering closed
    walk inside that SCC.
    """
    graph = _compiled(system, budget)
    succ = graph.succ
    found = _oscillation(succ, graph.components, graph.n, succ.src, succ.dst)
    return Convergent() if found is None else NonConvergent(graph.witness(*found))


def decide_convergence_many(space: ActionSpace, rows, budget: int | None = None) -> np.ndarray:
    """Convergence of a family of historyless systems over one action space.

    ``rows`` has shape (B, N, n): ``rows[b]`` is the reaction rows of system
    b.  Returns a (B,) bool array, True where the system is convergent.  The
    systems are decided in chunks of consecutive systems whose edges fit the
    budget: one CSR with one block per system, one SCC pass and one
    oscillation scan per chunk.  A witness for a non-convergent system comes
    from ``decide_convergence`` on that system alone.
    """
    rows = np.asarray(rows)
    N, n = space.num_states, space.n
    if rows.ndim != 3 or rows.shape[1:] != (N, n):
        raise InvalidInput(f"rows must have shape (B, {N}, {n}), got {rows.shape}")
    space.check_budget(budget)
    B = rows.shape[0]
    rows = _checked_rows(space, rows.reshape(B * N, n), B * N).reshape(B, N, n)
    edges = np.cumsum((1 << (rows != space.digits()).sum(axis=2)).sum(axis=1))
    limit = resolve_budget(budget)
    convergent = np.empty(B, dtype=bool)
    start = 0
    while start < B:
        # the most systems whose edges fit; a lone system over the budget is
        # refused by the builder
        before = edges[start - 1] if start else 0
        stop = max(int(np.searchsorted(edges, before + limit, side="right")), start + 1)
        succ = _successor_blocks(space, rows[start:stop].reshape(-1, n), N, budget)
        components = _strong_components(succ)
        osc = _oscillating_components(succ, components, n, succ.src, succ.dst)
        convergent[start:stop] = ~osc[components[1]].reshape(-1, N).any(axis=1)
        start = stop
    return convergent


def committed_map(system, budget: int | None = None) -> CommitMap:
    """For each state: the unique stable state all fair trajectories reach, or
    None when the state is uncommitted (several reachable stable states, or a
    reachable fair oscillation)."""
    graph = _compiled(system, budget)
    succ = graph.succ
    ncomp, labels = graph.components
    osc = _oscillating_components(succ, graph.components, graph.n, succ.src, succ.dst)

    lu = labels[succ.src].astype(np.int64)
    lv = labels[succ.dst]
    diff = lu != lv
    cadj: list[list[int]] = [[] for _ in range(ncomp)]
    radj: list[list[int]] = [[] for _ in range(ncomp)]
    indeg = [0] * ncomp
    for key in np.unique(lu[diff] * ncomp + lv[diff]).tolist():
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
    for i in range(succ.rows):
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
    0..r-1 (initially 0); an edge with label L resets the counters in L and
    adds one to the others, and edges that would push a counter to r are
    forbidden, so every infinite path of the product graph is exactly an r-fair
    run of the larger labels.  A node never activated on a cycle would have a
    counter that only rises, so every product cycle activates every node: the
    system is r-convergent iff no product SCC reachable from a zero-counter
    state has an internal edge that changes the underlying state, which is
    the test of ``decide_convergence``.
    """
    if r < 1:
        raise InvalidInput(f"r must be >= 1, got {r}")
    graph = _compiled(system, budget)
    n = graph.n
    product, state, parent, plabel = _counter_product(graph.succ, n, r, budget)
    src, dst = product.src, product.dst
    found = _oscillation(product, _strong_components(product), n, state[src], state[dst])
    if found is None:
        return Convergent()
    u, cycle = found
    prefix = []
    while parent[u] >= 0:
        prefix.append(subset_to_nodes(int(plabel[u]), n))
        u = int(parent[u])
    return NonConvergent(graph.witness(int(state[u]), cycle, tuple(reversed(prefix))))


def _counter_product(succ: SuccessorGraph, n: int, r: int, budget: int | None):
    """The r-counter product over the states reachable from the zero-counter
    ones: (graph, underlying state, BFS parent, label from the parent) by id.

    Ids follow the BFS: the roots (state a has id a), then each layer's new
    states in order of key = state * r^n + counters.  Each layer's candidate
    transitions are counted against the budget before it is expanded.
    """
    count, M = succ.rows, r ** n
    if count * M > np.iinfo(np.int64).max:
        raise BudgetExceeded(f"the product graph's {count * M} state keys overflow int64")
    weights = ActionSpace((r,) * n).weights.tolist()
    degree = np.diff(succ.indptr)
    seen_ids = np.arange(count, dtype=np.int64)
    seen_keys = frontier = seen_ids * M
    layers = [(frontier, np.full(count, -1, dtype=np.int64), np.zeros(count, dtype=np.int64))]
    pieces = []  # product edges (source id, target id, label), by source id
    examined = first_id = 0
    while frontier.size:
        examined += int(degree[frontier // M].sum())
        _check_count(examined, "product transitions", budget)
        e, owner = _row_edges(succ.indptr, frontier // M)
        lab = succ.label[e]
        counters = frontier[owner] % M
        tgt = succ.dst[e] * M
        ok = np.ones(e.size, dtype=bool)
        for i, w in enumerate(weights):
            new = np.where(lab >> i & 1 == 1, 0, counters // w % r + 1)
            ok &= new < r
            tgt += new * w
        src, tgt, lab = first_id + owner[ok], tgt[ok], lab[ok]
        at = np.minimum(np.searchsorted(seen_keys, tgt), seen_keys.size - 1)
        known = seen_keys[at] == tgt
        frontier, first, inverse = np.unique(tgt[~known], return_index=True, return_inverse=True)
        first_id = seen_ids.size
        dst = np.empty(tgt.size, dtype=np.int64)
        dst[known] = seen_ids[at[known]]
        dst[~known] = first_id + inverse
        pieces.append((src, dst, lab))
        layers.append((frontier, src[~known][first], lab[~known][first]))
        at = np.searchsorted(seen_keys, frontier)
        seen_keys = np.insert(seen_keys, at, frontier)
        seen_ids = np.insert(seen_ids, at, np.arange(first_id, first_id + frontier.size))

    key, parent, plabel = (np.concatenate(column) for column in zip(*layers))
    src, dst, lab = (np.concatenate(column) for column in zip(*pieces))
    indptr = np.zeros(key.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=key.size), out=indptr[1:])
    return SuccessorGraph(indptr, src, dst, lab), key // M, parent, plabel
