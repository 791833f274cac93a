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
edges cover every node.  The first part means two nodes or more, so a graph
without such an SCC needs no work per edge (``_oscillating_components``).

The graph is built without a loop over subset sizes.  Each edge is one int64
word, ``label << 32 | dst``, the sum of the first edge's word and the words
(label bit above step) of the nodes it adds.  Consecutive edges j-1 and j of a
row differ by a per-row step picked by the trailing zero bits of j, so one
prefix sum gives every word.  The edges are built in chunks of at most
``_CHUNK_EDGES`` edges, written straight into the int32 arrays: a build holds
about 9.5 bytes per edge at its peak (G(12, 0.6), 877,055 edges), the 8 of
``dst`` and ``label`` included.

A system is compiled once by ``transition_graph``; every operation accepts
the resulting TransitionGraph in place of the system, so a caller asking
several questions builds the graph and its SCCs once.  The graph is one
int32 CSR, and every search is a scipy.sparse.csgraph call on the one scipy
matrix that wraps it: the SCCs, the spectrum (one breadth-first search), each
leg of a witness walk (a breadth-first search to the first goal node) and the
commitment map (two multi-source searches on the reversed graph).  The
r-counter product is built on the oscillating components' own edges, and its
witness starts on its cycle with no detours (see ``decide_r_convergence``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra

from .core import (
    ActionSpace,
    ActivationSet,
    HistorylessSystem,
    LiftedSystem,
    _check_count,
    _valid_rows,
    resolve_budget,
)
from .errors import BudgetExceeded, InvalidInput, Unsupported
from .simulate import Witness

_INDEX_MAX = np.iinfo(np.int32).max  # scipy's sparse graphs index with int32
_LABEL_BITS = 31  # an int32 label holds the activation set of nodes 1..31
_CHUNK_EDGES = 1 << 15  # edges built at a time: bounds the temporaries of a build
_ONE = np.ones(1)
_ONE.flags.writeable = False
_BIT_AND_ONE = np.stack([1 << np.arange(_LABEL_BITS, dtype=np.int64), np.ones(_LABEL_BITS, dtype=np.int64)], axis=1)
_LABEL_WORDS = _BIT_AND_ONE[:, 0] << 32  # node i's label bit in an edge word


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

    The edges of node u are ``indptr[u]:indptr[u+1]``; edge e among them
    leads from u to ``dst[e]`` under the activation set ``label[e]`` (a
    bitmask, bit i-1 = node i).  The arrays are int32, scipy's index type, so
    ``adjacency`` wraps ``indptr`` and ``dst`` without copying them.
    """

    indptr: np.ndarray
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
        return self.indptr.nbytes + self.dst.nbytes + self.label.nbytes

    def by_source(self, values: np.ndarray) -> np.ndarray:
        """``values[u]`` for the source u of every edge, with no index array."""
        return np.repeat(values, self.indptr[1:] - self.indptr[:-1])

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """The graph as the one scipy matrix every search reads."""
        # float64 data is what scipy works on: other types are converted by a copy
        # that also sorts and deduplicates, though each row's targets are distinct.
        # Every weight is the one read-only 1.0 of _ONE (stride 0), so they take
        # no memory.
        data = np.ndarray(self.size, np.float64, _ONE, strides=(0,))
        return sparse.csr_matrix((data, self.dst, self.indptr), shape=(self.rows, self.rows))


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

    def witness(self, idx: int, cycle: tuple) -> Witness:
        """A witness whose run starts at node idx.  A replay spends the first
        k-1 activation sets of the schedule on the history inside a k-window,
        so those come first, as sets that activate every node."""
        node = self.node(idx)
        window = (node,) if isinstance(self.system, HistorylessSystem) else node
        return Witness(initial=window, cycle=cycle, prefix=(frozenset(range(1, self.n + 1)),) * (len(window) - 1))

    def index(self, state) -> int:
        return self._codec.encode(self._codec.validate_state(state))

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """(number of SCCs, SCC label of every node)."""
        return _strong_components(self.succ)

    @cached_property
    def fixed(self) -> np.ndarray:
        """Mask of the nodes that every activation subset keeps in place."""
        succ = self.succ
        return (np.diff(succ.indptr) == 1) & (succ.dst[succ.indptr[:-1]] == np.arange(succ.rows))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def successor_matrix(system, budget: int | None = None) -> SuccessorGraph:
    """The distinct successors of every state (or window) of the system.

    Row a holds one edge per subset T of D(a), in ascending order of T,
    labelled T | (nodes outside D(a)).  Over 31 nodes are refused before the
    reaction is tabulated, and the edges, counted from the degrees |D(a)|,
    before they are built.  A historyless system is a lifted one whose windows
    hold one state: a window's successor drops its oldest state and appends
    the newest one with the activated coordinates replaced by the reaction.
    """
    if isinstance(system, HistorylessSystem):
        space = system.space
    elif isinstance(system, LiftedSystem):
        space = system.base.space
    else:
        raise Unsupported(f"no transition interface for {type(system).__name__}")
    _check_labels(space.n)
    rows = system.reaction_rows(budget)
    return _successor_blocks(space, rows, rows.shape[0], budget)


def _successor_blocks(space: ActionSpace, rows: np.ndarray, block: int, budget: int | None) -> SuccessorGraph:
    """One CSR over reaction rows stacked in blocks of ``block`` rows: the
    windows (or states) of one system, each block a separate system whose
    node ids are offset by the block's first row.

    Every edge is built as one int64 word, ``label << 32 | dst``.  A row's
    first edge is its head's word plus the last word of the row before, and
    edge j > 0 is edge j-1 plus the row's step of ctz(j), the trailing zero
    bits of j (see ``_row_steps``).  So the words are one prefix sum of
    gathers from the steps, indexed by the ruler sequence ctz(1), ctz(2), ...
    The rows are built in chunks of at most ``_CHUNK_EDGES`` edges, each
    written straight into the int32 ``dst`` and ``label``, so the temporaries
    stay bounded; a row wider than a chunk is first cut into pieces of a
    chunk's width.
    """
    indptr, width, offset, steps, head = _row_steps(space, rows, block, budget)
    shift = _CHUNK_EDGES.bit_length() - 1  # a chunk holds at most 2^shift edges
    starts = indptr
    if space.n > shift and width.max(initial=0) > 1 << shift:  # a row has at most 2^n edges
        # piece m > 0 of a cut row starts at edge m << shift, which has
        # shift + ctz(m) trailing zero bits; frexp(m & -m) gives 1 + ctz(m)
        pieces = np.maximum(width >> shift, 1)
        row = np.arange(width.size).repeat(pieces)
        m = np.arange(row.size) - (np.add.accumulate(pieces) - pieces).repeat(pieces)
        width, offset, head = width[row] // pieces[row], offset[row], head[row]
        cut = np.flatnonzero(m)
        head[cut] = steps[offset[cut] + shift + np.frexp(m[cut] & -m[cut])[1]]
        starts = np.zeros(row.size + 1, dtype=np.int64)
        np.add.accumulate(width, out=starts[1:])
    ruler = _ruler(shift)
    dst = np.empty(indptr[-1], dtype=np.int32)
    label = np.empty(indptr[-1], dtype=np.int32)
    carry = r0 = 0
    while r0 < width.size:
        lo = int(starts[r0])
        r1 = int(starts.searchsorted(lo + (1 << shift), side="right")) - 1
        hi, lens = int(starts[r1]), width[r0:r1]
        rel = (starts[r0:r1] - lo).astype(np.int32)
        # edge j of row a reads steps[offset[a] + ruler[j]]; edge 0 its head
        at = np.arange(hi - lo, dtype=np.int32)
        at -= rel.repeat(lens)
        at = ruler.take(at) + offset[r0:r1].astype(np.int32).repeat(lens)
        words = steps.take(at)
        words[rel] = head[r0:r1]
        words[0] += carry
        np.add.accumulate(words, out=words)
        carry = int(words[-1])
        dst[lo:hi] = words  # the low 32 bits
        label[lo:hi] = np.right_shift(words, 32, out=words)
        r0 = r1
    return SuccessorGraph(indptr.astype(np.int32), dst, label)


def _row_steps(space: ActionSpace, rows: np.ndarray, block: int, budget: int | None):
    """(indptr, width, offset, steps, head): the CSR's row pointers and row
    widths, checked against the budget and the int32 indices before any
    edge exists, and what its edge words are summed from.  The per-row
    temporaries die on return, before the edge arrays are allocated.

    The word of node i, its label bit above its step, adds node i to an
    edge.  Let w_0 < w_1 < ... be the words of the nodes of D(a) in order.
    Edges j-1 and j differ in the nodes at bits 0..t of j, t = ctz(j): edge
    j adds w_t and drops w_0 .. w_{t-1}, so ``steps[offset[a] + 1 + t]`` is
    w_t - (w_0 + ... + w_{t-1}).  ``head[a]`` is the word of the first edge
    of row a, the empty activation set's, minus that of the last edge of row
    a-1, which activates all of D(a-1).  The empty set leads a state (and a
    one-state window) to itself, so only a longer window's head needs the
    shift that drops its oldest state.  The digits subtracted from the rows
    are the space's kept read-only ones, the array the tabulation read.
    """
    n, nb = space.n, space.num_states
    count = rows.shape[0]
    # the digits of a window index are those of its newest state
    delta = ((rows.reshape(-1, nb, n) - space.digits()) * space.weights).reshape(count, n)
    changes = delta != 0
    mask, degree = (changes @ _BIT_AND_ONE[:n]).T  # D(a) as a bitmask, and its size
    width = 1 << degree
    # prefix sums are np.add.accumulate, which skips the wrapper of cumsum:
    # on graphs of a few hundred edges the build is mostly per-call overhead
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.add.accumulate(width, out=indptr[1:])
    _check_index(_check_count(int(indptr[-1]), "distinct transitions", budget), "distinct transitions")

    words = (delta + _LABEL_WORDS[:n])[changes]  # the w_t, row after row
    offset = np.add.accumulate(degree) - degree
    steps = np.zeros(words.size + 1, dtype=np.int64)
    np.add.accumulate(words, out=steps[1:])
    before = steps.take(offset)  # the sum of the w_t of the rows above a
    np.subtract(2 * words, steps[1:], out=steps[1:])
    steps[1:] += before.repeat(degree)
    idx = np.arange(count, dtype=np.int64)  # each row's empty-set successor: itself ...
    if block > nb:  # ... unless its window drops its oldest state
        window = idx % block
        idx += (window % (block // nb)) * nb + idx % nb - window
    # the last edge of a row is its first plus all its w_t, so the first
    # edges minus ``before``, differenced, are the heads
    head = idx + (((1 << n) - 1 - mask) << 32) - before
    head[1:] -= head[:-1].copy()
    return indptr, width, offset, steps, head


@cache
def _ruler(bits: int) -> np.ndarray:
    """1 + ctz(j) for j = 1 .. 2^bits - 1, and 0 at j = 0: which entry of its
    row's steps edge j of a row reads (entry 0 stands for the head)."""
    ruler = np.zeros(1 << bits, dtype=np.int8)
    for t in range(bits):
        ruler[1 << t :: 2 << t] = t + 1
    ruler.flags.writeable = False
    return ruler


def transition_graph(system, budget: int | None = None) -> TransitionGraph:
    """Compile a historyless or lifted k-recall system into its transition
    graph; every analyze operation accepts the result in place of the system."""
    return TransitionGraph(system, successor_matrix(system, budget))


def _compiled(system, budget: int | None) -> TransitionGraph:
    return system if isinstance(system, TransitionGraph) else transition_graph(system, budget)


def _check_labels(n: int) -> None:
    if n > _LABEL_BITS:
        raise BudgetExceeded(f"{n} nodes do not fit the {_LABEL_BITS}-bit activation labels of a sparse graph")


def _check_index(count: int, what: str) -> int:
    if count > _INDEX_MAX:
        raise BudgetExceeded(f"{count} {what} do not fit the int32 indices of a sparse graph")
    return count


def _row_edges(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges of the given rows, row by row in CSR order, and for each
    edge the position of its row in ``rows``."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), lens)
    return np.arange(owner.size, dtype=np.int64) + (starts + lens - np.cumsum(lens))[owner], owner


def _strong_components(graph: SuccessorGraph) -> tuple[int, np.ndarray]:
    """(number of SCCs, SCC label of every node) of a CSR graph."""
    ncomp, labels = connected_components(graph.adjacency, directed=True, connection="strong")
    return int(ncomp), labels


def _path(graph: SuccessorGraph, start: int, goal: np.ndarray) -> tuple[list, int]:
    """(activation labels along the path, goal node) to the first node of the
    ``goal`` mask in breadth-first order from start.  scipy visits each row in
    CSR order, and a path between two nodes of one SCC never leaves it, so
    inside an SCC this is the BFS restricted to that SCC.  A start that is
    a goal is the first node in that order, reached with no search."""
    if goal[start]:
        return [], start
    order, parent = breadth_first_order(graph.adjacency, start, return_predecessors=True)
    v = reached = int(order[np.argmax(goal[order])])
    assert goal[v], "no path to the goal; SCC invariant violated"
    path = []
    while v != start:
        u = int(parent[v])
        lo = graph.indptr[u]
        path.append(int(graph.label[lo + graph.dst[lo : graph.indptr[u + 1]].tolist().index(v)]))
        v = u
    return path[::-1], reached


def _primitive_cycle(cycle: tuple) -> tuple:
    k = len(cycle)
    return next(cycle[:p] for p in range(1, k + 1) if k % p == 0 and cycle == cycle[:p] * (k // p))


def _oscillating_components(succ: SuccessorGraph, components, cover: int):
    """(oscillating components, internal edge mask, each row's internal
    labels OR-ed): a component oscillates if it has an internal changing edge
    and its internal labels cover ``cover``.  The mask and row labels are None
    unless ``cover`` is set and some component is a candidate.

    Lemma: a component has an internal changing edge iff it has two nodes or
    more.  In a ``successor_matrix`` graph an edge changes the state iff its
    ends differ, and in a component of two or more each node has an edge to
    another.  In the r-counter product it does iff the underlying states
    differ; a's only possible loop is its empty-set step (a nonempty T changes
    a's newest state), so a walk that keeps a fixed raises the counters of
    D(a) at every step, or is the lone loop at (a, 0) when D(a) is empty.
    """
    ncomp, labels = components
    osc = np.bincount(labels, minlength=ncomp) > 1
    internal = row_labels = None
    if cover and osc.any():
        src, internal = succ.by_source(labels), np.empty(succ.size, dtype=bool)
        for lo in range(0, succ.size, _CHUNK_EDGES):  # take copies its int32 indices as intp
            part = slice(lo, lo + _CHUNK_EDGES)
            np.equal(labels.take(succ.dst[part]), src[part], out=internal[part])
        row_labels = np.bitwise_or.reduceat(succ.label * internal, succ.indptr[:-1])
        covered = np.zeros(ncomp, dtype=succ.label.dtype)
        np.bitwise_or.at(covered, labels, row_labels)
        osc &= (covered & cover) == cover
    return osc, internal, row_labels


def _oscillation(succ: SuccessorGraph, components, n: int, cover: int, state: np.ndarray | None = None):
    """None if no component oscillates.  Otherwise (u, cycle): the activation
    sets of a closed walk from node u that changes ``state`` (by default the
    node) and activates every node of ``cover``, inside the oscillating
    component that holds the lowest-numbered node."""
    labels = components[1]
    osc, internal, row_labels = _oscillating_components(succ, components, cover)
    if not osc.any():
        return None
    inside = labels == labels[np.argmax(osc[labels])]
    state = np.arange(succ.rows) if state is None else state
    for u0 in np.flatnonzero(inside).tolist():  # by the lemma, some node has one
        out = np.arange(succ.indptr[u0], succ.indptr[u0 + 1])
        if (out := out[inside[succ.dst[out]] & (state[succ.dst[out]] != state[u0])]).size:
            break
    walk = [int(succ.label[out[0]])]  # the first internal edge of u0 to another state
    covered = walk[0] | ~cover  # nodes outside cover count as covered
    pos = int(succ.dst[out[0]])
    for b in range(n):
        if covered >> b & 1:
            continue
        # the first internal edge activating node b+1, out of the first node
        # in BFS order that has one
        path, reached = _path(succ, pos, (row_labels >> b & 1 == 1) & inside)
        lo, hi = succ.indptr[reached], succ.indptr[reached + 1]
        e = int(lo + np.argmax(internal[lo:hi] & (succ.label[lo:hi] >> b & 1 == 1)))
        walk += path + [int(succ.label[e])]
        covered |= walk[-1]
        pos = int(succ.dst[e])
    walk += _path(succ, pos, np.arange(succ.rows) == u0)[0]
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
    reached = breadth_first_order(graph.succ.adjacency, graph.index(state), return_predecessors=False)
    return frozenset(graph.node(int(i)) for i in reached[graph.fixed[reached]])


def decide_convergence(system, budget: int | None = None) -> ConvergenceVerdict:
    """Does every fair trajectory from every initial state converge?

    NonConvergent verdicts carry a witness: a state of an oscillating SCC as
    the initial state, with the periodic schedule read off a covering closed
    walk inside that SCC.
    """
    graph = _compiled(system, budget)
    found = _oscillation(graph.succ, graph.components, graph.n, (1 << graph.n) - 1)
    return Convergent() if found is None else NonConvergent(graph.witness(*found))


def decide_convergence_many(space: ActionSpace, rows, budget: int | None = None) -> np.ndarray:
    """Convergence of a family of historyless systems over one action space.

    ``rows`` has shape (B, N, n): ``rows[b]`` is the reaction rows of system
    b.  Returns a (B,) bool array, True where the system is convergent.  The
    systems are decided in chunks of consecutive systems whose edges fit the
    budget: one CSR with one block per system, one SCC pass and one
    oscillation scan per chunk.  A witness for a non-convergent system comes
    from ``decide_convergence`` on that system alone.  The rows are read
    where they lie: int64 rows are checked and never copied.
    """
    rows = np.asarray(rows)
    N, n = space.num_states, space.n
    if rows.ndim != 3 or rows.shape[1:] != (N, n):
        raise InvalidInput(f"rows must have shape (B, {N}, {n}), got {rows.shape}")
    _check_labels(n)
    space.check_budget(budget)
    B = rows.shape[0]
    rows = _valid_rows(space, rows.reshape(B * N, n), B * N).reshape(B, N, n)
    edges = np.cumsum((1 << (rows != space.digits()).sum(axis=2)).sum(axis=1))
    limit = min(resolve_budget(budget), _INDEX_MAX)
    convergent = np.empty(B, dtype=bool)
    start = 0
    while start < B:
        # the most systems whose edges fit; a lone system over the budget is
        # refused by the builder
        before = edges[start - 1] if start else 0
        stop = max(int(np.searchsorted(edges, before + limit, side="right")), start + 1)
        succ = _successor_blocks(space, rows[start:stop].reshape(-1, n), N, budget)
        components = _strong_components(succ)
        osc = _oscillating_components(succ, components, (1 << n) - 1)[0]
        convergent[start:stop] = ~osc[components[1]].reshape(-1, N).any(axis=1)
        start = stop
    return convergent


def committed_map(system, budget: int | None = None) -> dict:
    """{state: the unique stable state all fair trajectories reach, or None
    when the state is uncommitted (several reachable stable states, or a
    reachable fair oscillation)}.

    Every sink SCC is a stable state or oscillates.  So a state is
    uncommitted iff it reaches an oscillating component or an edge whose two
    ends have different nearest stable states; two multi-source searches on
    the reversed graph find the nearest stable states and then those states.
    """
    graph = _compiled(system, budget)
    succ = graph.succ
    osc = _oscillating_components(succ, graph.components, (1 << graph.n) - 1)[0]
    reverse = succ.adjacency.T.tocsr()
    stable = np.flatnonzero(graph.fixed)
    nearest = dijkstra(reverse, indices=stable, unweighted=True, min_only=True, return_predecessors=True)[2]
    seeds = osc[graph.components[1]]
    seeds |= np.logical_or.reduceat(succ.by_source(nearest) != nearest[succ.dst], succ.indptr[:-1])
    uncommitted = np.isfinite(dijkstra(reverse, indices=np.flatnonzero(seeds), unweighted=True, min_only=True))
    return {graph.node(i): None if uncommitted[i] else graph.node(int(nearest[i])) for i in range(succ.rows)}


# ---------------------------------------------------------------------------
# r-fair convergence via the counter product graph
# ---------------------------------------------------------------------------


def decide_r_convergence(system, r: int, budget: int | None = None) -> ConvergenceVerdict:
    """Does every r-fair trajectory converge?

    Each state is augmented with per-node steps-since-activation counters in
    0..r-1; an edge with label L resets the counters in L and adds one to
    the others, and edges that would push a counter to r are forbidden, so
    every infinite product path is exactly an r-fair run of the larger
    labels.  Every product cycle activates every node (else a counter only
    rises), so one that changes the state lies in an oscillating component.
    From its first state with zero counters the same cycle is allowed, since
    smaller counters only allow more.  So (a) the system is r-convergent iff
    the product on the oscillating components' edges (``_oscillating_edges``)
    rooted at every zero-counter state has no SCC of two or more nodes,
    ``decide_convergence``'s test with no nodes to cover; and (b) the witness
    starts on its cycle, with no prefix.  No oscillating component, no product.
    """
    if r < 1:
        raise InvalidInput(f"r must be >= 1, got {r}")
    graph = _compiled(system, budget)
    if (edges := _oscillating_edges(graph)) is None:
        return Convergent()
    product, state = _counter_product(edges, graph.n, r, budget)
    found = _oscillation(product, _strong_components(product), graph.n, 0, state)
    return Convergent() if found is None else NonConvergent(graph.witness(int(state[found[0]]), found[1]))


def _oscillating_edges(graph: TransitionGraph) -> SuccessorGraph | None:
    """The oscillating components' internal edges and every row's last edge,
    which activates every node: in the product it leads to a zero-counter
    root, so it adds no state and leaves no row empty.  None if none oscillates."""
    succ, labels = graph.succ, graph.components[1]
    osc, internal = _oscillating_components(succ, graph.components, (1 << graph.n) - 1)[:2]
    if not osc.any():
        return None
    keep = internal & osc[labels][succ.dst]
    keep[succ.indptr[1:] - 1] = True
    indptr = np.append(0, np.cumsum(keep)[succ.indptr[1:] - 1]).astype(np.int32)
    return SuccessorGraph(indptr, succ.dst[keep], succ.label[keep])


def _counter_product(succ: SuccessorGraph, n: int, r: int, budget: int | None):
    """The r-counter product over the states reachable from the zero-counter
    ones: (graph, underlying state by id).

    Ids follow the BFS: the roots (state a has id a), then each layer's new
    states in order of key = state * r^n + counters.  Each layer's candidate
    transitions are counted against the budget, and with the states they may
    add against the int32 indices, before it is expanded.  A layer's edges
    leave its states in id order, so their counts per source give ``indptr``.
    """
    count, M = succ.rows, r ** n
    if count * M > np.iinfo(np.int64).max:
        raise BudgetExceeded(f"the product graph's {count * M} state keys overflow int64")
    weights = ActionSpace((r,) * n).weights.tolist()
    degree = np.diff(succ.indptr)
    seen_ids = np.arange(count, dtype=np.int32)
    seen_keys = frontier = np.arange(count, dtype=np.int64) * M
    keys, pieces = [frontier], []  # per layer: kept edges per source, target ids, labels
    examined = 0
    while frontier.size:
        examined += int(degree[frontier // M].sum())
        _check_count(examined, "product transitions", budget)
        _check_index(count + examined, "product states and transitions")
        kept, tgt, lab = _product_layer(succ, frontier, M, r, weights)
        at = np.minimum(np.searchsorted(seen_keys, tgt), seen_keys.size - 1)
        fresh = seen_keys[at] != tgt
        frontier, inverse = np.unique(tgt[fresh], return_inverse=True)
        dst = seen_ids[at]
        dst[fresh] = seen_ids.size + inverse
        pieces.append((kept, dst, lab))
        keys.append(frontier)
        at = np.searchsorted(seen_keys, frontier)
        seen_keys = np.insert(seen_keys, at, frontier)
        seen_ids = np.insert(seen_ids, at, np.arange(seen_ids.size, seen_ids.size + frontier.size))

    kept, dst, lab = (np.concatenate(column) for column in zip(*pieces))
    indptr = np.zeros(kept.size + 1, dtype=np.int32)
    np.cumsum(kept, out=indptr[1:])
    return SuccessorGraph(indptr, dst, lab), (np.concatenate(keys) // M).astype(np.int32)


def _product_layer(succ: SuccessorGraph, frontier: np.ndarray, M: int, r: int, weights: list):
    """The product edges out of one layer's states (keys in ``frontier``) that
    push no counter to r: (count per state, target key, label), by source."""
    e, owner = _row_edges(succ.indptr, frontier // M)
    lab = succ.label[e]
    counters = frontier[owner] % M
    # keys stay int64: an int32 array times a Python int stays int32 and wraps
    tgt = succ.dst[e].astype(np.int64) * M
    ok = np.ones(e.size, dtype=bool)
    for i, w in enumerate(weights):
        new = np.where(lab >> i & 1 == 1, 0, counters // w % r + 1)
        ok &= new < r
        tgt += new * w
    return np.bincount(owner[ok], minlength=frontier.size), tgt[ok], lab[ok]
