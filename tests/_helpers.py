"""Independent oracles and generators shared by the test modules.

Everything here is deliberately naive and separate from the library's
implementation paths: plain-dict breadth-first searches instead of SCC
decompositions, subset enumeration instead of backtracking, direct simulation
instead of product graphs.  Tests compare library answers against these.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import string
from collections import deque
from dataclasses import dataclass

from asyncdyn import core
from asyncdyn.analyze import transition_graph
from asyncdyn.core import ActionSpace, HistorylessSystem, KRecallSystem, LiftedSystem, lift_k_recall
from asyncdyn.errors import InvalidInput, NonUniqueBestResponse, Unsupported
from asyncdyn.simulate import format_active


@contextlib.contextmanager
def empty_store():
    """Swap ``core.shape_constant``'s store of per-shape arrays for an empty
    one, yielded, for the block; the old store is back after it."""
    saved, core._KEPT = core._KEPT, {}
    try:
        yield core._KEPT
    finally:
        core._KEPT = saved


def all_subsets(n):
    return [frozenset(i + 1 for i in range(n) if s >> i & 1) for s in range(1 << n)]


def reaction_table(system: HistorylessSystem) -> dict:
    return {a: system.reaction(a) for a in system.space.states()}


def naive_self_independence_violations(system: HistorylessSystem, max_violations: int):
    """For each node i and each choice of the other nodes' actions (in encoded
    order), the state with i at action 0 and the first variant that changes
    i's reaction; stops once max_violations pairs are found."""
    space = system.space
    violations = []
    for i, k_i in enumerate(space.sizes):
        others = [range(k) for j, k in enumerate(space.sizes) if j != i]
        for rest in itertools.product(*others):
            base = rest[:i] + (0,) + rest[i:]
            for a in range(1, k_i):
                variant = rest[:i] + (a,) + rest[i:]
                if system.reaction(variant)[i] != system.reaction(base)[i]:
                    violations.append((i + 1, base, variant))
                    break
            if len(violations) >= max_violations:
                return violations
    return violations


def naive_step(table, state, active):
    target = table[state]
    return tuple(target[i] if (i + 1) in active else a for i, a in enumerate(state))


def naive_dynamics(system):
    """(all states, step(state, active), node count) of a historyless system,
    or of a lifted k-recall system over its windows."""
    if isinstance(system, LiftedSystem):
        base = system.base
        windows = list(itertools.product(base.space.states(), repeat=base.k))
        return windows, system.transition, base.space.n
    table = reaction_table(system)
    return list(system.space.states()), lambda a, s: naive_step(table, a, s), system.space.n


def naive_reachable(system, state) -> set:
    """Reachability closure via plain BFS over all activation subsets."""
    _, step, n = naive_dynamics(system)
    subsets = all_subsets(n)
    seen = {tuple(state)}
    queue = deque([tuple(state)])
    while queue:
        a = queue.popleft()
        for s in subsets:
            b = step(a, s)
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return seen


def naive_stables(system) -> set:
    """States that activating every node leaves in place."""
    states, step, n = naive_dynamics(system)
    everyone = frozenset(range(1, n + 1))
    return {a for a in states if step(a, everyone) == a}


def naive_spectrum(system, state) -> set:
    return naive_reachable(system, state) & naive_stables(system)


def has_fair_oscillation_from(system, start) -> bool:
    """Is there a closed walk from ``start`` whose activation labels cover
    every node and which changes the state at least once?  BFS over
    (state, covered labels, changed flag) triples; the walk depth is bounded
    by the number of such triples, |A| * 2^n * 2."""
    _, step, n = naive_dynamics(system)
    subsets = all_subsets(n)
    full = frozenset(range(1, n + 1))
    start = tuple(start)
    init = (start, frozenset(), False)
    seen = {init}
    queue = deque([init])
    while queue:
        a, covered, changed = queue.popleft()
        for s in subsets:
            b = step(a, s)
            key = (b, covered | s, changed or b != a)
            if b == start and key[1] == full and key[2]:
                return True
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return False


def oracle_convergent(system) -> bool:
    """A system is convergent iff no state starts a covering, state-changing
    closed walk (the recurrent part of any fair non-convergent run is one)."""
    states, _, _ = naive_dynamics(system)
    return not any(has_fair_oscillation_from(system, a) for a in states)


def oracle_committed(system, state):
    """Committed target of a state: its unique reachable stable state, provided
    no fair oscillation is reachable; None otherwise."""
    reach = naive_reachable(system, state)
    stables = naive_stables(system) & reach
    if len(stables) != 1:
        return None
    if any(has_fair_oscillation_from(system, a) for a in reach):
        return None
    return next(iter(stables))


def naive_successor_csr(space: ActionSpace, rows, block: int) -> tuple[list, list, list]:
    """(indptr, dst, label) lists of the successor CSR over reaction rows
    stacked in blocks of ``block`` rows, one system each, built row by row:
    row a has one edge per subset T of D(a), in ascending order of T, to the
    window that drops its oldest state and appends its newest one with T's
    coordinates replaced by the reaction, labelled T plus the nodes outside
    D(a)."""
    n, nb = space.n, space.num_states
    indptr, dst, label = [0], [], []
    for a, row in enumerate(rows.tolist()):
        window = a % block
        older = a - window + window % (block // nb) * nb
        newest = space.decode(a % nb)
        changing = [i for i in range(n) if row[i] != newest[i]]
        outside = sum(1 << i for i in range(n) if i not in changing)
        for j in range(1 << len(changing)):
            active = [i for t, i in enumerate(changing) if j >> t & 1]
            state = [row[i] if i in active else newest[i] for i in range(n)]
            dst.append(older + space.encode(state))
            label.append(outside | sum(1 << i for i in active))
        indptr.append(len(dst))
    return indptr, dst, label


def edge_triples(graph) -> tuple:
    """One (state, activation set, state) triple per state (or window) and
    activation subset of a compiled graph: the subset s at state a takes the
    edge whose T is s & D(a)."""
    n = graph.n
    states = tuple(map(graph.node, range(graph.succ.rows)))
    full = (1 << n) - 1
    subsets = all_subsets(n)
    indptr, dst, label = (arr.tolist() for arr in (graph.succ.indptr, graph.succ.dst, graph.succ.label))
    edges = []
    for a, state in enumerate(states):
        lo, hi = indptr[a], indptr[a + 1]
        changing = full ^ label[lo]
        by_t = {t & changing: states[b] for t, b in zip(label[lo:hi], dst[lo:hi])}
        edges.extend((state, subsets[s], by_t[s & changing]) for s in range(full + 1))
    return tuple(edges)


def dot_name(state, sizes) -> str:
    if all(k <= 26 for k in sizes):
        return "".join(string.ascii_lowercase[a] for a in state)
    return ".".join(str(a) for a in state)


def oracle_dot(system: HistorylessSystem) -> str:
    """The DOT text of a historyless system, formatted from its edge triples
    and sorted as strings."""
    sizes = system.space.sizes
    node_lines = sorted(f'  "{dot_name(s, sizes)}";' for s in system.space.states())
    edge_lines = sorted(
        f'  "{dot_name(a, sizes)}" -> "{dot_name(b, sizes)}" [label="{format_active(active)}"];'
        for a, active, b in edge_triples(transition_graph(system))
    )
    return "\n".join(["digraph transitions {", *node_lines, *edge_lines, "}"]) + "\n"


def oracle_oscillating_components(succ, components, cover, changing) -> list:
    """Per component, with plain dicts over the edge list: does it have an
    internal edge marked in ``changing`` (a sequence of bools, one per edge),
    and do the labels of its internal edges cover every node of the
    ``cover`` bitmask?"""
    ncomp, labels = components
    labels = labels.tolist()
    indptr, dst, label = (a.tolist() for a in (succ.indptr, succ.dst, succ.label))
    covered, moving = {}, set()
    for u in range(len(indptr) - 1):
        for e in range(indptr[u], indptr[u + 1]):
            if labels[u] == labels[dst[e]]:
                covered[labels[u]] = covered.get(labels[u], 0) | label[e]
                if changing[e]:
                    moving.add(labels[u])
    return [c in moving and covered[c] & cover == cover for c in range(ncomp)]


def oracle_witness_walk(graph):
    """The witness walk of ``decide_convergence`` recomputed with plain-dict
    searches confined to one component: None if no component oscillates,
    else (first node, cycle).  In the oscillating component that holds the
    lowest-numbered node, take the first state-changing internal edge; then,
    for each node not yet activated, walk by BFS inside the component to the
    first node found with an internal edge activating it and take its first
    such edge; then walk by BFS back to the start.  The cycle is reduced to
    its primitive period."""
    succ, n = graph.succ, graph.n
    labels = graph.components[1].tolist()
    indptr, dst, label = (a.tolist() for a in (succ.indptr, succ.dst, succ.label))
    edges = [(u, dst[e], label[e]) for u in range(succ.rows) for e in range(indptr[u], indptr[u + 1])]
    oscillating = oracle_oscillating_components(succ, graph.components, (1 << n) - 1, [u != v for u, v, _ in edges])
    first = next((u for u in range(succ.rows) if oscillating[labels[u]]), None)
    if first is None:
        return None
    comp = labels[first]

    def bfs(start, is_goal):
        """(labels along the path, goal node) of a BFS inside the component."""
        parent = {start: None}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if is_goal(u):
                goal, path = u, []
                while parent[u] is not None:
                    u, s = parent[u]
                    path.append(s)
                return path[::-1], goal
            for e in range(indptr[u], indptr[u + 1]):
                if labels[dst[e]] == comp and dst[e] not in parent:
                    parent[dst[e]] = (u, label[e])
                    queue.append(dst[e])
        raise AssertionError("no path inside the component")

    inside = [e for e, (u, v, _) in enumerate(edges) if labels[u] == comp == labels[v]]
    u0, pos, covered = edges[next(e for e in inside if edges[e][0] != edges[e][1])]
    walk = [covered]
    for b in range(n):
        if covered >> b & 1:
            continue
        first_edge = {}
        for e in inside:
            if edges[e][2] >> b & 1:
                first_edge.setdefault(edges[e][0], e)
        path, reached = bfs(pos, first_edge.__contains__)
        _, pos, s = edges[first_edge[reached]]
        walk += path + [s]
        covered |= s
    walk += bfs(pos, lambda u: u == u0)[0]
    cycle = tuple(frozenset(i + 1 for i in range(n) if s >> i & 1) for s in walk)
    period = next(p for p in range(1, len(cycle) + 1) if cycle == cycle[:p] * (len(cycle) // p))
    return u0, cycle[:period]


def naive_r_convergent(system, r: int) -> bool:
    """Does every r-fair run converge?  BFS over (state, steps since each
    node's last activation) pairs from every state with zero counters, taking
    all 2^n activation subsets and dropping the steps that leave a node
    inactive r times in a row; the system is r-convergent iff no reachable
    state-changing step can be followed back to its start."""
    states, step, n = naive_dynamics(system)
    subsets = all_subsets(n)

    def moves(p):
        a, counters = p
        for s in subsets:
            nxt = tuple(0 if (i + 1) in s else c + 1 for i, c in enumerate(counters))
            if max(nxt) < r:
                yield (step(a, s), nxt)

    def closure(p):
        seen = {p}
        queue = deque([p])
        while queue:
            for q in moves(queue.popleft()):
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
        return seen

    reachable = set()
    for a in states:
        reachable |= closure((a, (0,) * n))
    reach_from = {}
    for p in reachable:
        for q in moves(p):
            if q[0] != p[0]:
                if q not in reach_from:
                    reach_from[q] = closure(q)
                if p in reach_from[q]:
                    return False
    return True


def whole_graph_r_convergent(graph, r: int, budget: int | None = None) -> bool:
    """The r-convergence verdict read off the r-counter product of the whole
    graph, rooted at every state with zero counters: True iff no product SCC
    has an internal edge between two different underlying states.  Unlike
    the oracles above it reuses the library's product builder and SCCs, but
    not its scan, which reads only the SCC sizes; it is the reference for
    ``decide_r_convergence``'s restriction to the oscillating components."""
    from asyncdyn.analyze import _counter_product, _strong_components

    product, state = _counter_product(graph.succ, graph.n, r, budget)
    labels = _strong_components(product)[1]
    internal = product.by_source(labels) == labels[product.dst]
    return not (internal & (product.by_source(state) != state[product.dst])).any()


# ---------------------------------------------------------------------------
# Games and uncoupled self-stabilization
# ---------------------------------------------------------------------------


def naive_pne(game) -> frozenset:
    """PNEs by the per-state best-response sets."""
    utilities = [node_utility(game, i) for i in range(1, game.n + 1)]
    return frozenset(s for s in game.space.states() if all(u.is_best_responding(s) for u in utilities))


def naive_br_rows(game, tie_break=None) -> list:
    """Best-response reaction rows state by state, refusing the first tie
    in (state, node) order unless tie_break is "min"."""
    from asyncdyn.games import best_responses

    rows = []
    for state in game.space.states():
        row = []
        for node in range(1, game.n + 1):
            brs = best_responses(game, node, state)
            if len(brs) > 1 and tie_break is None:
                raise NonUniqueBestResponse(
                    f"node {node} has best responses {sorted(brs)} at state {state}"
                )
            row.append(min(brs))
        rows.append(row)
    return rows


def naive_failing_windows(nxt, pne_newest) -> list:
    """Per window of the functional graph ``nxt``: does its trajectory end in
    a cycle through a window whose newest state is not a PNE?  Walks each
    fresh chain until it meets a classified or an in-progress window."""
    total = len(nxt)
    status = [0] * total  # 0 new, 1 in progress, 2 done
    bad = [False] * total
    for start in range(total):
        if status[start] != 0:
            continue
        chain = []
        node = start
        while status[node] == 0:
            status[node] = 1
            chain.append(node)
            node = nxt[node]
        if status[node] == 1:  # found a fresh cycle; classify it
            cycle_start = chain.index(node)
            cycle = chain[cycle_start:]
            cycle_bad = any(not pne_newest[w] for w in cycle)
            for w in cycle:
                bad[w] = cycle_bad
                status[w] = 2
            chain = chain[:cycle_start]
        inherited = bad[node]
        for w in reversed(chain):
            bad[w] = inherited
            status[w] = 2
    return bad


@dataclass(frozen=True)
class NodeUtility:
    """One node's private utility column; the only input a per-node protocol
    step may read."""

    node: int
    space: ActionSpace
    table: tuple[int, ...]

    def best_responses(self, state) -> frozenset[int]:
        i, space = self.node - 1, self.space
        values = {a: self.table[space.encode(state[:i] + (a,) + state[i + 1:])] for a in range(space.sizes[i])}
        best = max(values.values())
        return frozenset(a for a, v in values.items() if v == best)

    def is_best_responding(self, state) -> bool:
        return state[self.node - 1] in self.best_responses(state)


def node_utility(game, node: int) -> NodeUtility:
    if not 1 <= node <= game.n:
        raise InvalidInput(f"node index {node} out of range 1..{game.n}")
    return NodeUtility(node=node, space=game.space, table=game.utilities[node - 1])


def cyclic_successor(space: ActionSpace, state):
    """Lexicographic successor with wraparound: +1 on the mixed-radix encoding,
    so iterating from any state visits every joint state before returning."""
    state = space.validate_state(state)
    return space.decode((space.encode(state) + 1) % space.num_states)


def three_recall_step(u: NodeUtility, window) -> int:
    """Stationary 3-recall step for one node.

    A repeated last state is the current candidate: answer the query with the
    current action if it is a best response, else with the least best response.
    A repetition followed by a different state means the candidate was
    rejected: move on to its cyclic successor.  Otherwise repeat the last state.
    """
    a, b, c = (u.space.validate_state(s) for s in window)
    i = u.node - 1
    if b == c:
        if c[i] in u.best_responses(c):
            return c[i]
        return min(u.best_responses(c))
    if a == b:
        return cyclic_successor(u.space, a)[i]
    return c[i]


def two_recall_step(u: NodeUtility, window) -> int:
    """Stationary 2-recall step for one node; needs at least four actions per
    node so the move-on and query conditions are disjoint."""
    if any(k < 4 for k in u.space.sizes):
        raise Unsupported("the 2-recall protocol needs at least four actions per node")
    a, b = (u.space.validate_state(s) for s in window)
    i = u.node - 1
    sizes = u.space.sizes
    if a != b and all((a[j] - b[j]) % sizes[j] in (0, 1) for j in range(len(sizes))):
        return cyclic_successor(u.space, a)[i]
    if all((b[j] - a[j]) % sizes[j] in (0, 1, 2) for j in range(len(sizes))):
        if b[i] in u.best_responses(b):
            return b[i]
        return (b[i] - 1) % sizes[i]
    return b[i]


def reference_protocol_system(protocol: str, game) -> KRecallSystem:
    """The system a deterministic protocol induces for a game, built from
    the per-node steps, each reading one node's utilities."""
    from asyncdyn.uncoupled import _recall

    k = _recall(protocol, game.space)
    utilities = [node_utility(game, i) for i in range(1, game.n + 1)]
    step = three_recall_step if k == 3 else two_recall_step

    def rule(window):
        return tuple(step(u, window) for u in utilities)

    return KRecallSystem(space=game.space, k=k, rule=rule, stationary=True, name=protocol)


def stay_or_roll_support(u: NodeUtility, state) -> frozenset[int]:
    """Positive-probability moves of the stay-or-roll rule: keep the current
    action when best-responding, otherwise any action (uniform roll)."""
    state = u.space.validate_state(state)
    i = u.node - 1
    if state[i] in u.best_responses(state):
        return frozenset({state[i]})
    return frozenset(range(u.space.sizes[i]))


@dataclass(frozen=True)
class SupportSystem:
    """Support abstraction of a randomized synchronous system: per node and
    state, the set of actions played with positive probability."""

    space: ActionSpace
    supports: tuple[tuple[frozenset[int], ...], ...]  # [node-1][encoded state]

    def support(self, node: int, state) -> frozenset[int]:
        return self.supports[node - 1][self.space.encode(self.space.validate_state(state))]

    def successors(self, state) -> list:
        """All states reachable in one synchronous step with positive probability."""
        state = self.space.validate_state(state)
        sets = [sorted(self.support(i, state)) for i in range(1, self.space.n + 1)]
        return [tuple(choice) for choice in itertools.product(*sets)]


def support_system(game, budget: int | None = None) -> SupportSystem:
    """The stay-or-roll supports of every node at every state."""
    game.space.check_budget(budget)
    utilities = [node_utility(game, i) for i in range(1, game.n + 1)]
    supports = tuple(
        tuple(stay_or_roll_support(u, s) for s in game.space.states()) for u in utilities
    )
    return SupportSystem(space=game.space, supports=supports)


def reference_simulate_stay_or_roll(game, initial, seed: int, max_steps: int = 10_000) -> bool:
    """Seeded Monte-Carlo run of stay-or-roll under the synchronous schedule,
    through the per-node best responses: True when a PNE is reached within
    max_steps.  A sanity check of the support-level decision, not a decision
    procedure itself."""
    space = game.space
    state = space.validate_state(initial)
    utilities = [node_utility(game, i) for i in range(1, game.n + 1)]
    pne = naive_pne(game)
    rng = random.Random(seed)
    for _ in range(max_steps):
        if state in pne:
            return True
        state = tuple(
            state[i] if state[i] in u.best_responses(state) else rng.randrange(space.sizes[i])
            for i, u in enumerate(utilities)
        )
    return state in pne


def naive_check_self_stabilization(protocol, game):
    """The deterministic check through the per-node reference steps: tabulate
    the protocol's rule on every window, classify the windows with
    ``naive_failing_windows`` and report the least failing one."""
    from asyncdyn.uncoupled import Fails, NoPNE, SelfStabilizing

    lifted = lift_k_recall(reference_protocol_system(protocol, game))
    pne = naive_pne(game)
    if not pne:
        return NoPNE()
    nstates = game.space.num_states
    windows = list(itertools.product(game.space.states(), repeat=lifted.k))
    nxt = [lifted.encode(w[1:] + (lifted.base.rule(w),)) for w in windows]
    bad = naive_failing_windows(nxt, [w[-1] in pne for w in windows])
    if any(bad):
        return Fails(witness=windows[bad.index(True)])
    return SelfStabilizing()


def naive_stay_or_roll(game):
    """Stay-or-roll verdict by growing the set of states that reach a PNE in
    the support graph until nothing changes; the witness is the least state
    left out, in encoded order."""
    from asyncdyn.uncoupled import Fails, NoPNE, SelfStabilizing

    pne = naive_pne(game)
    if not pne:
        return NoPNE()
    sup = support_system(game)
    can_reach = set(pne)
    all_states = list(game.space.states())
    changed = True
    while changed:
        changed = False
        for s in all_states:
            if s not in can_reach and any(t in can_reach for t in sup.successors(s)):
                can_reach.add(s)
                changed = True
    for s in all_states:
        if s not in can_reach:
            return Fails(witness=s)
    return SelfStabilizing()


# ---------------------------------------------------------------------------
# Hypercube snakes
# ---------------------------------------------------------------------------


def oracle_max_induced_cycle(z: int) -> int:
    """Maximum induced-cycle length in Q_z by enumerating all vertex subsets
    and checking 2-regularity plus connectedness.  Feasible for z <= 4."""
    size = 1 << z
    best = 0
    for mask in range(1, 1 << size):
        verts = [v for v in range(size) if mask >> v & 1]
        if len(verts) < 4 or len(verts) <= best:
            continue
        member = set(verts)
        degs = {}
        ok = True
        for v in verts:
            nbs = [v ^ (1 << b) for b in range(z) if (v ^ (1 << b)) in member]
            if len(nbs) != 2:
                ok = False
                break
            degs[v] = nbs
        if not ok:
            continue
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for w in degs[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(verts):
            best = len(verts)
    return best


# ---------------------------------------------------------------------------
# Turing machine simulation
# ---------------------------------------------------------------------------


def tm_step(tm, config):
    """One machine step on a configuration (state, tape, 1-based position);
    None once halted.  Moves off the tape edge leave the head in place,
    matching the reduction's clamping."""
    q, tape, pos = config
    if q in tm.halting:
        return None
    q2, sym2, move = tm.delta[(q, tape[pos - 1])]
    tape2 = tape[: pos - 1] + (sym2,) + tape[pos:]
    pos2 = pos + move if 1 <= pos + move <= tm.tape_cells else pos
    return (q2, tape2, pos2)


def tm_run_outcome(tm, config) -> str:
    """Direct simulation with cycle detection: 'halts' when a halting machine
    state is reached, 'stuck' when the run freezes at a non-halting fixed
    configuration, 'loops' when a longer cycle repeats."""
    seen = set()
    while True:
        if config in seen:
            return "loops"
        seen.add(config)
        nxt = tm_step(tm, config)
        if nxt is None:
            return "halts"
        if nxt == config:
            return "stuck"
        config = nxt


def tm_all_configs(tm):
    for q in tm.states:
        if q in tm.halting:
            continue
        for tape in itertools.product(range(tm.n_symbols), repeat=tm.tape_cells):
            for pos in range(1, tm.tape_cells + 1):
                yield (q, tape, pos)


def oracle_shc(tm) -> bool:
    """Space-bounded halting from all configurations, strictly: every run must
    reach a halting machine state."""
    return all(tm_run_outcome(tm, c) == "halts" for c in tm_all_configs(tm))


def oracle_always_stabilizes(tm) -> bool:
    """Every run either halts or freezes at a fixed configuration."""
    return all(tm_run_outcome(tm, c) in ("halts", "stuck") for c in tm_all_configs(tm))


def enumerate_tms(n_q: int, symbols: int = 2, cells: int = 2):
    """All machines with n_q non-halting states plus one halting state."""
    from asyncdyn.reductions import TMDescription

    states = tuple(f"q{i}" for i in range(n_q)) + ("h",)
    targets = [
        (q2, s2, m) for q2 in states for s2 in range(symbols) for m in (-1, 0, 1)
    ]
    keys = [(q, s) for q in states[:n_q] for s in range(symbols)]
    for combo in itertools.product(targets, repeat=len(keys)):
        yield TMDescription(
            states=states,
            halting=frozenset({"h"}),
            n_symbols=symbols,
            tape_cells=cells,
            delta=dict(zip(keys, combo)),
        )


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_self_independent_system(rng, max_nodes=4, max_actions=3) -> HistorylessSystem:
    """Random system built from per-node tables over the other nodes' actions,
    so self-independence holds by construction."""
    n = rng.randrange(2, max_nodes + 1)
    sizes = tuple(rng.randrange(2, max_actions + 1) for _ in range(n))
    space = ActionSpace(sizes)
    other_spaces = [
        ActionSpace(tuple(k for j, k in enumerate(sizes) if j != i)) for i in range(n)
    ]
    tables = [
        [rng.randrange(sizes[i]) for _ in range(other_spaces[i].num_states)]
        for i in range(n)
    ]

    def rule(state, tables=tables, other_spaces=other_spaces, n=n):
        return tuple(
            tables[i][other_spaces[i].encode(state[:i] + state[i + 1:])]
            for i in range(n)
        )

    return HistorylessSystem.from_rule(space, rule)


def random_table_system(rng, max_nodes=3, max_actions=3) -> HistorylessSystem:
    n = rng.randrange(1, max_nodes + 1)
    sizes = tuple(rng.randrange(1, max_actions + 1) for _ in range(n))
    space = ActionSpace(sizes)
    rows = [
        tuple(rng.randrange(k) for k in sizes) for _ in range(space.num_states)
    ]
    return HistorylessSystem.from_table(space, rows)


def random_lifted_system(rng) -> LiftedSystem:
    """Random 2-recall system over a space of at most three states, lifted to
    its windows."""
    space = rng.choice([ActionSpace((2,)), ActionSpace((3,)), ActionSpace((1, 2)), ActionSpace((1, 3))])
    states = list(space.states())
    table = {w: rng.choice(states) for w in itertools.product(states, repeat=2)}
    return lift_k_recall(KRecallSystem(space=space, k=2, rule=lambda w: table[w]))


def random_game(rng, sizes, lo=0, hi=4):
    from asyncdyn.games import Game

    space = ActionSpace(tuple(sizes))
    return Game(
        space,
        tuple(
            tuple(rng.randrange(lo, hi + 1) for _ in range(space.num_states))
            for _ in range(space.n)
        ),
    )


# ---------------------------------------------------------------------------
# Per-state reaction rules of the builders
# ---------------------------------------------------------------------------
#
# The builders in ``reductions`` give their reactions as array rules over a
# whole matrix of states; these are the same reactions written state by
# state, straight from each gadget's definition.


def circuit_rule(circuit):
    base_names = [n for n, _ in circuit.inputs] + [g.name for g in circuit.gates]
    index = {name: i for i, name in enumerate(base_names)}
    identity_of = {}
    for g in circuit.gates:
        if g.name in g.inputs:
            identity_of[g.name] = len(base_names) + len(identity_of)
    sources = [
        tuple(identity_of[w] if w == g.name else index[w] for w in g.inputs) for g in circuit.gates
    ]
    input_values = tuple(v for _, v in circuit.inputs)
    tables = [g.table for g in circuit.gates]
    identity_reads = [index[name] for name in identity_of]

    def rule(state):
        out = list(input_values)
        for table, srcs in zip(tables, sources):
            idx = 0
            for s in srcs:
                idx = (idx << 1) | state[s]
            out.append(table[idx])
        for src in identity_reads:
            out.append(state[src])
        return tuple(out)

    return rule


def majority_rule(graph):
    neighbors = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        neighbors[u - 1].append(v - 1)
        neighbors[v - 1].append(u - 1)

    def rule(state):
        out = []
        for i in range(graph.n):
            nbs = neighbors[i]
            if not nbs:
                out.append(0)
                continue
            using_x = sum(1 for j in nbs if state[j] == 0)
            out.append(0 if 2 * using_x >= len(nbs) else 1)
        return tuple(out)

    return rule


def bgp_rule(instance):
    as_ids = [a for a, _ in instance.rankings]
    node_of = {a: i for i, a in enumerate(as_ids)}
    ranked = {a: list(routes) for a, routes in instance.rankings}
    rank_index = {a: {r: i for i, r in enumerate(routes)} for a, routes in instance.rankings}
    adjacency = instance.adjacency()
    denied = set(instance.export_deny)

    def route_of(a, action):
        routes = ranked[a]
        return routes[action] if action < len(routes) else ()

    def rule(state):
        out = []
        for a in as_ids:
            best = None
            for nb in adjacency.get(a, ()):
                if nb == instance.dest:
                    candidate = (a, instance.dest)
                elif nb in node_of:
                    r_nb = route_of(nb, state[node_of[nb]])
                    if not r_nb or a in r_nb:
                        continue
                    if (nb, r_nb, a) in denied:
                        continue
                    candidate = (a,) + r_nb
                else:
                    continue
                idx = rank_index[a].get(candidate)
                if idx is not None and (best is None or idx < best):
                    best = idx
            out.append(best if best is not None else len(ranked[a]))
        return tuple(out)

    return rule


def tm_head_codec(tm):
    """(decode, encode) of a head action: the machine state, pending symbol,
    position 1..cells and pending move -1..1, the move least significant."""

    def decode(action):
        action, move = divmod(action, 3)
        action, pos = divmod(action, tm.tape_cells)
        qi, sym = divmod(action, tm.n_symbols)
        return tm.states[qi], sym, pos + 1, move - 1

    def encode(q, sym, pos, move):
        return ((tm.states.index(q) * tm.n_symbols + sym) * tm.tape_cells + pos - 1) * 3 + move + 1

    return decode, encode


def tm_rule(tm):
    n = tm.tape_cells
    decode, encode = tm_head_codec(tm)

    def rule(state):
        cells = state[:n]
        q, sym, pos, move = decode(state[n])
        out = [sym if i + 1 == pos else cells[i] for i in range(n)]
        if q in tm.halting or cells[pos - 1] != sym:
            out.append(state[n])
        else:
            new_pos = pos + move if 1 <= pos + move <= n else pos
            q2, sym2, move2 = tm.delta[(q, cells[new_pos - 1])]
            out.append(encode(q2, sym2, new_pos, move2))
        return tuple(out)

    return rule


def _cube_vertex(state):
    v = 0
    for a in state[2:]:
        v = (v << 1) | a
    return v


def orientation_rule(z, vertices):
    """Per cube vertex v and dimension b, bit b of the end that v's b-edge
    points at: snake edges follow the cycle, an edge with one end on the
    snake points at that end, and any other edge points at its lesser end."""
    on = set(vertices)
    after = dict(zip(vertices, vertices[1:] + vertices[:1]))

    def head(u, w):
        if u in on and w in on:
            return w if after[u] == w else u
        if u in on or w in on:
            return u if u in on else w
        return min(u, w)

    return [[head(v, v ^ 1 << b) >> b & 1 for b in range(z)] for v in range(1 << z)]


def snake_rule(n):
    from asyncdyn.reductions import snake_for_system

    z = n - 2
    bits = orientation_rule(z, snake_for_system(n).vertices)

    def rule(state):
        out1 = 0 if all(a == 0 for a in state[1:]) else 1
        out2 = 0 if state[0] == 0 and all(a == 0 for a in state[2:]) else 1
        v = _cube_vertex(state)
        if state[0] == 1 and state[1] == 1:
            cube = [1] * z
        else:
            cube = [bits[v][n - j] for j in range(3, n + 1)]
        return (out1, out2, *cube)

    return rule


def disjointness_rule(n, A, B):
    from asyncdyn.reductions import disjointness_snake

    snake = disjointness_snake(n)
    z = n - 2
    a_vertices = {snake.vertices[j - 1] for j in A}
    b_vertices = {snake.vertices[j - 1] for j in B}
    bits = orientation_rule(z, snake.vertices)

    def rule(state):
        v = _cube_vertex(state)
        out1 = 0 if (v in a_vertices and state[1] == 1) else 1
        out2 = 0 if (v in b_vertices and state[0] == 1) else 1
        if state[0] == 0 and state[1] == 0:
            cube = [bits[v][n - j] for j in range(3, n + 1)]
        else:
            cube = [1] * z
        return (out1, out2, *cube)

    return rule


def fig1_rule(state):
    a, b = state
    return (b, a)


def three_stable_rule(state):
    if state == (0, 0):
        return (1, 1)
    return state


def latched_rule(state):
    a1, a2, latch = state
    new_latch = 1 if (latch == 1 or a2 == 1) else 0
    return (1 if latch == 1 else 0, a1, new_latch)


def ring_rule(n):
    def rule(state):
        return tuple(
            0 if all(a == 0 for j, a in enumerate(state) if j != i) else 1
            for i in range(n)
        )

    return rule


def futile_rule(n):
    all_ones = (1,) * n

    def rule(state):
        trapped = (
            sum(1 for a in state if a == 0) <= n - 2
            and sum(1 for a in state if a == 2) <= n - 2
        )
        out = []
        for i in range(n):
            others = state[:i] + state[i + 1:]
            if all(a == 0 for a in others):
                out.append(0)
            elif all(a == 2 for a in others):
                out.append(2)
            elif trapped and state == all_ones and i == n - 1:
                out.append(2)
            else:
                out.append(1)
        return tuple(out)

    return rule


def fixture_rule(name, **params):
    """The per-state rule of a named system fixture."""
    if name == "fig1":
        return fig1_rule
    if name == "ex-three-stable":
        return three_stable_rule
    if name == "ex-unbounded-latched":
        return latched_rule
    if name == "ring":
        return ring_rule(int(params.get("n", 4)))
    if name == "futile":
        return futile_rule(int(params.get("n", 3)))
    raise ValueError(f"no system fixture {name!r}")


def rule_rows(space, rule):
    """A per-state rule tabulated state by state, as nested lists."""
    return [list(rule(s)) for s in space.states()]
