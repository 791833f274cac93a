"""Uncoupled self-stabilization protocols and their exhaustive checkers.

Each protocol builds a node's reaction function from that node's own utility
table alone (a NodeUtility), never from the full game.  Self-stabilization is
checked under the synchronous schedule (the unique 1-fair schedule): the
deterministic checkers sweep every initial k-window exactly via the functional
graph of window successors, and the randomized checker decides support-level
reachability, which is equivalent to absorption with probability 1 in a finite
chain whose moves have uniformly positive probability.

Action arithmetic here follows the protocols' 1-based formulas; the module
converts to the library's 0-based encoding at the boundary, which leaves both
modular differences and min-of-set tie-breaking unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Union

import numpy as np

from .core import ActionSpace, KRecallSystem, State, lift_k_recall
from .errors import InvalidInput, Unsupported
from .games import Game, _best_responses, enumerate_pne

PROTOCOLS = ("three-recall", "two-recall")


@dataclass(frozen=True)
class NodeUtility:
    """One node's private utility column; the only input a protocol may read."""

    node: int
    space: ActionSpace
    table: tuple[int, ...]

    def value(self, state) -> int:
        return self.table[self.space.encode(state)]

    def best_responses(self, state) -> frozenset[int]:
        return _best_responses(self.space, self.table, self.node - 1, state)

    def is_best_responding(self, state) -> bool:
        return state[self.node - 1] in self.best_responses(state)


def node_utility(game: Game, node: int) -> NodeUtility:
    if not 1 <= node <= game.n:
        raise InvalidInput(f"node index {node} out of range 1..{game.n}")
    return NodeUtility(node=node, space=game.space, table=game.utilities[node - 1])


def cyclic_successor(space: ActionSpace, state) -> State:
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


def protocol_system(protocol: str, game: Game) -> KRecallSystem:
    """The interaction system a deterministic protocol induces for a game."""
    if protocol not in PROTOCOLS:
        raise InvalidInput(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    utilities = [node_utility(game, i) for i in range(1, game.n + 1)]
    if protocol == "three-recall":
        k = 3

        def rule(window):
            return tuple(three_recall_step(u, window) for u in utilities)
    else:
        if any(s < 4 for s in game.space.sizes):
            raise Unsupported("the 2-recall protocol needs at least four actions per node")
        k = 2

        def rule(window):
            return tuple(two_recall_step(u, window) for u in utilities)

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

    def successors(self, state) -> list[State]:
        """All states reachable in one synchronous step with positive probability."""
        state = self.space.validate_state(state)
        sets = [sorted(self.support(i, state)) for i in range(1, self.space.n + 1)]
        return [tuple(choice) for choice in product(*sets)]


def support_system(game: Game, budget: int | None = None) -> SupportSystem:
    game.space.check_budget(budget)
    utilities = [node_utility(game, i) for i in range(1, game.n + 1)]
    supports = tuple(
        tuple(stay_or_roll_support(u, s) for s in game.space.states()) for u in utilities
    )
    return SupportSystem(space=game.space, supports=supports)


@dataclass(frozen=True)
class SelfStabilizing:
    pass


@dataclass(frozen=True)
class Fails:
    """witness: an initial k-window (deterministic checks) or a state
    (randomized check) from which the PNE set is never absorbed."""

    witness: object


@dataclass(frozen=True)
class NoPNE:
    pass


StabilizationVerdict = Union[SelfStabilizing, Fails, NoPNE]


def _pne_mask(game: Game) -> list[bool]:
    pne = enumerate_pne(game)
    return [s in pne for s in game.space.states()]


def check_self_stabilization(
    protocol: str, game: Game, budget: int | None = None
) -> StabilizationVerdict:
    """Exhaustive check over all initial k-windows under the synchronous
    schedule: does the unique trajectory end up forever at PNE states?

    The synchronous successor is a function on windows, so each trajectory ends
    in a cycle; the system self-stabilizes iff every reachable cycle visits
    only PNE states.
    """
    system = protocol_system(protocol, game)
    pne = _pne_mask(game)
    if not any(pne):
        return NoPNE()
    lifted = lift_k_recall(system)
    nstates = game.space.num_states
    total = lifted.num_states
    # window successor: drop the oldest state, append the reaction
    shift = np.arange(total, dtype=np.int64) % (total // nstates) * nstates
    nxt = (shift + lifted.reaction_rows(budget) @ game.space.weights).tolist()

    # functional-graph classification: a window is bad iff its eventual cycle
    # contains a non-PNE state
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
            cycle_bad = any(not pne[w % nstates] for w in cycle)
            for w in cycle:
                bad[w] = cycle_bad
                status[w] = 2
            chain = chain[:cycle_start]
        inherited = bad[node]
        for w in reversed(chain):
            bad[w] = inherited
            status[w] = 2
    if any(bad):
        return Fails(witness=lifted.decode(bad.index(True)))
    return SelfStabilizing()


def check_self_stabilization_randomized(
    game: Game, budget: int | None = None
) -> StabilizationVerdict:
    """Support-reachability check of the stay-or-roll protocol under the
    synchronous schedule: self-stabilizing iff every PNE is absorbing and some
    PNE is reachable in the support graph from every state."""
    game.space.check_budget(budget)
    pne = enumerate_pne(game)
    if not pne:
        return NoPNE()
    sup = support_system(game, budget)
    space = game.space
    for p in pne:
        assert sup.successors(p) == [p], "a PNE must be absorbing under stay-or-roll"
    can_reach = {p for p in pne}
    changed = True
    all_states = list(space.states())
    while changed:
        changed = False
        for s in all_states:
            if s in can_reach:
                continue
            if any(t in can_reach for t in sup.successors(s)):
                can_reach.add(s)
                changed = True
    for s in all_states:  # encoded order gives the least witness
        if s not in can_reach:
            return Fails(witness=s)
    return SelfStabilizing()


def simulate_stay_or_roll(
    game: Game, initial, seed: int, max_steps: int = 10_000
) -> bool:
    """Seeded Monte-Carlo run of stay-or-roll under the synchronous schedule;
    True when a PNE is reached within the budget.  A sanity cross-check for the
    support-level decision procedure, not a decision procedure itself."""
    space = game.space
    state = space.validate_state(initial)
    utilities = [node_utility(game, i) for i in range(1, game.n + 1)]
    pne = enumerate_pne(game)
    rng = random.Random(seed)
    for _ in range(max_steps):
        if state in pne:
            return True
        state = tuple(
            state[i] if state[i] in u.best_responses(state) else rng.randrange(space.sizes[i])
            for i, u in enumerate(utilities)
        )
    return state in pne


def to_one_based(state) -> tuple[int, ...]:
    """Render an internal 0-based state in the protocols' 1-based convention."""
    return tuple(a + 1 for a in state)


def fixture_game_2x2x2() -> Game:
    """Three-node game with a unique PNE at (1,1,1) (1-based) on which
    stay-or-roll fails: action 2 is always a best response for node 3, so no
    state with a_3 = 2 can ever reach the PNE."""
    m1 = (((1, 1, 1), (1, 0, 1)), ((1, 0, 0), (0, 1, 1)))
    m2 = (((0, 1, 0), (0, 1, 1)), ((0, 0, 0), (1, 0, 1)))
    matrices = (m1, m2)
    space = ActionSpace((2, 2, 2))
    tables: list[list[int]] = [[], [], []]
    for (a, b, c) in space.states():
        vals = matrices[a][b][c]
        for i in range(3):
            tables[i].append(vals[i])
    return Game(space=space, utilities=tuple(tuple(t) for t in tables))
