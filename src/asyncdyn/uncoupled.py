"""Uncoupled self-stabilization protocols and their exhaustive checkers.

Each protocol builds a node's reaction function from that node's own utility
table alone (a NodeUtility), never from the full game.  Self-stabilization is
checked under the synchronous schedule (the unique 1-fair schedule): the
deterministic checkers sweep every initial k-window exactly via the functional
graph of window successors, and the randomized checker decides support-level
reachability, which is equivalent to absorption with probability 1 in a finite
chain whose moves have uniformly positive probability.

The checkers work on arrays: one best-response table per game
(``games.best_response_table``, whose node-i entries read node i's utilities
only), the window-successor array of a whole batch of games, and pointer
doubling over it.  The per-node functions (``three_recall_step``,
``two_recall_step``, ``protocol_system``, ``stay_or_roll_support``,
``support_system``) are the reference definitions of the protocols: the
simulator runs them and the tests compare the arrays against them.

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

from .core import ActionSpace, KRecallSystem, State, _check_count, resolve_budget, window_space
from .errors import InvalidInput, Unsupported
from .games import Game, _best_responses, best_response_table, enumerate_pne

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
    The per-node reference for the array form in ``_window_successors``.
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
    node so the move-on and query conditions are disjoint.  The per-node
    reference for the array form in ``_window_successors``."""
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


def _recall(protocol: str, space: ActionSpace) -> int:
    """Recall depth k of a deterministic protocol, once it is known to apply."""
    if protocol not in PROTOCOLS:
        raise InvalidInput(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if protocol == "three-recall":
        return 3
    if any(s < 4 for s in space.sizes):
        raise Unsupported("the 2-recall protocol needs at least four actions per node")
    return 2


def protocol_system(protocol: str, game: Game) -> KRecallSystem:
    """The interaction system a deterministic protocol induces for a game,
    built from the per-node reference steps (the checkers use the array form
    in ``_window_successors``)."""
    k = _recall(protocol, game.space)
    utilities = [node_utility(game, i) for i in range(1, game.n + 1)]
    step = three_recall_step if k == 3 else two_recall_step

    def rule(window):
        return tuple(step(u, window) for u in utilities)

    return KRecallSystem(space=game.space, k=k, rule=rule, stationary=True, name=protocol)


def stay_or_roll_support(u: NodeUtility, state) -> frozenset[int]:
    """Positive-probability moves of the stay-or-roll rule: keep the current
    action when best-responding, otherwise any action (uniform roll).  The
    per-node reference for ``check_self_stabilization_randomized``."""
    state = u.space.validate_state(state)
    i = u.node - 1
    if state[i] in u.best_responses(state):
        return frozenset({state[i]})
    return frozenset(range(u.space.sizes[i]))


@dataclass(frozen=True)
class SupportSystem:
    """Support abstraction of a randomized synchronous system: per node and
    state, the set of actions played with positive probability.  A reference
    form that tests replay witnesses with; the checker does not build it."""

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
    """The stay-or-roll supports of every node at every state, from the
    per-node reference ``stay_or_roll_support``."""
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


def _window_successors(protocol: str, space: ActionSpace, is_br, least) -> np.ndarray:
    """(B, N^k) index of the window that follows each window of each game
    under the synchronous schedule: drop the oldest state, append the new one.

    A window is indexed by its point in ``window_space(space, k)``, the
    oldest state most significant.  Each protocol decides its case on whole
    states, so a window has one new state: under 3-recall ``f[c]`` (keep a
    best response, else play the least one) after a repeated state c, the
    cyclic successor of a after a rejected repetition (a, a, c), else c
    again; under 2-recall the analogous cases on (a, b), with the
    best-response mask at b as the game's only input.
    """
    n_states = space.num_states
    digits = space.digits()
    windows = window_space(space, _recall(protocol, space))
    w = np.arange(windows.num_states, dtype=np.int64)
    states = np.unravel_index(w, windows.sizes)  # the window space's decode: k state indices, oldest first
    if protocol == "three-recall":
        a, b, c = states
        answer = np.where(is_br, digits, least) @ space.weights  # (B, N)
        new = np.where(b == c, answer[:, c], np.where(a == b, (a + 1) % n_states, c))
    else:
        a, b = states
        sizes = np.array(space.sizes, dtype=np.int64)
        move_on = (a != b) & ((digits[a] - digits[b]) % sizes <= 1).all(-1)
        query = ((digits[b] - digits[a]) % sizes <= 2).all(-1)
        answer = np.where(is_br, digits, (digits - 1) % sizes) @ space.weights
        new = np.where(move_on, (a + 1) % n_states, np.where(query, answer[:, b], b))
    return w % windows.weights[0] * n_states + new


def _failing_windows(nxt: np.ndarray, pne_newest: np.ndarray) -> np.ndarray:
    """(B, M) mask of the windows whose trajectory under ``nxt`` (B, M) ends
    in a cycle through a window whose newest state is not a PNE.

    Pointer doubling (Wyllie's list ranking with OR accumulation): after t
    rounds ``h`` is the 2^t-th successor and ``bad[w]`` tells whether one of
    w's next 2^t windows ends at a non-PNE.  After ceil(log2 M) rounds h[w]
    lies on w's cycle and bad[h[w]] covers that whole cycle.
    """
    games, m = nxt.shape
    h = (nxt + np.arange(games, dtype=np.int64)[:, None] * m).ravel()
    bad = ~pne_newest.ravel()[h]
    for _ in range((m - 1).bit_length()):
        bad |= bad[h]
        h = h[h]
    return bad[h].reshape(games, m)


def check_self_stabilization_many(
    protocol: str, space: ActionSpace, utilities, budget: int | None = None
) -> list[StabilizationVerdict]:
    """``check_self_stabilization`` for B games on one space at once;
    ``utilities`` has shape (B, n, N) as in ``games.best_response_table``.

    Returns one verdict per game, equal to the single-game verdict.  The N^k
    windows of one game are counted against the budget once some game has a
    PNE, before any window array exists; games are then processed in chunks
    whose windows together fit the budget.
    """
    k = _recall(protocol, space)
    is_br, least = best_response_table(space, utilities)
    pne = is_br.all(-1)  # (B, N)
    verdicts: list[StabilizationVerdict] = [NoPNE()] * len(pne)
    todo = np.flatnonzero(pne.any(-1))
    if not todo.size:
        return verdicts
    windows = window_space(space, k)
    limit = resolve_budget(budget)
    count = _check_count(windows.num_states, "window states", limit)
    newest = np.arange(count) % space.num_states
    step = limit // count
    for start in range(0, todo.size, step):
        chunk = todo[start:start + step]
        nxt = _window_successors(protocol, space, is_br[chunk], least[chunk])
        fails = _failing_windows(nxt, pne[chunk][:, newest])
        for g, row in zip(chunk.tolist(), fails):
            if row.any():  # the least failing window in encoded order
                window = windows.decode(int(row.argmax()))
                verdicts[g] = Fails(witness=tuple(map(space.decode, window)))
            else:
                verdicts[g] = SelfStabilizing()
    return verdicts


def check_self_stabilization(
    protocol: str, game: Game, budget: int | None = None
) -> StabilizationVerdict:
    """Exhaustive check over all initial k-windows under the synchronous
    schedule: does the unique trajectory end up forever at PNE states?

    The synchronous successor is a function on windows, so each trajectory ends
    in a cycle; the system self-stabilizes iff every reachable cycle visits
    only PNE states.  The one-game case of ``check_self_stabilization_many``.
    """
    return check_self_stabilization_many(protocol, game.space, [game.utilities], budget)[0]


def check_self_stabilization_randomized(
    game: Game, budget: int | None = None
) -> StabilizationVerdict:
    """Support-reachability check of the stay-or-roll protocol under the
    synchronous schedule: self-stabilizing iff every PNE is absorbing and some
    PNE is reachable in the support graph from every state.

    A state t is a one-step successor of s iff t agrees with s on the nodes
    that best-respond at s.  So s reaches a set R iff R meets the subcube
    keyed by (best-response mask at s, s's actions on that mask); the set of
    states that reach a PNE is grown from the PNEs by that test, with one
    row of keys per mask that occurs.  The N states are counted against the
    budget, and the (masks, N) key rows are built in chunks of at most
    budget entries.
    """
    space = game.space
    space.check_budget(budget)
    is_br = best_response_table(space, [game.utilities])[0][0]
    reach = is_br.all(-1)
    if not reach.any():
        return NoPNE()
    # a node with one action always stays, so masks are codes over the others
    live = np.flatnonzero(np.array(space.sizes) > 1)
    codes = (is_br[:, live] @ (1 << np.arange(live.size))).tolist()
    index: dict[int, int] = {}  # mask code -> row, in order of first occurrence
    group = np.array([index.setdefault(c, len(index)) for c in codes])
    masks = np.array(list(index))
    place = (masks[:, None] >> np.arange(live.size) & 1) * space.weights[live]  # (G, live)
    digits = space.digits()[:, live]
    own = (digits * place[group]).sum(-1)  # each state's key under its own mask
    assert (own[reach] == np.flatnonzero(reach)).all(), "a PNE must be absorbing under stay-or-roll"
    step = resolve_budget(budget) // space.num_states
    while True:
        grown = reach.copy()
        for lo in range(0, len(masks), step):
            keys = place[lo:lo + step] @ digits.T  # (masks in chunk, N)
            hit = np.zeros(keys.shape, dtype=bool)
            hit[np.arange(len(keys))[:, None], keys[:, reach]] = True
            mine = (group >= lo) & (group < lo + step)
            grown[mine] |= hit[group[mine] - lo, own[mine]]
        if (grown == reach).all():
            break
        reach = grown
    if reach.all():
        return SelfStabilizing()
    return Fails(witness=space.decode(int(reach.argmin())))  # least in encoded order


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
