"""Games with integer utilities, PNE enumeration, and the conversions between
games and historyless self-independent systems (best-response dynamics in one
direction, indicator utilities in the other).

Every game of one shape shares that shape's constants, built on first use and
kept by ``core.shape_constant``; each ``Game`` builds its best-response table
once, ``Game.br_table``, which PNE enumeration, best-response dynamics and the
uncoupled checkers all read."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .core import ActionSpace, HistorylessSystem, State, shape_constant
from .errors import InvalidInput, NonUniqueBestResponse


@dataclass(frozen=True)
class Game:
    """Integer utility tables, one per node, indexed by encoded joint state.

    Utilities are exact integers so best-response ties are unambiguous;
    rational payoffs should be pre-scaled by the caller.
    """

    space: ActionSpace
    utilities: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.utilities) != self.space.n:
            raise InvalidInput(
                f"need one utility table per node, got {len(self.utilities)} for n={self.space.n}"
            )
        try:
            tables = tuple(tuple(map(operator.index, table)) for table in self.utilities)
        except TypeError as exc:
            raise InvalidInput(f"utilities must be tables of integers: {exc}") from None
        for table in tables:
            if len(table) != self.space.num_states:
                raise InvalidInput(
                    f"utility table has {len(table)} entries, expected {self.space.num_states}"
                )
        object.__setattr__(self, "utilities", tables)

    @property
    def n(self) -> int:
        return self.space.n

    @functools.cached_property
    def br_table(self) -> tuple[np.ndarray, np.ndarray]:
        """This game's ``best_response_table``, two read-only (N, n) arrays
        ``is_br`` and ``least``, built on first use."""
        is_br, least = best_response_table(self.space, (self.utilities,))
        for a in (is_br, least):
            a.flags.writeable = False
        return is_br[0], least[0]

    def utility(self, node: int, state) -> int:
        state = self.space.validate_state(state)
        if not 1 <= node <= self.space.n:
            raise InvalidInput(f"node index {node} out of range 1..{self.space.n}")
        return self.utilities[node - 1][self.space.encode(state)]


def best_responses(game: Game, node: int, state) -> frozenset[int]:
    """Argmax set of the node's utility over its own actions, others fixed:
    the per-state reference for ``best_response_table``."""
    space = game.space
    state = space.validate_state(state)
    if not 1 <= node <= space.n:
        raise InvalidInput(f"node index {node} out of range 1..{space.n}")
    i, table = node - 1, game.utilities[node - 1]
    values = {a: table[space.encode(state[:i] + (a,) + state[i + 1:])] for a in range(space.sizes[i])}
    best = max(values.values())
    return frozenset(a for a, v in values.items() if v == best)


def _own_action_axes(space: ActionSpace):
    """Per node, the shape (states of the nodes before it, its own actions,
    states of the nodes after it) that an axis of N state indices takes."""
    outer = 1
    for k in space.sizes:
        yield outer, k, space.num_states // (outer * k)
        outer *= k


def _own_action_index(space: ActionSpace) -> np.ndarray | None:
    """(n, N, K) index into a game's n·N utilities, K the most actions of a
    node: entry [i, s, a] is node i+1's utility at state s with its own
    action replaced by a, and by its last action for a beyond it, which
    changes neither the maximum nor the first place of it.  Kept per shape,
    or None, with nothing built, beyond the store's bound."""
    n, count, most = space.n, space.num_states, max(space.sizes)

    def build():
        digits, weights = space.digits(), space.weights
        index = np.empty((n, count, most), dtype=np.int64)
        for i, k in enumerate(space.sizes):
            first = np.arange(i * count, (i + 1) * count) - digits[:, i] * weights[i]  # own action 0
            index[i] = first[:, None] + np.minimum(np.arange(most), k - 1) * weights[i]
        return (index,)

    kept = shape_constant("own-actions", space, build, 8 * n * count * most)
    return None if kept is None else kept[0]


def best_response_table(space: ActionSpace, utilities) -> tuple[np.ndarray, np.ndarray]:
    """Best responses of every node at every state, for B games on one space.

    ``utilities`` has shape (B, n, N): entry [b, i, s] is node i+1's utility
    at the state with index s in game b, a bool or an integer (beyond 64
    bits, an object array of Python ints).  Returns two (B, N, n) arrays:
    ``is_br`` (is node i+1's action at s a best response?) and ``least``
    (node i+1's least best response at s).  Node i+1's entries read only
    ``utilities[:, i]``, so the table is uncoupled by construction.
    """
    try:
        u = np.asarray(utilities)
    except (ValueError, OverflowError):  # ragged, or too wide for one numeric dtype
        u = None
    if u is None or u.dtype.kind not in "biu":  # integers beyond 64 bits stay exact Python ints
        u = np.asarray(utilities, dtype=object)
        if not all(isinstance(x, (int, np.integer)) for x in u.flat):
            raise InvalidInput("utilities must be integers")
    if u.ndim != 3 or u.shape[1:] != (space.n, space.num_states):
        raise InvalidInput(
            f"utilities must have shape (games, {space.n}, {space.num_states}), got {u.shape}"
        )
    games = len(u)
    # a shape whose own-action index is kept takes every node in one gather;
    # a larger one goes node by node through reshaped views, with no index
    index = _own_action_index(space)
    if index is not None:
        values = u.reshape(games, space.n * space.num_states)[:, index]  # (B, n, N, most actions)
        return (u == values.max(-1)).transpose(0, 2, 1), values.argmax(-1).transpose(0, 2, 1)
    is_br = np.empty((games, space.n, space.num_states), dtype=bool)
    least = np.empty(is_br.shape, dtype=np.int64)
    for i, axes in enumerate(_own_action_axes(space)):
        values = u[:, i].reshape((games,) + axes)
        is_br.reshape((games, space.n) + axes)[:, i] = values == values.max(axis=2, keepdims=True)
        least.reshape((games, space.n) + axes)[:, i] = values.argmax(axis=2, keepdims=True)
    return is_br.transpose(0, 2, 1), least.transpose(0, 2, 1)


def enumerate_pne(game: Game, budget: int | None = None) -> frozenset[State]:
    """Exactly the states where every node's action is a best response."""
    game.space.check_budget(budget)
    return frozenset(map(game.space.decode, np.flatnonzero(game.br_table[0].all(-1)).tolist()))


def br_system(game: Game, tie_break: str | None = None, budget: int | None = None) -> HistorylessSystem:
    """Best-response dynamics as a historyless self-independent system.

    Requires unique best responses everywhere (the generic-game premise);
    ``tie_break="min"`` opts into least-indexed tie-breaking instead.
    """
    if tie_break not in (None, "min"):
        raise InvalidInput(f'tie_break must be None or "min", got {tie_break!r}')
    space = game.space
    space.check_budget(budget)
    is_br, least = game.br_table
    if tie_break is None:
        # node i+1 ties at s when two or more of its own actions best-respond
        tied = np.empty((space.n, space.num_states), dtype=bool)
        for i, axes in enumerate(_own_action_axes(space)):
            tied.reshape((space.n,) + axes)[i] = is_br[:, i].reshape(axes).sum(axis=1, keepdims=True) > 1
        if tied.any():
            s, i = divmod(int(tied.T.argmax()), space.n)  # first in (state, node) order
            state = space.decode(s)
            brs = best_responses(game, i + 1, state)
            raise NonUniqueBestResponse(f"node {i + 1} has best responses {sorted(brs)} at state {state}")
    return HistorylessSystem.from_table(space, least, name="best-response")


def induced_game(system: HistorylessSystem, budget: int | None = None) -> Game:
    """Indicator game: a node earns 1 exactly when its action matches its reaction."""
    matches = system.reaction_rows(budget) == system.space.digits()
    return Game(space=system.space, utilities=tuple(map(tuple, matches.T.astype(int).tolist())))

