"""Games with integer utilities, PNE enumeration, and the conversions between
games and historyless self-independent systems (best-response dynamics in one
direction, indicator utilities in the other)."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import ActionSpace, HistorylessSystem, State
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


def best_response_table(space: ActionSpace, utilities) -> tuple[np.ndarray, np.ndarray]:
    """Best responses of every node at every state, for B games on one space.

    ``utilities`` has shape (B, n, N): entry [b, i, s] is node i+1's utility
    at the state with index s in game b.  Returns two (B, N, n) arrays:
    ``is_br`` (is node i+1's action at s a best response?) and ``least``
    (node i+1's least best response at s).  Node i+1's entries read only
    ``utilities[:, i]``, so the table is uncoupled by construction.
    """
    u = np.asarray(utilities)
    if u.dtype.kind not in "iu":  # integers beyond 64 bits stay exact Python ints
        u = np.asarray(utilities, dtype=object)
    if u.ndim != 3 or u.shape[1:] != (space.n, space.num_states):
        raise InvalidInput(
            f"utilities must have shape (games, {space.n}, {space.num_states}), got {u.shape}"
        )
    games = len(u)
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
    is_br, _ = best_response_table(game.space, [game.utilities])
    return frozenset(map(game.space.decode, np.flatnonzero(is_br[0].all(-1)).tolist()))


def br_system(game: Game, tie_break: str | None = None, budget: int | None = None) -> HistorylessSystem:
    """Best-response dynamics as a historyless self-independent system.

    Requires unique best responses everywhere (the generic-game premise);
    ``tie_break="min"`` opts into least-indexed tie-breaking instead.
    """
    if tie_break not in (None, "min"):
        raise InvalidInput(f'tie_break must be None or "min", got {tie_break!r}')
    space = game.space
    space.check_budget(budget)
    is_br, least = best_response_table(space, [game.utilities])
    if tie_break is None:
        # node i+1 ties at s when two or more of its own actions best-respond
        tied = np.empty((space.n, space.num_states), dtype=bool)
        for i, axes in enumerate(_own_action_axes(space)):
            tied.reshape((space.n,) + axes)[i] = is_br[0, :, i].reshape(axes).sum(axis=1, keepdims=True) > 1
        if tied.any():
            s, i = divmod(int(tied.T.argmax()), space.n)  # first in (state, node) order
            state = space.decode(s)
            brs = best_responses(game, i + 1, state)
            raise NonUniqueBestResponse(f"node {i + 1} has best responses {sorted(brs)} at state {state}")
    return HistorylessSystem.from_table(space, least[0], name="best-response")


def induced_game(system: HistorylessSystem, budget: int | None = None) -> Game:
    """Indicator game: a node earns 1 exactly when its action matches its reaction."""
    matches = system.reaction_rows(budget) == system.space.digits()
    return Game(space=system.space, utilities=tuple(map(tuple, matches.T.astype(int).tolist())))

