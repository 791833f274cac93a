"""Games with integer utilities, PNE enumeration, and the conversions between
games and historyless self-independent systems (best-response dynamics in one
direction, indicator utilities in the other)."""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        tables = []
        for table in self.utilities:
            table = tuple(int(u) for u in table)
            if len(table) != self.space.num_states:
                raise InvalidInput(
                    f"utility table has {len(table)} entries, expected {self.space.num_states}"
                )
            tables.append(table)
        object.__setattr__(self, "utilities", tuple(tables))

    @property
    def n(self) -> int:
        return self.space.n

    def utility(self, node: int, state) -> int:
        state = self.space.validate_state(state)
        if not 1 <= node <= self.space.n:
            raise InvalidInput(f"node index {node} out of range 1..{self.space.n}")
        return self.utilities[node - 1][self.space.encode(state)]


def best_responses(game: Game, node: int, state) -> frozenset[int]:
    """Argmax set of the node's utility over its own actions, others fixed."""
    state = game.space.validate_state(state)
    if not 1 <= node <= game.space.n:
        raise InvalidInput(f"node index {node} out of range 1..{game.space.n}")
    return _best_responses(game.space, game.utilities[node - 1], node - 1, state)


def _best_responses(space: ActionSpace, table, i: int, state) -> frozenset[int]:
    """Argmax set of one utility table over coordinate i of the state."""
    values = {}
    for a in range(space.sizes[i]):
        candidate = state[:i] + (a,) + state[i + 1:]
        values[a] = table[space.encode(candidate)]
    best = max(values.values())
    return frozenset(a for a, v in values.items() if v == best)


def is_pne(game: Game, state) -> bool:
    state = game.space.validate_state(state)
    return all(state[i - 1] in best_responses(game, i, state) for i in range(1, game.n + 1))


def enumerate_pne(game: Game, budget: int | None = None) -> frozenset[State]:
    """Exactly the states where every node's action is a best response."""
    game.space.check_budget(budget)
    return frozenset(s for s in game.space.states() if is_pne(game, s))


def br_system(game: Game, tie_break: str | None = None, budget: int | None = None) -> HistorylessSystem:
    """Best-response dynamics as a historyless self-independent system.

    Requires unique best responses everywhere (the generic-game premise);
    ``tie_break="min"`` opts into least-indexed tie-breaking instead.
    """
    if tie_break not in (None, "min"):
        raise InvalidInput(f'tie_break must be None or "min", got {tie_break!r}')
    game.space.check_budget(budget)
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
        rows.append(tuple(row))
    system = HistorylessSystem.from_table(game.space, rows, name="best-response")
    return replace(system, self_independent_hint=True)


def induced_game(system: HistorylessSystem, budget: int | None = None) -> Game:
    """Indicator game: a node earns 1 exactly when its action matches its reaction."""
    matches = system.reaction_rows(budget) == system.space.digits()
    return Game(space=system.space, utilities=tuple(map(tuple, matches.T.astype(int).tolist())))


def scale_utilities(game: Game, node: int, scale: int = 1, shift: int = 0) -> Game:
    """Positive-affine transform of one node's table (argmax-preserving)."""
    if scale < 1:
        raise InvalidInput("scale must be a positive integer")
    tables = list(game.utilities)
    tables[node - 1] = tuple(u * scale + shift for u in tables[node - 1])
    return Game(space=game.space, utilities=tuple(tables))

