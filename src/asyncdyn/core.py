"""Finite interaction systems: states, reaction maps, schedules, single-step updates.

Nodes are numbered 1..n and activation sets are subsets of {1..n}.  Actions are
0-based integers; a joint state is a tuple with one action per node.  States are
encoded as mixed-radix integers (node n least significant) wherever a table or
graph index is needed, and the encode/decode bijection lives on ActionSpace.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .errors import BudgetExceeded, InsufficientHistory, InvalidInput, Unsupported

State = tuple[int, ...]
Window = tuple[State, ...]
ActivationSet = frozenset[int]

DEFAULT_STATE_BUDGET = 2 ** 20
BUDGET_ENV_VAR = "ASYNCDYN_BUDGET"
_CELLS_PER_STATE = 64  # cells of a state-sized array per budgeted state: N·n <= 64·budget
KEPT_BYTES = 1 << 18  # the most bytes one entry of shape_constant may take and still be kept
_KEPT: dict = {}  # (key, sizes) -> read-only arrays of one shape; see shape_constant


def resolve_budget(budget: int | None = None) -> int:
    """Effective enumeration budget: explicit argument, else env override, else default."""
    if budget is not None:
        if budget < 1:
            raise InvalidInput("budget must be positive")
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_STATE_BUDGET
    try:
        return resolve_budget(int(env))
    except (ValueError, InvalidInput):
        raise InvalidInput(f"{BUDGET_ENV_VAR} must be a positive integer, got {env!r}") from None


def _check_count(count: int, what: str, budget: int | None) -> int:
    limit = resolve_budget(budget)
    if count > limit:
        raise BudgetExceeded(f"{count} {what} exceed the enumeration budget {limit}")
    return count


def _check_rows(count: int, n: int, what: str, budget: int | None) -> int:
    """Count ``count`` states (or windows), and their rows of n cells, against the budget."""
    limit = resolve_budget(budget)
    _check_count(count, what, limit)
    if count * n > _CELLS_PER_STATE * limit:
        raise BudgetExceeded(f"{count} {what} of {n} nodes exceed the {_CELLS_PER_STATE * limit}-cell budget")
    return count


def _fits(count: int, n: int, limit: int) -> bool:
    """Whether ``_check_rows`` passes ``count`` rows of n cells at the budget ``limit``."""
    return count <= limit and count * n <= _CELLS_PER_STATE * limit


def shape_constant(key, space: ActionSpace, build, nbytes: int | None = None):
    """The one store of arrays that depend only on a shape: the tuple of
    arrays ``build()`` returns for ``space``, kept read-only for the life of
    the process under ``(key, space.sizes)`` when together they take at most
    ``KEPT_BYTES``, so every equal space shares them.  A larger entry is
    built at every call and kept nowhere, so a call leaves nothing
    state-sized behind.  ``nbytes``, when given, is the entry's size, known
    before anything is built: beyond the bound this returns None and builds
    nothing, for a caller that has a way around the whole array."""
    kept = _KEPT.get((key, space.sizes))
    if kept is not None:
        return kept
    if nbytes is not None and nbytes > KEPT_BYTES:
        return None
    arrays = build()
    if sum(a.nbytes for a in arrays) <= KEPT_BYTES:
        for a in arrays:
            a.flags.writeable = False
        _KEPT[key, space.sizes] = arrays
    return arrays


def _as_int(value, what: str = "action") -> int:
    """An integer of any integer type (numpy integers included) as a Python
    int; floats and strings are refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} {value!r} is not an integer") from None


@dataclass(frozen=True)
class ActionSpace:
    """Per-node action counts k_1..k_n; the joint state space is their product."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(_as_int(k, "action count") for k in self.sizes)
        if not sizes:
            raise InvalidInput("an action space needs at least one node")
        if any(k < 1 for k in sizes):
            raise InvalidInput(f"every action count must be >= 1, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return len(self.sizes)

    @cached_property
    def num_states(self) -> int:
        return math.prod(self.sizes)

    def encode(self, state: State) -> int:
        idx = 0
        for a, k in zip(state, self.sizes):
            idx = idx * k + a
        return idx

    def decode(self, idx: int) -> State:
        out = []
        for k in reversed(self.sizes):
            out.append(idx % k)
            idx //= k
        return tuple(reversed(out))

    @property
    def weights(self) -> np.ndarray:
        """Mixed-radix place values: ``encode(s) == s @ weights``.  Kept by
        ``shape_constant``, read-only and shared by every equal space."""
        return shape_constant("weights", self, self._weights)[0]

    def digits(self) -> np.ndarray:
        """(N, n) int64 array whose row i is ``decode(i)``.  Within
        ``KEPT_BYTES`` it is kept by ``shape_constant``, read-only and shared
        by every equal space; a larger space builds it afresh, writable, at
        every call and keeps nothing alive."""
        return shape_constant("digits", self, self._digits)[0]

    def _weights(self) -> tuple[np.ndarray]:
        return (np.cumprod((1,) + self.sizes[:0:-1], dtype=np.int64)[::-1],)

    def _digits(self) -> tuple[np.ndarray]:
        idx = np.arange(self.num_states, dtype=np.int64)
        return (idx[:, None] // self.weights % np.array(self.sizes, dtype=np.int64),)

    @cached_property
    def _bounds(self) -> np.ndarray:
        """The action counts as read-only uint64: an int64 action viewed as
        uint64 is below its count iff it is in range, negatives included."""
        bounds = np.array(self.sizes, dtype=np.uint64)
        bounds.flags.writeable = False
        return bounds

    def states(self) -> Iterator[State]:
        """All joint states in encoded (lexicographic) order."""
        return product(*(range(k) for k in self.sizes))

    def validate_state(self, state) -> State:
        state = tuple(state)
        if len(state) != self.n:
            raise InvalidInput(f"state {state} has {len(state)} coordinates, expected {self.n}")
        for a, k in zip(state, self.sizes):
            if not isinstance(a, int):
                return self.validate_state(tuple(map(_as_int, state)))
            if not 0 <= a < k:
                raise InvalidInput(f"action {a} out of range [0, {k}) in state {state}")
        return state

    def validate_active(self, active: Iterable[int]) -> ActivationSet:
        active = frozenset(active)
        for i in active:
            if not isinstance(i, int) or not 1 <= i <= self.n:
                raise InvalidInput(f"node index {i} out of range 1..{self.n}")
        return active

    def check_budget(self, budget: int | None = None) -> int:
        return _check_rows(self.num_states, self.n, "joint states", budget)

    @cached_property
    def within_default_budget(self) -> bool:
        """Whether ``check_budget`` passes at the default budget: only then
        is a reaction tabulated and kept."""
        return _fits(self.num_states, self.n, DEFAULT_STATE_BUDGET)


@functools.cache
def window_space(space: ActionSpace, k: int) -> ActionSpace:
    """The space of k-windows over ``space``: one node per window position,
    oldest first, whose action is the index of the state there.  Its encoding
    is the one window encoding; it is built once per (space, k)."""
    return ActionSpace((space.num_states,) * k)


def _checked_rows(space: ActionSpace, rows, count: int, given: np.ndarray | None = None) -> np.ndarray:
    """The one validator of a tabulated reaction: ``count`` rows of one
    integer action per node, each in range; returned as an int64 array.
    A fresh int64 array that the rule made, owns and may write is returned
    as it is; anything else, the rule's input ``given`` included, is copied."""
    if not (
        isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows is not given
        and rows.flags.owndata and rows.flags.writeable
    ):
        try:
            rows = np.array(rows)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"reaction produced a malformed state: {exc}") from exc
    return _valid_rows(space, rows, count)


def _valid_rows(space: ActionSpace, rows: np.ndarray, count: int) -> np.ndarray:
    """``_checked_rows`` of an array that is read and never kept: checked
    where it lies, and copied only to turn another integer dtype into int64."""
    if rows.dtype.kind not in "biu":
        raise InvalidInput(f"reaction produced an action that is not an integer (type {rows.dtype})")
    if rows.shape != (count, space.n):
        raise InvalidInput(f"reaction must give {count} rows of {space.n} actions, got shape {rows.shape}")
    rows = rows.astype(np.int64, copy=False)
    if (rows.view(np.uint64) >= space._bounds).any():
        raise InvalidInput(f"reaction produced an action out of range for sizes {space.sizes}")
    return rows


ArrayRule = Callable[[np.ndarray], np.ndarray]


class _Reaction:
    """The tabulation of an array rule that a system's ``reaction`` and its
    default ``rule`` share.  It holds no reference to its system, so
    dropping the system frees the cached rows at once."""

    __slots__ = ("space", "array_rule", "_rows")

    def __init__(self, space: ActionSpace, array_rule: ArrayRule, rows: np.ndarray | None = None):
        self.space, self.array_rule, self._rows = space, array_rule, rows

    def rows(self, budget: int | None) -> np.ndarray:
        self.space.check_budget(budget)
        if self._rows is not None:
            return self._rows
        digits = self.space.digits()
        rows = _checked_rows(self.space, self.array_rule(digits), self.space.num_states, digits)
        if self.space.within_default_budget:
            rows.flags.writeable = False
            self._rows = rows
        return rows

    def __call__(self, state: State, budget: int | None = None) -> State:
        """The reaction at one state: read off the rows, which are tabulated
        on first use if the space is within the default budget and within
        ``budget``; otherwise the array rule on that state's row alone."""
        space, rows = self.space, self._rows
        state = space.validate_state(state)
        if rows is None:
            if not _fits(space.num_states, space.n, min(resolve_budget(budget), DEFAULT_STATE_BUDGET)):
                return tuple(_checked_rows(space, self.array_rule(np.array([state], dtype=np.int64)), 1)[0].tolist())
            rows = self.rows(budget)
        return tuple(rows[space.encode(state)].tolist())


@dataclass(frozen=True)
class HistorylessSystem:
    """System whose reaction map reads only the current state.

    The reaction is an array rule: it maps an (m, n) matrix of states, one
    action per column, to their (m, n) reactions.  ``from_table`` and
    ``from_rule`` adapt a table of rows and a per-state rule to one.
    ``rule`` is a per-state view of the reaction; by default it reads the
    same tabulation as ``reaction``, and ``reaction`` never calls it.
    """

    space: ActionSpace
    rule: Callable[[State], State] | None = None
    name: str = ""
    array_rule: ArrayRule | None = None
    _reaction: _Reaction | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.array_rule is None:
            raise InvalidInput("a system needs a reaction: build it with from_table, from_rule or from_array_rule")
        # ``dataclasses.replace`` passes the old holder on: keep it, and its
        # tabulation, while the space and the array rule are unchanged
        held = self._reaction
        if held is None or (held.space, held.array_rule) != (self.space, self.array_rule):
            object.__setattr__(self, "_reaction", _Reaction(self.space, self.array_rule))
        if self.rule is None or self.rule is held:
            object.__setattr__(self, "rule", self._reaction)

    @classmethod
    def from_table(
        cls,
        space: ActionSpace,
        rows: Iterable[State],
        name: str = "",
    ) -> "HistorylessSystem":
        """The system whose reaction at the state with index i is ``rows[i]``."""
        rows = _checked_rows(space, list(rows), space.num_states)
        rows.flags.writeable = False

        def array_rule(d):
            return rows[d @ space.weights]

        return cls(
            space=space,
            name=name,
            array_rule=array_rule,
            _reaction=_Reaction(space, array_rule, rows),
        )

    @classmethod
    def from_rule(
        cls,
        space: ActionSpace,
        rule: Callable[[State], State],
        name: str = "",
    ) -> "HistorylessSystem":
        """The system whose reaction at a state is ``rule(state)``, called once
        per state when the reaction is tabulated."""
        return cls.from_array_rule(space, lambda d: list(map(rule, map(tuple, d.tolist()))), name)

    @classmethod
    def from_array_rule(
        cls,
        space: ActionSpace,
        array_rule: ArrayRule,
        name: str = "",
    ) -> "HistorylessSystem":
        """The system whose reaction is ``array_rule``, an (m, n) to (m, n)
        map of state matrices.  The rule must not write into its input:
        within ``KEPT_BYTES`` that is the space's kept, read-only ``digits``,
        and a write raises."""
        return cls(space=space, array_rule=array_rule, name=name)

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def num_states(self) -> int:
        return self.space.num_states

    def reaction(self, state: State, budget: int | None = None) -> State:
        """The reaction at one state.  The reaction is tabulated, and kept,
        only within the default budget and within ``budget``; beyond either,
        this is the array rule on one row."""
        return self._reaction(state, budget)

    def reaction_rows(self, budget: int | None = None) -> np.ndarray:
        """(N, n) int64 array whose row i is the reaction at the state with
        index i: the one tabulation of a reaction, checked once.  Within the
        default budget it is made on first use and cached, read-only."""
        return self._reaction.rows(budget)


@dataclass(frozen=True)
class KRecallSystem:
    """System whose reaction reads the k most recent states (and the time counter
    unless stationary).

    ``rule(window) -> State`` for stationary systems, ``rule(window, t) -> State``
    otherwise, where ``window`` is the tuple of the k most recent states and ``t``
    is the index of the state being produced.
    """

    space: ActionSpace
    k: int
    rule: Callable
    stationary: bool = True
    name: str = ""

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInput(f"recall depth must be >= 1, got {self.k}")

    @property
    def n(self) -> int:
        return self.space.n

    def reaction(self, window: Window, t: int | None = None) -> State:
        if len(window) != self.k:
            raise InsufficientHistory(f"expected a window of exactly {self.k} states")
        if self.stationary:
            return self.space.validate_state(self.rule(window))
        if t is None:
            raise InvalidInput("non-stationary reactions need the time counter")
        return self.space.validate_state(self.rule(window, t))


def validate_window(space: ActionSpace, window) -> Window:
    window = tuple(space.validate_state(s) for s in window)
    if not window:
        raise InvalidInput("a history window must be nonempty")
    return window


def _update(state: State, active: ActivationSet, react: Callable[[], State]) -> State:
    """The model's one update rule: the activated nodes take their action in
    ``react()``, the reaction at the current state or window, and every other
    node keeps its action.  An empty set changes nothing and reacts to nothing."""
    if not active:
        return state
    target = react()
    return tuple(target[i] if (i + 1) in active else a for i, a in enumerate(state))


def _fixed(system: HistorylessSystem | KRecallSystem, window: Window, react: Callable[[], State]) -> bool:
    """The one fixed-window test: the window is constant and its newest state
    is its own reaction ``react()``, so no activation set can change it again.
    A historyless system reads only the newest state; a non-stationary system
    is never known to be fixed."""
    last = window[-1]
    if isinstance(system, HistorylessSystem):
        return react() == last
    return system.stationary and all(s == last for s in window) and react() == last


def step(system: HistorylessSystem, state: State, active: Iterable[int]) -> State:
    """One update step: activated nodes apply the reaction map, the rest persist."""
    state = system.space.validate_state(state)
    active = system.space.validate_active(active)
    return _update(state, active, lambda: system.reaction(state))


def step_history(
    system: KRecallSystem, window, t: int | None, active: Iterable[int]
) -> State:
    """One update step of a k-recall system from a history window.

    ``t`` is the index of the state being produced (histories a^0..a^{t-1} have
    length t); it must be at least k and is ignored by stationary systems.
    """
    window = validate_window(system.space, window)
    active = system.space.validate_active(active)
    if len(window) < system.k:
        raise InsufficientHistory(
            f"window of length {len(window)} is shorter than recall depth {system.k}"
        )
    if t is not None and t < system.k:
        raise InvalidInput(f"reactions are defined only for t >= {system.k}")
    if not system.stationary and t is None:
        raise InvalidInput("non-stationary systems need the time counter")
    return _update(window[-1], active, lambda: system.reaction(window[-system.k:], t))


def is_stable(system, state) -> bool:
    """Fixed point test: the state persists under every activation set."""
    if isinstance(system, HistorylessSystem):
        state = system.space.validate_state(state)
        return _fixed(system, (state,), lambda: system.reaction(state))
    if isinstance(system, LiftedSystem):
        return system.is_stable(state)
    raise Unsupported(f"is_stable is not defined for {type(system).__name__}")


@dataclass(frozen=True)
class SelfIndependence:
    """Outcome of a self-independence check, with violating witnesses if any."""

    ok: bool
    violations: tuple[tuple[int, State, State], ...]

    def __bool__(self) -> bool:
        return self.ok


def check_self_independent(
    system: HistorylessSystem, budget: int | None = None, max_violations: int = 16
) -> SelfIndependence:
    """Does every node's reaction ignore that node's own current action?

    Exhaustive over all pairs of states differing in one coordinate: node i's
    column of the reaction rows must be constant along axis i.  Each violation
    pairs a state where node i plays 0 with the first variant that changes
    node i's reaction.  Beyond the enumeration budget it raises
    BudgetExceeded.
    """
    rows = system.reaction_rows(budget)
    space = system.space
    index = np.arange(space.num_states).reshape(space.sizes)
    ok = True
    violations: list[tuple[int, State, State]] = []
    for i, k_i in enumerate(space.sizes):
        column = rows[:, i].reshape(space.sizes)
        # one row per choice of the other nodes' actions, in encoded order
        differs = np.moveaxis(column != column.take([0], axis=i), i, -1).reshape(-1, k_i)
        states = np.moveaxis(index, i, -1).reshape(-1, k_i)
        hits = np.flatnonzero(differs.any(axis=1))
        ok = ok and not hits.size
        for o in hits[: max(max_violations - len(violations), 0)].tolist():
            base, variant = states[o, 0], states[o, differs[o].argmax()]
            violations.append((i + 1, space.decode(int(base)), space.decode(int(variant))))
    return SelfIndependence(ok, tuple(violations))


@dataclass(frozen=True)
class LiftedSystem:
    """Window-space view of a stationary k-recall system.

    States are k-windows over the base space.  Activating S shifts the window
    and applies the recall rule at the activated coordinates; non-activated
    coordinates copy the most recent state.  This is deliberately not a
    coordinate-wise reaction table over the window space (the shift moves every
    node's column).  The analyzer compiles it from ``reaction_rows``, the
    recall rule at every window; ``transition`` is the one-window step.
    """

    base: KRecallSystem

    def __post_init__(self):
        if not self.base.stationary:
            raise Unsupported("only stationary k-recall systems have a finite lifting")

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def n(self) -> int:
        return self.base.space.n

    @property
    def num_states(self) -> int:
        return self._windows.num_states

    @property
    def _windows(self) -> ActionSpace:
        return window_space(self.base.space, self.base.k)

    def encode(self, window: Window) -> int:
        return self._windows.encode(tuple(map(self.base.space.encode, window)))

    def decode(self, idx: int) -> Window:
        return tuple(map(self.base.space.decode, self._windows.decode(idx)))

    def reaction_rows(self, budget: int | None = None) -> np.ndarray:
        """(N^k, n) int64 array whose row i is the recall rule at the window
        with index i; the windows of a historyless system hold one state."""
        _check_rows(self.num_states, self.n, "window states", budget)
        states = tuple(self.base.space.states())
        rows = [self.base.rule(w) for w in product(states, repeat=self.k)]
        return _checked_rows(self.base.space, rows, self.num_states)

    def validate_state(self, window) -> Window:
        window = validate_window(self.base.space, window)
        if len(window) != self.base.k:
            raise InvalidInput(f"lifted states are windows of exactly {self.base.k} states")
        return window

    def transition(self, window, active: Iterable[int]) -> Window:
        window = self.validate_state(window)
        active = self.base.space.validate_active(active)
        return window[1:] + (_update(window[-1], active, lambda: self.base.reaction(window)),)

    def is_stable(self, window) -> bool:
        window = self.validate_state(window)
        return _fixed(self.base, window, lambda: self.base.reaction(window))


def lift_k_recall(system: KRecallSystem) -> LiftedSystem:
    """Historyless view of a stationary k-recall system over k-windows."""
    return LiftedSystem(system)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def _normalize_sets(sets) -> tuple[ActivationSet, ...]:
    try:  # ``_as_int``'s reading of a node, without a Python call per node
        return tuple(frozenset(map(operator.index, s)) for s in sets)
    except TypeError:
        for i in (i for s in sets for i in s):
            _as_int(i, "node index")  # names the first node that is not an integer
        raise


@dataclass(frozen=True)
class Synchronous:
    """Every node is activated at every step."""


@dataclass(frozen=True)
class RoundRobin:
    """Singleton activations cycling through nodes 1..n."""


@dataclass(frozen=True)
class ExplicitList:
    """A finite list of activation sets; the schedule continues with empty sets."""

    sets: tuple[ActivationSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", _normalize_sets(self.sets))


@dataclass(frozen=True)
class Periodic:
    """A finite prefix followed by a nonempty cycle repeated forever."""

    cycle: tuple[ActivationSet, ...]
    prefix: tuple[ActivationSet, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cycle", _normalize_sets(self.cycle))
        object.__setattr__(self, "prefix", _normalize_sets(self.prefix))
        if not self.cycle:
            raise InvalidInput("a periodic schedule needs a nonempty cycle")

    def phase(self, t: int):
        """The phase of step t (1-based): ("prefix", t) inside the prefix,
        else the position in the cycle."""
        if t <= len(self.prefix):
            return ("prefix", t)
        return (t - len(self.prefix) - 1) % len(self.cycle)


@dataclass(frozen=True)
class SeededRandom:
    """Each node is activated independently with probability p per step."""

    seed: int
    p: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidInput(f"activation probability must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class SeededRFair:
    """Seeded random schedule constrained to be r-fair from the first window."""

    seed: int
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise InvalidInput(f"r must be >= 1, got {self.r}")


Schedule = Union[Synchronous, RoundRobin, ExplicitList, Periodic, SeededRandom, SeededRFair]


def _periodic(schedule: Schedule, n: int) -> Periodic | None:
    """The one (prefix, cycle) form of a finite schedule for n nodes, or None
    for a seeded schedule, whose phase is unbounded."""
    if isinstance(schedule, Periodic):
        return schedule
    if isinstance(schedule, Synchronous):
        return Periodic((frozenset(range(1, n + 1)),))
    if isinstance(schedule, RoundRobin):
        return Periodic(tuple(frozenset({i}) for i in range(1, n + 1)))
    if isinstance(schedule, ExplicitList):
        return Periodic((frozenset(),), schedule.sets)
    return None


def schedule_stream(schedule: Schedule, n: int) -> Iterator[ActivationSet]:
    """The infinite activation-set sequence sigma(1), sigma(2), ... for n nodes."""
    periodic = _periodic(schedule, n)
    if periodic is not None:
        yield from periodic.prefix
        while True:
            yield from periodic.cycle
    elif isinstance(schedule, SeededRandom):
        rng = random.Random(schedule.seed)
        while True:
            yield frozenset(i for i in range(1, n + 1) if rng.random() < schedule.p)
    elif isinstance(schedule, SeededRFair):
        rng = random.Random(schedule.seed)
        missed = [0] * n
        while True:
            chosen = {i for i in range(1, n + 1) if rng.random() < 0.5}
            chosen.update(i for i in range(1, n + 1) if missed[i - 1] >= schedule.r - 1)
            yield frozenset(chosen)
            for i in range(n):
                missed[i] = 0 if (i + 1) in chosen else missed[i] + 1
    else:
        raise InvalidInput(f"unknown schedule kind {type(schedule).__name__}")


def schedule_prefix(schedule: Schedule, length: int, n: int) -> list[ActivationSet]:
    """The first ``length`` activation sets of the schedule, deterministically."""
    if length < 0:
        raise InvalidInput("length must be >= 0")
    stream = schedule_stream(schedule, n)
    return [next(stream) for _ in range(length)]


def check_r_fair(prefix, r: int, n: int) -> bool:
    """Does every node appear in every window of r consecutive activation sets?

    Only windows lying fully inside the prefix are checked, starting with the
    first one.
    """
    if r < 1:
        raise InvalidInput(f"r must be >= 1, got {r}")
    sets = _normalize_sets(prefix)
    nodes = range(1, n + 1)
    for start in range(len(sets) - r + 1):
        window = frozenset().union(*sets[start : start + r])
        if any(i not in window for i in nodes):
            return False
    return True

