"""Trajectory simulation under explicit schedules, with exact run verdicts.

Convergence is reported only when it is permanent: a historyless system at a
fixed point, or a stationary k-recall system at a constant self-reproducing
window.  Cycling is reported only under finitely-phased schedules (periodic,
synchronous, round-robin, explicit), where a repeated (state, phase) pair is a
proof of eventual periodicity.  Seeded schedules and non-stationary systems
otherwise end in BudgetExhausted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .core import (
    ActivationSet,
    HistorylessSystem,
    KRecallSystem,
    Periodic,
    Schedule,
    State,
    Window,
    _fixed,
    _periodic,
    _update,
    resolve_budget,
    schedule_stream,
    validate_window,
)
from .errors import InsufficientHistory, InvalidInput, InvalidWitness, Unsupported

DEFAULT_MAX_STEPS = 10 ** 6
DEFAULT_TRACE_LIMIT = 100_000


@dataclass(frozen=True)
class Trajectory:
    """Materialized prefix of a run.

    ``trace`` is the retained tail of the full run as (state, producing
    activation set) rows; the run starts with the initial window, whose rows
    carry None.  ``dropped`` counts the rows discarded at the front once the
    trace limit was hit.
    """

    initial: Window
    trace: tuple[tuple[State, ActivationSet | None], ...]
    dropped: int = 0

    @cached_property
    def states(self) -> tuple[State, ...]:
        return tuple(state for state, _ in self.trace)

    def rows(self) -> list[tuple[int, State, ActivationSet | None]]:
        """(time, state, producing activation set or None) per retained state."""
        return [(self.dropped + j, state, active) for j, (state, active) in enumerate(self.trace)]


@dataclass(frozen=True)
class Converged:
    state: State
    time: int


@dataclass(frozen=True)
class Cycling:
    period: int
    segment: tuple[State, ...]


@dataclass(frozen=True)
class BudgetExhausted:
    last_state: State


RunVerdict = Union[Converged, Cycling, BudgetExhausted]


@dataclass(frozen=True)
class Witness:
    """Replayable non-convergence certificate: an initial window plus a periodic
    schedule whose cycle activates every node."""

    initial: Window
    cycle: tuple[ActivationSet, ...]
    prefix: tuple[ActivationSet, ...] = ()

    def schedule(self) -> Periodic:
        return Periodic(cycle=self.cycle, prefix=self.prefix)


def _normalize_initial(system, initial) -> Window:
    if initial and isinstance(initial[0], int):
        initial = (tuple(initial),)
    window = validate_window(system.space, initial)
    if isinstance(system, KRecallSystem):
        if len(window) < system.k:
            raise InsufficientHistory(
                f"initial window of length {len(window)} is shorter than recall depth {system.k}"
            )
    else:
        window = window[-1:]
    return window


def run(
    system: HistorylessSystem | KRecallSystem,
    initial,
    schedule: Schedule,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace_limit: int = DEFAULT_TRACE_LIMIT,
    budget: int | None = None,
) -> tuple[Trajectory, RunVerdict]:
    """Run the system from an initial state or window under a schedule.

    Returns the materialized trajectory together with a verdict.  Verdicts are
    sound: Converged means the run can never leave the reported state again,
    and Cycling means a (state, phase) pair repeated under a finitely-phased
    schedule, so the suffix is exactly periodic.  A historyless reaction is
    tabulated only if its space fits ``budget`` (and the default budget);
    otherwise each step evaluates the reaction at its one state.
    """
    if max_steps <= 0:
        raise InvalidInput("max_steps must be positive")
    if trace_limit < 2:
        raise InvalidInput("trace_limit must be at least 2")
    window = _normalize_initial(system, initial)
    historyless = isinstance(system, HistorylessSystem)
    k = 1 if historyless else system.k
    n = system.space.n
    finite = _periodic(schedule, n)
    if finite is not None:  # seeded schedules draw only nodes 1..n
        nodes = frozenset(range(1, n + 1))
        for active in finite.prefix + finite.cycle:
            if not active <= nodes:
                system.space.validate_active(active)
    # a repeated (phase, window) pair proves a cycle only for a finite phase
    # and a stationary reaction
    periodic = finite if historyless or system.stationary else None

    trace: deque = deque(((state, None) for state in window), maxlen=trace_limit)
    recent: Window = window[-k:]
    t = len(window) - 1  # index of the current state a^t

    stream = schedule_stream(schedule, n)
    for _ in range(t):
        next(stream)  # sigma(1..len(window)-1) predates the first computed state

    memo: list = []  # this step's reaction, shared by the fixed test and the update

    def react() -> State:
        if not memo:
            memo.append(system.reaction(recent[-1], budget) if historyless else system.reaction(recent, t + 1))
        return memo[0]

    visited: dict = {}
    verdict: RunVerdict | None = None
    for _ in range(max_steps):
        memo.clear()
        if _fixed(system, recent, react):
            verdict = Converged(recent[-1], t)
            break
        if periodic is not None:
            seen_at = visited.setdefault((periodic.phase(t + 1), recent), t)
            if seen_at < t:  # a^seen_at .. a^t, as far as the trace keeps them
                dropped = t + 1 - len(trace)
                segment = tuple(state for state, _ in trace)[max(seen_at - dropped, 0):]
                verdict = Cycling(t - seen_at, segment)
                break
        active = next(stream)
        new = _update(recent[-1], active, react)
        t += 1
        recent = (recent + (new,))[-k:]
        trace.append((new, active))
    if verdict is None:
        verdict = BudgetExhausted(recent[-1])
    trajectory = Trajectory(initial=window, trace=tuple(trace), dropped=t + 1 - len(trace))
    return trajectory, verdict


def replay_witness(
    system: HistorylessSystem | KRecallSystem,
    witness: Witness,
    budget: int | None = None,
) -> RunVerdict:
    """Re-run a witness and report the exact verdict.

    The witness cycle must be fair (its union covers every node); the replay
    budget is sized so that a repeated (state, phase) pair or a stable state is
    guaranteed within it.
    """
    n = system.space.n
    union = frozenset().union(*witness.cycle) if witness.cycle else frozenset()
    if union != frozenset(range(1, n + 1)):
        raise InvalidWitness(
            f"witness cycle activates {sorted(union)}, not all of 1..{n}"
        )
    if isinstance(system, KRecallSystem):
        if not system.stationary:
            raise Unsupported("witness replay needs a stationary system")
        phase_states = system.space.num_states ** system.k
    else:
        phase_states = system.space.num_states
    limit = resolve_budget(budget)
    if phase_states > limit:
        raise InvalidWitness(
            f"{phase_states} window states exceed the replay budget {limit}"
        )
    bound = phase_states * len(witness.cycle) + len(witness.prefix) + len(witness.initial) + 1
    _, verdict = run(system, witness.initial, witness.schedule(), max_steps=bound, budget=budget)
    return verdict


def format_active(active: ActivationSet) -> str:
    return "{" + ",".join(str(i) for i in sorted(active)) + "}"


def trace_lines(trajectory: Trajectory) -> list[str]:
    """Line-oriented trace: one state per line with the activation set that
    produced it (initial-window lines carry "-")."""
    lines = []
    for t, state, active in trajectory.rows():
        rendered = format_active(active) if active is not None else "-"
        lines.append(f"{t}\t{','.join(str(a) for a in state)}\t{rendered}")
    return lines
