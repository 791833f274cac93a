"""Independent answers for the benchmark's correctness checks.

Nothing here imports asyncdyn: each workload's expected verdict comes from a
direct computation (machine simulation, fixed-point enumeration, naive best
responses, a support-graph search), and each witness is checked by stepping
its schedule here.
"""

from __future__ import annotations

import itertools
from collections import deque

# ---------------------------------------------------------------------------
# Space-bounded Turing machines
# ---------------------------------------------------------------------------

TM_HALT = "h"
# Machines with one or two working states, two symbols and a halting state:
# 12^2 + 18^4 = 105,120 transition tables.
TM_FAMILY = 12 ** 2 + 18 ** 4


def tm_delta(index: int) -> tuple[tuple[str, ...], dict]:
    """The machine with the given index in the family, as (states, delta)."""
    if not 0 <= index < TM_FAMILY:
        raise ValueError(f"machine index {index} outside the family")
    n_q = 1 if index < 12 ** 2 else 2
    if n_q == 2:
        index -= 12 ** 2
    states = tuple(f"q{i}" for i in range(n_q)) + (TM_HALT,)
    targets = [(q2, s2, m) for q2 in states for s2 in (0, 1) for m in (-1, 0, 1)]
    keys = [(q, s) for q in states[:n_q] for s in (0, 1)]
    delta = {}
    for key in reversed(keys):
        index, digit = divmod(index, len(targets))
        delta[key] = targets[digit]
    return states, delta


def tm_halts_or_freezes(states, delta, cells: int = 2) -> bool:
    """Does every run, from every configuration, halt or stop changing?

    A run is stepped directly until the halting state, a configuration that
    maps to itself, or a repeated configuration (a loop).
    """
    for q0 in states:
        if q0 == TM_HALT:
            continue
        for tape0 in itertools.product((0, 1), repeat=cells):
            for pos0 in range(cells):
                q, tape, pos = q0, list(tape0), pos0
                seen = set()
                while q != TM_HALT:
                    config = (q, tuple(tape), pos)
                    if config in seen:
                        return False
                    seen.add(config)
                    q, tape[pos], move = delta[(q, tape[pos])]
                    if 0 <= pos + move < cells:
                        pos += move
                    if (q, tuple(tape), pos) == config:
                        break
    return True


# ---------------------------------------------------------------------------
# Majority diffusion
# ---------------------------------------------------------------------------


def majority_reaction(users: int, edges):
    """Each user plays 0 when at least half of its friends play 0, else 1;
    friendless users play 0."""
    friends = [[] for _ in range(users)]
    for u, v in edges:
        friends[u - 1].append(v - 1)
        friends[v - 1].append(u - 1)

    def react(state):
        out = []
        for nbs in friends:
            zeros = sum(1 for j in nbs if state[j] == 0)
            out.append(0 if 2 * zeros >= len(nbs) else 1)
        return tuple(out)

    return react


def fixed_points(react, sizes) -> list[tuple[int, ...]]:
    """Every state the reaction maps to itself, in lexicographic order."""
    return [s for s in itertools.product(*(range(k) for k in sizes)) if react(s) == s]


# ---------------------------------------------------------------------------
# Witness schedules
# ---------------------------------------------------------------------------


def oscillates(react, initial, prefix, cycle) -> bool:
    """Step the schedule prefix + cycle^omega from ``initial`` and report
    whether the run keeps changing state forever.

    The run is eventually periodic in (state, phase); it oscillates exactly
    when the repeating part contains a step that changes the state.
    """
    state = tuple(initial)

    def step(state, active):
        if not active:
            return state
        target = react(state)
        return tuple(target[i] if i + 1 in active else a for i, a in enumerate(state))

    for active in prefix:
        state = step(state, active)
    seen = {}
    trail = []
    phase = 0
    while (state, phase) not in seen:
        seen[(state, phase)] = len(trail)
        nxt = step(state, cycle[phase])
        trail.append(nxt != state)
        state, phase = nxt, (phase + 1) % len(cycle)
    return any(trail[seen[(state, phase)]:])


# ---------------------------------------------------------------------------
# Two-player games
# ---------------------------------------------------------------------------


def game_states(sizes):
    return list(itertools.product(*(range(k) for k in sizes)))


def _encode(state, sizes) -> int:
    idx = 0
    for a, k in zip(state, sizes):
        idx = idx * k + a
    return idx


def best_response_sets(sizes, utilities):
    """For each node and state: the set of the node's utility-maximising actions."""
    out = []
    for i, table in enumerate(utilities):
        per_state = {}
        for s in game_states(sizes):
            values = [table[_encode(s[:i] + (a,) + s[i + 1:], sizes)] for a in range(sizes[i])]
            best = max(values)
            per_state[s] = {a for a, v in enumerate(values) if v == best}
        out.append(per_state)
    return out


def pure_nash(sizes, utilities) -> list[tuple[int, ...]]:
    brs = best_response_sets(sizes, utilities)
    return [s for s in game_states(sizes) if all(s[i] in brs[i][s] for i in range(len(sizes)))]


def stay_or_roll_failure(sizes, utilities):
    """Least state (lexicographic) from which no pure Nash equilibrium is
    reachable in the stay-or-roll support graph, or None if every state
    reaches one.  A best-responding node stays; any other node may play any
    action.  Computed by a backward search from the equilibria."""
    brs = best_response_sets(sizes, utilities)
    states = game_states(sizes)
    preds = {s: [] for s in states}
    for s in states:
        choices = [
            [s[i]] if s[i] in brs[i][s] else range(sizes[i]) for i in range(len(sizes))
        ]
        for t in itertools.product(*choices):
            preds[t].append(s)
    reach = set(pure_nash(sizes, utilities))
    queue = deque(reach)
    while queue:
        t = queue.popleft()
        for s in preds[t]:
            if s not in reach:
                reach.add(s)
                queue.append(s)
    missing = [s for s in states if s not in reach]
    return missing[0] if missing else None
