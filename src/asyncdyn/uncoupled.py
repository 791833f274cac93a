"""Uncoupled self-stabilization protocols and their exhaustive checkers.

A protocol is uncoupled when each node's reaction reads that node's own
utility table alone.  Every protocol here reads a game through
``games.best_response_table``, whose node-i entries read only node i's
utilities (``test_arrays_read_only_own_utility``).  Self-stabilization is
checked under the synchronous schedule (the unique 1-fair schedule): the
deterministic checkers sweep every initial k-window exactly via the
functional graph of window successors, and the randomized checker decides
support-level reachability, which is equivalent to absorption with
probability 1 in a finite chain whose moves have uniformly positive
probability.

Each deterministic protocol is written once, as ``_window_successors``: the
checkers run pointer doubling over it, and ``protocol_system`` is its
per-window view.  The per-node steps are test oracles.

A check pays for its game, not for its shape.  Each ``Game`` builds its
best-response table once, ``Game.br_table``, which both checkers read.  What
every game of a shape shares is built once per shape and kept by
``core.shape_constant`` if it fits ``core.KEPT_BYTES``: the space's digits
and weights, each window's successor less the game's answer and its newest
state (``_windows``), and the mask bits of stay-or-roll.  A larger shape
builds them at every call and keeps nothing.

Action arithmetic here follows the protocols' 1-based formulas; the module
converts to the library's 0-based encoding at the boundary, which leaves both
modular differences and min-of-set tie-breaking unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ActionSpace, KRecallSystem, _check_rows, resolve_budget, shape_constant, window_space
from .errors import InvalidInput, Unsupported
from .games import Game, best_response_table
from .games import enumerate_pne  # unused: perfbench hooks it here

PROTOCOLS = ("three-recall", "two-recall")


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
    """The interaction system a deterministic protocol induces for a game:
    the per-window view of ``_window_successors``.  Its rule answers a window
    with the newest state of that window's successor."""
    space = game.space
    k = _recall(protocol, space)
    windows = window_space(space, k)
    is_br, least = game.br_table

    def rule(window):
        w = windows.encode(windows.validate_state(space.encode(space.validate_state(s)) for s in window))
        parts = _window_parts(protocol, space, np.array([w], dtype=np.int64))
        nxt = _window_successors(protocol, space, is_br[None], least[None], parts)
        return space.decode(int(nxt[0, 0]) % space.num_states)

    return KRecallSystem(space=space, k=k, rule=rule, stationary=True, name=protocol)


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


def _window_parts(protocol: str, space: ActionSpace, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """What the successors of the windows ``w`` share across games:
    ``(plain, src, newest)``.  In a game whose answer at each state is
    ``answer`` (N,), the successor of w[j] is ``plain[j]`` plus
    ``answer[src[j]]``, where ``src[j] == N`` stands for an answer of 0;
    ``newest[j]`` is w[j]'s newest state.

    A window is indexed by its point in ``window_space(space, k)``, the
    oldest state most significant, and its successor drops the oldest state
    and appends the new one.  Each protocol decides its case on whole states,
    so a window has one new state: under 3-recall the game's answer at c
    (keep a best response, else play the least one) after a repeated state
    c, the cyclic successor of a after a rejected repetition (a, a, c), else
    c again; under 2-recall the analogous cases on (a, b), with the answer at
    b (keep a best response, else step back) as the game's only part.
    """
    n_states = space.num_states
    windows = window_space(space, _recall(protocol, space))
    states = np.unravel_index(w, windows.sizes)  # the window space's decode: k state indices, oldest first
    if protocol == "three-recall":
        a, b, c = states
        asked, src = b == c, c
        plain = np.where(a == b, (a + 1) % n_states, c)
    else:
        a, b = states
        digits = space.digits()
        sizes = np.array(space.sizes, dtype=np.int64)
        move_on = (a != b) & ((digits[a] - digits[b]) % sizes <= 1).all(-1)
        asked, src = ~move_on & ((digits[b] - digits[a]) % sizes <= 2).all(-1), b
        plain = np.where(move_on, (a + 1) % n_states, b)
    plain[asked] = 0
    plain += w % windows.weights[0] * n_states
    return plain, np.where(asked, src, n_states), w % n_states


def _windows(protocol: str, space: ActionSpace) -> tuple[np.ndarray, ...]:
    """``_window_parts`` of every window, kept per shape by ``shape_constant``."""
    count = window_space(space, _recall(protocol, space)).num_states
    return shape_constant(protocol, space, lambda: _window_parts(protocol, space, np.arange(count)))


def _window_successors(protocol: str, space: ActionSpace, is_br, least, parts) -> np.ndarray:
    """(B, M) index of the window that follows each window of each game
    under the synchronous schedule, for the M windows of ``parts`` (those of
    ``_window_parts``); ``is_br`` and ``least`` are B games' best-response
    tables, (B, N, n) as ``best_response_table`` gives them."""
    plain, src, _ = parts
    digits, weights = space.digits(), space.weights
    if protocol == "two-recall":  # a node that does not best-respond steps back, whatever its least response
        least = (digits - 1) % np.array(space.sizes, dtype=np.int64)
    answer = np.zeros((len(is_br), space.num_states + 1), dtype=np.int64)
    answer[:, :-1] = np.where(is_br, digits, least) @ weights
    return plain + answer[:, src]


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
    windows of one game and their N^k·n cells are counted against the budget
    once some game has a PNE, before any window array exists; games are then
    processed in chunks whose windows together fit the budget.
    """
    _recall(protocol, space)
    return _check_windows(protocol, space, *best_response_table(space, utilities), budget)


def _check_windows(
    protocol: str, space: ActionSpace, is_br, least, budget: int | None
) -> list[StabilizationVerdict]:
    """``check_self_stabilization_many`` from the games' best-response tables."""
    k = _recall(protocol, space)
    pne = is_br.all(-1)  # (B, N)
    verdicts: list[StabilizationVerdict] = [NoPNE()] * len(pne)
    todo = pne.any(-1).nonzero()[0]
    if not todo.size:
        return verdicts
    windows = window_space(space, k)
    limit = resolve_budget(budget)
    step = limit // _check_rows(windows.num_states, space.n, "window states", limit)
    parts = _windows(protocol, space)
    for start in range(0, todo.size, step):
        chunk = todo[start:start + step]
        nxt = _window_successors(protocol, space, is_br[chunk], least[chunk], parts)
        fails = _failing_windows(nxt, pne[chunk[:, None], parts[2]])
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
    only PNE states.  The one-game case of ``check_self_stabilization_many``,
    on the game's own best-response table.
    """
    is_br, least = game.br_table
    return _check_windows(protocol, game.space, is_br[None], least[None], budget)[0]


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
    budget entries, each once per visit: the chunks are visited in turn,
    each grown to its own fixpoint, until a whole round of them adds no
    state.
    """
    space = game.space
    limit = resolve_budget(budget)
    space.check_budget(limit)
    is_br = game.br_table[0]
    reach = is_br.all(-1)
    if not reach.any():
        return NoPNE()
    digits, weights = space.digits(), space.weights
    bits = shape_constant("stay-or-roll", space, lambda: (_live_bits(space),))[0]
    codes = is_br @ bits  # each state's mask, as a code over the nodes with more than one action
    seen = np.zeros(bits.sum() + 1, dtype=bool)
    seen[codes] = True
    masks = seen.nonzero()[0]
    group = (np.cumsum(seen) - 1)[codes]  # each state's row in masks
    place = (masks[:, None] & bits != 0) * weights  # (G, n): the place values of each mask's nodes
    own = (is_br * digits) @ weights  # each state's key under its own mask; a PNE's is itself
    step = limit // space.num_states
    starts = range(0, len(masks), step)
    quiet = 0  # chunks visited in a row, up to this one, that have nothing left to add
    for lo in itertools.cycle(starts):
        keys = place[lo:lo + step] @ digits.T  # (masks in chunk, N)
        # a state whose mask is in another chunk reads the extra row, never hit
        row = np.where((group >= lo) & (group < lo + len(keys)), group - lo, len(keys))
        hit = np.zeros((len(keys) + 1, space.num_states), dtype=bool)
        new = reach.nonzero()[0]
        grew = False
        while new.size:
            hit[:-1][np.arange(len(keys))[:, None], keys[:, new]] = True
            new = (hit[row, own] & ~reach).nonzero()[0]
            reach[new] = True
            grew |= bool(new.size)
        quiet = 1 if grew else quiet + 1
        if quiet >= len(starts):
            break
    if reach.all():
        return SelfStabilizing()
    return Fails(witness=space.decode(int(reach.argmin())))  # least in encoded order


def _live_bits(space: ActionSpace) -> np.ndarray:
    """Each node's bit in a best-response mask code: a node with one action
    always stays, so it gets none, and the others get 1, 2, 4, ... in order."""
    live = np.array(space.sizes) > 1
    return live << (np.cumsum(live) - live)


def to_one_based(state) -> tuple[int, ...]:
    """Render an internal 0-based state in the protocols' 1-based convention."""
    return tuple(a + 1 for a in state)


def fixture_game_2x2x2() -> Game:
    """Three-node game with a unique PNE at (1,1,1) (1-based) on which
    stay-or-roll fails: action 2 is always a best response for node 3, so no
    state with a_3 = 2 can ever reach the PNE."""
    m1 = (((1, 1, 1), (1, 0, 1)), ((1, 0, 0), (0, 1, 1)))
    m2 = (((0, 1, 0), (0, 1, 1)), ((0, 0, 0), (1, 0, 1)))
    space = ActionSpace((2, 2, 2))
    payoffs = [(m1, m2)[a][b][c] for a, b, c in space.states()]  # (u1, u2, u3) per state
    return Game(space=space, utilities=tuple(zip(*payoffs)))
