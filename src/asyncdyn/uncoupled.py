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
checkers jump along it to a constant PNE window (``_failing_windows``), and
``protocol_system`` is its per-window view.  The per-node steps are test
oracles.

A check pays for its game, not for its shape.  Each ``Game`` builds its
best-response table once, ``Game.br_table``, which every checker reads.  What
every game of a shape shares is built once per shape and kept by
``core.shape_constant`` if it fits ``core.KEPT_BYTES``: the space's digits
and weights, each window's successor less the game's answer (``_windows``),
and stay-or-roll's key table, the keys of every state under every
best-response mask code.  A larger shape builds them at every call and keeps
nothing; stay-or-roll then builds the keys of the masks that occur only.

Every protocol here reads a game only through its best-response mask
``is_br``, so two games with one mask get one verdict and one witness.
Stay-or-roll is one batched checker, and the one-game call is its case B=1.
``check_self_stabilization_many`` groups its games by mask and decides each
distinct mask once, for every protocol; the one-game calls do not group.

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

PROTOCOLS = ("three-recall", "two-recall", "stay-or-roll")


def _recall(protocol: str, space: ActionSpace) -> int:
    """Recall depth k of a deterministic protocol, once it is known to apply."""
    if protocol not in PROTOCOLS:
        raise InvalidInput(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if protocol == "stay-or-roll":
        raise Unsupported("stay-or-roll is randomized: it has no window successor")
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
    ``(plain, src)``.  In a game whose answer at each state is ``answer``
    (N,), the successor of w[j] is ``plain[j]`` plus ``answer[src[j]]``,
    where ``src[j] == N`` stands for an answer of 0.

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
    return plain, np.where(asked, src, n_states)


def _windows(protocol: str, space: ActionSpace) -> tuple[np.ndarray, ...]:
    """``_window_parts`` of every window, kept per shape by ``shape_constant``."""
    count = window_space(space, _recall(protocol, space)).num_states
    return shape_constant(protocol, space, lambda: _window_parts(protocol, space, np.arange(count)))


def _window_successors(protocol: str, space: ActionSpace, is_br, least, parts) -> np.ndarray:
    """(B, M) index of the window that follows each window of each game
    under the synchronous schedule, for the M windows of ``parts`` (those of
    ``_window_parts``); ``is_br`` and ``least`` are B games' best-response
    tables, (B, N, n) as ``best_response_table`` gives them."""
    plain, src = parts
    digits, weights = space.digits(), space.weights
    if protocol == "two-recall":  # a node that does not best-respond steps back, whatever its least response
        least = (digits - 1) % np.array(space.sizes, dtype=np.int64)
    answer = np.zeros((len(is_br), space.num_states + 1), dtype=np.int64)
    answer[:, :-1] = np.where(is_br, digits, least) @ weights
    return plain + answer[:, src]


def _failing_windows(nxt: np.ndarray, pne: np.ndarray) -> np.ndarray:
    """(B, M) mask of the windows whose trajectory under ``nxt`` (B, M), a
    deterministic protocol's window successors, never reaches the constant
    window (c, ..., c) of a PNE c; ``pne`` (B, N) marks each game's PNEs.

    That window is fixed, as the answer at a PNE is the PNE, and it is the
    only kind of cycle whose newest states, and so all its states, are PNEs:
    by the cases of ``_window_parts``, 3-recall takes (a, b, c) to (c, c, c)
    if b == c, else to (b, c, c) if a != b, else to (a, c, a + 1), one of
    the first two cases; 2-recall never moves on twice in a row, as (a, b)
    and then (b, a + 1) would change the last node, of s >= 4 actions, by
    s - 1 >= 3 (mod s), not by at most 2, and its other steps take (a, c) to
    (c, c).  So h = h[h] for ceil(log2 M) rounds puts h[w] on w's cycle,
    which is fixed iff w does not fail.  The constant windows are every D-th
    one, D = 1 + N + ... + N^(k-1) = (M - 1) / (N - 1); window 0 if N = 1.
    """
    games, m = nxt.shape
    h = (nxt + np.arange(games, dtype=np.int64)[:, None] * m).ravel()
    for _ in range((m - 1).bit_length()):
        h = h[h]
    fixed = np.zeros((games, m), dtype=bool)
    fixed[:, :: (m - 1) // (pne.shape[1] - 1) if m > 1 else 1] = pne
    return ~fixed.ravel()[h].reshape(games, m)


def check_self_stabilization_many(
    protocol: str, space: ActionSpace, utilities, budget: int | None = None
) -> list[StabilizationVerdict]:
    """``check_self_stabilization`` for B games on one space at once;
    ``utilities`` has shape (B, n, N) as in ``games.best_response_table``.

    Returns one verdict per game, equal to the single-game verdict.  Every
    protocol reads a game only through its best-response mask ``is_br`` (the
    least best response is a function of it), so the games are grouped by
    mask and each distinct mask is decided once.  A deterministic protocol
    counts the N^k windows of one game and their N^k·n cells against the
    budget once some game has a PNE, before any window array exists; the
    masks are then processed in chunks whose windows together fit the budget.
    Stay-or-roll counts as in ``check_self_stabilization_randomized``.
    """
    is_br, least = best_response_table(space, utilities)
    packed = np.packbits(is_br.reshape(len(is_br), space.num_states * space.n), axis=1)
    _, first, inverse = np.unique(packed, axis=0, return_index=True, return_inverse=True)
    decided = _decide(protocol, space, is_br[first], least[first], budget)
    return [decided[i] for i in inverse.reshape(-1).tolist()]


def _decide(protocol: str, space: ActionSpace, is_br, least, budget: int | None) -> list[StabilizationVerdict]:
    """Verdicts of B games under ``protocol`` from their best-response tables."""
    if protocol == "stay-or-roll":
        return _stay_or_roll(space, is_br, budget)
    return _check_windows(protocol, space, is_br, least, budget)


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
        fails = _failing_windows(nxt, pne[chunk])
        for g, bad, w in zip(chunk.tolist(), fails.any(-1).tolist(), fails.argmax(-1).tolist()):
            # the witness is the least failing window in encoded order
            verdicts[g] = Fails(witness=tuple(map(space.decode, windows.decode(w)))) if bad else SelfStabilizing()
    return verdicts


def check_self_stabilization(
    protocol: str, game: Game, budget: int | None = None
) -> StabilizationVerdict:
    """Exhaustive check over all initial k-windows under the synchronous
    schedule: does the unique trajectory end up forever at PNE states?

    The synchronous successor is a function on windows, so each trajectory ends
    in a cycle; the system self-stabilizes iff every reachable cycle visits
    only PNE states.  The one-game case of ``check_self_stabilization_many``,
    on the game's own best-response table; ``"stay-or-roll"`` gives
    ``check_self_stabilization_randomized``'s verdict.
    """
    is_br, least = game.br_table
    return _decide(protocol, game.space, is_br[None], least[None], budget)[0]


def check_self_stabilization_randomized(
    game: Game, budget: int | None = None
) -> StabilizationVerdict:
    """Support-reachability check of the stay-or-roll protocol under the
    synchronous schedule: self-stabilizing iff every PNE is absorbing and some
    PNE is reachable in the support graph from every state.  The witness of
    a failure is the least state, in encoded order, that reaches no PNE.

    The one-game case of the batched checker (``_stay_or_roll``), on the
    game's own best-response table: the N states are counted against the
    budget, then the M·N entries of the game's hit table (M mask rows), whose
    rows go in chunks of at most budget entries when they do not fit."""
    return _stay_or_roll(game.space, game.br_table[0][None], budget)[0]


def _stay_or_roll(space: ActionSpace, is_br, budget: int | None) -> list[StabilizationVerdict]:
    """Stay-or-roll verdicts of B games from their (B, N, n) masks ``is_br``.

    A state t is a one-step successor of s iff t agrees with s on the nodes
    that best-respond at s.  So s reaches a set R iff R meets the subcube
    keyed by (best-response mask at s, s's actions on that mask); each
    game's set of states that reach a PNE is grown from its PNEs by that
    test, in a (B, M, N) hit table: M mask rows, each with one entry per key.
    The rows are those of every mask code, read from a key table kept per
    shape; beyond ``KEPT_BYTES`` they are those of the masks that occur,
    built at every call (``_key_rows``).  The N states are counted against
    the budget, and then the B·M·N entries of the hit table: the games go in
    chunks whose entries fit it, and a game whose M·N do not goes alone, its
    mask rows in chunks of at most budget entries, each grown to its own
    fixpoint in turn until a whole round of them adds no state.
    """
    limit = resolve_budget(budget)
    count = space.num_states
    space.check_budget(limit)
    codes = 1 << sum(k > 1 for k in space.sizes)  # one bit per node with more than one action
    place = shape_constant("stay-or-roll places", space, lambda: (_mask_places(space),))[0]
    at = (is_br * place).sum(-1)  # (B, N): each state's mask code times N plus its key under that mask
    reach = at >= (codes - 1) * count  # the PNEs, grown to the states that reach one
    verdicts: list[StabilizationVerdict] = [NoPNE()] * len(reach)
    todo = reach.any(-1).nonzero()[0]
    if not todo.size:
        return verdicts
    if todo.size < len(reach):
        at, reach = at[todo], reach[todo]
    table = shape_constant(
        "stay-or-roll keys", space, lambda: (_key_rows(space, range(codes)),), 8 * count * codes
    )
    if table is None:  # the rows of the masks that occur only
        masks, group = np.unique(at // count, return_inverse=True)
        at = group.reshape(at.shape) * count + at % count
    else:
        masks, table = range(codes), table[0]
    step = min(len(masks), limit // count)  # mask rows of one game visited at once
    if step == len(masks):  # whole hit tables, of as many games at once as fit the budget
        games = min(len(reach), limit // (step * count))
        keys = _key_rows(space, masks) if table is None else table
        # each game reads and writes a part of the hit table of its own; one
        # game, as in every one-game call, skips the shift, 4 of its 22 µs on 2x3
        if games > 1:
            shift = np.arange(len(reach)) % games * (step * count)
            keys = (keys + shift[:games, None, None]).reshape(-1, step)
            at = at + shift[:, None]
        for g0 in range(0, len(reach), games):
            done = reach[g0:g0 + games]  # a view: reach grows in place
            _grow(done, keys[:done.size], at[g0:g0 + games])
    else:  # one game at a time, its mask rows in chunks, each grown in turn until a whole round of them adds no state
        starts = range(0, len(masks), step)
        for done, state_at in zip(reach, at):
            quiet = 0  # chunks visited in a row, up to this one, that have nothing left to add
            for lo in itertools.cycle(starts):
                keys = _key_rows(space, masks[lo:lo + step]) if table is None else table[:, lo:lo + step] - lo * count
                here = state_at - lo * count  # a state whose mask is in another chunk reads the last entry, never hit
                here = np.where((here >= 0) & (here < keys.size), here, keys.size)
                quiet = 1 if _grow(done, keys, here) > 1 else quiet + 1
                if quiet >= len(starts):
                    break
    for g, ok, first in zip(todo.tolist(), reach.all(-1).tolist(), reach.argmin(-1).tolist()):
        verdicts[g] = SelfStabilizing() if ok else Fails(witness=space.decode(first))  # least in encoded order
    return verdicts


def _grow(done: np.ndarray, keys: np.ndarray, here: np.ndarray) -> int:
    """Grow ``done`` in place to its fixpoint under the subcube-key test: a
    state joins once its entry ``here`` of the hit table is hit, and each
    state in ``done`` hits its row of ``keys``.  The table has one more
    entry than ``keys``, its last, which no key hits.  Returns the rounds."""
    hit = np.zeros(keys.size + 1, dtype=bool)
    new, rounds = done.ravel().nonzero()[0], 0
    while new.size:
        hit[keys[new]] = True
        now = hit[here] > done
        new = now.ravel().nonzero()[0]
        done |= now
        rounds += 1
    return rounds


def _live_bits(space: ActionSpace) -> np.ndarray:
    """Each node's bit in a best-response mask code: a node with one action
    always stays, so it gets none, and the others get 1, 2, 4, ... in order."""
    live = np.array(space.sizes) > 1
    return live << (np.cumsum(live) - live)


def _mask_places(space: ActionSpace) -> np.ndarray:
    """(N, n): what node i adds at state s, when it best-responds there, to
    s's mask code times N plus s's key under that mask."""
    return space.digits() * space.weights + _live_bits(space) * space.num_states


def _key_rows(space: ActionSpace, masks: np.ndarray) -> np.ndarray:
    """(N, len(masks)) keys of every state under the mask codes ``masks``:
    entry [t, j] is j·N plus the index of t with the actions of the nodes
    outside masks[j] set to 0, t's place in row j of a hit table."""
    masks = np.asarray(masks)
    place = (masks[:, None] & _live_bits(space) != 0) * space.weights  # (masks, n): each mask's place values
    return space.digits() @ place.T + np.arange(len(masks)) * space.num_states


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
