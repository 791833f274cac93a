"""Command-line surface: JSON scenario ingestion, analysis/simulation dispatch,
JSON result documents, and deterministic DOT export of transition graphs.

Exit codes: 0 for convergent/self-stabilizing/success, 10 for a non-convergence
or stabilization-failure verdict (the result document is still well formed),
2 for input errors, 3 for exceeded budgets.  All states in result documents use
0-based action indices except uncoupled-check witnesses, which are rendered in
the protocols' 1-based convention.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from itertools import chain

import numpy as np

from . import __version__, analyze, games, reductions, simulate, uncoupled
from .core import (
    ActionSpace,
    ExplicitList,
    HistorylessSystem,
    Periodic,
    RoundRobin,
    Schedule,
    SeededRFair,
    SeededRandom,
    Synchronous,
    _check_count,
)
from .errors import (
    AsyncdynError,
    BudgetExceeded,
    ParseError,
    SchemaError,
    Unsupported,
)

EXIT_OK = 0
EXIT_NEGATIVE = 10
EXIT_INPUT = 2
EXIT_BUDGET = 3
_DOT_CHUNK = 1 << 16  # DOT lines formatted and written at a time


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise SchemaError(path, msg)


# ---------------------------------------------------------------------------
# The scenario schema.  A dict is an object whose keys ending in "?" are
# optional and which has no other keys; [s] is a list of s; a tuple is a list
# of fixed length; a callable checks a leaf.  Errors name the field's path.
# ---------------------------------------------------------------------------


def _check(value, schema, path: str):
    if callable(schema):
        schema(value, path)
    elif isinstance(schema, dict):
        _expect(isinstance(value, dict), path, "expected an object")
        fields = {key.rstrip("?"): key for key in schema}
        for name in value:
            if name not in fields:
                raise SchemaError(f"{path}.{name}".removeprefix("$."), "unknown field")
        for name, key in fields.items():
            at = f"{path}.{name}".removeprefix("$.")
            if name in value:
                _check(value[name], schema[key], at)
            else:
                _expect(key.endswith("?"), at, "missing required field")
    else:
        fixed = isinstance(schema, tuple)
        if not isinstance(value, list) or fixed and len(value) != len(schema):
            raise SchemaError(path, f"expected a list of {len(schema)}" if fixed else "expected a list")
        for i, item in enumerate(value):
            _check(item, schema[i if fixed else 0], f"{path}[{i}]")


def _leaf(test, msg: str):
    def check(value, path):
        if not test(value):
            raise SchemaError(path, msg)

    return check


def _int(lo=-math.inf, hi=math.inf):
    """An integer leaf in [lo, hi]: JSON true, false and 1.0 are never integers."""
    span = "" if lo == -math.inf else f" >= {lo}" if hi == math.inf else f" in [{lo}, {hi}]"
    return _leaf(lambda v: type(v) is int and lo <= v <= hi, f"expected an integer{span}")


def _one_of(names: tuple):
    return _leaf(lambda v: v in names, f"expected one of {names}")


def _by_kind(kinds: dict, common: dict | None = None):
    """An object whose ``kind`` picks its other fields from ``kinds``, or
    picks a checker of the whole object."""
    names = tuple(kinds)

    def check(value, path):
        _expect(isinstance(value, dict), path, "expected an object")
        kind = value.get("kind")
        _expect(kind in names, f"{path}.kind", f"expected one of {names}")
        fields = kinds[kind]
        _check(value, fields if callable(fields) else {"kind": _NAME, **(common or {}), **fields}, path)

    return check


def _fixture_params(kind: str) -> dict:
    """The fixtures of one kind, each with the schema of the params it takes."""
    return {
        name: {} if fx.min_n is None else {"n?": _int(fx.min_n)}
        for name, fx in reductions.FIXTURES.items()
        if fx.kind == kind
    }


def _system_fixture(value, path):
    """A system fixture, whose name picks the params it takes."""
    name = value.get("name")
    params = _SYSTEM_FIXTURES.get(name, {}) if type(name) is str else {}
    _check(value, {"kind": _NAME, "name": _one_of(tuple(_SYSTEM_FIXTURES)), "params?": params}, path)


def _game(value, path):
    fixture = isinstance(value, dict) and "fixture" in value
    schema = {"fixture": _one_of(tuple(_GAME_FIXTURES))}
    _check(value, schema if fixture else {"sizes": [_int(1)], "utilities": [[_INT]]}, path)


def _initial(value, path):
    """A nonempty state, or a nonempty window of nonempty states."""
    window = isinstance(value, list) and value and isinstance(value[0], list)
    _check(value, [[_ACTION]] if window else [_ACTION], path)
    _expect(value and (not window or all(value)), path, "expected a nonempty state or window of nonempty states")


_INT, _ACTION, _NODE, _BIT = _int(), _int(0), _int(1), _int(0, 1)
_NAME = _leaf(lambda v: type(v) is str, "expected a string")
_PROBABILITY = _leaf(lambda v: type(v) in (int, float) and 0 <= v <= 1, "expected a probability in [0, 1]")
_SETS = [[_NODE]]
_SYSTEM_FIXTURES, _GAME_FIXTURES = _fixture_params("system"), _fixture_params("game")

SYSTEMS = {
    "table": {"sizes": [_int(1)], "table": [[_ACTION]]},
    "circuit": {
        "inputs": [{"name": _NAME, "value": _BIT}],
        "gates": [{"name": _NAME, "inputs": [_NAME], "table": [_BIT]}],
    },
    "majority": {"users": _int(1), "edges": [(_NODE, _NODE)]},
    "bgp": {
        "dest": _INT,
        "edges": [(_INT, _INT)],
        "rankings": [{"as": _INT, "routes": [[_INT]]}],
        "export_deny?": [{"as": _INT, "route": [_INT], "to": _INT}],
    },
    "tm": {
        "states": [_NAME],
        "halting": [_NAME],
        "symbols": _int(1),
        "cells": _int(1),
        "delta": [{"state": _NAME, "read": _ACTION, "next": _NAME, "write": _ACTION, "move": _int(-1, 1)}],
    },
    "snake": {"n": _int(5, 7)},
    "disjointness": {"n": _int(5, 7), "A": [_NODE], "B": [_NODE]},
    "fixture": _system_fixture,
}
ANALYSES = {
    "convergence": {},
    "r-convergence": {"r": _int(1)},
    "spectrum": {"state": [_ACTION]},
    "committed": {},
    "pne": {},
    "uncoupled-check": {"protocol": _one_of(uncoupled.PROTOCOLS)},
}
SCHEDULES = {
    "synchronous": {},
    "round-robin": {},
    "periodic": {"cycle": _SETS, "prefix?": _SETS},
    "explicit": {"sets": _SETS},
    "random": {"p?": _PROBABILITY},
    "r-fair": {"r": _int(1)},
}
SCENARIO = {
    "version?": _INT,
    "system?": _by_kind(SYSTEMS),
    "game?": _game,
    "analysis?": _by_kind(ANALYSES),
    "simulation?": {
        "initial": _initial,
        "schedule": _by_kind(SCHEDULES, {"seed?": _INT}),
        "seed?": _INT,
        "max_steps?": _int(1),
    },
}


def parse_scenario(text: str) -> dict:
    """The checked dict of a scenario document; raises ParseError on bad JSON
    and SchemaError (with a field path) on structural violations."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested deeper than the recursion limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    _check(raw, SCENARIO, "$")
    system, game, simulation = raw.get("system"), raw.get("game"), raw.get("simulation")
    _expect((system is None) != (game is None), "$", "exactly one of 'system' or 'game' must be declared")
    if system is not None and system["kind"] == "table":
        sizes, table = system["sizes"], system["table"]
        _expect(len(table) == math.prod(sizes), "system.table", f"expected {math.prod(sizes)} rows")
        for i, row in enumerate(table):
            if len(row) != len(sizes):
                raise SchemaError("system.table", f"row {i} must list {len(sizes)} actions")
            for j, (a, k) in enumerate(zip(row, sizes)):
                if a >= k:
                    raise SchemaError(f"system.table[{i}][{j}]", f"expected an integer action in [0, {k})")
    if game is not None and "sizes" in game:
        count = math.prod(game["sizes"])
        _expect(len(game["utilities"]) == len(game["sizes"]), "game.utilities", "expected one table per node")
        for i, table in enumerate(game["utilities"]):
            _expect(len(table) == count, f"game.utilities[{i}]", f"expected {count} integers")
    if simulation is not None and simulation["schedule"]["kind"] == "periodic":
        _expect(len(simulation["schedule"]["cycle"]) > 0, "simulation.schedule.cycle", "cycle must be nonempty")
    return raw


# ---------------------------------------------------------------------------
# Building model objects from scenario specs
# ---------------------------------------------------------------------------


def _builds(block: str):
    """A ValueError or TypeError raised while the decorated function builds a
    model object from the ``block`` spec becomes a SchemaError naming it."""

    def decorate(build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except (ValueError, TypeError) as exc:
                raise SchemaError(block, f"cannot build the model: {exc}") from None

        return wrapper

    return decorate


@_builds("system")
def _system_from_spec(spec: dict, budget: int | None) -> HistorylessSystem:
    """The scenario's system.  The checked JSON goes to the constructors as
    it is: each of them turns its lists into the tuples and frozensets it
    keeps.  The request's budget bounds the node checks that the builders
    make before they allocate."""
    kind = spec["kind"]
    if kind == "table":
        return HistorylessSystem.from_table(ActionSpace(spec["sizes"]), spec["table"], name="table")
    if kind == "circuit":
        circuit = reductions.CircuitDescription(
            inputs=[(i["name"], i["value"]) for i in spec["inputs"]],
            gates=[reductions.GateSpec(**g) for g in spec["gates"]],
        )
        return reductions.build_circuit(circuit)
    if kind == "majority":
        return reductions.build_majority(reductions.SocialGraph(spec["users"], spec["edges"]), budget)
    if kind == "bgp":
        instance = reductions.BgpInstance(
            dest=spec["dest"],
            edges=spec["edges"],
            rankings=[(r["as"], r["routes"]) for r in spec["rankings"]],
            export_deny=[(d["as"], d["route"], d["to"]) for d in spec.get("export_deny", [])],
        )
        return reductions.build_bgp(instance)
    if kind == "tm":
        tm = reductions.TMDescription(
            states=spec["states"],
            halting=spec["halting"],
            n_symbols=spec["symbols"],
            tape_cells=spec["cells"],
            delta={
                (d["state"], d["read"]): (d["next"], d["write"], d["move"])
                for d in spec["delta"]
            },
        )
        return reductions.build_tm(tm, budget)
    if kind == "snake":
        return reductions.build_snake_system(spec["n"])
    if kind == "disjointness":
        return reductions.build_disjointness(spec["n"], spec["A"], spec["B"])
    return reductions.fixture(spec["name"], budget, **spec.get("params", {}))


@_builds("game")
def _game_from_spec(spec: dict) -> games.Game:
    if "fixture" in spec:
        return reductions.fixture(spec["fixture"])
    return games.Game(ActionSpace(spec["sizes"]), spec["utilities"])


@_builds("simulation.schedule")
def _schedule_from_spec(spec: dict, seed: int | None) -> Schedule:
    """The scenario's schedule; a seeded one draws from ``seed``, the seed
    that the simulate command settled on."""
    kind = spec["kind"]
    if kind == "synchronous":
        return Synchronous()
    if kind == "round-robin":
        return RoundRobin()
    if kind == "periodic":
        return Periodic(spec["cycle"], spec.get("prefix", ()))
    if kind == "explicit":
        return ExplicitList(spec["sets"])
    if seed is None:
        raise SchemaError("simulation.schedule.seed", "seeded schedules need a seed")
    if kind == "random":
        return SeededRandom(seed=seed, p=spec.get("p", 0.5))
    return SeededRFair(seed=seed, r=spec["r"])


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _state_json(state) -> list:
    return [int(a) for a in state]


def _witness_json(witness: simulate.Witness) -> dict:
    return {
        "initial": [_state_json(s) for s in witness.initial],
        "prefix": [sorted(s) for s in witness.prefix],
        "cycle": [sorted(s) for s in witness.cycle],
    }


def _verdict_json(verdict) -> tuple[dict, int]:
    if isinstance(verdict, analyze.Convergent):
        return {"verdict": "convergent"}, EXIT_OK
    if isinstance(verdict, analyze.NonConvergent):
        return {"verdict": "non-convergent", "witness": _witness_json(verdict.witness)}, EXIT_NEGATIVE
    if isinstance(verdict, uncoupled.SelfStabilizing):
        return {"verdict": "self-stabilizing"}, EXIT_OK
    if isinstance(verdict, uncoupled.NoPNE):
        return {"verdict": "no-pne"}, EXIT_OK
    if isinstance(verdict, uncoupled.Fails):
        witness = verdict.witness
        if witness and isinstance(witness[0], tuple):
            rendered = [list(uncoupled.to_one_based(s)) for s in witness]
        else:
            rendered = list(uncoupled.to_one_based(witness))
        return {"verdict": "fails", "witness": rendered}, EXIT_NEGATIVE
    if isinstance(verdict, simulate.Converged):
        return {"verdict": "converged", "state": _state_json(verdict.state), "time": verdict.time}, EXIT_OK
    if isinstance(verdict, simulate.Cycling):
        return {
            "verdict": "cycling",
            "period": verdict.period,
            "segment": [_state_json(s) for s in verdict.segment],
        }, EXIT_NEGATIVE
    if isinstance(verdict, simulate.BudgetExhausted):
        return {"verdict": "budget-exhausted", "last_state": _state_json(verdict.last_state)}, EXIT_OK
    raise AsyncdynError(f"unrenderable verdict {verdict!r}")


def export_dot(system: HistorylessSystem, out, budget: int | None = None) -> None:
    """Write the system's transition graph to ``out`` as DOT: a node line per
    state, named by its actions (letters, or dotted numbers if a node has more
    than 26), and an edge line per state and activation set, in string order.
    A closing ``"`` sorts below every character of a name or label, so that
    order ranks the N names, then the 2^n labels.  The N·2^n lines are counted
    against the budget first and written at most ``_DOT_CHUNK`` at a time."""
    if not isinstance(system, HistorylessSystem):
        raise Unsupported(f"export_dot takes a historyless system, not {type(system).__name__}")
    space, n, width = system.space, system.n, 1 << system.n
    _check_count(space.num_states << n, "DOT edges", budget)
    succ = analyze.successor_matrix(system, budget)
    letters = all(k <= 26 for k in space.sizes)
    digits = (space.digits() + ord("a") * letters).tolist()
    names = ["".join(map(chr, row)) if letters else ".".join(map(str, row)) for row in digits]
    by_name = np.array(sorted(range(len(names)), key=names.__getitem__))
    rank = np.argsort(by_name)
    labels = [""]  # the nodes of subset s, comma-separated
    for i in range(1, n + 1):
        labels += [f"{b},{i}" if b else str(i) for b in labels]
    by_label = np.array(sorted(range(width), key=lambda s: labels[s] + "}"))
    # the ends of the edge lines, made in label order: a wide row reads them in memory order
    labels = [f'" [label="{{{labels[s]}}}"];\n' for s in by_label.tolist()]
    out.write("digraph transitions {\n")
    for part in np.split(by_name, range(_DOT_CHUNK, by_name.size, _DOT_CHUNK)):
        out.write("".join(f'  "{names[a]}";\n' for a in part.tolist()))
    group = max(_DOT_CHUNK >> n, 1)  # rows at a time: one if a row is wider than a chunk
    for rows in np.split(by_name, range(group, by_name.size, group)):
        e, owner = analyze._row_edges(succ.indptr, rows)
        # the line of row a and label rank r takes the edge labelled by_label[r] | the label of a's first edge
        edge_at = np.empty((rows.size, width), dtype=np.int64)
        edge_at[owner, succ.label[e]] = np.arange(e.size)
        edge = edge_at[np.arange(rows.size)[:, None], by_label | succ.label[succ.indptr[rows], None]].ravel()
        line = np.argsort((owner * rank.size + rank[succ.dst[e]])[edge], kind="stable")  # by target, then label
        prefixes = [f'  "{names[a]}" -> "{names[b]}' for a, b in zip(rows[owner].tolist(), succ.dst[e].tolist())]
        for part in np.split(line, range(_DOT_CHUNK, line.size, _DOT_CHUNK)):
            ends = map(labels.__getitem__, (part & (width - 1)).tolist())
            out.write("".join(chain.from_iterable(zip(map(prefixes.__getitem__, edge[part].tolist()), ends))))
    out.write("}\n")


# ---------------------------------------------------------------------------
# Command dispatch
# ---------------------------------------------------------------------------


def _provenance(scenario_bytes: bytes, seed) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "scenario_sha256": hashlib.sha256(scenario_bytes).hexdigest(),
    }


def _emit(out, document: dict) -> None:
    out.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _dynamics(doc: dict, budget: int | None):
    """The scenario's system, or the best-response dynamics of its game."""
    if "system" in doc:
        return _system_from_spec(doc["system"], budget)
    return games.br_system(_game_from_spec(doc["game"]), tie_break="min")


def _cmd_analyze(doc: dict, args, result: dict) -> int:
    if "analysis" not in doc:
        raise SchemaError("analysis", "the analyze command needs an analysis request")
    kind = doc["analysis"]["kind"]
    if kind in ("pne", "uncoupled-check"):
        raise SchemaError("analysis.kind", f"use the {kind} command for {kind!r} requests")
    budget = args.budget
    system = _dynamics(doc, budget)
    t0 = time.perf_counter()
    graph = analyze.transition_graph(system, budget)
    stable = sorted(analyze.stable_states(graph))
    result["stable_states"] = [_state_json(s) for s in stable]
    result["statistics"] = {
        "states": system.num_states,
        "sccs": analyze.scc_count(graph),
    }
    if kind == "spectrum":
        reachable = sorted(analyze.spectrum(graph, doc["analysis"]["state"]))
        result.update(verdict="ok", spectrum=[_state_json(s) for s in reachable])
        code = EXIT_OK
    elif kind == "committed":
        result.update(verdict="ok", committed=[
            {"state": _state_json(s), "committed_to": _state_json(t) if t is not None else None}
            for s, t in sorted(analyze.committed_map(graph).items())
        ])
        code = EXIT_OK
    else:
        if kind == "convergence":
            verdict = analyze.decide_convergence(graph)
        else:
            verdict = analyze.decide_r_convergence(graph, doc["analysis"]["r"], budget)
        payload, code = _verdict_json(verdict)
        if isinstance(verdict, analyze.NonConvergent):
            replay = simulate.replay_witness(system, verdict.witness, budget)
            if not isinstance(replay, simulate.Cycling):
                raise AsyncdynError("internal error: witness failed to replay as cycling")
        result.update(payload)
    result["statistics"]["runtime_s"] = round(time.perf_counter() - t0, 6)
    return code


def _cmd_simulate(doc: dict, args, result: dict) -> int:
    if "simulation" not in doc:
        raise SchemaError("simulation", "the simulate command needs a simulation request")
    system = _dynamics(doc, args.budget)
    spec = doc["simulation"]
    # --seed first, then the schedule's own seed, then the request's
    seed = next((s for s in (args.seed, spec["schedule"].get("seed"), spec.get("seed")) if s is not None), None)
    schedule = _schedule_from_spec(spec["schedule"], seed)
    if isinstance(schedule, (SeededRandom, SeededRFair)):
        result["provenance"]["seed"] = seed
    max_steps = args.max_steps if args.max_steps is not None else spec.get("max_steps", simulate.DEFAULT_MAX_STEPS)
    t0 = time.perf_counter()
    trajectory, verdict = simulate.run(system, spec["initial"], schedule, max_steps=max_steps, budget=args.budget)
    payload, code = _verdict_json(verdict)
    result.update(payload)
    result["statistics"] = {
        "steps": len(trajectory.states) + trajectory.dropped - len(trajectory.initial),
        "runtime_s": round(time.perf_counter() - t0, 6),
    }
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("\n".join(simulate.trace_lines(trajectory)) + "\n")
        result["trace_file"] = args.trace
    return code


def _cmd_pne(doc: dict, args, result: dict) -> int:
    if "game" in doc:
        game = _game_from_spec(doc["game"])
    else:
        game = games.induced_game(_system_from_spec(doc["system"], args.budget), args.budget)
    pne = sorted(games.enumerate_pne(game, args.budget))
    result["verdict"] = "ok"
    result["pne"] = [_state_json(s) for s in pne]
    result["statistics"] = {"states": game.space.num_states, "pne_count": len(pne)}
    return EXIT_OK


def _cmd_uncoupled_check(doc: dict, args, result: dict) -> int:
    if doc.get("analysis", {}).get("kind") != "uncoupled-check":
        raise SchemaError("analysis", "the uncoupled-check command needs an uncoupled-check request")
    if "game" not in doc:
        raise SchemaError("game", "uncoupled-check needs a game source")
    game = _game_from_spec(doc["game"])
    protocol = doc["analysis"]["protocol"]
    verdict = uncoupled.check_self_stabilization(protocol, game, args.budget)
    payload, code = _verdict_json(verdict)
    result.update(payload)
    result["protocol"] = protocol
    return code


def _cmd_build(doc: dict, args, result: dict) -> int:
    if "system" not in doc:
        raise SchemaError("system", "the build command needs a system source")
    system = _system_from_spec(doc["system"], args.budget)
    rows = system.reaction_rows(args.budget)
    result["verdict"] = "ok"
    result["system"] = {"kind": "table", "sizes": list(system.space.sizes), "table": rows.tolist()}
    result["statistics"] = {"states": system.num_states, "nodes": system.n}
    return EXIT_OK


def _cmd_export_dot(doc: dict, args, out) -> int:
    if "system" not in doc:
        raise SchemaError("system", "export-dot needs a system source")
    export_dot(_system_from_spec(doc["system"], args.budget), out, args.budget)
    return EXIT_OK


COMMANDS = {  # the commands that write a result document
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "pne": _cmd_pne,
    "uncoupled-check": _cmd_uncoupled_check,
    "build": _cmd_build,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asyncdyn")
    parser.add_argument("command", choices=[*COMMANDS, "export-dot"])
    parser.add_argument("--scenario", required=True, help="path to a JSON scenario document")
    parser.add_argument("--seed", type=int, default=None, help="seed override for seeded schedules")
    parser.add_argument("--max-steps", type=int, default=None, help="simulation step budget")
    parser.add_argument("--budget", type=int, default=None, help="state enumeration budget override")
    parser.add_argument("--trace", default=None, help="write the simulation trace to this file")
    return parser


def run_command(argv, out=None) -> int:
    """Entry point used by main() and tests: parses argv, runs the subcommand,
    writes a result document (or DOT text) to ``out``, and returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        with open(args.scenario, "rb") as fh:
            scenario_bytes = fh.read()
        try:
            doc = parse_scenario(scenario_bytes.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"the scenario is not UTF-8: {exc}") from None
        if args.command == "export-dot":  # DOT text, not a result document
            return _cmd_export_dot(doc, args, out)
        result = {"provenance": _provenance(scenario_bytes, args.seed)}
        code = COMMANDS[args.command](doc, args, result)
        _emit(out, result)
        return code
    except BudgetExceeded as exc:
        _emit(out, {"error": str(exc), "error_kind": "budget-exceeded"})
        return EXIT_BUDGET
    except OSError as exc:
        _emit(out, {"error": str(exc), "error_kind": "io"})
        return EXIT_INPUT
    except AsyncdynError as exc:
        _emit(out, {"error": str(exc), "error_kind": type(exc).__name__})
        return EXIT_INPUT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
