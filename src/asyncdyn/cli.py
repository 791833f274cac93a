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
import string
import sys
import time
from dataclasses import dataclass

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
)
from .errors import (
    AsyncdynError,
    BudgetExceeded,
    ParseError,
    SchemaError,
)

EXIT_OK = 0
EXIT_NEGATIVE = 10
EXIT_INPUT = 2
EXIT_BUDGET = 3

SYSTEM_KINDS = ("table", "circuit", "majority", "bgp", "tm", "snake", "disjointness", "fixture")
ANALYSIS_KINDS = ("convergence", "r-convergence", "spectrum", "committed", "pne", "uncoupled-check")
PROTOCOL_KINDS = ("three-recall", "two-recall", "stay-or-roll")


@dataclass(frozen=True)
class ScenarioDocument:
    version: int
    system: dict | None
    game: dict | None
    analysis: dict | None
    simulation: dict | None


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise SchemaError(path, msg)


def _field(obj: dict, key: str, path: str, required: bool = True, default=None):
    if key not in obj:
        _expect(not required, f"{path}.{key}", "missing required field")
        return default
    return obj[key]


def _int_field(obj, key, path, required=True, default=None, minimum=None):
    value = _field(obj, key, path, required, default)
    if value is default and not required:
        return default
    _expect(isinstance(value, int) and not isinstance(value, bool), f"{path}.{key}", "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, f"{path}.{key}", f"must be >= {minimum}")
    return value


def _list_field(obj, key, path, required=True, default=None):
    value = _field(obj, key, path, required, default)
    if value is default and not required:
        return default
    _expect(isinstance(value, list), f"{path}.{key}", "expected a list")
    return value


def _validate_system(spec, path: str):
    _expect(isinstance(spec, dict), path, "expected an object")
    kind = _field(spec, "kind", path)
    _expect(kind in SYSTEM_KINDS, f"{path}.kind", f"expected one of {SYSTEM_KINDS}")
    if kind == "table":
        sizes = _list_field(spec, "sizes", path)
        _expect(all(isinstance(k, int) and k >= 1 for k in sizes), f"{path}.sizes", "expected positive integers")
        table = _list_field(spec, "table", path)
        n = len(sizes)
        _expect(len(table) == math.prod(sizes), f"{path}.table", f"expected {math.prod(sizes)} rows")
        for i, row in enumerate(table):
            _expect(isinstance(row, list) and len(row) == n, f"{path}.table", f"row {i} must list {n} actions")
            for j, (a, k) in enumerate(zip(row, sizes)):
                _expect(type(a) is int and 0 <= a < k, f"{path}.table[{i}][{j}]", f"expected an integer action in [0, {k})")
    elif kind == "circuit":
        inputs = _list_field(spec, "inputs", path)
        for i, item in enumerate(inputs):
            _expect(isinstance(item, dict) and "name" in item and "value" in item, f"{path}.inputs[{i}]", "expected {name, value}")
            _expect(item["value"] in (0, 1), f"{path}.inputs[{i}].value", "expected a bit (0 or 1)")
        gates = _list_field(spec, "gates", path)
        for i, item in enumerate(gates):
            _expect(
                isinstance(item, dict) and {"name", "inputs", "table"} <= set(item),
                f"{path}.gates[{i}]",
                "expected {name, inputs, table}",
            )
    elif kind == "majority":
        _int_field(spec, "users", path, minimum=1)
        edges = _list_field(spec, "edges", path)
        for i, e in enumerate(edges):
            _expect(isinstance(e, list) and len(e) == 2, f"{path}.edges[{i}]", "expected a pair")
    elif kind == "bgp":
        _int_field(spec, "dest", path)
        _list_field(spec, "edges", path)
        rankings = _list_field(spec, "rankings", path)
        for i, item in enumerate(rankings):
            _expect(
                isinstance(item, dict) and "as" in item and "routes" in item,
                f"{path}.rankings[{i}]",
                "expected {as, routes}",
            )
    elif kind == "tm":
        _list_field(spec, "states", path)
        _list_field(spec, "halting", path)
        _int_field(spec, "symbols", path, minimum=1)
        _int_field(spec, "cells", path, minimum=1)
        delta = _list_field(spec, "delta", path)
        for i, item in enumerate(delta):
            _expect(
                isinstance(item, dict) and {"state", "read", "next", "write", "move"} <= set(item),
                f"{path}.delta[{i}]",
                "expected {state, read, next, write, move}",
            )
    elif kind == "snake":
        _int_field(spec, "n", path, minimum=5)
    elif kind == "disjointness":
        _int_field(spec, "n", path, minimum=5)
        _list_field(spec, "A", path)
        _list_field(spec, "B", path)
    elif kind == "fixture":
        name = _field(spec, "name", path)
        _expect(isinstance(name, str), f"{path}.name", "expected a string")


def _validate_game(spec, path: str):
    _expect(isinstance(spec, dict), path, "expected an object")
    if "fixture" in spec:
        _expect(isinstance(spec["fixture"], str), f"{path}.fixture", "expected a string")
        return
    sizes = _list_field(spec, "sizes", path)
    _expect(all(isinstance(k, int) and k >= 1 for k in sizes), f"{path}.sizes", "expected positive integers")
    utilities = _list_field(spec, "utilities", path)
    _expect(len(utilities) == len(sizes), f"{path}.utilities", "expected one table per node")
    count = math.prod(sizes)
    for i, table in enumerate(utilities):
        _expect(isinstance(table, list) and len(table) == count, f"{path}.utilities[{i}]", f"expected {count} integers")
        for j, u in enumerate(table):
            _expect(type(u) is int, f"{path}.utilities[{i}][{j}]", "expected an integer")


def _validate_analysis(spec, path: str):
    _expect(isinstance(spec, dict), path, "expected an object")
    kind = _field(spec, "kind", path)
    _expect(kind in ANALYSIS_KINDS, f"{path}.kind", f"expected one of {ANALYSIS_KINDS}")
    if kind == "r-convergence":
        _int_field(spec, "r", path, minimum=1)
    elif kind == "spectrum":
        _list_field(spec, "state", path)
    elif kind == "uncoupled-check":
        protocol = _field(spec, "protocol", path)
        _expect(protocol in PROTOCOL_KINDS, f"{path}.protocol", f"expected one of {PROTOCOL_KINDS}")


def _validate_simulation(spec, path: str):
    _expect(isinstance(spec, dict), path, "expected an object")
    initial = _list_field(spec, "initial", path)
    states = initial if initial and isinstance(initial[0], list) else [initial]
    _expect(
        all(isinstance(s, list) and all(isinstance(a, int) for a in s) for s in states),
        f"{path}.initial",
        "expected a state or a window of states, each a list of integer actions",
    )
    _int_field(spec, "seed", path, required=False)
    schedule = _field(spec, "schedule", path)
    _expect(isinstance(schedule, dict), f"{path}.schedule", "expected an object")
    _int_field(schedule, "seed", f"{path}.schedule", required=False)
    kind = _field(schedule, "kind", f"{path}.schedule")
    kinds = ("synchronous", "round-robin", "periodic", "explicit", "random", "r-fair")
    _expect(kind in kinds, f"{path}.schedule.kind", f"expected one of {kinds}")
    if kind == "periodic":
        cycle = _list_field(schedule, "cycle", f"{path}.schedule")
        _expect(len(cycle) > 0, f"{path}.schedule.cycle", "cycle must be nonempty")
    if kind == "explicit":
        _list_field(schedule, "sets", f"{path}.schedule")
    if kind == "r-fair":
        _int_field(schedule, "r", f"{path}.schedule", minimum=1)
    if kind == "random" and "p" in schedule:
        p = schedule["p"]
        _expect(isinstance(p, (int, float)) and 0 <= p <= 1, f"{path}.schedule.p", "expected a probability in [0, 1]")
    if "max_steps" in spec:
        _int_field(spec, "max_steps", path, minimum=1)


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse and validate a scenario document; raises ParseError on bad JSON
    and SchemaError (with a field path) on structural violations."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "$", "expected a JSON object")
    version = raw.get("version", 1)
    _expect(isinstance(version, int), "version", "expected an integer")
    system = raw.get("system")
    game = raw.get("game")
    _expect(
        (system is None) != (game is None),
        "$",
        "exactly one of 'system' or 'game' must be declared",
    )
    if system is not None:
        _validate_system(system, "system")
    if game is not None:
        _validate_game(game, "game")
    analysis = raw.get("analysis")
    if analysis is not None:
        _validate_analysis(analysis, "analysis")
    simulation = raw.get("simulation")
    if simulation is not None:
        _validate_simulation(simulation, "simulation")
    return ScenarioDocument(
        version=version, system=system, game=game, analysis=analysis, simulation=simulation
    )


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
def _system_from_spec(spec: dict) -> HistorylessSystem:
    kind = spec["kind"]
    if kind == "table":
        space = ActionSpace(tuple(spec["sizes"]))
        return HistorylessSystem.from_table(space, [tuple(r) for r in spec["table"]], name="table")
    if kind == "circuit":
        circuit = reductions.CircuitDescription(
            inputs=tuple((i["name"], i["value"]) for i in spec["inputs"]),
            gates=tuple(
                reductions.GateSpec(name=g["name"], inputs=tuple(g["inputs"]), table=tuple(g["table"]))
                for g in spec["gates"]
            ),
        )
        return reductions.build_circuit(circuit)
    if kind == "majority":
        graph = reductions.SocialGraph(n=spec["users"], edges=tuple(tuple(e) for e in spec["edges"]))
        return reductions.build_majority(graph)
    if kind == "bgp":
        instance = reductions.BgpInstance(
            dest=spec["dest"],
            edges=tuple(tuple(e) for e in spec["edges"]),
            rankings=tuple(
                (r["as"], tuple(tuple(route) for route in r["routes"])) for r in spec["rankings"]
            ),
            export_deny=tuple(
                (d["as"], tuple(d["route"]), d["to"]) for d in spec.get("export_deny", [])
            ),
        )
        return reductions.build_bgp(instance)
    if kind == "tm":
        tm = reductions.TMDescription(
            states=tuple(spec["states"]),
            halting=frozenset(spec["halting"]),
            n_symbols=spec["symbols"],
            tape_cells=spec["cells"],
            delta={
                (d["state"], d["read"]): (d["next"], d["write"], d["move"])
                for d in spec["delta"]
            },
        )
        return reductions.build_tm(tm)
    if kind == "snake":
        return reductions.build_snake_system(spec["n"])
    if kind == "disjointness":
        return reductions.build_disjointness(spec["n"], spec["A"], spec["B"])
    if kind == "fixture":
        fx = reductions.fixture(spec["name"], **spec.get("params", {}))
        if not isinstance(fx, HistorylessSystem):
            raise SchemaError("system.name", f"fixture {spec['name']!r} is not a system")
        return fx
    raise SchemaError("system.kind", f"unknown kind {kind!r}")


@_builds("game")
def _game_from_spec(spec: dict) -> games.Game:
    if "fixture" in spec:
        fx = reductions.fixture(spec["fixture"])
        if not isinstance(fx, games.Game):
            raise SchemaError("game.fixture", f"fixture {spec['fixture']!r} is not a game")
        return fx
    space = ActionSpace(tuple(spec["sizes"]))
    return games.Game(space=space, utilities=tuple(tuple(t) for t in spec["utilities"]))


@_builds("simulation.schedule")
def _schedule_from_spec(spec: dict, seed: int | None) -> Schedule:
    kind = spec["kind"]
    if kind == "synchronous":
        return Synchronous()
    if kind == "round-robin":
        return RoundRobin()
    if kind == "periodic":
        return Periodic(
            cycle=tuple(frozenset(s) for s in spec["cycle"]),
            prefix=tuple(frozenset(s) for s in spec.get("prefix", [])),
        )
    if kind == "explicit":
        return ExplicitList(sets=tuple(frozenset(s) for s in spec["sets"]))
    effective_seed = spec.get("seed", seed)
    if effective_seed is None:
        raise SchemaError("simulation.schedule.seed", "seeded schedules need a seed")
    if kind == "random":
        return SeededRandom(seed=effective_seed, p=spec.get("p", 0.5))
    if kind == "r-fair":
        return SeededRFair(seed=effective_seed, r=spec["r"])
    raise SchemaError("simulation.schedule.kind", f"unknown kind {kind!r}")


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


def _state_name(state, sizes) -> str:
    if all(k <= 26 for k in sizes):
        return "".join(string.ascii_lowercase[a] for a in state)
    return ".".join(str(a) for a in state)


def export_dot(graph: analyze.TransitionGraph) -> str:
    """Deterministic DOT rendering: one node line per state named by its action
    tuple (letters a, b, ... per action), one edge line per (state, activation
    set, state), all sorted lexicographically."""
    sizes = graph.system.space.sizes
    node_lines = sorted(f'  "{_state_name(s, sizes)}";' for s in graph.states)
    edge_lines = sorted(
        f'  "{_state_name(a, sizes)}" -> "{_state_name(b, sizes)}" '
        f'[label="{simulate.format_active(active)}"];'
        for a, active, b in graph.edges
    )
    return "\n".join(["digraph transitions {", *node_lines, *edge_lines, "}"]) + "\n"


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
    json.dump(document, out, indent=2, sort_keys=True)
    out.write("\n")


def _cmd_analyze(doc: ScenarioDocument, args, result: dict) -> int:
    if doc.analysis is None:
        raise SchemaError("analysis", "the analyze command needs an analysis request")
    kind = doc.analysis["kind"]
    if kind in ("pne", "uncoupled-check"):
        raise SchemaError("analysis.kind", f"use the {kind} command for {kind!r} requests")
    if doc.system is not None:
        system = _system_from_spec(doc.system)
    else:
        system = games.br_system(_game_from_spec(doc.game), tie_break="min")
    budget = args.budget
    t0 = time.perf_counter()
    graph = analyze.transition_graph(system, budget)
    stable = sorted(analyze.stable_states(graph))
    result["stable_states"] = [_state_json(s) for s in stable]
    result["statistics"] = {
        "states": system.num_states,
        "sccs": analyze.scc_count(graph),
    }
    if kind == "convergence":
        verdict = analyze.decide_convergence(graph)
    elif kind == "r-convergence":
        verdict = analyze.decide_r_convergence(graph, doc.analysis["r"], budget)
    elif kind == "spectrum":
        reachable = sorted(analyze.spectrum(graph, tuple(doc.analysis["state"])))
        result["spectrum"] = [_state_json(s) for s in reachable]
        result["verdict"] = "ok"
        result["statistics"]["runtime_s"] = round(time.perf_counter() - t0, 6)
        return EXIT_OK
    else:  # committed
        cmap = analyze.committed_map(graph)
        result["committed"] = [
            {
                "state": _state_json(s),
                "committed_to": _state_json(t) if t is not None else None,
            }
            for s, t in sorted(cmap.entries.items())
        ]
        result["verdict"] = "ok"
        result["statistics"]["runtime_s"] = round(time.perf_counter() - t0, 6)
        return EXIT_OK
    payload, code = _verdict_json(verdict)
    if isinstance(verdict, analyze.NonConvergent):
        replay = simulate.replay_witness(system, verdict.witness, budget)
        if not isinstance(replay, simulate.Cycling):
            raise AsyncdynError("internal error: witness failed to replay as cycling")
    result.update(payload)
    result["statistics"]["runtime_s"] = round(time.perf_counter() - t0, 6)
    return code


def _cmd_simulate(doc: ScenarioDocument, args, result: dict) -> int:
    if doc.simulation is None:
        raise SchemaError("simulation", "the simulate command needs a simulation request")
    if doc.system is not None:
        system = _system_from_spec(doc.system)
    else:
        system = games.br_system(_game_from_spec(doc.game), tie_break="min")
    spec = doc.simulation
    seed = args.seed if args.seed is not None else spec.get("seed")
    schedule = _schedule_from_spec(spec["schedule"], seed)
    initial = spec["initial"]
    if initial and isinstance(initial[0], list):
        initial = tuple(tuple(s) for s in initial)
    else:
        initial = tuple(initial)
    max_steps = args.max_steps or spec.get("max_steps", simulate.DEFAULT_MAX_STEPS)
    t0 = time.perf_counter()
    trajectory, verdict = simulate.run(system, initial, schedule, max_steps=max_steps)
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


def _cmd_pne(doc: ScenarioDocument, args, result: dict) -> int:
    if doc.game is not None:
        game = _game_from_spec(doc.game)
    else:
        game = games.induced_game(_system_from_spec(doc.system), args.budget)
    pne = sorted(games.enumerate_pne(game, args.budget))
    result["verdict"] = "ok"
    result["pne"] = [_state_json(s) for s in pne]
    result["statistics"] = {"states": game.space.num_states, "pne_count": len(pne)}
    return EXIT_OK


def _cmd_uncoupled_check(doc: ScenarioDocument, args, result: dict) -> int:
    if doc.analysis is None or doc.analysis.get("kind") != "uncoupled-check":
        raise SchemaError("analysis", "the uncoupled-check command needs an uncoupled-check request")
    if doc.game is None:
        raise SchemaError("game", "uncoupled-check needs a game source")
    game = _game_from_spec(doc.game)
    protocol = doc.analysis["protocol"]
    if protocol == "stay-or-roll":
        verdict = uncoupled.check_self_stabilization_randomized(game, args.budget)
    else:
        verdict = uncoupled.check_self_stabilization(protocol, game, args.budget)
    payload, code = _verdict_json(verdict)
    result.update(payload)
    result["protocol"] = protocol
    return code


def _cmd_build(doc: ScenarioDocument, args, result: dict) -> int:
    if doc.system is None:
        raise SchemaError("system", "the build command needs a system source")
    system = _system_from_spec(doc.system)
    rows = system.reaction_rows(args.budget)
    result["verdict"] = "ok"
    result["system"] = {"kind": "table", "sizes": list(system.space.sizes), "table": rows.tolist()}
    result["statistics"] = {"states": system.num_states, "nodes": system.n}
    return EXIT_OK


def _cmd_export_dot(doc: ScenarioDocument, args, out) -> int:
    if doc.system is None:
        raise SchemaError("system", "export-dot needs a system source")
    system = _system_from_spec(doc.system)
    graph = analyze.transition_graph(system, args.budget)
    out.write(export_dot(graph))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asyncdyn")
    parser.add_argument("command", choices=["analyze", "simulate", "pne", "uncoupled-check", "build", "export-dot"])
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
        doc = parse_scenario(scenario_bytes.decode("utf-8"))
        result = {"provenance": _provenance(scenario_bytes, args.seed)}
        if args.command == "analyze":
            code = _cmd_analyze(doc, args, result)
        elif args.command == "simulate":
            code = _cmd_simulate(doc, args, result)
        elif args.command == "pne":
            code = _cmd_pne(doc, args, result)
        elif args.command == "uncoupled-check":
            code = _cmd_uncoupled_check(doc, args, result)
        elif args.command == "build":
            code = _cmd_build(doc, args, result)
        else:
            return _cmd_export_dot(doc, args, out)
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
