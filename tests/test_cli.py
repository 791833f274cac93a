"""Scenario parsing, command dispatch, exit codes, DOT export."""

import copy
import functools
import io
import json
import random
import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import asyncdyn
from asyncdyn import cli
from asyncdyn.cli import ANALYSES, SCHEDULES, SYSTEMS, build_parser, export_dot, parse_scenario, run_command
from asyncdyn.core import (
    ActionSpace,
    ExplicitList,
    HistorylessSystem,
    Periodic,
    RoundRobin,
    SeededRandom,
    SeededRFair,
    Synchronous,
)
from asyncdyn.errors import ParseError, SchemaError, Unsupported
from asyncdyn.games import Game
from asyncdyn.reductions import (
    FIXTURES,
    BgpInstance,
    CircuitDescription,
    GateSpec,
    SocialGraph,
    TMDescription,
    build_bgp,
    build_circuit,
    build_disjointness,
    build_majority,
    build_snake_system,
    build_tm,
    fixture,
)
from asyncdyn.simulate import Cycling, Witness, replay_witness

from _helpers import empty_store, oracle_dot, random_lifted_system, random_table_system


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def invoke(argv):
    out = io.StringIO()
    code = run_command(argv, out=out)
    return code, out.getvalue()


def invoke_json(argv):
    code, text = invoke(argv)
    return code, json.loads(text)


FIG1_ANALYZE = {
    "version": 1,
    "system": {"kind": "fixture", "name": "fig1"},
    "analysis": {"kind": "convergence"},
}


class TestParseScenario:
    def test_valid_fixture_scenario(self):
        doc = parse_scenario(json.dumps(FIG1_ANALYZE))
        assert doc == FIG1_ANALYZE

    def test_bad_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_scenario("{not json")

    def test_r_zero_flagged_at_path(self):
        doc = dict(FIG1_ANALYZE, analysis={"kind": "r-convergence", "r": 0})
        with pytest.raises(SchemaError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.path == "analysis.r"

    def test_table_row_length_flagged_at_path(self):
        doc = {
            "version": 1,
            "system": {
                "kind": "table",
                "sizes": [2, 2],
                "table": [[0, 0, 0], [1, 0], [0, 1], [1, 1]],
            },
            "analysis": {"kind": "convergence"},
        }
        with pytest.raises(SchemaError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.path == "system.table"

    @pytest.mark.parametrize(
        "heading, table",
        [
            ("System sources", SYSTEMS),
            ("Fixtures", FIXTURES),
            ("Analysis requests", ANALYSES),
            ("Simulation requests", SCHEDULES),
        ],
    )
    def test_documented_kinds_are_the_schema_kinds(self, heading, table):
        text = (Path(__file__).parents[1] / "docs" / "scenario-schema.md").read_text()
        section = text.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
        assert re.findall(r"^\| `([^`]+)` \|", section, flags=re.M) == list(table)

    def test_the_readme_lists_the_parsers_commands(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block = text.split("\n## Command line\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        choices = next(a.choices for a in build_parser()._actions if a.dest == "command")
        assert re.findall(r"^asyncdyn (\S+)", block, flags=re.M) == choices

    def test_exactly_one_source(self):
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps({"version": 1, "analysis": {"kind": "pne"}}))
        both = dict(FIG1_ANALYZE, game={"fixture": "m1m2"})
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(both))


class TestAnalyzeCommand:
    def test_fig1_nonconvergent_exit_10(self, tmp_path):
        path = write_scenario(tmp_path, FIG1_ANALYZE)
        code, doc = invoke_json(["analyze", "--scenario", path])
        assert code == 10
        assert doc["verdict"] == "non-convergent"
        assert doc["stable_states"] == [[0, 0], [1, 1]]
        assert doc["witness"]["cycle"] == [[1, 2]]
        # the emitted witness replays on an independently built system
        witness = Witness(
            initial=tuple(tuple(s) for s in doc["witness"]["initial"]),
            cycle=tuple(frozenset(s) for s in doc["witness"]["cycle"]),
            prefix=tuple(frozenset(s) for s in doc["witness"]["prefix"]),
        )
        assert isinstance(replay_witness(fixture("fig1"), witness), Cycling)

    def test_three_stable_example_exit_0(self, tmp_path):
        scenario = {
            "version": 1,
            "system": {"kind": "fixture", "name": "ex-three-stable"},
            "analysis": {"kind": "convergence"},
        }
        path = write_scenario(tmp_path, scenario)
        code, doc = invoke_json(["analyze", "--scenario", path])
        assert code == 0
        assert doc["verdict"] == "convergent"

    def test_r_convergence(self, tmp_path):
        scenario = {
            "version": 1,
            "system": {"kind": "fixture", "name": "ring", "params": {"n": 4}},
            "analysis": {"kind": "r-convergence", "r": 2},
        }
        code, doc = invoke_json(["analyze", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 0 and doc["verdict"] == "convergent"

    def test_spectrum(self, tmp_path):
        scenario = {
            "version": 1,
            "system": {"kind": "fixture", "name": "fig1"},
            "analysis": {"kind": "spectrum", "state": [0, 1]},
        }
        code, doc = invoke_json(["analyze", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 0
        assert doc["spectrum"] == [[0, 0], [1, 1]]

    def test_provenance_hash_tracks_bytes(self, tmp_path):
        p1 = write_scenario(tmp_path, FIG1_ANALYZE, "a.json")
        p2 = write_scenario(tmp_path, FIG1_ANALYZE, "b.json")
        changed = dict(FIG1_ANALYZE, version=2)
        p3 = write_scenario(tmp_path, changed, "c.json")
        h1 = invoke_json(["analyze", "--scenario", p1])[1]["provenance"]["scenario_sha256"]
        h2 = invoke_json(["analyze", "--scenario", p2])[1]["provenance"]["scenario_sha256"]
        h3 = invoke_json(["analyze", "--scenario", p3])[1]["provenance"]["scenario_sha256"]
        assert h1 == h2 != h3

    def test_provenance_version_is_package_version(self, tmp_path):
        doc = invoke_json(["analyze", "--scenario", write_scenario(tmp_path, FIG1_ANALYZE)])[1]
        assert doc["provenance"]["version"] == asyncdyn.__version__

    def test_budget_exceeded_exit_3(self, tmp_path):
        scenario = {
            "version": 1,
            "system": {"kind": "snake", "n": 5},
            "analysis": {"kind": "convergence"},
        }
        path = write_scenario(tmp_path, scenario)
        code, doc = invoke_json(["analyze", "--scenario", path, "--budget", "4"])
        assert code == 3
        assert doc["error_kind"] == "budget-exceeded"

    def test_edge_budget_exceeded_exit_3(self, tmp_path):
        """15 binary nodes that always flip: 2^15 states fit the default
        budget, their 2^30 distinct transitions do not."""
        space = ActionSpace((2,) * 15)
        scenario = {
            "version": 1,
            "system": {
                "kind": "table",
                "sizes": list(space.sizes),
                "table": [[1 - a for a in state] for state in space.states()],
            },
            "analysis": {"kind": "convergence"},
        }
        code, doc = invoke_json(["analyze", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 3
        assert doc["error_kind"] == "budget-exceeded"
        assert f"{2 ** 30} distinct transitions" in doc["error"]

    def test_majority_users_budget_exceeded_exit_3(self, tmp_path):
        """The users of a majority graph are counted before its users ×
        users adjacency matrix is built: 10^9 users exit 3, not with a
        MemoryError."""
        scenario = {
            "version": 1,
            "system": {"kind": "majority", "users": 10 ** 9, "edges": []},
            "analysis": {"kind": "convergence"},
        }
        code, doc = invoke_json(["analyze", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 3
        assert doc["error_kind"] == "budget-exceeded"
        assert doc["error"].startswith(f"{10 ** 9} users exceed")

    def test_missing_file_exit_2(self):
        code, doc = invoke_json(["analyze", "--scenario", "/nonexistent.json"])
        assert code == 2

    def test_one_parser_reads_every_request(self, tmp_path):
        """The parser is built once per process; each request still reads
        its own arguments, and a bad one leaves the next request intact."""
        assert build_parser() is build_parser()
        path = write_scenario(tmp_path, FIG1_ANALYZE)
        assert invoke(["analyze", "--scenario", path, "--budget", "2"])[0] == 3
        assert invoke(["analyze", "--bogus"])[0] == 2
        assert invoke(["analyze", "--scenario", path])[0] == 10


class TestSimulateCommand:
    def test_cycling_exit_10_and_trace(self, tmp_path):
        scenario = dict(
            FIG1_ANALYZE,
            simulation={
                "initial": [0, 1],
                "schedule": {"kind": "synchronous"},
                "max_steps": 50,
            },
        )
        trace = tmp_path / "trace.tsv"
        path = write_scenario(tmp_path, scenario)
        code, doc = invoke_json(
            ["simulate", "--scenario", path, "--trace", str(trace)]
        )
        assert code == 10
        assert doc["verdict"] == "cycling" and doc["period"] == 2
        lines = trace.read_text().splitlines()
        assert lines[0] == "0\t0,1\t-"
        assert lines[1] == "1\t1,0\t{1,2}"

    def test_seeded_simulation_reproducible(self, tmp_path):
        scenario = dict(
            FIG1_ANALYZE,
            simulation={
                "initial": [0, 1],
                "schedule": {"kind": "random", "p": 0.5},
                "max_steps": 40,
            },
        )
        path = write_scenario(tmp_path, scenario)
        r1 = invoke_json(["simulate", "--scenario", path, "--seed", "9"])
        r2 = invoke_json(["simulate", "--scenario", path, "--seed", "9"])
        for _, doc in (r1, r2):
            doc["statistics"].pop("runtime_s")
        assert r1 == r2

    RING_RANDOM = {
        "version": 1,
        "system": {"kind": "fixture", "name": "ring", "params": {"n": 4}},
        "simulation": {
            "initial": [1, 0, 0, 0],
            "schedule": {"kind": "random", "p": 0.5, "seed": 5},
            "seed": 7,
            "max_steps": 6,
        },
    }

    def traced_run(self, tmp_path, scenario, *argv):
        trace = tmp_path / "trace.tsv"
        path = write_scenario(tmp_path, scenario)
        code, doc = invoke_json(["simulate", "--scenario", path, "--trace", str(trace), *argv])
        assert code == 0
        return doc["provenance"]["seed"], trace.read_text()

    def test_seed_overrides_the_schedules_seed(self, tmp_path):
        seed_9, trace_9 = self.traced_run(tmp_path, self.RING_RANDOM, "--seed", "9")
        seed_123, trace_123 = self.traced_run(tmp_path, self.RING_RANDOM, "--seed", "123")
        assert (seed_9, seed_123) == (9, 123)
        assert trace_9 != trace_123

    def test_provenance_names_the_seed_that_ran(self, tmp_path):
        """Without --seed the schedule's seed runs, then the request's; the
        seed in the provenance reproduces the run when passed as --seed."""
        own = copy.deepcopy(self.RING_RANDOM)
        del own["simulation"]["schedule"]["seed"]
        for scenario, expected in ((self.RING_RANDOM, 5), (own, 7)):
            seed, trace = self.traced_run(tmp_path, scenario)
            assert seed == expected
            assert self.traced_run(tmp_path, scenario, "--seed", str(seed)) == (seed, trace)

    def test_an_unseeded_schedule_records_the_seed_as_given(self, tmp_path):
        scenario = copy.deepcopy(self.RING_RANDOM)
        scenario["simulation"]["schedule"] = {"kind": "round-robin", "seed": 5}
        assert self.traced_run(tmp_path, scenario)[0] is None
        assert self.traced_run(tmp_path, scenario, "--seed", "9")[0] == 9

    def test_zero_max_steps_is_refused(self, tmp_path):
        scenario = dict(
            FIG1_ANALYZE,
            simulation={"initial": [0, 1], "schedule": {"kind": "synchronous"}, "max_steps": 50},
        )
        path = write_scenario(tmp_path, scenario)
        code, doc = invoke_json(["simulate", "--scenario", path, "--max-steps", "0"])
        assert code == 2
        assert "max_steps must be positive" in doc["error"]

    def test_seeded_schedule_requires_seed(self, tmp_path):
        scenario = dict(
            FIG1_ANALYZE,
            simulation={"initial": [0, 1], "schedule": {"kind": "random"}},
        )
        path = write_scenario(tmp_path, scenario)
        code, doc = invoke_json(["simulate", "--scenario", path])
        assert code == 2


    @pytest.mark.parametrize(
        "schedule",
        [
            {"kind": "periodic", "cycle": [[3]]},
            {"kind": "periodic", "cycle": [[1, 2]], "prefix": [[5]]},
            {"kind": "explicit", "sets": [[1], [1, 4]]},
        ],
        ids=["cycle", "prefix", "explicit"],
    )
    def test_nodes_outside_the_system_exit_2(self, tmp_path, schedule):
        """fig1 has nodes 1 and 2; a schedule naming a node beyond them is
        an input error, as it is for a single step (the schema refuses nodes
        below 1)."""
        scenario = dict(FIG1_ANALYZE, simulation={"initial": [0, 1], "schedule": schedule})
        code, doc = invoke_json(["simulate", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 2
        assert doc["error_kind"] == "InvalidInput"
        assert "out of range 1..2" in doc["error"]

class TestGameCommands:
    def test_pne_on_fixture_game(self, tmp_path):
        scenario = {
            "version": 1,
            "game": {"fixture": "m1m2"},
            "analysis": {"kind": "pne"},
        }
        code, doc = invoke_json(["pne", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 0
        assert doc["pne"] == [[0, 0, 0]]

    def test_pne_via_induced_game(self, tmp_path):
        code, doc = invoke_json(
            ["pne", "--scenario", write_scenario(tmp_path, {
                "version": 1,
                "system": {"kind": "fixture", "name": "fig1"},
            })]
        )
        assert code == 0
        assert doc["pne"] == [[0, 0], [1, 1]]

    def test_uncoupled_check_stay_or_roll_m1m2(self, tmp_path):
        scenario = {
            "version": 1,
            "game": {"fixture": "m1m2"},
            "analysis": {"kind": "uncoupled-check", "protocol": "stay-or-roll"},
        }
        code, doc = invoke_json(
            ["uncoupled-check", "--scenario", write_scenario(tmp_path, scenario)]
        )
        assert code == 10
        assert doc["verdict"] == "fails"
        assert doc["witness"] == [1, 1, 2]

    def test_uncoupled_check_three_recall(self, tmp_path):
        scenario = {
            "version": 1,
            "game": {"sizes": [2, 2], "utilities": [[1, 0, 0, 1], [1, 0, 0, 1]]},
            "analysis": {"kind": "uncoupled-check", "protocol": "three-recall"},
        }
        code, doc = invoke_json(
            ["uncoupled-check", "--scenario", write_scenario(tmp_path, scenario)]
        )
        assert code == 0
        assert doc["verdict"] == "self-stabilizing"


class TestBuildCommand:
    def test_build_emits_round_trippable_table(self, tmp_path):
        scenario = {
            "version": 1,
            "system": {"kind": "majority", "users": 2, "edges": [[1, 2]]},
        }
        code, doc = invoke_json(["build", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 0
        rebuilt = {
            "version": 1,
            "system": doc["system"],
            "analysis": {"kind": "convergence"},
        }
        code2, doc2 = invoke_json(
            ["analyze", "--scenario", write_scenario(tmp_path, rebuilt, "rebuilt.json")]
        )
        assert code2 == 10
        assert doc2["stable_states"] == [[0, 0], [1, 1]]


def dot_text(system, budget=None) -> str:
    out = io.StringIO()
    export_dot(system, out, budget)
    return out.getvalue()


def random_rows_system(sizes, seed):
    """A table system over ``sizes`` whose reaction rows are drawn at random."""
    rng = random.Random(seed)
    space = ActionSpace(sizes)
    return HistorylessSystem.from_table(space, [tuple(map(rng.randrange, sizes)) for _ in range(space.num_states)])


DOT_SYSTEMS = {
    **{name: functools.partial(fixture, name) for name, fx in FIXTURES.items() if fx.kind == "system"},
    "snake-5": functools.partial(build_snake_system, 5),
    "disjointness-5": functools.partial(build_disjointness, 5, {1, 3}, {2}),
    # dotted names, some a prefix of others ("0.2", "0.25")
    "27-actions": functools.partial(random_rows_system, (2, 27), 1),
    "single-action-nodes": functools.partial(random_rows_system, (1, 2, 1, 3, 1), 2),
    # two-digit labels
    "10-nodes": functools.partial(random_rows_system, (2, 2, 1, 1, 1, 1, 1, 2, 2, 2), 3),
    "11-nodes": functools.partial(random_rows_system, (2, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2), 4),
}


@functools.cache
def dot_case(name):
    system = DOT_SYSTEMS[name]()
    return system, oracle_dot(system)


class TestExportDot:
    def test_fig1_contains_expected_line(self, tmp_path):
        path = write_scenario(tmp_path, FIG1_ANALYZE)
        code, text = invoke(["export-dot", "--scenario", path])
        assert code == 0
        assert '"ab" -> "ba" [label="{1,2}"];' in text

    def test_single_state_identity(self):
        system = HistorylessSystem.from_rule(ActionSpace((1,)), lambda s: s)
        text = dot_text(system)
        lines = [line.strip() for line in text.splitlines()]
        assert lines.count('"a";') == 1
        assert '"a" -> "a" [label="{}"];' in lines
        assert '"a" -> "a" [label="{1}"];' in lines

    def test_lines_are_counted_against_the_budget_before_they_are_built(self, tmp_path):
        """export-dot writes one line per state and activation subset: 11
        users on a path have 2^11 states, so their 2^22 lines exceed the
        default budget and are refused before the graph is built.  fig1 has
        4 states of 2 nodes: 16 lines."""
        path = write_scenario(
            tmp_path,
            {"version": 1, "system": {"kind": "majority", "users": 11, "edges": [[i, i + 1] for i in range(1, 11)]}},
        )
        tracemalloc.start()
        try:
            code, doc = invoke_json(["export-dot", "--scenario", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert doc["error_kind"] == "budget-exceeded"
        assert doc["error"] == f"{2 ** 22} DOT edges exceed the enumeration budget {2 ** 20}"
        assert peak < 2 ** 20
        fig1 = write_scenario(tmp_path, FIG1_ANALYZE, "fig1.json")
        code, text = invoke(["export-dot", "--scenario", fig1, "--budget", "16"])
        assert code == 0
        assert text.count(" -> ") == 16
        code, doc = invoke_json(["export-dot", "--scenario", fig1, "--budget", "15"])
        assert code == 3
        assert doc["error"] == "16 DOT edges exceed the enumeration budget 15"

    def test_an_explicit_budget_above_the_environment_budget_exports(self, tmp_path, monkeypatch):
        """``--budget`` wins over ASYNCDYN_BUDGET for the lines as for the
        graph: fig1's 16 lines pass at ``--budget 16`` under an environment
        budget of 8, and only the environment budget refuses them."""
        monkeypatch.setenv("ASYNCDYN_BUDGET", "8")
        fig1 = write_scenario(tmp_path, FIG1_ANALYZE, "fig1.json")
        code, text = invoke(["export-dot", "--scenario", fig1, "--budget", "16"])
        assert code == 0
        assert text.count(" -> ") == 16
        code, doc = invoke_json(["export-dot", "--scenario", fig1])
        assert code == 3
        assert doc["error"] == "16 DOT edges exceed the enumeration budget 8"

    def test_a_lifted_system_is_refused_before_any_write(self):
        out = io.StringIO()
        with pytest.raises(Unsupported):
            export_dot(random_lifted_system(random.Random(1)), out)
        assert out.getvalue() == ""

    def test_byte_identical_across_runs(self, tmp_path):
        path = write_scenario(tmp_path, FIG1_ANALYZE)
        assert invoke(["export-dot", "--scenario", path]) == invoke(
            ["export-dot", "--scenario", path]
        )

    @pytest.mark.parametrize("chunk", [cli._DOT_CHUNK, 1, 7, 64])
    @pytest.mark.parametrize("name", DOT_SYSTEMS)
    def test_equals_the_sorted_string_oracle(self, name, chunk, monkeypatch):
        """The lines ordered by name and label ranks are the oracle's lines
        sorted as strings, byte for byte, also when the rows are written in
        groups of a few rows or in slices of a row."""
        system, expected = dot_case(name)
        monkeypatch.setattr(cli, "_DOT_CHUNK", chunk)
        assert dot_text(system) == expected

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_random_tables_equal_the_oracle(self, seed):
        system = random_table_system(random.Random(seed), max_nodes=4, max_actions=4)
        assert dot_text(system) == oracle_dot(system)

    @pytest.mark.parametrize(
        "system",
        [
            build_majority(SocialGraph(n=10, edges=tuple((i, i + 1) for i in range(1, 10)))),
            HistorylessSystem.from_rule(ActionSpace((2,) + (1,) * 16), lambda s: (1 - s[0],) + s[1:]),
        ],
        ids=["path-10", "row-wider-than-a-chunk"],
    )
    def test_no_write_holds_more_than_a_chunk(self, system):
        """The 10-user path graph has 2^20 lines, 1024 per state; the second
        system's 2 states have 2^17 lines each, more than a chunk."""
        writes = []
        export_dot(system, SimpleNamespace(write=lambda text: writes.append(text.count("\n"))))
        assert max(writes) <= cli._DOT_CHUNK
        assert sum(writes) == 2 + system.num_states + (system.num_states << system.n)


def wide_tm(cells):
    """A two-state machine over one symbol: 6 * cells states of cells + 1
    nodes, so N·n grows with cells squared."""
    delta = [{"state": "q", "read": 0, "next": "h", "write": 0, "move": 1}]
    return {"kind": "tm", "states": ["q", "h"], "halting": ["h"], "symbols": 1, "cells": cells, "delta": delta}


def traced_invoke(argv):
    tracemalloc.start()
    try:
        code, text = invoke(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, json.loads(text), peak


class TestCellBudget:
    """A state-sized array holds N·n cells: the budget counts them before
    any such array exists, and the 31-bit label limit is checked before the
    reaction is tabulated."""

    def test_the_label_limit_comes_before_the_tabulation(self, tmp_path):
        scenario = {"version": 1, "system": wide_tm(600), "analysis": {"kind": "convergence"}}
        code, doc, peak = traced_invoke(["analyze", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 3
        assert doc["error"] == "601 nodes do not fit the 31-bit activation labels of a sparse graph"
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "system, nodes",
        [
            (wide_tm(10 ** 11), 10 ** 11 + 1),
            ({"kind": "fixture", "name": "ring", "params": {"n": 10 ** 9}}, 10 ** 9),
            ({"kind": "fixture", "name": "futile", "params": {"n": 10 ** 9}}, 10 ** 9),
        ],
        ids=["tm-cells", "ring-n", "futile-n"],
    )
    def test_nodes_are_counted_before_a_tuple_of_them_exists(self, tmp_path, system, nodes):
        """A tape of 10^11 cells, or a fixture of 10^9 nodes, is refused as
        one row of that many cells before a tuple of one size per node (GBs
        of them) exists."""
        scenario = {"version": 1, "system": system, "analysis": {"kind": "convergence"}}
        code, doc, peak = traced_invoke(["analyze", "--scenario", write_scenario(tmp_path, scenario)])
        assert (code, doc["error_kind"]) == (3, "budget-exceeded")
        assert doc["error"] == f"1 joint state of {nodes} nodes exceed the {64 << 20}-cell budget"
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "system, error",
        [
            ({"kind": "fixture", "name": "ring", "params": {"n": 10 ** 7}}, "1 joint state of 10000000 nodes"),
            ({"kind": "fixture", "name": "futile", "params": {"n": 10 ** 7}}, "1 joint state of 10000000 nodes"),
            (wide_tm(6000), "1 joint state of 6001 nodes"),
            ({"kind": "majority", "users": 2000, "edges": []}, "2000 users"),
        ],
        ids=["ring-n", "futile-n", "tm-cells", "majority-users"],
    )
    def test_the_request_budget_reaches_the_node_checks(self, tmp_path, system, error):
        """Under ``--budget 10`` a system's nodes are counted against that
        budget, not the default one, before anything of their size exists.
        At the default budget a ring of 10^7 nodes passes the node check and
        is refused only at the 31-bit label limit, after a 153 MiB peak; a
        majority graph of 2,000 users allocates its 32 MB adjacency matrix."""
        scenario = {"version": 1, "system": system, "analysis": {"kind": "convergence"}}
        path = write_scenario(tmp_path, scenario)
        code, doc, peak = traced_invoke(["analyze", "--scenario", path, "--budget", "10"])
        assert (code, doc["error_kind"]) == (3, "budget-exceeded")
        assert doc["error"].startswith(error)
        assert peak < 1 << 20

    def test_a_space_too_wide_to_tabulate_simulates_one_row_at_a_time(self, tmp_path):
        system = wide_tm(6000)
        simulation = {"initial": [0] * 6001, "schedule": {"kind": "synchronous"}, "max_steps": 10}
        path = write_scenario(tmp_path, {"version": 1, "system": system, "simulation": simulation})
        code, doc, peak = traced_invoke(["simulate", "--scenario", path])
        assert (code, doc["verdict"]) == (0, "converged")
        assert peak < 64 << 20
        path = write_scenario(tmp_path, {"version": 1, "system": system}, "build.json")
        code, doc, peak = traced_invoke(["build", "--scenario", path])
        assert (code, doc["error_kind"]) == (3, "budget-exceeded")
        assert doc["error"] == f"36000 joint states of 6001 nodes exceed the {64 << 20}-cell budget"
        assert peak < 1 << 20

    def test_simulate_tabulates_only_within_its_budget(self, tmp_path):
        """A 600-cell machine whose head walks right: 3,600 states, within the
        default budget but not within ``--budget 10``.  Under that budget each
        step evaluates the reaction at its one state, with the same verdict
        and trace as the tabulated run."""
        system = dict(wide_tm(600), delta=[{"state": "q", "read": 0, "next": "q", "write": 0, "move": 1}])
        simulation = {"initial": [0] * 601, "schedule": {"kind": "synchronous"}, "max_steps": 10}
        path = write_scenario(tmp_path, {"version": 1, "system": system, "simulation": simulation})
        docs, traces = [], []
        for name, budget in (("budgeted", ["--budget", "10"]), ("default", [])):
            trace = str(tmp_path / f"{name}.txt")
            code, doc, peak = traced_invoke(["simulate", "--scenario", path, "--trace", trace] + budget)
            assert code == 0
            if budget:
                assert peak < 2 << 20
            del doc["statistics"]["runtime_s"], doc["trace_file"]
            docs.append(doc)
            traces.append(Path(trace).read_text())
        assert docs[0] == docs[1] and docs[0]["verdict"] == "budget-exhausted"
        assert docs[0]["statistics"]["steps"] == 10
        assert traces[0] == traces[1] and len(traces[0].splitlines()) == 11

    def test_a_tabulated_simulate_keeps_nothing_state_sized(self, tmp_path):
        """The same machine without ``--budget`` tabulates its 3,600 x 601
        rows (17.3 MB) once: its digits (as large) are neither kept by the
        store nor copied again with the rows, and its frame is not kept, so
        the call peaks under 49.9 MiB and leaves less than 1 MiB behind."""
        system = dict(wide_tm(600), delta=[{"state": "q", "read": 0, "next": "q", "write": 0, "move": 1}])
        simulation = {"initial": [0] * 601, "schedule": {"kind": "synchronous"}, "max_steps": 10}
        path = write_scenario(tmp_path, {"version": 1, "system": system, "simulation": simulation})
        with empty_store() as store:
            tracemalloc.start()
            try:
                code, text = invoke(["simulate", "--scenario", path])
                del text
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert store and all(a.size <= 601 for arrays in store.values() for a in arrays)  # no digits, no frame
        assert peak <= 49.9 * (1 << 20)
        assert kept < 1 << 20


def table_system(rows):
    return {"kind": "table", "sizes": [2, 2], "table": rows}


def tm_system(**last):
    """A two-state machine whose last transition is updated with ``last``."""
    delta = [
        {"state": "q", "read": 0, "next": "q", "write": 1, "move": 1},
        dict({"state": "q", "read": 1, "next": "h", "write": 1, "move": 0}, **last),
    ]
    return {"kind": "tm", "states": ["q", "h"], "halting": ["h"], "symbols": 2, "cells": 2, "delta": delta}


def circuit_system(value=1, table=(1, 0, 0, 1)):
    return {
        "kind": "circuit",
        "inputs": [{"name": "x", "value": value}],
        "gates": [{"name": "g", "inputs": ["x", "g"], "table": list(table)}],
    }


BGP_ROUTES = [{"as": 1, "routes": [[1, 2, 0], [1, 0]]}, {"as": 2, "routes": [[2, 1, 0], [2, 0]]}]


class TestMalformedInputExit2:
    """Malformed input ends with exit code 2 and names the bad field."""

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_budget_env(self, tmp_path, monkeypatch, value):
        # uncoupled-check reads the budget without an ActionSpace.check_budget call
        monkeypatch.setenv("ASYNCDYN_BUDGET", value)
        scenario = {
            "version": 1,
            "game": {"sizes": [2, 2], "utilities": [[1, 0, 0, 1], [1, 0, 0, 1]]},
            "analysis": {"kind": "uncoupled-check", "protocol": "three-recall"},
        }
        code, doc = invoke_json(["uncoupled-check", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 2
        assert "ASYNCDYN_BUDGET" in doc["error"]

    def test_circuit_input_value_not_a_bit(self, tmp_path):
        scenario = {
            "version": 1,
            "system": {
                "kind": "circuit",
                "inputs": [{"name": "x", "value": "a"}],
                "gates": [{"name": "g", "inputs": ["x"], "table": [1, 0]}],
            },
            "analysis": {"kind": "convergence"},
        }
        code, doc = invoke_json(["analyze", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 2
        assert doc["error"].startswith("system.inputs[0].value:")

    def test_random_schedule_p_not_a_number(self, tmp_path):
        scenario = dict(
            FIG1_ANALYZE,
            simulation={"initial": [0, 1], "schedule": {"kind": "random", "p": "hi", "seed": 1}},
        )
        code, doc = invoke_json(["simulate", "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 2
        assert doc["error"].startswith("simulation.schedule.p:")

    def test_scenario_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(FIG1_ANALYZE).replace("fig1", "fig\xe9").encode("latin-1"))
        code, doc = invoke_json(["analyze", "--scenario", str(path)])
        assert code == 2
        assert doc["error_kind"] == "ParseError"
        assert "UTF-8" in doc["error"]

    def test_json_nested_past_the_recursion_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"version": 1, "system": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, doc = invoke_json(["analyze", "--scenario", str(path)])
        assert code == 2
        assert doc["error_kind"] == "ParseError"
        assert "recursion" in doc["error"]

    @pytest.mark.parametrize(
        "command, source, field",
        [
            ("analyze", {"system": {"kind": "majority", "users": 2, "edges": [["a", 2]]}}, "system.edges[0][0]"),
            (
                "analyze",
                {"system": {"kind": "bgp", "dest": 0, "edges": [[0, "x"]], "rankings": []}},
                "system.edges[0][1]",
            ),
            (
                "analyze",
                {"system": {"kind": "bgp", "dest": 0, "edges": [[0, 1]], "rankings": [{"as": 1, "routes": [5]}]}},
                "system.rankings[0].routes[0]",
            ),
            (
                "analyze",
                {
                    "system": {
                        "kind": "tm", "states": ["q", "h"], "halting": ["h"], "symbols": 2, "cells": 2,
                        "delta": [
                            {"state": "q", "read": "x", "next": "h", "write": 0, "move": 0},
                            {"state": "q", "read": 1, "next": "h", "write": 0, "move": 0},
                        ],
                    }
                },
                "system.delta[0].read",
            ),
            (
                "analyze",
                {
                    "system": {
                        "kind": "circuit",
                        "inputs": [{"name": "x", "value": 1}],
                        "gates": [{"name": "g", "inputs": 5, "table": [1, 0]}],
                    }
                },
                "system.gates[0].inputs",
            ),
            ("analyze", {"system": {"kind": "fixture", "name": "ring", "params": {"n": "x"}}}, "system.params.n"),
            ("analyze", {"system": {"kind": "fixture", "name": "ring", "params": 5}}, "system.params"),
            ("analyze", {"system": {"kind": "disjointness", "n": 5, "A": ["x"], "B": [1]}}, "system.A[0]"),
            ("pne", {"game": {"sizes": [2], "utilities": [["a", "b"]]}}, "game.utilities[0][0]"),
            ("pne", {"game": {"sizes": [2], "utilities": [[1.5, 1]]}}, "game.utilities[0][0]"),
            ("pne", {"game": {"sizes": [2, 1], "utilities": [[0, 1], [1, True]]}}, "game.utilities[1][1]"),
            ("analyze", {"system": table_system([[True, True], [1, 0], [0, 1], [1, 1]])}, "system.table[0][0]"),
            ("analyze", {"system": table_system([[0, 0], [1, 0], [0, "a"], [1, 1]])}, "system.table[2][1]"),
            ("analyze", {"system": table_system([[0, 0], [1.0, 0], [0, 1], [1, 1]])}, "system.table[1][0]"),
            ("analyze", {"system": table_system([[0, 0], [1, 0], [0, 1], [1, 2]])}, "system.table[3][1]"),
            ("simulate", {"schedule": {"kind": "periodic", "cycle": [5]}}, "simulation.schedule.cycle[0]"),
            ("simulate", {"schedule": {"kind": "periodic", "cycle": [["a"]]}}, "simulation.schedule.cycle[0][0]"),
            ("simulate", {"initial": 5, "schedule": {"kind": "synchronous"}}, "simulation.initial"),
            ("simulate", {"initial": [[0, 1], 5], "schedule": {"kind": "synchronous"}}, "simulation.initial[1]"),
            ("simulate", {"initial": [], "schedule": {"kind": "synchronous"}}, "simulation.initial"),
            ("simulate", {"initial": [[]], "schedule": {"kind": "synchronous"}}, "simulation.initial"),
            ("simulate", {"initial": [[0, 1], []], "schedule": {"kind": "synchronous"}}, "simulation.initial"),
            ("simulate", {"schedule": {"kind": "r-fair", "r": 2, "seed": [["a"]]}}, "simulation.schedule.seed"),
            # values a builder would coerce with int() or bool into a verdict
            ("analyze", {"system": {"kind": "fixture", "name": "ring", "params": {"n": 3.7}}}, "system.params.n"),
            ("analyze", {"system": {"kind": "fixture", "name": "ring", "params": {"N": 6}}}, "system.params.N"),
            ("analyze", {"system": {"kind": "majority", "users": 2, "edges": [[True, 2]]}}, "system.edges[0][0]"),
            ("analyze", {"system": tm_system(read=True)}, "system.delta[1].read"),
            ("analyze", {"system": tm_system(write=True)}, "system.delta[1].write"),
            ("analyze", {"system": tm_system(move=True)}, "system.delta[1].move"),
            ("analyze", {"system": circuit_system(value=True)}, "system.inputs[0].value"),
            ("analyze", {"system": circuit_system(table=(1.0, 0, 0, 1))}, "system.gates[0].table[0]"),
            (
                "analyze",
                {"system": {"kind": "bgp", "dest": 0, "edges": [[0, True], [1, 2], [0, 2]], "rankings": BGP_ROUTES}},
                "system.edges[0][1]",
            ),
            ("analyze", {"system": {"kind": "disjointness", "n": 5, "A": [1], "B": [1.0]}}, "system.B[0]"),
            ("analyze", {"version": True, "system": FIG1_ANALYZE["system"]}, "version"),
            (
                "analyze",
                {"system": FIG1_ANALYZE["system"], "analysis": {"kind": "spectrum", "state": [True, 1]}},
                "analysis.state[0]",
            ),
            ("simulate", {"schedule": {"kind": "periodic", "cycle": [[True]]}}, "simulation.schedule.cycle[0][0]"),
            ("simulate", {"initial": [True, 1], "schedule": {"kind": "synchronous"}}, "simulation.initial[0]"),
            ("simulate", {"schedule": {"kind": "random", "p": True, "seed": 1}}, "simulation.schedule.p"),
            # a fixture's params follow its name; the snake gadgets take n = 5..7
            ("analyze", {"system": {"kind": "fixture", "name": "fig1", "params": {"n": 3}}}, "system.params.n"),
            ("analyze", {"system": {"kind": "fixture", "name": "nope"}}, "system.name"),
            ("analyze", {"system": {"kind": "fixture", "name": "m1m2"}}, "system.name"),
            ("analyze", {"system": {"kind": "fixture", "name": "ring", "params": {"n": 1}}}, "system.params.n"),
            ("analyze", {"system": {"kind": "fixture", "name": "futile", "params": {"n": 2}}}, "system.params.n"),
            ("pne", {"game": {"fixture": "fig1"}}, "game.fixture"),
            ("pne", {"game": {"fixture": "nope"}}, "game.fixture"),
            ("analyze", {"system": {"kind": "snake", "n": 8}}, "system.n"),
            ("analyze", {"system": {"kind": "disjointness", "n": 8, "A": [1], "B": [2]}}, "system.n"),
        ],
        ids=[
            "majority-edge", "bgp-edge", "bgp-routes", "tm-read", "circuit-gate-inputs", "fixture-n",
            "fixture-params", "disjointness-A", "game-utilities", "game-utility-fraction", "game-utility-bool",
            "table-bool", "table-string", "table-float", "table-out-of-range", "periodic-int", "periodic-letter",
            "simulation-initial", "simulation-window-row", "simulation-initial-empty",
            "simulation-window-empty", "simulation-window-empty-row", "schedule-seed",
            "fixture-n-float", "fixture-unknown-param", "majority-edge-bool", "tm-read-bool", "tm-write-bool",
            "tm-move-bool", "circuit-input-bool", "circuit-table-float", "bgp-edge-bool", "disjointness-B-float",
            "version-bool", "spectrum-state-bool", "periodic-bool", "simulation-initial-bool", "random-p-bool",
            "fixture-n-not-taken", "unknown-system-fixture", "game-as-system", "ring-n-1", "futile-n-2",
            "system-as-game", "unknown-game-fixture", "snake-8", "disjointness-8",
        ],
    )
    def test_model_errors_name_their_block(self, tmp_path, command, source, field):
        """Each case is refused by the schema at its field, before any
        model is built."""
        if command == "simulate":
            scenario = dict(FIG1_ANALYZE, simulation=dict({"initial": [0, 1]}, **source))
        else:
            scenario = dict({"version": 1, "analysis": {"kind": "convergence"}}, **source)
        code, doc = invoke_json([command, "--scenario", write_scenario(tmp_path, scenario)])
        assert code == 2
        assert doc["error_kind"] == "SchemaError"
        assert doc["error"].startswith(f"{field}:")
        assert "cannot build the model" not in doc["error"]


# each system source's case: its spec, and the same system built from tuples and frozensets
BUILT_SYSTEMS = {
    "table": (
        {"kind": "table", "sizes": [2, 3], "table": [[(i + 1) % 2, i % 3] for i in range(6)]},
        lambda: HistorylessSystem.from_table(ActionSpace((2, 3)), [((i + 1) % 2, i % 3) for i in range(6)]),
    ),
    "circuit": (
        circuit_system(),  # gate g reads itself
        lambda: build_circuit(CircuitDescription(
            inputs=(("x", 1),), gates=(GateSpec(name="g", inputs=("x", "g"), table=(1, 0, 0, 1)),)
        )),
    ),
    "majority": (
        {"kind": "majority", "users": 3, "edges": [[1, 2], [2, 1], [3, 2]]},  # one edge twice
        lambda: build_majority(SocialGraph(n=3, edges=((1, 2), (2, 1), (3, 2)))),
    ),
    "bgp": (
        {
            "kind": "bgp",
            "dest": 0,
            "edges": [[1, 2], [1, 0], [0, 2]],
            "rankings": BGP_ROUTES,
            "export_deny": [{"as": 2, "route": [2, 0], "to": 1}],
        },
        lambda: build_bgp(BgpInstance(
            dest=0,
            edges=((1, 2), (1, 0), (0, 2)),
            rankings=((1, ((1, 2, 0), (1, 0))), (2, ((2, 1, 0), (2, 0)))),
            export_deny=((2, (2, 0), 1),),
        )),
    ),
    "tm": (
        tm_system(),
        lambda: build_tm(TMDescription(
            states=("q", "h"),
            halting=frozenset({"h"}),
            n_symbols=2,
            tape_cells=2,
            delta={("q", 0): ("q", 1, 1), ("q", 1): ("h", 1, 0)},
        )),
    ),
    "snake": ({"kind": "snake", "n": 5}, lambda: build_snake_system(5)),
    "disjointness": (
        {"kind": "disjointness", "n": 5, "A": [1, 3], "B": [3, 2]},
        lambda: build_disjointness(5, (1, 3), (3, 2)),
    ),
    "fixture": ({"kind": "fixture", "name": "ring", "params": {"n": 4}}, lambda: fixture("ring", n=4)),
}


class TestBuiltFromTheCheckedJson:
    """The constructors take the checked JSON's lists as they are: each
    source builds what the Python builders build from tuples and frozensets."""

    def test_every_system_kind_has_a_case(self):
        assert list(BUILT_SYSTEMS) == list(SYSTEMS)

    @pytest.mark.parametrize("kind", BUILT_SYSTEMS)
    def test_systems(self, kind):
        spec, build = BUILT_SYSTEMS[kind]
        doc = parse_scenario(json.dumps({"version": 1, "system": spec}))
        np.testing.assert_array_equal(cli._system_from_spec(doc["system"], None).reaction_rows(), build().reaction_rows())

    def test_game(self):
        spec = {"sizes": [2, 3], "utilities": [list(range(6)), list(range(6, 0, -1))]}
        game = cli._game_from_spec(parse_scenario(json.dumps({"version": 1, "game": spec}))["game"])
        assert game == Game(ActionSpace((2, 3)), (tuple(range(6)), tuple(range(6, 0, -1))))

    @pytest.mark.parametrize(
        "spec, schedule",
        [
            ({"kind": "synchronous"}, Synchronous()),
            ({"kind": "round-robin"}, RoundRobin()),
            (
                {"kind": "periodic", "cycle": [[1, 2], [2]], "prefix": [[1], [2, 1]]},
                Periodic(cycle=(frozenset({1, 2}), frozenset({2})), prefix=(frozenset({1}), frozenset({1, 2}))),
            ),
            ({"kind": "periodic", "cycle": [[2]]}, Periodic(cycle=(frozenset({2}),))),
            ({"kind": "explicit", "sets": [[2, 1], []]}, ExplicitList(sets=(frozenset({1, 2}), frozenset()))),
            ({"kind": "random", "p": 0.25, "seed": 5}, SeededRandom(seed=9, p=0.25)),
            ({"kind": "random"}, SeededRandom(seed=9, p=0.5)),
            ({"kind": "r-fair", "r": 3}, SeededRFair(seed=9, r=3)),
        ],
        ids=["synchronous", "round-robin", "periodic", "periodic-no-prefix", "explicit", "random", "random-p",
             "r-fair"],
    )
    def test_schedules(self, spec, schedule):
        """A seeded schedule draws from the seed it is given, not its own."""
        doc = parse_scenario(json.dumps(dict(FIG1_ANALYZE, simulation={"initial": [0, 1], "schedule": spec})))
        assert cli._schedule_from_spec(doc["simulation"]["schedule"], 9) == schedule


# ---------------------------------------------------------------------------
# Fuzzing: mutated valid scenarios end in a result document or an error
# document, never in a traceback
# ---------------------------------------------------------------------------

FUZZ_SCENARIOS = [
    ("analyze", FIG1_ANALYZE),
    (
        "analyze",
        {
            "version": 1,
            "system": {"kind": "fixture", "name": "ring", "params": {"n": 4}},
            "analysis": {"kind": "r-convergence", "r": 2},
        },
    ),
    (
        "analyze",
        {
            "version": 1,
            "system": {"kind": "table", "sizes": [2, 2], "table": [[0, 0], [1, 0], [0, 1], [1, 1]]},
            "analysis": {"kind": "spectrum", "state": [0, 1]},
        },
    ),
    (
        "analyze",
        {
            "version": 1,
            "system": {"kind": "majority", "users": 3, "edges": [[1, 2], [2, 3]]},
            "analysis": {"kind": "committed"},
        },
    ),
    (
        "analyze",
        {
            "version": 1,
            "system": {
                "kind": "circuit",
                "inputs": [{"name": "x", "value": 1}],
                "gates": [{"name": "g", "inputs": ["x", "g"], "table": [1, 0, 0, 1]}],
            },
            "analysis": {"kind": "convergence"},
        },
    ),
    (
        "analyze",
        {
            "version": 1,
            "system": {
                "kind": "bgp",
                "dest": 0,
                "edges": [[0, 1], [1, 2], [0, 2]],
                "rankings": [
                    {"as": 1, "routes": [[1, 2, 0], [1, 0]]},
                    {"as": 2, "routes": [[2, 1, 0], [2, 0]]},
                ],
            },
            "analysis": {"kind": "convergence"},
        },
    ),
    (
        "analyze",
        {
            "version": 1,
            "system": {
                "kind": "tm",
                "states": ["q", "h"],
                "halting": ["h"],
                "symbols": 2,
                "cells": 2,
                "delta": [
                    {"state": "q", "read": 0, "next": "q", "write": 1, "move": 1},
                    {"state": "q", "read": 1, "next": "h", "write": 1, "move": 0},
                ],
            },
            "analysis": {"kind": "convergence"},
        },
    ),
    (
        "analyze",
        {
            "version": 1,
            "system": {"kind": "disjointness", "n": 5, "A": [1], "B": [2]},
            "analysis": {"kind": "convergence"},
        },
    ),
    ("pne", {"version": 1, "game": {"sizes": [2, 2], "utilities": [[1, 0, 0, 1], [1, 0, 0, 1]]}}),
    (
        "uncoupled-check",
        {
            "version": 1,
            "game": {"sizes": [2, 2], "utilities": [[1, 0, 0, 1], [1, 0, 0, 1]]},
            "analysis": {"kind": "uncoupled-check", "protocol": "three-recall"},
        },
    ),
    ("build", {"version": 1, "system": {"kind": "majority", "users": 2, "edges": [[1, 2]]}}),
    (
        "simulate",
        dict(
            FIG1_ANALYZE,
            simulation={"initial": [0, 1], "schedule": {"kind": "periodic", "cycle": [[1], [2]]}, "max_steps": 50},
        ),
    ),
    (
        "simulate",
        dict(
            FIG1_ANALYZE,
            simulation={"initial": [0, 1], "schedule": {"kind": "r-fair", "r": 2, "seed": 3}, "max_steps": 50},
        ),
    ),
]

JUNK = ["x", -1, 0, 2, 7, 1.5, None, True, [], [5], [["a"]], {}, {"n": "x"}]
DELETE = object()


def field_paths(node, path=()):
    """The path of every value inside a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from field_paths(value, path + (key,))


def mutated(doc, path, value):
    if not path:
        return None if value is DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_scenarios_exit_with_a_json_document(data):
    command, doc = data.draw(st.sampled_from(FUZZ_SCENARIOS))
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        if not isinstance(doc, (dict, list)):
            break
        path = data.draw(st.sampled_from(list(field_paths(doc))))
        doc = mutated(doc, path, data.draw(st.sampled_from(JUNK + [DELETE])))
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "scenario.json"
        path.write_text(json.dumps(doc))
        code, text = invoke([command, "--scenario", str(path), "--budget", "4096"])
    assert code in {0, 2, 3, 10}
    assert isinstance(json.loads(text), dict)
