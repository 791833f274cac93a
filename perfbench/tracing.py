"""Per-layer tracing of asyncdyn from outside the package.

The traced run replaces public functions of the package's modules with
wrappers that record spans (name, start, end, parent span, item), and wraps
the reaction callables that builders return so that rule calls are counted
and timed.  Each wrapper is installed under the name the caller looks up at
call time: ``uncoupled.enumerate_pne`` as well as ``games.enumerate_pne``,
``analyze.successor_matrix`` for the calls inside ``analyze``.  A function
that does not exist is recorded as absent and its metrics stay 0.

Rule calls are not spans: their count and time are summed, and their time
counts as child time of the innermost open span.  A span's self time is its
duration minus the time its child spans and rule calls cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.item = 0
        self.stack = []  # open spans: [id, name, start, child seconds]
        self.spans = []  # closed spans: (id, parent id, name, start, end, item)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.values = defaultdict(float)
        self.absent = []
        self._next_id = 0
        self._saved = []

    def open(self, name: str) -> None:
        self.stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        self.spans.append((span_id, parent, name, start, end, self.item))

    def leaf(self, name: str, seconds: float) -> None:
        self.calls[name] += 1
        self.total_s[name] += seconds
        if self.stack:
            self.stack[-1][3] += seconds

    def install(self) -> None:
        for module_name, attr, make in HOOKS:
            module = importlib.import_module(f"asyncdyn.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                absent = f"{module_name}.{attr}"
                if absent not in self.absent:
                    self.absent.append(absent)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, make(self, fn))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "item")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def _span(name, observe=None):
    def make(tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    return make


def _counted(tracer, name, rule):
    def wrapped(*args):
        if not tracer.active:
            return rule(*args)
        t0 = perf_counter()
        result = rule(*args)
        tracer.leaf(name, perf_counter() - t0)
        return result

    return wrapped


def _with_counted_rule(span_name, rule_name):
    """A builder wrapper: a span around the builder, and a counting wrapper
    around the reaction callable of the system it returns."""
    spanned = _span(span_name)

    def make(tracer, fn):
        inner = spanned(tracer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            system = inner(*args, **kwargs)
            rule = getattr(system, "rule", None)
            if rule is None:
                return system
            return dataclasses.replace(system, rule=_counted(tracer, rule_name, rule))

        return wrapper

    return make


def _graph(tracer, succ):
    tracer.values["analyze.graph_entries"] += getattr(succ, "size", 0)
    tracer.values["analyze.graph_bytes"] += getattr(succ, "nbytes", 0)


def _verdict(tracer, verdict):
    witness = getattr(verdict, "witness", None)
    if witness is not None:
        tracer.values["analyze.nonconvergent"] += 1
        tracer.values["analyze.witness_len"] += len(witness.prefix) + len(witness.cycle)


_BUILD = _with_counted_rule("reductions.build", "reductions.rule")

# The public functions the workloads reach, under every name a caller looks up.
HOOKS = [
    ("reductions", "build_majority", _BUILD),
    ("reductions", "build_tm", _BUILD),
    ("analyze", "successor_matrix", _span("analyze.successor_matrix", _graph)),
    ("analyze", "decide_convergence", _span("analyze.decide_convergence", _verdict)),
    ("analyze", "stable_states", _span("analyze.stable_states")),
    ("analyze", "scc_count", _span("analyze.scc_count")),
    ("simulate", "replay_witness", _span("simulate.replay_witness")),
    ("games", "enumerate_pne", _span("games.enumerate_pne")),
    ("uncoupled", "enumerate_pne", _span("games.enumerate_pne")),
    ("uncoupled", "protocol_system", _with_counted_rule("uncoupled.protocol_system", "uncoupled.protocol_rule")),
    ("uncoupled", "check_self_stabilization", _span("uncoupled.check_self_stabilization")),
    ("uncoupled", "check_self_stabilization_randomized", _span("uncoupled.check_randomized")),
    ("cli", "run_command", _span("cli.run_command")),
]


def layer_metrics(tracer: Tracer, items: int) -> dict:
    """Per-layer metrics as per-item means over the traced items; a time
    named ``*_self_s`` is self time, any other ``*_s`` is span duration."""
    per = 1.0 / max(items, 1)
    c, t, s, v = tracer.calls, tracer.total_s, tracer.self_s, tracer.values
    witnesses = v["analyze.nonconvergent"]
    rows = {
        "reductions.rule_calls": (c["reductions.rule"] * per, "count"),
        "reductions.rule_s": (t["reductions.rule"] * per, "s"),
        "reductions.build_s": (t["reductions.build"] * per, "s"),
        "analyze.successor_matrix_calls": (c["analyze.successor_matrix"] * per, "count"),
        "analyze.successor_matrix_s": (t["analyze.successor_matrix"] * per, "s"),
        "analyze.graph_entries": (v["analyze.graph_entries"] * per, "count"),
        "analyze.graph_bytes": (v["analyze.graph_bytes"] * per, "bytes"),
        "analyze.decide_convergence_self_s": (s["analyze.decide_convergence"] * per, "s"),
        "analyze.stable_states_self_s": (s["analyze.stable_states"] * per, "s"),
        "analyze.scc_count_self_s": (s["analyze.scc_count"] * per, "s"),
        "analyze.sccs": (v["analyze.sccs"] * per, "count"),
        "analyze.nonconvergent": (witnesses * per, "count"),
        "analyze.witness_len": (v["analyze.witness_len"] / witnesses if witnesses else 0.0, "count"),
        "simulate.replays": (c["simulate.replay_witness"] * per, "count"),
        "simulate.replay_witness_s": (t["simulate.replay_witness"] * per, "s"),
        "games.enumerate_pne_calls": (c["games.enumerate_pne"] * per, "count"),
        "games.enumerate_pne_s": (t["games.enumerate_pne"] * per, "s"),
        "uncoupled.protocol_rule_calls": (c["uncoupled.protocol_rule"] * per, "count"),
        "uncoupled.protocol_rule_s": (t["uncoupled.protocol_rule"] * per, "s"),
        "uncoupled.check_self_stabilization_self_s": (s["uncoupled.check_self_stabilization"] * per, "s"),
        "uncoupled.check_randomized_self_s": (s["uncoupled.check_randomized"] * per, "s"),
        "cli.requests": (c["cli.run_command"] * per, "count"),
        "cli.run_command_self_s": (s["cli.run_command"] * per, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()}
