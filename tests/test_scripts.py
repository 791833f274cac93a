"""Smoke tests of the experiment scripts, each run as a subprocess, and
in-process checks of how r_thresholds.py builds its rows."""

import importlib.util
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, budget=None):
    env = {k: v for k, v in os.environ.items() if k != "ASYNCDYN_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if budget is not None:
        env["ASYNCDYN_BUDGET"] = budget
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def ring_cells(stdout):
    """{n: {r: cell}} from the ring rows of r_thresholds.py."""
    rows = {}
    for n, cells in re.findall(r"^ring n=(\d+):(.*)$", stdout, re.M):
        rows[int(n)] = {int(r): c for r, c in re.findall(r"r=(\d+):(\w+)", cells)}
    return rows


def test_r_thresholds_ring_flips_at_n_minus_1():
    proc = run_script("r_thresholds.py", "--max-ring", "4")
    assert proc.returncode == 0, proc.stderr
    rows = ring_cells(proc.stdout)
    assert sorted(rows) == [3, 4]
    for n, cells in rows.items():
        assert cells == {r: "conv" if r < n - 1 else "osc" for r in range(1, n + 1)}
    assert re.search(r"snake n=5 \(\|S\|=6\):\s+r=5:conv\s+r=6:osc", proc.stdout)
    assert re.search(r"snake n=6 \(\|S\|=8\):\s+r=7:conv\s+r=8:osc", proc.stdout)


def test_r_thresholds_reports_budget_cells():
    """At a budget of 900 the ring n=4 product at r=4, which examines 932
    transitions, reads budget, and so do the snake rows, whose graphs do not
    fit."""
    proc = run_script("r_thresholds.py", "--max-ring", "4", budget="900")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert ring_cells(proc.stdout)[4][4] == "budget"
    assert re.search(r"r=6:budget", proc.stdout)


def test_r_thresholds_snake_7_at_the_default_budget():
    """The snake n=7 row (|S| = 14) is decided at the default budget: its
    products examine about 33K and 41K transitions."""
    proc = run_script("r_thresholds.py", "--max-ring", "3", "--snake-nodes", "7")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"snake n=7 \(\|S\|=14\):\s+r=13:conv\s+r=14:osc", proc.stdout)


def test_r_thresholds_compiles_each_row_once(monkeypatch):
    """Each row compiles its system once and decides every r on that graph;
    where the compile exceeds the budget, every cell of the row reads
    budget."""
    spec = importlib.util.spec_from_file_location("r_thresholds", ROOT / "scripts" / "r_thresholds.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    compiled = []
    compile_once = script.transition_graph
    monkeypatch.setattr(script, "transition_graph", lambda system: compiled.append(system) or compile_once(system))
    monkeypatch.delenv("ASYNCDYN_BUDGET", raising=False)
    assert script.ring_row(5) == "ring n=5:  r=1:conv  r=2:conv  r=3:conv  r=4:osc   r=5:osc "
    assert re.match(r"snake n=5 \(\|S\|=6\):  r=5:conv  r=6:osc  \(", script.snake_row(5))
    assert len(compiled) == 2
    monkeypatch.setenv("ASYNCDYN_BUDGET", "10")
    assert script.ring_row(4) == "ring n=4:  r=1:budget  r=2:budget  r=3:budget  r=4:budget"
    assert len(compiled) == 3


def test_r_thresholds_refuses_snake_rows_beyond_7():
    """A snake n=8 row would need a snake of Q_6, past the Q_2 .. Q_5 that
    the snake search covers: the script refuses the size at once, with a
    usage message."""
    t0 = time.perf_counter()
    proc = run_script("r_thresholds.py", "--snake-nodes", "8")
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:") and "--snake-nodes" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_r_thresholds_progress_goes_to_stderr_only():
    """``--progress`` prints the rows done and the time elapsed to stderr
    after each row and leaves stdout as it was, apart from the run times."""
    args = ("--max-ring", "4", "--snake-nodes", "5")
    plain = run_script("r_thresholds.py", *args)
    shown = run_script("r_thresholds.py", *args, "--progress")
    assert shown.returncode == 0, shown.stderr
    untimed = [re.sub(r"\(\d+\.\ds\)$", "", p.stdout, flags=re.M) for p in (plain, shown)]
    assert untimed[0] == untimed[1] and "snake n=5" in untimed[0]
    assert plain.stderr == ""
    lines = shown.stderr.splitlines()
    assert [line.split(",")[0] for line in lines] == ["1/3 rows", "2/3 rows", "3/3 rows"]
    assert all(re.fullmatch(r"\d/3 rows, \d+\.\ds elapsed", line) for line in lines)


def test_tm_equivalence_single_state_machines():
    proc = run_script("tm_equivalence.py", "--max-states", "1")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"144 machines: .* halts-or-freezes -> 0 mismatches", proc.stdout)


def test_tm_equivalence_progress_goes_to_stderr_only():
    """``--progress`` prints one rate-and-ETA line per batch to stderr and
    leaves stdout as it was, apart from the run time it ends with."""
    plain = run_script("tm_equivalence.py", "--max-states", "1")
    shown = run_script("tm_equivalence.py", "--max-states", "1", "--progress")
    assert shown.returncode == 0, shown.stderr
    untimed = [re.sub(r"\(\d+s\)$", "", p.stdout.rstrip("\n")) for p in (plain, shown)]
    assert untimed[0] == untimed[1] and "144 machines:" in untimed[0]
    assert plain.stderr == ""
    assert re.fullmatch(r"144/144 machines, \d+ machines/s, ETA 0s\n", shown.stderr)


def test_stabilization_grid_progress_goes_to_stderr_only():
    """``--progress`` prints one games-rate-and-ETA line per batch of the
    exhaustive 2x2 sweep (81 batches of 81 games) to stderr and leaves stdout
    as it was, apart from the run times."""
    plain = run_script("stabilization_grid.py")
    shown = run_script("stabilization_grid.py", "--progress")
    assert shown.returncode == 0, shown.stderr
    untimed = [re.sub(r"\((\d+|\d+\.\d)s\)$", "", p.stdout, flags=re.M) for p in (plain, shown)]
    assert untimed[0] == untimed[1] and "three-recall on all 6561 2x2 games" in untimed[0]
    assert plain.stderr == ""
    lines = shown.stderr.splitlines()
    assert len(lines) == 81
    assert all(re.fullmatch(r"\d+/6561 games, \d+ games/s, ETA \d+s", line) for line in lines)
    assert lines[-1].startswith("6561/6561 games,") and lines[-1].endswith(" ETA 0s")


def test_stabilization_grid_default_run():
    proc = run_script("stabilization_grid.py")
    assert proc.returncode == 0, proc.stderr
    assert re.search(
        r"three-recall on all 6561 2x2 games: \{'self-stabilizing': 6399, 'fails': 0, 'no-pne': 162\}",
        proc.stdout,
    )
    sweeps = re.findall(r"^(two-recall|stay-or-roll) on \d+ random .*: (\d+) failures", proc.stdout, re.M)
    assert len(sweeps) == 5 and all(fails == "0" for _, fails in sweeps)
    assert "stay-or-roll on the 2x2x2 fixture game: Fails, witness (1, 1, 2)" in proc.stdout


def test_stabilization_grid_all_masks_2x2():
    """The 81 realizable 2x2 masks: two have no PNE, and every other one
    self-stabilizes under 3-recall and under stay-or-roll."""
    proc = run_script("stabilization_grid.py", "--all-masks", "2x2")
    assert proc.returncode == 0, proc.stderr
    for protocol in ("three-recall", "stay-or-roll"):
        assert re.search(
            rf"^{protocol} on all 81 2x2 masks: \{{'self-stabilizing': 79, 'fails': 0, 'no-pne': 2\}}; "
            r"least failing mask: none \(\d+\.\ds\)$",
            proc.stdout, re.M,
        )
    assert "two-recall on all" not in proc.stdout


def test_stabilization_grid_all_masks_of_one_node():
    """A one-node game is at a PNE wherever its node best-responds, so each
    of the 7 masks of a three-action node self-stabilizes."""
    proc = run_script("stabilization_grid.py", "--all-masks", "3")
    assert proc.returncode == 0, proc.stderr
    for protocol in ("three-recall", "stay-or-roll"):
        assert re.search(
            rf"^{protocol} on all 7 3 masks: \{{'self-stabilizing': 7, 'fails': 0, 'no-pne': 0\}}; ",
            proc.stdout, re.M,
        )


def test_stabilization_grid_refuses_a_shape_with_too_many_masks():
    proc = run_script("stabilization_grid.py", "--all-masks", "2x2x2x2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:") and "--all-masks" in proc.stderr
    assert proc.stdout == ""
