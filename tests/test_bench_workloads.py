"""The benchmark's ops pass its output checks."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

from hinge.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"


def _workloads_module():
    # compiled from the source text, so no bytecode is written next to it
    module = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def test_ground_truth_selfcheck_prints_every_pinned_line(capsys):
    # the benchmark counts the op as incorrect unless every line but the
    # last is a PASS, the last is "all checks passed", and each pinned
    # fragment appears in some line: a selfcheck text change that breaks
    # this fails here first
    op = next(op for op in _workloads_module().ground_truth_ops(1) if op["kind"] == "selfcheck")
    assert main(["selfcheck", *op["args"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "all checks passed"
    assert all(line.startswith("PASS ") for line in lines[:-1]), lines
    assert op["lines"] and all(any(want in line for line in lines) for want in op["lines"]), (op["lines"], lines)


def test_ground_truth_counts_pass_the_benchmark_check(capsys):
    # both count ops, with the arguments bench/run.py passes and the JSON it
    # requires: the brute count and the formula agree on the known answer
    ops = [op for op in _workloads_module().ground_truth_ops(1) if op["kind"] == "count"]
    assert len(ops) == 2
    for op in ops:
        argv = ["count", "--alpha", ",".join(map(str, op["alpha"])), "--beta", ",".join(map(str, op["beta"])),
                "-q", str(op["q"]), "--brute", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"predicted": op["expect"], "brute": op["expect"], "match": True}


def test_traced_grid_fine_run_is_correct_and_reports_every_layer():
    # one traced pass of the benchmark itself, run from the repo root: its
    # probes (rref, rank, rank_profile_permutation, inv_table), its hinge_act
    # check of the normal form and its spans all still read the library, so
    # a deletion from the library cannot break the benchmark unseen
    argv = [sys.executable, "bench/run.py", "--workload", "grid-fine", "--seed", "1", "--seconds", "0", "--trace", "1"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, env=env, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= last["metrics"].keys()
