"""The benchmark's ground-truth ops pass its output checks."""

import json
import types
from pathlib import Path

from hinge.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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
