"""The benchmark's tracer still finds every library name it wraps."""

import importlib
import sys
import types
from pathlib import Path

import hinge.cli  # noqa: F401  (loads every hinge module the tracer looks in)
from hinge import bihinge, selfcheck, serialize

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    # compiled from the source text, so no bytecode is written next to it
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_trace_wrappers_resolve_install_and_restore():
    # every wrapped name resolves, install() finds the names it swaps by
    # hand, a traced completeness check runs and counts its ids, and
    # restore() puts the library back as it was
    spans = _spans_module()
    for mod, attr in (*spans.FUNCTIONS.values(), *spans.LOCAL.values()):
        assert callable(getattr(importlib.import_module(f"hinge.{mod}"), attr)), (mod, attr)
    for mod, cls, attrs in spans.METHODS.values():
        for attr in attrs:
            assert hasattr(getattr(importlib.import_module(f"hinge.{mod}"), cls), attr), (mod, cls, attr)
    originals = (selfcheck.check_completeness, selfcheck._grid_cell_ids, selfcheck.chi_cell)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert selfcheck._grid_cell_ids is not originals[1]
        ok, _ = selfcheck.check_completeness(2, 2)
    finally:
        restore()
    assert ok
    assert (selfcheck.check_completeness, selfcheck._grid_cell_ids, selfcheck.chi_cell) == originals
    totals = tracer.per_op()[-1]
    assert totals["selfcheck.completeness.cell_ids"] > 0
    assert "selfcheck.completeness.cell_intern" in totals


def _names():
    """Every name of every hinge module, and of the classes the tracer patches."""
    mods = [m for k, m in sys.modules.items() if (k == "hinge" or k.startswith("hinge.")) and m]
    spaces = [*mods, sys.modules["hinge.relations"].LinearRelation, sys.modules["hinge.field"].PrimeField]
    return {(space, attr): value for space in spaces for attr, value in vars(space).items()}


def test_traced_report_and_normalize_record_their_spans():
    # a report and a normalize on a small grid, traced, give the untraced
    # output and record the chi, cell_records and normalize spans; restore()
    # puts every name back
    spans = _spans_module()
    problem = serialize.problem_from_dict(
        {"modulus": 5, "alpha": [1, 2], "beta": [2, 1], "matrix": [[1, 2, 0], [3, 1, 4], [0, 2, 2]]})
    plain = serialize.dumps_json(serialize.invariant_report(problem))
    names = _names()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = serialize.dumps_json(serialize.invariant_report(problem))
        bihinge.normalize(bihinge.chi(problem.matrix, problem.alpha, problem.beta))
    finally:
        restore()
    assert traced == plain
    after = _names()
    assert after.keys() == names.keys() and all(after[k] is v for k, v in names.items())
    totals = tracer.per_op()[-1]
    assert {"bihinge.chi", "serialize.cell_records", "bihinge.normalize"} <= totals.keys()
