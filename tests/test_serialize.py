"""Problem files, invariant reports and their round trips."""

import json
import random
import types
from pathlib import Path

import numpy as np
import pytest

from hinge import bihinge, linalg, relations
from hinge.bihinge import BiHinge, Composition, DimensionMatrix, MarginError, chi, standard_bihinge
from hinge.field import PrimeField
from hinge.linalg import Matrix
from hinge.relations import LinearRelation
from hinge.selfcheck import random_composition, random_invertible, random_unitriangular
from hinge.serialize import (
    HeaderMismatchError,
    Problem,
    ProblemFormatError,
    check_same_header,
    dumps_json,
    invariant_report,
    load_problem,
    problem_from_dict,
    render_matrix_rows,
    render_text,
    standard_report,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

GOOD = {
    "modulus": 2,
    "alpha": [1, 1],
    "beta": [1, 1],
    "matrix": [[1, 1], [0, 1]],
}


def test_problem_round_trip():
    p = problem_from_dict(GOOD)
    assert p.field.p == 2
    assert p.alpha.parts == (1, 1) and p.beta.parts == (1, 1)
    assert p.matrix.to_rows() == [[1, 1], [0, 1]]
    data = {
        "modulus": p.field.p,
        "alpha": list(p.alpha.parts),
        "beta": list(p.beta.parts),
        "matrix": p.matrix.to_rows(),
    }
    assert problem_from_dict(data) == p


def test_entries_reduced_on_load():
    data = dict(GOOD, matrix=[[3, -1], [10, 1]])
    p = problem_from_dict(data)
    assert p.matrix.to_rows() == [[1, 1], [0, 1]]


def test_missing_and_bad_fields():
    for key in ("modulus", "alpha", "beta", "matrix"):
        broken = {k: v for k, v in GOOD.items() if k != key}
        with pytest.raises(ProblemFormatError, match=key):
            problem_from_dict(broken)
    with pytest.raises(ProblemFormatError, match="modulus"):
        problem_from_dict(dict(GOOD, modulus=4))
    with pytest.raises(ProblemFormatError, match="modulus"):
        problem_from_dict(dict(GOOD, modulus="2"))
    with pytest.raises(ProblemFormatError, match="alpha"):
        problem_from_dict(dict(GOOD, alpha=[1, "1"]))
    with pytest.raises(ProblemFormatError, match="matrix"):
        problem_from_dict(dict(GOOD, matrix=[[1, 1], [0]]))
    for bad, shown in ((True, "True"), (1.5, "1.5"), ("3", "'3'")):
        message = f"field 'matrix' must contain only ints, got {shown}"
        with pytest.raises(ProblemFormatError) as info:
            problem_from_dict(dict(GOOD, matrix=[[1, 1], [0, bad]]))
        assert str(info.value) == message
    # the first offender in row-major order is the one named
    with pytest.raises(ProblemFormatError, match="got 2.5$"):
        problem_from_dict(dict(GOOD, matrix=[[1, 2.5], [False, 1]]))
    with pytest.raises(ProblemFormatError):
        problem_from_dict([1, 2, 3])


def test_margin_mismatch_is_margin_error():
    with pytest.raises(MarginError):
        problem_from_dict(dict(GOOD, alpha=[1, 1, 1], beta=[1, 1, 1]))


def test_singular_matrix_accepted_at_load():
    # invertibility is a per-command requirement, not a parse requirement
    p = problem_from_dict(dict(GOOD, matrix=[[1, 1], [1, 1]]))
    assert p.matrix.rank() == 1


def test_load_problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(GOOD), encoding="utf-8")
    assert load_problem(str(path)) == problem_from_dict(GOOD)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ProblemFormatError, match="invalid JSON"):
        load_problem(str(bad))


def test_check_same_header():
    a = problem_from_dict(GOOD)
    b = problem_from_dict(dict(GOOD, matrix=[[0, 1], [1, 0]]))
    check_same_header(a, b)  # no error
    c = problem_from_dict(dict(GOOD, modulus=3))
    with pytest.raises(HeaderMismatchError):
        check_same_header(a, c)
    d = problem_from_dict({"modulus": 2, "alpha": [2], "beta": [1, 1], "matrix": GOOD["matrix"]})
    with pytest.raises(HeaderMismatchError):
        check_same_header(a, d)


def parsed(report):
    """A report as a reader of `hinge invariants --format json` sees it."""
    return json.loads(dumps_json(report))


def grid_of(report):
    """The relation grid spanned by a parsed report's basis rows."""
    field = PrimeField(report["modulus"])
    grid = [[None] * len(report["beta"]) for _ in report["alpha"]]
    for cell in report["cells"]:
        dim_x, dim_y = cell["dim_x"], cell["dim_y"]
        rows = np.array(cell["basis"], dtype=np.int64).reshape(-1, dim_x + dim_y)
        grid[cell["i"] - 1][cell["j"] - 1] = LinearRelation(dim_x, dim_y, Matrix(field, rows))
    return BiHinge(report["alpha"], report["beta"], grid)


def test_report_reconstructs_the_grid():
    p = problem_from_dict(
        {
            "modulus": 3,
            "alpha": [2, 1],
            "beta": [1, 2],
            "matrix": [[1, 2, 0], [0, 1, 1], [2, 0, 1]],
        }
    )
    report = parsed(invariant_report(p))
    assert report["modulus"] == 3
    assert report["alpha"] == [2, 1] and report["beta"] == [1, 2]
    assert grid_of(report) == chi(p.matrix, p.alpha, p.beta)


def test_report_dimensions_consistent():
    p = problem_from_dict(GOOD)
    report = parsed(invariant_report(p))
    for cell in report["cells"]:
        assert cell["dom_dim"] - cell["ker_dim"] == cell["im_dim"] - cell["indef_dim"]
        assert len(cell["theta"]) == cell["dom_dim"] - cell["ker_dim"]
    assert len(report["canonical"]) == 2


def test_dumps_json_deterministic_and_valid():
    p = problem_from_dict(GOOD)
    report = invariant_report(p)
    text = dumps_json(report)
    assert text == dumps_json(invariant_report(p))
    assert json.loads(text) == oracle_report(report, chi(p.matrix, p.alpha, p.beta))
    assert "\n" not in text


def test_render_helpers():
    assert render_matrix_rows([[1, 0], [2, 1]]) == "1 0\n2 1"


def test_render_text_shape():
    p = problem_from_dict(GOOD)
    text = render_text(invariant_report(p))
    assert text.startswith("modulus 2\nalpha 1 1\nbeta 1 1\ndimension matrix:")
    assert "chi[1,1]" in text and "chi[2,2]" in text
    assert "canonical 0-1 matrix:" in text
    assert "theta" in text


def test_problem_is_hashable_value_object():
    a = problem_from_dict(GOOD)
    b = problem_from_dict(GOOD)
    assert a == b
    assert isinstance(a, Problem)


def test_invariant_report_runs_without_generic_elimination(monkeypatch):
    # chi's cells, X first and Y first, are back-substituted from its one
    # column pass: the report of a coarse problem needs no pivot search
    rng = np.random.default_rng(41)
    p, n = 65521, 12
    matrix = rng.integers(0, p, (n, n))
    while Matrix(PrimeField(p), matrix).rank() < n:
        matrix = rng.integers(0, p, (n, n))
    problem = problem_from_dict({"modulus": p, "alpha": [5, 4, 3], "beta": [2, 6, 4], "matrix": matrix.tolist()})
    want = invariant_report(problem)

    refuse_generic_elimination(monkeypatch)
    with pytest.raises(AssertionError):
        problem.matrix.rank()
    assert dumps_json(invariant_report(problem)) == dumps_json(want)


def refuse_generic_elimination(monkeypatch):
    """Make every pivot-searching reduction raise, wherever it is bound."""
    def refused(*args, **kwargs):
        raise AssertionError("generic elimination called")

    for module, name in ((linalg, "_rref"), (linalg, "_rref_stack"), (linalg, "_rref_each"), (relations, "_rref_each")):
        monkeypatch.setattr(module, name, refused)
    for module in (bihinge, relations):
        assert not {"_rref", "_rref_stack"} & vars(module).keys()
    assert "_rref_each" not in vars(bihinge)


def test_normalize_and_equivalent_run_without_generic_elimination(monkeypatch):
    # normalize's witnesses and equivalent's verdicts come from the column
    # pass by back-substitution alone, on coarse and finest compositions
    rng = random.Random(43)
    field = PrimeField(65521)
    cases = []
    for alpha, beta in (((5, 4, 3), (2, 6, 4)), ((1,) * 8, (1,) * 8), ((7, 2, 3), (1,) * 12)):
        n = sum(alpha)
        a = random_invertible(field, n, rng)
        partners = [
            random_unitriangular(beta, field, rng, lower=True) * a * random_unitriangular(alpha, field, rng, lower=False),
            a * Matrix(field, np.diag([rng.randrange(1, field.p) for _ in range(n)])),
            random_invertible(field, n, rng),
        ]
        h = chi(a, alpha, beta)
        want = [[g.to_rows() for g in side] for side in bihinge.normalize(h)[:2]]
        verdicts = [chi(b, alpha, beta) == h for b in partners]
        cases.append((a, alpha, beta, want, partners, verdicts))
    assert [v for *_, verdicts in cases for v in verdicts].count(True) == len(cases)  # the l a u partners only
    refuse_generic_elimination(monkeypatch)
    for a, alpha, beta, want, partners, verdicts in cases:
        assert [[g.to_rows() for g in side] for side in bihinge.normalize(chi(a, alpha, beta))[:2]] == want
        assert [bihinge.equivalent(a, b, alpha, beta) for b in partners] == verdicts


# Test-only oracles for the report writer: each cell as a dict of nested
# lists, read off the grid's _bases() and derived(), and the desk text of a
# report holding such dicts, written one cell at a time.


def oracle_cells(h: BiHinge) -> list:
    q = len(h.beta)
    dv = h.derived()
    ker, dom, im, indef = dv.dims.tolist()
    columns = zip(h._bases(), ker, dom, indef, im, dv.theta.tolist())
    cells = []
    for k, (basis, ker, dom, indef, im, theta) in enumerate(columns):
        i, j = divmod(k, q)
        d = dom - ker
        cells.append(
            {
                "i": i + 1,
                "j": j + 1,
                "dim_x": h.alpha.parts[i],
                "dim_y": h.beta.parts[j],
                "basis": basis,
                "ker_dim": ker,
                "dom_dim": dom,
                "indef_dim": indef,
                "im_dim": im,
                "theta": [row[:d] for row in theta[:d]],
            }
        )
    return cells


def oracle_report(report: dict, h: BiHinge) -> dict:
    return {**report, "cells": oracle_cells(h)}


def _join(values) -> str:
    return " ".join(map(str, values))


def oracle_cell_lines(cell: dict) -> list:
    lines = [
        f"chi[{cell['i']},{cell['j']}]  ker={cell['ker_dim']} dom={cell['dom_dim']} "
        f"indef={cell['indef_dim']} im={cell['im_dim']}"
    ]
    dim_x = cell["dim_x"]
    lines.extend(f"  ({_join(row[:dim_x])} | {_join(row[dim_x:])})" for row in cell["basis"])
    if not cell["basis"]:
        lines.append("  (zero relation)")
    theta = cell["theta"]
    size = len(theta)
    lines.append(f"  theta {size}x{size}" + ("" if size == 0 else ":"))
    lines.extend("    " + _join(row) for row in theta)
    return lines


def oracle_text(report: dict) -> str:
    labels = {"matrix": "standard matrix:", "dimension_matrix": "dimension matrix:", "canonical": "canonical 0-1 matrix:"}
    lines = [f"modulus {report['modulus']}", f"alpha {_join(report['alpha'])}", f"beta {_join(report['beta'])}"]
    for key, value in report.items():
        if key == "cells":
            for cell in value:
                lines.extend(oracle_cell_lines(cell))
        elif key in labels:
            lines.append(labels[key])
            lines.extend("  " + _join(row) for row in value)
    return "\n".join(lines)


def assert_written_as_oracle(report: dict, h: BiHinge):
    want = oracle_report(report, h)
    assert dumps_json(report) == json.dumps(want, separators=(", ", ": "))
    assert render_text(report) == oracle_text(want)
    return want["cells"]


def test_writer_matches_oracle_on_the_benchmark_inputs(tmp_path):
    # the invariants inputs of seeds 1-3 of both grid workloads
    workloads = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), workloads.__dict__)
    for name in ("grid-fine", "grid-coarse"):
        for seed in (1, 2, 3):
            workdir = tmp_path / f"{name}-{seed}"
            workdir.mkdir()
            for op in workloads.make_ops(name, seed, str(workdir)):
                if op["kind"] == "invariants":
                    p = load_problem(op["files"][0])
                    assert_written_as_oracle(invariant_report(p), chi(p.matrix, p.alpha, p.beta))


def test_writer_matches_oracle_on_random_grids():
    # finest and coarse compositions over GF(2), GF(3) and GF(65521)
    rng = random.Random(31)
    shapes = set()
    for q in (2, 3, 65521):
        field = PrimeField(q)
        for n in (1, 2, 5, 9, 14):
            for finest in (True, False):
                alpha, beta = (Composition([1] * n),) * 2 if finest else (random_composition(n, rng), random_composition(n, rng))
                p = Problem(field, alpha, beta, random_invertible(field, n, rng))
                cells = assert_written_as_oracle(invariant_report(p), chi(p.matrix, alpha, beta))
                shapes.update((c["dim_x"], c["dim_y"]) for c in cells)
    assert (1, 1) in shapes and any(x > 2 and y > 2 for x, y in shapes)


def test_writer_matches_oracle_on_standard_grids():
    # the cases hold zero relations, full relations and a 5 x 5 theta
    cases = [
        ([[1, 0], [0, 1]], (1, 1), (1, 1), 2),
        ([[0, 1, 1], [1, 1, 0]], (2, 2), (1, 2, 1), 3),
        ([[5, 0], [0, 2]], (5, 2), (5, 2), 7),
        ([[2, 1, 0], [0, 1, 3]], (3, 4), (2, 2, 3), 65521),
    ]
    ranks, thetas = set(), set()
    for rows, alpha, beta, q in cases:
        d = DimensionMatrix(rows, alpha, beta)
        cells = assert_written_as_oracle(standard_report(d, PrimeField(q)), standard_bihinge(d, PrimeField(q)))
        ranks.update("zero" if not c["basis"] else "full" if len(c["basis"]) == c["dim_x"] + c["dim_y"] else "part"
                     for c in cells)
        thetas.update(len(c["theta"]) for c in cells)
    assert ranks == {"zero", "full", "part"} and max(thetas) == 5
