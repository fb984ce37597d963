"""Problem files, invariant reports and their round trips."""

import json

import numpy as np
import pytest

from hinge import bihinge, linalg, relations
from hinge.bihinge import BiHinge, MarginError, chi
from hinge.field import PrimeField
from hinge.linalg import Matrix
from hinge.relations import LinearRelation
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
    render_relation_rows,
    render_text,
)

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


def grid_of(report):
    """The relation grid spanned by a report's basis rows."""
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
    report = invariant_report(p)
    assert report["modulus"] == 3
    assert report["alpha"] == [2, 1] and report["beta"] == [1, 2]
    rebuilt = grid_of(report)
    assert rebuilt == chi(p.matrix, p.alpha, p.beta)
    # report survives an actual JSON round trip
    rebuilt2 = grid_of(json.loads(dumps_json(report)))
    assert rebuilt2 == rebuilt


def test_report_dimensions_consistent():
    p = problem_from_dict(GOOD)
    report = invariant_report(p)
    for cell in report["cells"]:
        assert cell["dom_dim"] - cell["ker_dim"] == cell["im_dim"] - cell["indef_dim"]
        assert len(cell["theta"]) == cell["dom_dim"] - cell["ker_dim"]
    assert len(report["canonical"]) == 2


def test_dumps_json_deterministic_and_valid():
    p = problem_from_dict(GOOD)
    report = invariant_report(p)
    text = dumps_json(report)
    assert text == dumps_json(invariant_report(p))
    assert json.loads(text) == report
    assert "\n" not in text


def test_render_helpers():
    assert render_matrix_rows([[1, 0], [2, 1]]) == "1 0\n2 1"
    rows = render_relation_rows([[0, 1, 0, 0, 1, 0, 0]], 3)
    assert rows == ["(0 1 0 | 0 1 0 0)"]


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

    def refused(*args, **kwargs):
        raise AssertionError("generic elimination called")

    for module, name in ((linalg, "_rref"), (linalg, "_rref_stack"), (linalg, "_rref_each"),
                         (bihinge, "_rref_each"), (relations, "_rref_each")):
        monkeypatch.setattr(module, name, refused)
    with pytest.raises(AssertionError):
        problem.matrix.rank()
    assert invariant_report(problem) == want
