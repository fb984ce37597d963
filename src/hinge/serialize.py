"""Problem files and invariant reports: JSON in, JSON or desk text out."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bihinge import BiHinge, Composition, DimensionMatrix, MarginError, chi, dimension_matrix, standard_bihinge, standard_matrix
from .field import PrimeField
from .linalg import Matrix, _integers


class ProblemFormatError(ValueError):
    """A problem file is malformed; the message names the offending field."""


class HeaderMismatchError(ValueError):
    """Two problems disagree on modulus or compositions."""


@dataclass(frozen=True)
class Problem:
    """A parsed problem: field, column and row compositions, and the matrix."""

    field: PrimeField
    alpha: Composition
    beta: Composition
    matrix: Matrix

    def header(self) -> tuple:
        return self.field.p, self.alpha.parts, self.beta.parts


def _int_list(value, name: str) -> list:
    if not isinstance(value, list) or not value:
        raise ProblemFormatError(f"field '{name}' must be a nonempty list of ints")
    out = []
    for v in value:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ProblemFormatError(f"field '{name}' must contain only ints, got {v!r}")
        out.append(v)
    return out


def problem_from_dict(data: dict) -> Problem:
    """Validate and normalize one problem dict.

    Matrix entries are ints of any size, reduced mod the modulus by Matrix;
    invertibility is not checked, commands that need it fail on use.
    """
    if not isinstance(data, dict):
        raise ProblemFormatError("problem must be a JSON object")
    for key in ("modulus", "alpha", "beta", "matrix"):
        if key not in data:
            raise ProblemFormatError(f"field '{key}' is missing")
    modulus = data["modulus"]
    if not isinstance(modulus, int) or isinstance(modulus, bool):
        raise ProblemFormatError("field 'modulus' must be an int")
    try:
        field = PrimeField(modulus)
    except ValueError as exc:
        raise ProblemFormatError(f"field 'modulus': {exc}") from None
    alpha_parts = _int_list(data["alpha"], "alpha")
    beta_parts = _int_list(data["beta"], "beta")
    try:
        alpha = Composition(alpha_parts)
        beta = Composition(beta_parts)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    rows = data["matrix"]
    if not isinstance(rows, list) or not rows:
        raise ProblemFormatError("field 'matrix' must be a nonempty list of rows")
    n = len(rows)
    for r in rows:
        if not isinstance(r, list) or len(r) != n:
            raise ProblemFormatError(f"field 'matrix' must be square, got a row of length {len(r) if isinstance(r, list) else '?'} in {n} rows")
    try:
        entries = _integers(rows, "field 'matrix' must contain only ints")
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    if alpha.n != n or beta.n != n:
        raise MarginError(
            f"matrix is {n} x {n} but alpha sums to {alpha.n} and beta to {beta.n}"
        )
    return Problem(field, alpha, beta, Matrix(field, entries))


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON in {path}: {exc}") from None
    return problem_from_dict(data)


def check_same_header(a: Problem, b: Problem):
    if a.header() != b.header():
        raise HeaderMismatchError(
            f"headers differ: modulus/alpha/beta {a.header()} vs {b.header()}"
        )


def cell_records(h: BiHinge) -> list:
    """JSON-ready per-cell records of a grid, in row-major cell order.

    Cells carry 1-based block indices, the RREF basis rows of the relation
    (xi coordinates first), the four subspace dimensions and the theta matrix.
    """
    q = len(h.beta)
    dv = h.derived()
    ker, dom, im, indef = dv.dims.tolist()
    most = max(dv.dims[1] - dv.dims[0])
    columns = zip(h._bases(), ker, dom, indef, im, dv.theta[:, :most, :most].tolist())
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


def report_header(field: PrimeField, alpha: Composition, beta: Composition) -> dict:
    """The fields every report opens with: modulus and both compositions."""
    return {"modulus": field.p, "alpha": list(alpha.parts), "beta": list(beta.parts)}


def invariant_report(problem: Problem) -> dict:
    """The full invariant of a problem as one JSON-ready dict.

    Each cell's basis rows span its relation, so the grid can be rebuilt
    from the report.  The canonical 0-1 matrix is standard_matrix of the
    grid's dimension table, as canonical_01 computes it, without a second
    column elimination pass.
    """
    h = chi(problem.matrix, problem.alpha, problem.beta)
    d = dimension_matrix(h)
    return {
        **report_header(problem.field, problem.alpha, problem.beta),
        "dimension_matrix": d.to_rows(),
        "cells": cell_records(h),
        "canonical": standard_matrix(d, problem.field).to_rows(),
    }


def standard_report(d: DimensionMatrix, field: PrimeField) -> dict:
    """The standard 0-1 matrix of a dimension table, then its grid."""
    return {
        **report_header(field, d.alpha, d.beta),
        "matrix": standard_matrix(d, field).to_rows(),
        "dimension_matrix": d.to_rows(),
        "cells": cell_records(standard_bihinge(d, field)),
    }


def dumps_json(data: dict) -> str:
    """Deterministic JSON: fixed insertion order, no whitespace variation."""
    return json.dumps(data, separators=(", ", ": "), sort_keys=False)


def _join(values) -> str:
    return " ".join(map(str, values))


def render_matrix_rows(rows: list) -> str:
    return "\n".join(map(_join, rows))


def render_relation_rows(rows: list, dim_x: int) -> list:
    """Rows printed in the (xi ; eta) split used for desk checking."""
    return [f"({_join(row[:dim_x])} | {_join(row[dim_x:])})" for row in rows]


def _cell_lines(cell: dict) -> list:
    lines = [
        f"chi[{cell['i']},{cell['j']}]  ker={cell['ker_dim']} dom={cell['dom_dim']} "
        f"indef={cell['indef_dim']} im={cell['im_dim']}"
    ]
    lines.extend("  " + row for row in render_relation_rows(cell["basis"], cell["dim_x"]))
    if not cell["basis"]:
        lines.append("  (zero relation)")
    theta = cell["theta"]
    size = len(theta)
    lines.append(f"  theta {size}x{size}" + ("" if size == 0 else ":"))
    lines.extend("    " + _join(row) for row in theta)
    return lines


_MATRIX_LABELS = {
    "matrix": "standard matrix:",
    "dimension_matrix": "dimension matrix:",
    "canonical": "canonical 0-1 matrix:",
}


def render_text(report: dict) -> str:
    """Desk text of an invariant or standard report: the header, then each
    field in report order, a matrix as a label and indented rows."""
    lines = [f"modulus {report['modulus']}", f"alpha {_join(report['alpha'])}", f"beta {_join(report['beta'])}"]
    for key, value in report.items():
        if key == "cells":
            for cell in value:
                lines.extend(_cell_lines(cell))
        elif key in _MATRIX_LABELS:
            lines.append(_MATRIX_LABELS[key])
            lines.extend("  " + _join(row) for row in value)
    return "\n".join(lines)
