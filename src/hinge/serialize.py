"""Problem files and invariant reports: JSON in, JSON or desk text out."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bihinge import BiHinge, Composition, DimensionMatrix, MarginError, _take, chi, dimension_matrix, standard_bihinge, standard_matrix
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


class CellRecords(tuple):
    """A grid's cells as (key, at, table) per group sharing key = (dx, dy,
    rank, d), d = dim dom - dim ker: at their indices i * q + j, ascending,
    and table one int row per cell: i, j (1-based), its rank x (dx + dy)
    RREF basis entries (xi first), ker, dom, indef and im dimensions, theta."""

    def fill(self, template) -> list:
        """Each cell, in cell order, filled into template(*key) of its group:
        a format with one %d per entry, and the table columns that fill it."""
        out = [None] * sum(len(at) for _, at, _ in self)
        for key, at, table in self:
            fmt, columns = template(*key)
            for k, row in zip(at.tolist(), table[:, columns].tolist()):
                out[k] = fmt % tuple(row)
        return out


def cell_records(h: BiHinge) -> CellRecords:
    """The CellRecords of a grid, read off its stack and derived()."""
    q, dv = len(h.beta), h.derived()
    ker, dom, indef, _ = dims = dv.dims[[0, 1, 3, 2]]  # the table's order; dv.dims ends im, indef
    keys = np.stack([np.repeat(h.alpha.parts, q), np.tile(h.beta.parts, len(h.alpha)), dom + indef, dom - ker], axis=1)
    order = np.lexsort(keys.T)  # stable, so each group's cells stay ascending
    groups = []
    for at in np.split(order, np.flatnonzero(np.diff(keys[order], axis=0).any(axis=1)) + 1):
        dx, dy, rank, d = keys[at[0]].tolist()
        basis = _take(h.stack, at, dx, dy, h.alpha)[:, :rank].reshape(len(at), -1)
        table = np.column_stack([at // q + 1, at % q + 1, basis, dims[:, at].T, dv.theta[at, :d, :d].reshape(len(at), -1)])
        groups.append(((dx, dy, rank, d), at, table))
    return CellRecords(groups)


def report_header(field: PrimeField, alpha: Composition, beta: Composition) -> dict:
    """The fields every report opens with: modulus and both compositions."""
    return {"modulus": field.p, "alpha": list(alpha.parts), "beta": list(beta.parts)}


def invariant_report(problem: Problem) -> dict:
    """The full invariant of a problem as one report, its cells as cell_records.

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


def _json_template(dx: int, dy: int, rank: int, d: int) -> tuple:
    """A cell's JSON object, its fields in table order."""
    basis, theta = (", ".join(["[" + ", ".join(["%d"] * w) + "]"] * n) for n, w in ((rank, dx + dy), (d, d)))
    return (f'{{"i": %d, "j": %d, "dim_x": {dx}, "dim_y": {dy}, "basis": [{basis}], "ker_dim": %d, "dom_dim": %d, '
            f'"indef_dim": %d, "im_dim": %d, "theta": [{theta}]}}'), slice(None)


def _text_template(dx: int, dy: int, rank: int, d: int) -> tuple:
    """A cell's desk text: its dimensions, its basis rows split (xi | eta), then theta."""
    basis = [f"  ({_join(['%d'] * dx)} | {_join(['%d'] * dy)})"] * rank or ["  (zero relation)"]
    theta = [f"  theta {d}x{d}" + ":" * (d > 0)] + ["    " + _join(["%d"] * d)] * d
    k = 2 + rank * (dx + dy)  # the dimensions' columns; the text gives them first
    lines = ["chi[%d,%d]  ker=%d dom=%d indef=%d im=%d", *basis, *theta]
    return "\n".join(lines), np.r_[0, 1, k : k + 4, 2:k, k + 4 : k + 4 + d * d]


def dumps_json(data: dict) -> str:
    """Deterministic JSON of a dict with str keys: fixed insertion order, no
    whitespace variation.  A report's cells are filled into their templates."""
    return "{%s}" % ", ".join(
        json.dumps(k) + ": " + ("[%s]" % ", ".join(v.fill(_json_template)) if isinstance(v, CellRecords)
                                else json.dumps(v, separators=(", ", ": ")))
        for k, v in data.items())


def _join(values) -> str:
    return " ".join(map(str, values))


def render_matrix_rows(rows: list) -> str:
    return "\n".join(map(_join, rows))


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
            lines.extend(value.fill(_text_template))
        elif key in _MATRIX_LABELS:
            lines.append(_MATRIX_LABELS[key])
            lines.extend("  " + _join(row) for row in value)
    return "\n".join(lines)
