"""Subspaces of GF(p)^d stored by their canonical RREF bases."""

from __future__ import annotations

import numpy as np

from .field import PrimeField
from .linalg import Matrix, _rref


class Subspace:
    """A linear subspace of GF(p)^d, stored as its unique RREF basis.

    The basis matrix has no zero rows, unit pivots with strictly increasing
    pivot columns, and zeros above and below each pivot.  Equality of
    subspaces is therefore plain equality of basis matrices.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, basis: Matrix):
        if not _is_rref_basis(basis.a):
            raise ValueError("basis is not a reduced row echelon basis without zero rows")
        self.ambient_dim = basis.cols
        self.basis = basis

    @classmethod
    def _trusted(cls, basis: Matrix) -> "Subspace":
        s = object.__new__(cls)
        s.ambient_dim = basis.cols
        s.basis = basis
        return s

    @classmethod
    def zero(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls._trusted(Matrix.zeros(field, 0, ambient_dim))

    @property
    def field(self) -> PrimeField:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        rows = "; ".join(" ".join(str(int(v)) for v in row) for row in self.basis.a)
        return f"Subspace(GF({self.field.p})^{self.ambient_dim}, [{rows}])"


def _is_rref_basis(arr: np.ndarray) -> bool:
    last = -1
    for i in range(arr.shape[0]):
        nz = np.flatnonzero(arr[i])
        if nz.size == 0:
            return False
        c = int(nz[0])
        if c <= last or arr[i, c] != 1:
            return False
        if np.count_nonzero(arr[:, c]) != 1:
            return False
        last = c
    return True


def _span_rows(field: PrimeField, rows: np.ndarray) -> Subspace:
    arr = rows.copy() if rows.flags.writeable is False else rows
    piv = _rref(arr, field.p)
    basis = np.ascontiguousarray(arr[: len(piv)])
    return Subspace._trusted(Matrix._new(field, basis))

