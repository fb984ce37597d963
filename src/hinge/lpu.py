"""Lower x permutation x upper decomposition and the 0-1 canonical form.

Every invertible matrix over a field factors as l @ perm @ u with l lower
triangular, u upper triangular and perm a permutation matrix; perm is unique
(its units mark where the ranks of top-left submatrices jump) and is read off
the pivots of one column elimination pass, the same pass that builds the
relation grid in bihinge.chi.  Counting the units of perm inside each
block cut by (alpha, beta) reproduces the dimension table of the relation
grid, which gives a second route to that table, from the pivot positions
rather than the cell subspaces, and to the 0-1 matrix it determines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bihinge import Composition, DimensionMatrix, standard_matrix
from .linalg import Matrix, ShapeError, _column_pass
from .relations import InvariantViolation


@dataclass(frozen=True)
class LpuDecomposition:
    """Exact factors with l @ perm @ u equal to the source matrix."""

    l: Matrix
    perm: Matrix
    u: Matrix

    def product(self) -> Matrix:
        return self.l * self.perm * self.u


def _perm_matrix(field, sigma) -> Matrix:
    n = len(sigma)
    arr = np.zeros((n, n), dtype=np.int64)
    arr[sigma, np.arange(n)] = 1
    return Matrix._new(field, arr)


def rank_profile_permutation(a: Matrix) -> Matrix:
    """The permutation factor of an invertible matrix, read off the pivots.

    Position (i-1, j-1) holds a unit iff the rank of the top-left i x j
    submatrix jumps in both directions there; the elimination pivots are
    exactly those positions.
    """
    sigma, _, _ = _column_pass(a)
    return _perm_matrix(a.field, sigma)


def lpu(a: Matrix) -> LpuDecomposition:
    """Factor an invertible matrix as l @ perm @ u.

    One column elimination gives a @ f == af with f unit upper triangular;
    perm is read off its pivots, l == af @ perm^T and u is the inverse of f.
    The product is checked against a before returning.
    """
    sigma, f, af = _column_pass(a)
    field = a.field
    l = Matrix._new(field, af[:, np.argsort(sigma)])
    perm = _perm_matrix(field, sigma)
    u = Matrix._new(field, np.ascontiguousarray(f)).inverse()
    if l * perm * u != a:
        raise InvariantViolation("elimination witnesses do not multiply back to the input")
    return LpuDecomposition(l, perm, u)


def perm_block_counts(perm: Matrix, alpha, beta) -> DimensionMatrix:
    """Units of a permutation matrix per (column block i, row block j) cell."""
    alpha = Composition(alpha)
    beta = Composition(beta)
    if perm.shape != (beta.n, alpha.n):
        raise ShapeError(f"permutation shape {perm.shape} does not match ({beta.n}, {alpha.n})")
    rows, cols = np.nonzero(perm.a)
    col_block = np.repeat(np.arange(len(alpha)), alpha.parts)
    row_block = np.repeat(np.arange(len(beta)), beta.parts)
    entries = np.zeros((len(alpha), len(beta)), dtype=np.int64)
    np.add.at(entries, (col_block[cols], row_block[rows]), perm.a[rows, cols])
    return DimensionMatrix(entries, alpha, beta)


def canonical_01(a: Matrix, alpha, beta) -> Matrix:
    """The 0-1 matrix with the same dimension table as an invertible matrix.

    Equal to standard_matrix of the relation grid's dimension table; computed
    here purely from the permutation factor's block unit counts.  It is a
    canonical representative of the double coset under the full block
    triangular groups, B-(beta) \\ GL / B+(alpha), which is coarser than the
    double coset under the block strictly triangular groups: over GF(3) with
    alpha = beta = (1, 1), diag(2, 1) maps to the identity, yet the two are
    not equivalent.
    """
    d = perm_block_counts(rank_profile_permutation(a), alpha, beta)
    return standard_matrix(d, a.field)
