"""Lower x permutation x upper decomposition and the 0-1 canonical form.

Every invertible matrix over a field factors as l @ perm @ u with l lower
triangular, u upper triangular and perm a permutation matrix; perm is unique
(its units mark where the ranks of top-left submatrices jump).  All three
come from one column elimination pass, the pass that builds the relation
grid in bihinge.chi but without the reversal of each alpha block that chi
applies to the columns: perm from its pivots, l from its reduced columns
and u from its multipliers, with no inverse taken.  Counting the units of perm
inside each block cut by (alpha, beta) reproduces the dimension table of the
relation grid, a second route to that table, from the pivot positions rather
than the cell subspaces, and to the 0-1 matrix it determines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bihinge import Composition, DimensionMatrix, _block_counts, standard_matrix
from .linalg import Matrix, _column_pass_each
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


def _lpu_each(mats, alpha=None, beta=None) -> tuple:
    """(l, sigma, u, counts) of N invertible n x n matrices over one field,
    from one _column_pass_each: perm[k] has its units at (sigma[k][c], c),
    l[k] == af[k] @ perm[k]^T and u[k] == f[k]^-1.  Given Compositions alpha
    and beta, counts[k][i, j] counts the units of perm[k] in column block i
    and row block j (bihinge._block_counts); else counts is None.  Nothing
    is multiplied back."""
    sigma, _, af, u = _column_pass_each(np.stack([a.a for a in mats]), mats[0].field.p)
    l = np.take_along_axis(af, np.argsort(sigma, axis=1)[:, None, :], axis=2)
    return l, sigma, u, None if alpha is None else _block_counts(sigma, alpha, beta)


def rank_profile_permutation(a: Matrix) -> Matrix:
    """The permutation factor of an invertible matrix, read off the pivots.

    Position (i-1, j-1) holds a unit iff the rank of the top-left i x j
    submatrix jumps in both directions there; the elimination pivots are
    exactly those positions.
    """
    return _perm_matrix(a.field, _lpu_each([a])[1][0])


def lpu(a: Matrix) -> LpuDecomposition:
    """Factor an invertible matrix as l @ perm @ u.

    One column elimination gives a @ f == af with f unit upper triangular;
    perm is read off its pivots, l == af @ perm^T and u == f^-1 is the table
    of its multipliers.  The product is checked against a before returning.
    """
    l, sigma, u, _ = _lpu_each([a])
    dec = LpuDecomposition(Matrix._new(a.field, l[0]), _perm_matrix(a.field, sigma[0]), Matrix._new(a.field, u[0]))
    if dec.product() != a:
        raise InvariantViolation("elimination witnesses do not multiply back to the input")
    return dec


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
    alpha, beta = Composition(alpha), Composition(beta)
    counts = _lpu_each([a], alpha, beta)[3][0]
    return standard_matrix(DimensionMatrix(counts, alpha, beta), a.field)
