"""Lower x permutation x upper decomposition and the 0-1 canonical form.

Every invertible matrix over a field factors as l @ perm @ u with l lower
triangular, u upper triangular and perm a permutation matrix; perm is unique
(its units mark where the ranks of top-left submatrices jump) and is read off
the pivots of one elimination pass.  Counting the units of perm inside each
block cut by (alpha, beta) reproduces the dimension table of the relation
grid, which gives a second, independent route to that table and to the 0-1
matrix it determines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bihinge import Composition, DimensionMatrix, standard_matrix
from .linalg import Matrix, ShapeError, SingularMatrixError


@dataclass(frozen=True)
class LpuDecomposition:
    """Exact factors with l @ perm @ u equal to the source matrix."""

    l: Matrix
    perm: Matrix
    u: Matrix

    def product(self) -> Matrix:
        return self.l * self.perm * self.u


def _forward_pass(a: Matrix) -> tuple:
    """One elimination pass, returning (m, e, f) with m == e @ a @ f.

    Columns go left to right.  Each pivot is the first nonzero entry of its
    column; it is scaled to 1, cleared below by downward row operations (so e
    stays lower triangular) and to its right by rightward column operations
    (so f stays unit upper triangular).  A pivot's row and
    column are then zero apart from the pivot, and later steps never touch
    them again, so m ends as the permutation matrix of the pivots.
    """
    n = a.rows
    if a.cols != n:
        raise ShapeError(f"need a square matrix, got {a.shape}")
    field = a.field
    p = field.p
    inv = field.inv_table()
    m = a.a.copy()
    e = np.eye(n, dtype=np.int64)
    f = np.eye(n, dtype=np.int64)
    for c in range(n):
        nz = np.flatnonzero(m[:, c])
        if nz.size == 0:
            raise SingularMatrixError(f"column {c} dies during elimination")
        r = int(nz[0])
        v = int(m[r, c])
        if v != 1:
            m[r] = m[r] * inv[v] % p
            e[r] = e[r] * inv[v] % p
        below = nz[nz > r]
        if below.size:
            coef = m[below, c].copy()
            m[below] = (m[below] - np.outer(coef, m[r])) % p
            e[below] = (e[below] - np.outer(coef, e[r])) % p
        right = c + 1 + np.flatnonzero(m[r, c + 1 :])
        if right.size:
            coef = m[r, right].copy()
            m[:, right] = (m[:, right] - np.outer(m[:, c], coef)) % p
            f[:, right] = (f[:, right] - np.outer(f[:, c], coef)) % p
    return m, e, f


def rank_profile_permutation(a: Matrix) -> Matrix:
    """The permutation factor of an invertible matrix, read off the pivots.

    Position (i-1, j-1) holds a unit iff the rank of the top-left i x j
    submatrix jumps in both directions there; the elimination pivots are
    exactly those positions.
    """
    m, _, _ = _forward_pass(a)
    return Matrix._new(a.field, m)


def lpu(a: Matrix) -> LpuDecomposition:
    """Factor an invertible matrix as l @ perm @ u.

    perm is read off the elimination pivots; l and u are the inverses of the
    row and column operations of the same pass.  The product is checked
    against a before returning.
    """
    m, e, f = _forward_pass(a)
    field = a.field
    l = Matrix._new(field, e).inverse()
    u = Matrix._new(field, f).inverse()
    perm = Matrix._new(field, m)
    if l * perm * u != a:
        raise RuntimeError("elimination witnesses do not multiply back to the input")
    return LpuDecomposition(l, perm, u)


def perm_block_counts(perm: Matrix, alpha, beta) -> DimensionMatrix:
    """Units of a permutation matrix per (column block i, row block j) cell."""
    alpha = Composition(alpha)
    beta = Composition(beta)
    if perm.shape != (beta.n, alpha.n):
        raise ShapeError(f"permutation shape {perm.shape} does not match ({beta.n}, {alpha.n})")
    entries = []
    for i in range(len(alpha)):
        c0, c1 = alpha.block(i)
        row = []
        for j in range(len(beta)):
            r0, r1 = beta.block(j)
            row.append(int(perm.a[r0:r1, c0:c1].sum()))
        entries.append(row)
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
    dec = lpu(a)
    d = perm_block_counts(dec.perm, alpha, beta)
    return standard_matrix(d, a.field)
