"""Triangular-permutation-triangular factorization and the 0-1 canonical form.

The permutation oracle recomputes every top-left corner rank with a plain int
eliminator and takes second differences, independently of the elimination
order used by the library.
"""

import random

import numpy as np
import pytest

from hinge.bihinge import Composition, _block_counts, chi, dimension_matrix, equivalent, standard_matrix
from hinge.enumeration import contingency_tables, enum_gl
from hinge.field import PrimeField
from hinge.linalg import Matrix, SingularMatrixError
from hinge.lpu import LpuDecomposition, _lpu_each, canonical_01, lpu, rank_profile_permutation
from hinge.selfcheck import random_composition, random_invertible, random_unitriangular


def random_block_triangular(comp, field: PrimeField, rng: random.Random, lower: bool) -> Matrix:
    """Random element of the full block triangular group (invertible blocks)."""
    comp = Composition(comp)
    m = random_unitriangular(comp, field, rng, lower)
    arr = m.a.copy()
    for i in range(len(comp)):
        lo, hi = comp.block(i)
        blk = random_invertible(field, hi - lo, rng)
        arr[lo:hi, lo:hi] = blk.a
    return Matrix._new(field, arr)


def plain_rank(rows, p):
    rows = [[v % p for v in row] for row in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        src = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(rows[i][k] - f * rows[r][k]) % p for k in range(ncols)]
        r += 1
    return r


def perm_oracle(a):
    """Permutation from corner ranks: unit at (i, j) iff the rank of the
    top-left (i+1) x (j+1) corner jumps in both directions at once."""
    p = a.field.p
    rows = a.to_rows()
    n = a.rows

    def corner(i, j):
        if i == 0 or j == 0:
            return 0
        return plain_rank([r[:j] for r in rows[:i]], p)

    out = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out[i - 1, j - 1] = (
                corner(i, j) - corner(i - 1, j) - corner(i, j - 1) + corner(i - 1, j - 1)
            )
    return out


def test_known_factorization_gf2():
    f = PrimeField(2)
    a = Matrix(f, [[1, 1], [1, 0]])
    dec = lpu(a)
    assert dec.l.to_rows() == [[1, 0], [1, 1]]
    assert dec.perm.to_rows() == [[1, 0], [0, 1]]
    assert dec.u.to_rows() == [[1, 1], [0, 1]]
    assert dec.product() == a
    assert isinstance(dec, LpuDecomposition)


def test_antidiagonal_permutation():
    f = PrimeField(3)
    a = Matrix(f, [[0, 2], [1, 0]])
    dec = lpu(a)
    assert dec.perm.to_rows() == [[0, 1], [1, 0]]
    assert dec.product() == a


def test_factorization_random():
    rng = random.Random(107)
    for p in (2, 3, 5, 65521):
        f = PrimeField(p)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = random_invertible(f, n, rng)
            dec = lpu(a)
            assert dec.product() == a
            assert not np.triu(dec.l.a, 1).any(), "l must be lower triangular"
            assert not np.tril(dec.u.a, -1).any(), "u must be upper triangular"
            perm = dec.perm.a
            assert (perm.sum(axis=0) == 1).all() and (perm.sum(axis=1) == 1).all()
            assert set(np.unique(perm)) <= {0, 1}


def test_permutation_matches_corner_rank_oracle():
    rng = random.Random(109)
    for p, max_n in ((2, 5), (3, 5), (65521, 8)):
        f = PrimeField(p)
        for _ in range(30):
            n = rng.randint(1, max_n)
            a = random_invertible(f, n, rng)
            want = perm_oracle(a)
            assert rank_profile_permutation(a).to_rows() == want.tolist()
            assert lpu(a).perm.to_rows() == want.tolist()


def test_singular_matrix_rejected():
    f = PrimeField(2)
    s = Matrix(f, [[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        rank_profile_permutation(s)
    with pytest.raises(SingularMatrixError):
        lpu(s)


def block_counts(perm: Matrix, alpha, beta) -> list:
    """Oracle: units of a permutation matrix per (column block i, row block j)."""
    alpha, beta = Composition(alpha), Composition(beta)
    block_of = lambda comp, x: next(k for k in range(len(comp)) if x < comp.offsets[k + 1])
    counts = [[0] * len(beta) for _ in alpha]
    for r, row in enumerate(perm.to_rows()):
        for c, v in enumerate(row):
            counts[block_of(alpha, c)][block_of(beta, r)] += v
    return counts


def test_perm_block_counts_example():
    f = PrimeField(2)
    # reversal permutation on 3 points, blocks (2,1) x (1,2): units sit at
    # (row, col) = (0,2), (1,1), (2,0); a permutation matrix is its own perm
    rev = Matrix(f, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert block_counts(rev, (2, 1), (1, 2)) == [[0, 2], [1, 0]]
    counts = _block_counts(_lpu_each([rev])[1], Composition((2, 1)), Composition((1, 2)))
    assert counts.tolist() == [[[0, 2], [1, 0]]]


def test_perm_counts_equal_grid_dimensions():
    rng = random.Random(113)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(25):
            n = rng.randint(1, 5)
            alpha = random_composition(n, rng)
            beta = random_composition(n, rng)
            a = random_invertible(f, n, rng)
            d = dimension_matrix(chi(a, alpha, beta))
            assert block_counts(lpu(a).perm, alpha, beta) == d.to_rows()
            assert _block_counts(_lpu_each([a])[1], alpha, beta)[0].tolist() == d.to_rows()
            assert canonical_01(a, alpha, beta) == standard_matrix(d, f)


def test_canonical_is_invariant_under_block_triangular_moves():
    # not just the strictly triangular groups: the full block triangular
    # normalizers preserve the dimension table, hence the canonical form
    rng = random.Random(127)
    f = PrimeField(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        alpha = random_composition(n, rng)
        beta = random_composition(n, rng)
        a = random_invertible(f, n, rng)
        lower = random_block_triangular(beta, f, rng, lower=True)
        upper = random_block_triangular(alpha, f, rng, lower=False)
        assert canonical_01(lower * a * upper, alpha, beta) == canonical_01(a, alpha, beta)


def test_canonical_is_coarser_than_the_double_coset():
    # canonical_01 only sees the dimension table: diag(2, 1) and the identity
    # share it over GF(3) but lie in different double cosets
    f = PrimeField(3)
    d = Matrix(f, [[2, 0], [0, 1]])
    eye = Matrix(f, np.eye(2, dtype=np.int64))
    assert canonical_01(d, (1, 1), (1, 1)) == eye
    assert not equivalent(d, eye, (1, 1), (1, 1))


def test_canonical_fixed_points():
    for q in (2, 3):
        f = PrimeField(q)
        for alpha, beta in (((1, 1), (1, 1)), ((2, 1), (1, 2))):
            for d in contingency_tables(alpha, beta):
                std = standard_matrix(d, f)
                assert canonical_01(std, alpha, beta) == std


def test_canonical_image_counts():
    # the number of distinct canonical forms over all of GL(n, q) equals the
    # number of contingency tables with the given margins
    cases = (((1, 1), (1, 1), 2), ((1, 1), (1, 1), 3), ((2, 1), (1, 2), 2))
    for alpha, beta, q in cases:
        n = sum(alpha)
        images = {canonical_01(m, alpha, beta) for m in enum_gl(n, q)}
        assert len(images) == len(contingency_tables(alpha, beta))
        want = {standard_matrix(d, PrimeField(q)) for d in contingency_tables(alpha, beta)}
        assert images == want


def test_unitriangular_factors_leave_perm_alone():
    rng = random.Random(131)
    f = PrimeField(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = random_invertible(f, n, rng)
        full = Composition(tuple([1] * n))
        lo = random_unitriangular(full, f, rng, lower=True)
        hi = random_unitriangular(full, f, rng, lower=False)
        assert lpu(lo * a * hi).perm == lpu(a).perm


def test_stacked_factors_match_lpu_member_by_member():
    # one pass over a stack gives each member's lpu, and the block counts of
    # its perm; u is read off the pass, never inverted
    rng = random.Random(137)
    for p, max_n in ((2, 4), (5, 4), (65521, 8)):
        f = PrimeField(p)
        for n in range(1, max_n + 1):
            alpha, beta = random_composition(n, rng), random_composition(n, rng)
            mats = [random_invertible(f, n, rng) for _ in range(6)]
            l, sigma, u = _lpu_each(mats)
            counts = _block_counts(sigma, alpha, beta)
            for k, a in enumerate(mats):
                dec = lpu(a)
                assert (dec.l.a.tolist(), dec.u.a.tolist()) == (l[k].tolist(), u[k].tolist())
                assert dec.perm == rank_profile_permutation(a)
                assert block_counts(dec.perm, alpha, beta) == counts[k].tolist()
