"""Subspaces and the kernel routine, cross-checked by exhaustive enumeration.

A subspace is its canonical basis, the RREF Matrix that _span returns.
Every oracle here materializes subspaces as Python sets of int tuples and
computes spans and solution sets pointwise, so any systematic error in the
echelon-form code would have to reproduce brute-force set algebra to slip
through.
"""

import random
from itertools import product

import numpy as np

from hinge.field import PrimeField
from hinge.linalg import Matrix, _kernel_rows, _span


def span_set(rows, p, n):
    """All linear combinations of the given rows, as a set of tuples."""
    out = set()
    rows = [tuple(v % p for v in row) for row in rows]
    for coeffs in product(range(p), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            for k in range(n):
                v[k] = (v[k] + c * row[k]) % p
        out.add(tuple(v))
    return out


def as_set(s):
    """Every vector of a subspace, as a set of int tuples."""
    p = s.field.p
    return {
        tuple(int(x) for x in np.array(coeffs, dtype=np.int64) @ s.a % p)
        for coeffs in product(range(p), repeat=s.rows)
    }


def span(field, rows, n):
    """The span of generator rows of length n; zero rows are harmless."""
    return _span(field, np.array(rows, dtype=np.int64).reshape(-1, n) % field.p)


def random_generators(rng, p, rows, n):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(rows)]


def test_zero_and_full():
    f = PrimeField(3)
    z = Matrix.zeros(f, 0, 4)
    assert z.rows == 0 and z.cols == 4
    assert as_set(z) == {(0, 0, 0, 0)}
    full = Matrix(f, np.eye(2, dtype=np.int64))
    assert full.rows == 2
    assert as_set(full) == set(product(range(3), repeat=2))


def test_span_matches_enumeration():
    rng = random.Random(23)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(30):
            n = rng.randint(1, 4)
            gens = random_generators(rng, p, rng.randint(0, 3), n)
            s = span(f, gens, n)
            want = span_set(gens, p, n)
            assert as_set(s) == want
            assert len(want) == p ** s.rows


def test_equations_cut_out_the_space():
    rng = random.Random(31)
    for p in (2, 3):
        f = PrimeField(p)
        n = 4 if p == 2 else 3
        for _ in range(20):
            gens = random_generators(rng, p, rng.randint(0, 3), n)
            s = span(f, gens, n)
            # equations of s: the kernel of its basis, read as rows
            eqs = _span(f, _kernel_rows(s.a, p))
            assert eqs.rows == n - s.rows
            members = as_set(s)
            for v in product(range(p), repeat=n):
                lhs = (eqs.a @ np.array(v, dtype=np.int64)) % p
                assert (not lhs.any()) == (v in members)
            assert _span(f, _kernel_rows(eqs.a, p)) == s


def test_kernel_basis_exhaustive():
    rng = random.Random(37)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(20):
            m_rows, n = rng.randint(1, 3), rng.randint(1, 4)
            m = Matrix(f, random_generators(rng, p, m_rows, n))
            ker = _span(f, _kernel_rows(m.a, p))
            want = {
                v
                for v in product(range(p), repeat=n)
                if not ((m.a @ np.array(v, dtype=np.int64)) % p).any()
            }
            assert as_set(ker) == want


def test_equality_ignores_generator_choice():
    f = PrimeField(5)
    s = span(f, [[1, 2, 3], [2, 4, 1]], 3)
    t = span(f, [[3, 6, 4], [4, 8, 2]], 3)  # same span
    assert s == t and hash(s) == hash(t)
