"""Matrix arithmetic and elimination, cross-checked against a from-scratch
row reducer written with plain Python ints (no numpy, no shared code)."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hinge.field import PrimeField
from hinge.enumeration import gl_array
from hinge.linalg import (
    Matrix,
    ShapeError,
    SingularMatrixError,
    _back_substitute,
    _column_pass,
    _column_pass_each,
    _rref,
    _rref_each,
    _rref_stack,
)


def plain_eliminate(rows, p):
    """Oracle: Gauss-Jordan on lists of ints, returns (reduced rows, pivots)."""
    rows = [[v % p for v in row] for row in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        src = None
        for i in range(r, len(rows)):
            if rows[i][c] % p != 0:
                src = i
                break
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p != 0:
                f = rows[i][c]
                rows[i] = [(rows[i][k] - f * rows[r][k]) % p for k in range(ncols)]
        pivots.append(c)
        r += 1
    return rows, pivots


def plain_rank(rows, p):
    return len(plain_eliminate(rows, p)[1])


def random_rows(rng, p, m, n):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def test_construction_reduces_mod_p():
    f = PrimeField(5)
    m = Matrix(f, [[7, -1], [10, 4]])
    assert m.to_rows() == [[2, 4], [0, 4]]
    assert m.shape == (2, 2)
    assert m.a[0, 1] == 4
    assert m.a[1, 1] == 4
    # non-integer entries are rejected, not truncated; empty shapes still work
    with pytest.raises(ValueError, match="integers"):
        Matrix(f, [[1.5]])
    with pytest.raises(ValueError, match="integers"):
        Matrix(f, np.array([[1.0, 2.0]]))
    assert Matrix(f, np.zeros((0, 3))).shape == (0, 3)
    assert Matrix(f, [[]]).shape == (1, 0)
    # out-of-range ints reduce exactly: past int64, past uint64, unsigned arrays
    assert Matrix(f, [[10 ** 23, -(10 ** 23) - 1]]).to_rows() == [[0, 4]]
    assert Matrix(f, [[2 ** 63, -1]]).to_rows() == [[3, 4]]
    assert Matrix(f, [[np.int64(7), 10 ** 23]]).to_rows() == [[2, 0]]
    assert Matrix(f, np.array([[2 ** 64 - 1]], dtype=np.uint64)).to_rows() == [[0]]


def test_backing_array_is_frozen():
    m = Matrix(PrimeField(3), [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        m.a[0, 0] = 2


def test_identity_and_zeros():
    f = PrimeField(3)
    assert Matrix(f, np.eye(3, dtype=np.int64)).to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert Matrix.zeros(f, 2, 3).to_rows() == [[0, 0, 0], [0, 0, 0]]


def test_arithmetic_matches_plain_ints():
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        f = PrimeField(p)
        for _ in range(20):
            a = random_rows(rng, p, 3, 4)
            c = random_rows(rng, p, 4, 2)
            A, C = Matrix(f, a), Matrix(f, c)
            assert (A * C).to_rows() == [
                [sum(a[i][k] * c[k][j] for k in range(4)) % p for j in range(2)]
                for i in range(3)
            ]


def test_shape_and_field_mismatches():
    f2, f3 = PrimeField(2), PrimeField(3)
    a = Matrix(f2, [[1, 0], [0, 1]])
    with pytest.raises(ShapeError):
        a * Matrix(f2, [[1, 0, 1]])
    with pytest.raises(ValueError):
        a * Matrix(f3, [[1, 0], [0, 1]])


def test_rref_known_example():
    f = PrimeField(2)
    m = Matrix(f, [[1, 1, 0], [1, 1, 1], [0, 0, 1]])
    r, pivots = m.rref()
    assert r.to_rows() == [[1, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert pivots == (0, 2)


def test_rref_matches_plain_oracle():
    rng = random.Random(11)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = random_rows(rng, p, m, n)
            got, got_piv = Matrix(f, rows).rref()
            want, want_piv = plain_eliminate(rows, p)
            assert got.to_rows() == want
            assert got_piv == tuple(want_piv)


def test_rref_stack_matches_rref():
    # every matrix of a stack, zero rows and rank-deficient members included,
    # comes out as _rref leaves it, with its rank
    rng = np.random.default_rng(23)
    for p in (2, 3, 5, 65521):
        for n_mat in (1, 2, 17):
            for rows, cols in ((1, 1), (2, 3), (4, 2), (5, 5), (6, 4)):
                stack = rng.integers(0, p, size=(n_mat, rows, cols))
                stack[rng.random((n_mat, rows)) < 0.3] = 0
                for k in range(0, n_mat, 3):  # last row a combination of the others
                    stack[k, -1] = stack[k, :-1].sum(axis=0) * (p - 1) % p
                want = stack.copy()
                ranks = _rref_stack(stack, p)
                for k in range(n_mat):
                    assert ranks[k] == len(_rref(want[k], p))
                    assert np.array_equal(stack[k], want[k]), (p, want[k], stack[k])


def test_rref_each_matches_rref_on_padded_stacks():
    # one by one below _STACK_MIN_CELLS, as one stack from it on: members
    # with zero rows after their nonzero ones, and one with a zero row
    # between nonzero rows, each come out as _rref leaves it
    rng = np.random.default_rng(37)
    for p in (2, 3, 65521):
        for n_mat in (1, 7, 9):
            stack = rng.integers(0, p, size=(n_mat, 6, 5))
            for k in range(n_mat):
                stack[k, rng.integers(0, 7) :] = 0
            stack[0, 1], stack[0, 2:4] = 0, rng.integers(1, p, size=(2, 5))
            want = stack.copy()
            _rref_each(stack, p)
            for k in range(n_mat):
                _rref(want[k], p)
                assert np.array_equal(stack[k], want[k]), (p, n_mat, k)


def test_back_substitution_matches_rref_on_echelon_stacks():
    # row echelon stacks with non-unit leads and zero rows past the rank
    # (their leads arbitrary) come out as _rref leaves them, one member at
    # a time and many at once: through the lead table where a stack has no
    # more members than rows (2 or 9 of up to 12), row by row past that (9
    # of fewer rows, 500)
    rng = np.random.default_rng(29)
    for p in (2, 3, 65521):
        for count in (1, 2, 9, 500):
            for height, width in ((1, 1), (3, 5), (6, 6), (5, 3), (4, 9), (12, 14)):
                stack = np.zeros((count, height, width), dtype=np.int64)
                lead = rng.integers(0, width, (count, height))
                for m in range(count):
                    rank = rng.integers(0, min(height, width) + 1)
                    lead[m, :rank] = np.sort(rng.choice(width, rank, replace=False))
                    for h, c in enumerate(lead[m, :rank]):
                        stack[m, h, c] = rng.integers(1, p)
                        stack[m, h, c + 1 :] = rng.integers(0, p, width - c - 1)
                want = stack.copy()
                _back_substitute(stack, lead, p)
                for m in range(count):
                    _rref(want[m], p)
                    assert np.array_equal(stack[m], want[m]), (p, count, m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rref_stack_property(data):
    # random stacks with zero and rank-deficient members (a product of a
    # rows x r and an r x cols matrix, r below both) match _rref one by one
    p = data.draw(st.sampled_from((2, 3, 5, 65521)))
    n_mat = data.draw(st.integers(1, 12))
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 7))
    entries = st.integers(0, p - 1)
    stack = data.draw(hnp.arrays(np.int64, (n_mat, rows, cols), elements=entries))
    for k in range(n_mat):
        kind = data.draw(st.sampled_from(("random", "zero", "deficient")))
        if kind == "zero":
            stack[k] = 0
        elif kind == "deficient":
            r = data.draw(st.integers(0, min(rows, cols) - 1))
            left = data.draw(hnp.arrays(np.int64, (rows, r), elements=entries))
            right = data.draw(hnp.arrays(np.int64, (r, cols), elements=entries))
            stack[k] = left @ right % p
    want = stack.copy()
    ranks = _rref_stack(stack, p)
    for k in range(n_mat):
        assert ranks[k] == len(_rref(want[k], p))
        assert np.array_equal(stack[k], want[k]), (p, want[k], stack[k])


def test_rref_idempotent_and_rank():
    rng = random.Random(13)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(40):
            rows = random_rows(rng, p, rng.randint(1, 6), rng.randint(1, 6))
            m = Matrix(f, rows)
            r, pivots = m.rref()
            again, pivots2 = r.rref()
            assert again == r and pivots2 == pivots
            assert m.rank() == plain_rank(rows, p) == len(pivots)


def test_equality_and_hash():
    f = PrimeField(3)
    a = Matrix(f, [[1, 2], [0, 1]])
    b = Matrix(f, [[1, 2], [0, 1]])
    c = Matrix(f, [[1, 2], [1, 1]])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != Matrix(PrimeField(5), [[1, 2], [0, 1]])
    assert len({a, b, c}) == 2


def _pass_stacks():
    """Every element of GL(2,3) and GL(3,2), then random invertible stacks at
    p = 65521 with n <= 12, as (stack, p)."""
    for n, q in ((2, 3), (3, 2)):
        yield gl_array(n, q).astype(np.int64), q
    rng = random.Random(29)
    p = 65521
    f = PrimeField(p)
    for n in range(1, 13):
        stack = []
        while len(stack) < 5:
            m = Matrix(f, random_rows(rng, p, n, n))
            if m.rank() == n:
                stack.append(m.a)
        yield np.stack(stack), p


def test_stacked_column_pass_matches_the_pass_of_each_member():
    # sigma, f and af member by member, and u @ f == I: u is the inverse of f
    for stack, p in _pass_stacks():
        sigma, f, af, u = _column_pass_each(stack, p)
        for k, a in enumerate(stack):
            want = _column_pass(a, p)
            for got, one in zip((sigma[k], f[k], af[k]), want):
                assert np.array_equal(got, one), (p, a.tolist())
            assert np.array_equal(want[3], u[k])
            assert np.array_equal(u[k] @ f[k] % p, np.eye(len(a), dtype=np.int64))
            assert np.array_equal(a @ f[k] % p, af[k])


def test_stacked_column_pass_rejects_a_singular_member():
    # the message is the one _column_pass gives for that member, so the
    # CLI's exit 3 and its stderr stay as they were
    p = 5
    good = np.array([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    bad = np.array([[1, 2, 3], [2, 4, 1], [3, 1, 4]])  # column 1 is twice column 0
    with pytest.raises(SingularMatrixError) as one:
        _column_pass(bad, p)
    assert str(one.value) == "matrix is singular over GF(5): column 1 depends on earlier columns"
    for stack in (np.stack([good, bad, good]), bad[None]):
        with pytest.raises(SingularMatrixError) as many:
            _column_pass_each(stack, p)
        assert str(many.value) == str(one.value)
    with pytest.raises(ShapeError):
        _column_pass_each(np.zeros((2, 2, 3), dtype=np.int64), p)


def right_looking_pass(a, p):
    """Oracle: the column pass in right-looking order, every step rewriting
    all later columns of [af^T | f^T] at once; returns (sigma, f, af, u)."""
    n = len(a)
    mt = a.T.copy()  # row c of mt is column c of af, row c of ft column c of f
    ft = np.eye(n, dtype=np.int64)
    u = np.eye(n, dtype=np.int64)
    sigma = np.empty(n, dtype=np.intp)
    for c in range(n):
        nz = mt[c].nonzero()[0]
        if nz.size == 0:
            raise SingularMatrixError(f"matrix is singular over GF({p}): column {c} depends on earlier columns")
        sigma[c] = r = int(nz[0])
        u[c, c + 1 :] = coef = mt[c + 1 :, r] * pow(int(mt[c, r]), -1, p) % p
        for rest, row in ((mt[c + 1 :, r:], mt[c, r:]), (ft[c + 1 :, : c + 1], ft[c, : c + 1])):
            rest -= coef[:, None] * row
            rest %= p
    return sigma, ft.T, mt.T, u


def _oracle(a, p):
    """The oracle pass of a, or its error text when a is singular."""
    try:
        return right_looking_pass(a, p)
    except SingularMatrixError as exc:
        return str(exc)


def _invertible_stack(rng, p, n, count):
    """count random invertible n x n matrices over GF(p), with their oracle passes."""
    mats, passes = [], []
    while len(mats) < count:
        a = rng.integers(0, p, (n, n))
        if not isinstance(want := _oracle(a, p), str):
            mats.append(a)
            passes.append(want)
    return np.stack(mats), passes


def test_column_pass_is_bit_identical_to_the_right_looking_pass():
    # random invertible stacks of N in {1, 2, 9} and a product of all-(p - 1)
    # triangles (the largest entries and products), through _column_pass and
    # _column_pass_each; the all-(p - 1) matrix is singular past n = 1 and
    # both raise the oracle's text
    rng = np.random.default_rng(41)
    for p in (2, 3, 7, 65521):
        for n in (1, 2, 5, 16, 48, 128):
            full = np.full((n, n), p - 1, dtype=np.int64)
            big = np.tril(full) @ np.triu(full) % p
            if n > 1:
                want = f"matrix is singular over GF({p}): column 1 depends on earlier columns"
                assert _oracle(full, p) == want
                for run in (lambda: _column_pass(full, p), lambda: _column_pass_each(full[None], p)):
                    with pytest.raises(SingularMatrixError) as err:
                        run()
                    assert str(err.value) == want
            stacks = [(np.stack([big, big.T]), [_oracle(big, p), _oracle(big.T, p)])]
            if n == 1:
                stacks.append((full[None], [_oracle(full, p)]))
            stacks += [_invertible_stack(rng, p, n, count) for count in (1, 2, 9)]
            for stack, passes in stacks:
                got = _column_pass_each(stack, p)
                for k, (a, want) in enumerate(zip(stack, passes)):
                    for x, y, z in zip(got, _column_pass(a, p), want):
                        assert x[k].dtype == y.dtype == z.dtype, (p, n, len(stack))
                        assert np.array_equal(x[k], z) and np.array_equal(y, z), (p, n, len(stack), k)


def test_stacked_column_pass_fails_where_the_right_looking_pass_does():
    # singular members at several columns and positions: the stack raises the
    # text of its earliest failing column, as the oracle gives it per member
    rng = np.random.default_rng(43)
    for p in (2, 3, 7, 65521):
        for n in (2, 5, 16, 48):
            for count in (1, 2, 9):
                stack = _invertible_stack(rng, p, n, count)[0]
                for k in rng.choice(count, size=min(count, 2), replace=False).tolist():
                    col = int(rng.integers(1, n))
                    stack[k, :, col] = stack[k, :, :col] @ rng.integers(0, p, col) % p
                fails = [(int(re.search(r"column (\d+)", text).group(1)), text)
                         for text in (_oracle(a, p) for a in stack) if isinstance(text, str)]
                with pytest.raises(SingularMatrixError) as err:
                    _column_pass_each(stack, p)
                assert str(err.value) == min(fails)[1], (p, n, count)
