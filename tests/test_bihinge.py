"""The relation grid chi and its normal forms.

The main oracle decides cell membership from the definition: a pair (xi, eta)
belongs to cell (i, j) when the linear system "x supported on the leading
column blocks, slice i equal to xi, image vanishing on the leading row blocks,
slice j equal to eta" is solvable.  Solvability is checked by a from-scratch
rank comparison on plain int lists.
"""

import pickle
import random
import re
from itertools import product

import numpy as np
import pytest

from hinge import bihinge
from hinge.bihinge import (
    AxiomError,
    BiHinge,
    _axiom_tables,
    _block_counts,
    _cell_pass,
    _chi_each,
    _derive_each,
    _normalize_each,
    Composition,
    DimensionMatrix,
    MarginError,
    check_axioms,
    chi,
    chi_cell,
    dimension_matrix,
    equivalent,
    hinge_act,
    normalize,
    standard_bihinge,
    standard_matrix,
)
from hinge.enumeration import contingency_tables, double_cosets_brute, enum_gl, gl_array
from hinge.field import PrimeField
from hinge.linalg import Matrix, ShapeError, SingularMatrixError
from hinge.relations import LinearRelation
from hinge.selfcheck import (
    _MARGIN_SETS,
    all_compositions,
    random_composition,
    random_invertible,
    random_unitriangular,
)


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


def solvable(m_rows, rhs, p):
    """Whether m x = rhs has a solution, by rank comparison."""
    aug = [row + [b] for row, b in zip(m_rows, rhs)]
    return plain_rank(m_rows, p) == plain_rank(aug, p)


def brute_cell_pairs(a, col_lo, col_hi, row_lo, row_hi):
    """All (xi, eta) in a grid cell, straight from the definition."""
    p = a.field.p
    n = a.rows
    rows = a.to_rows()
    out = set()
    for xi in product(range(p), repeat=col_hi - col_lo):
        for eta in product(range(p), repeat=row_hi - row_lo):
            # unknowns: x[0:col_lo]; fixed: x[col_lo:col_hi] = xi, tail zero
            target = [0] * row_lo + list(eta)
            m = [[rows[r][c] for c in range(col_lo)] for r in range(row_hi)]
            rhs = [
                (target[r] - sum(rows[r][col_lo + k] * xi[k] for k in range(len(xi)))) % p
                for r in range(row_hi)
            ]
            if solvable(m, rhs, p):
                out.add((xi, eta))
    return out


def cell_pairs(h, i, j):
    """Every pair (xi, eta) of cell (i, j) of h, spanned by its stored basis."""
    p, dim_x = h.field.p, h.alpha[i]
    basis = np.array(h._bases()[i * len(h.beta) + j], dtype=np.int64).reshape(-1, dim_x + h.beta[j])
    out = set()
    for coeffs in product(range(p), repeat=len(basis)):
        v = tuple(int(x) for x in np.array(coeffs, dtype=np.int64) @ basis % p)
        out.add((v[:dim_x], v[dim_x:]))
    return out


def chi_cells(a, alpha, beta):
    """The grid of a as LinearRelations, cell (i, j) from the definitional chi_cell."""
    alpha, beta = Composition(alpha), Composition(beta)
    return [[chi_cell(a, *alpha.block(i), *beta.block(j)) for j in range(len(beta))] for i in range(len(alpha))]


def test_single_block_grid_is_the_graph():
    rng = random.Random(67)
    for p in (2, 3):
        f = PrimeField(p)
        for n in (1, 2, 3):
            a = random_invertible(f, n, rng)
            h = chi(a, (n,), (n,))
            graph = np.concatenate([np.eye(n, dtype=np.int64), a.a.T], axis=1)
            assert h == BiHinge((n,), (n,), [[LinearRelation(n, n, Matrix(f, graph))]])


def test_identity_and_swap_cells_gf2():
    f = PrimeField(2)
    h = chi(Matrix(f, np.eye(2, dtype=np.int64)), (1, 1), (1, 1))
    assert dimension_matrix(h).to_rows() == [[1, 0], [0, 1]]
    assert cell_pairs(h, 0, 0) == {((0,), (0,)), ((1,), (1,))}
    assert cell_pairs(h, 0, 1) == {((0,), (0,))}

    swap = Matrix(f, [[0, 1], [1, 0]])
    hs = chi(swap, (1, 1), (1, 1))
    assert dimension_matrix(hs).to_rows() == [[0, 1], [1, 0]]
    # x supported on V_1 maps into W_2, so cell (1,1) is all-kernel
    assert cell_pairs(hs, 0, 0) == {((0,), (0,)), ((1,), (0,))}
    assert cell_pairs(hs, 0, 1) == {((0,), (0,)), ((1,), (1,))}


def test_cells_match_definition_oracle():
    rng = random.Random(71)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(12):
            n = rng.randint(1, 4)
            a = random_invertible(f, n, rng)
            alpha = random_composition(n, rng)
            beta = random_composition(n, rng)
            h = chi(a, alpha, beta)
            for i in range(len(alpha)):
                for j in range(len(beta)):
                    want = brute_cell_pairs(a, *alpha.block(i), *beta.block(j))
                    assert cell_pairs(h, i, j) == want, (
                        f"cell ({i + 1},{j + 1}) of {a.to_rows()} over GF({p})"
                    )


def test_grid_matches_chi_cell_definition():
    # chi builds every cell from one elimination; chi_cell takes its own
    # kernel per cell, so the two routes are independent.
    # Repeated parts give several cells of one shape with blocks > 1: a few
    # (reduced cell by cell) or at least 8 (reduced as one stack).
    rng = random.Random(79)
    repeated = {
        15: ((2, 2, 2, 1), (3, 1, 3)),
        16: ((2, 2, 2, 1), (2, 2, 2, 1)),
        17: ((1, 2, 1, 2, 1, 2, 1), (2, 1, 2, 1, 2, 1, 1)),
    }
    for p in (2, 3, 5, 65521):
        f = PrimeField(p)
        for t in range(18):
            n = sum(repeated[t][0]) if t in repeated else rng.randint(1, 10)
            a = random_invertible(f, n, rng)
            if t == 0:
                alpha, beta = (1,) * n, (1,) * n
            elif t == 1:
                alpha, beta = (n,), (n,)
            elif t in repeated:
                alpha, beta = repeated[t]
            else:
                alpha, beta = random_composition(n, rng), random_composition(n, rng)
            alpha, beta = Composition(alpha), Composition(beta)
            h = chi(a, alpha, beta)
            for k, rows in enumerate(h._bases()):
                i, j = divmod(k, len(beta))
                want = chi_cell(a, *alpha.block(i), *beta.block(j))
                assert rows == want.basis.a.tolist(), (
                    f"cell ({i + 1},{j + 1}) of {a.to_rows()} over GF({p})"
                )


def _assert_padded(h):
    # the layout every grid is held in: one read-only (p * q, C, C) uint16
    # stack, C = max(alpha) + max(beta), cell (i, j) at i * q + j with its
    # nonzero rows first, as many as its rank, X at [0, alpha_i) and Y from
    # max(alpha) on, and zero outside those columns and past its rank
    mx, size = max(h.alpha), max(h.alpha) + max(h.beta)
    assert h.stack.dtype == np.uint16 and not h.stack.flags.writeable
    assert h.stack.shape == (len(h.alpha) * len(h.beta), size, size)
    for (a, b), m in zip(product(h.alpha, h.beta), h.stack):
        rank = int(m.any(axis=1).sum())
        inside = np.zeros((size, size), dtype=bool)
        inside[:rank, :a] = inside[:rank, mx : mx + b] = True
        assert not m[~inside].any() and m[:rank].any(axis=1).all(), (h, a, b, rank)


def test_chi_each_matches_chi_and_chi_cell_on_whole_groups():
    # the stacked route over every element of a group at once, for every
    # composition pair: each grid equals chi of its matrix alone, keeps the
    # padded layout and, cell by cell, holds chi_cell's RREF basis
    for n, q in ((2, 3), (3, 2)):
        mats = list(enum_gl(n, q))
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                for a, h in zip(mats, _chi_each(mats, alpha, beta)):
                    alone = chi(a, alpha, beta)
                    assert h == alone
                    _assert_padded(h)
                    for k, rows in enumerate(h._bases()):
                        i, j = divmod(k, len(beta))
                        want = chi_cell(a, *alpha.block(i), *beta.block(j))
                        assert rows == want.basis.a.tolist(), (a.to_rows(), alpha, beta, i, j)


def test_every_grid_constructor_keeps_the_padded_layout():
    # standard grids of every table of the selfcheck margins, hinge_act
    # images, grids of random relations and unpickled chi grids; each stored
    # basis is already the RREF that the public LinearRelation reduces it to
    rng = random.Random(31)
    grids = []
    for p in (2, 3):
        f = PrimeField(p)
        for alpha in _MARGIN_SETS:
            for beta in _MARGIN_SETS:
                if sum(alpha) == sum(beta):
                    grids += [standard_bihinge(d, f) for d in contingency_tables(alpha, beta)]
    for p, alpha, beta in ((2, (1, 2), (2, 1)), (3, (2, 2), (1, 3)), (5, (1,) * 4, (1,) * 4), (3, (3,), (1, 2))):
        f = PrimeField(p)
        alpha, beta = Composition(alpha), Composition(beta)
        for _ in range(4):
            h = chi(random_invertible(f, alpha.n, rng), alpha, beta)
            gs = [random_invertible(f, k, rng) for k in alpha]
            hs = [random_invertible(f, k, rng) for k in beta]
            relations = [[LinearRelation(na, nb, Matrix(f, np.array(
                [[rng.randrange(p) for _ in range(na + nb)] for _ in range(rng.randint(0, na + nb))],
                dtype=np.int64).reshape(-1, na + nb))) for nb in beta] for na in alpha]
            grids += [hinge_act(gs, hs, h), BiHinge(alpha, beta, relations), pickle.loads(pickle.dumps(h))]
    for h in grids:
        _assert_padded(h)
        for (a, b), rows in zip(product(h.alpha, h.beta), h._bases()):
            rel = LinearRelation(a, b, Matrix(h.field, np.array(rows, dtype=np.int64).reshape(-1, a + b)))
            assert rows == rel.basis.a.tolist(), (h, rows)


def test_chi_each_raises_on_a_singular_member():
    f = PrimeField(3)
    mats = [Matrix(f, np.eye(2, dtype=np.int64)), Matrix(f, [[1, 2], [2, 1]]), Matrix(f, np.eye(2, dtype=np.int64))]
    with pytest.raises(SingularMatrixError):
        _chi_each(mats, Composition((1, 1)), Composition((1, 1)))


def test_derive_each_matches_each_grid_derived_alone():
    # a batch of grids of mixed shapes and ranks, several per (field, alpha,
    # beta) and in no particular order: chi grids (ker and im read off their
    # neighbours), their hinge_act images and their copies rebuilt from
    # chi_cell's relations (both reduced by y_first), standard grids, and
    # grids of random relations that fail the axioms.  Each grid's cache
    # must be what derived() gives a fresh unmarked copy of it alone, in all
    # seven fields, and a rebuilt copy's what its chi grid has.
    rng = random.Random(97)
    grids, twins = [], []
    cases = ((2, (1, 2), (2, 1)), (3, (2, 2), (1, 3)), (5, (1,) * 4, (1,) * 4), (3, (3,), (1, 2)))
    for p, alpha, beta in cases:
        f = PrimeField(p)
        alpha, beta = Composition(alpha), Composition(beta)
        for _ in range(6):
            a = random_invertible(f, alpha.n, rng)
            h = chi(a, alpha, beta)
            gs = [random_invertible(f, k, rng) for k in alpha]
            hs = [random_invertible(f, k, rng) for k in beta]
            twins.append((h, BiHinge(alpha, beta, chi_cells(a, alpha, beta))))
            grids += [h, hinge_act(gs, hs, h), twins[-1][1]]
            grids.append(standard_bihinge(rng.choice(list(contingency_tables(alpha, beta))), f))
            rows = []
            for na in alpha:
                row = []
                for nb in beta:
                    size = na + nb
                    gens = np.array(
                        [[rng.randrange(p) for _ in range(size)] for _ in range(rng.randint(0, size))],
                        dtype=np.int64,
                    ).reshape(-1, size)
                    row.append(LinearRelation(na, nb, Matrix(f, gens)))
                rows.append(row)
            grids.append(BiHinge(alpha, beta, rows))
    rng.shuffle(grids)
    _derive_each(grids)
    for h in grids:
        alone = BiHinge._of(h.alpha, h.beta, h.field, h.stack).derived()
        assert h._derived is not None
        for name, got, want in zip(alone._fields, h._derived, alone):
            assert got.shape == want.shape and np.array_equal(got, want), (name, h)
    for h, rebuilt in twins:
        for name, got, want in zip(h._derived._fields, rebuilt._derived, h._derived):
            assert got.shape == want.shape and np.array_equal(got, want), (name, h)


def _generic(h):
    return BiHinge._of(h.alpha, h.beta, h.field, h.stack).derived()


def _same_derived(got, want):
    return all(x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(got, want))


def test_neighbour_route_derives_as_the_generic_route():
    # a chi grid's ker and im read off its neighbours' X-first forms give the
    # Derived of the Y-first RREF, bit for bit in all seven fields: on every
    # element and composition pair of GL(2,3) and GL(3,2), and on random
    # grids at p = 65521 with n <= 12 and random compositions
    for n, q in ((2, 3), (3, 2)):
        f = PrimeField(q)
        mats = [Matrix(f, m) for m in gl_array(n, q)]
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                grids = _chi_each(mats, alpha, beta)
                assert all(h._from_pass for h in grids)
                copies = [BiHinge._of(h.alpha, h.beta, h.field, h.stack) for h in grids]
                for got, want in zip(_derive_each(grids), _derive_each(copies)):
                    assert _same_derived(got, want), (n, q, alpha, beta)
    rng, f = random.Random(2113), PrimeField(65521)
    for _ in range(40):
        n = rng.randint(1, 12)
        alpha, beta = random_composition(n, rng), random_composition(n, rng)
        grids = _chi_each([random_invertible(f, n, rng) for _ in range(3)], alpha, beta)
        for h in grids:
            assert _same_derived(h.derived(), _generic(h)), (n, alpha, beta)


def test_check_axioms_derives_a_marked_grid_generically(monkeypatch):
    # a grid that carries the mark of a column pass but is corrupted in one
    # cell still gets the violations of its unmarked copy, and check_axioms
    # never reads ker and im off the neighbours, nor a cache they filled
    f = PrimeField(2)
    a = Matrix(f, [[1, 0, 1], [1, 1, 0], [0, 1, 0]])
    h = chi(a, (1, 2), (2, 1))
    marked = []
    for (i, j), rows, want in _CORRUPTED:
        grid = chi_cells(a, h.alpha, h.beta)
        grid[i][j] = LinearRelation(h.alpha[i], h.beta[j], Matrix(f, rows))
        bad = BiHinge(h.alpha, h.beta, grid)
        marked.append((BiHinge._of(bad.alpha, bad.beta, f, bad.stack, from_pass=True), want))
    marked[0][0]._derived = h.derived()  # a cache that would hide the corruption

    def refuse(*args):
        raise AssertionError("check_axioms read the neighbour route")

    monkeypatch.setattr(bihinge, "_neighbour_forms", refuse)
    for bad, want in marked:
        report = check_axioms(bad)
        assert not report.ok and list(report.violations) == want


def test_only_pass_grids_carry_the_mark(monkeypatch):
    # chi grids are marked; an unpickled chi grid, user grids, hinge_act
    # images and standard grids are not, and derive through y_first alone
    f = PrimeField(3)
    a = Matrix(f, [[1, 2, 0], [0, 1, 1], [1, 0, 0]])
    h = chi(a, (2, 1), (1, 2))
    copy = pickle.loads(pickle.dumps(h))
    eye = [Matrix(f, np.eye(k, dtype=np.int64)) for k in (2, 1)], [Matrix(f, np.eye(k, dtype=np.int64)) for k in (1, 2)]
    others = (copy, BiHinge(h.alpha, h.beta, chi_cells(a, h.alpha, h.beta)), hinge_act(*eye, h), standard_bihinge(dimension_matrix(h), f))
    assert h._from_pass and not any(g._from_pass for g in others)

    def refuse(*args):
        raise AssertionError("an unmarked grid read the neighbour route")

    monkeypatch.setattr(bihinge, "_neighbour_forms", refuse)
    assert copy == h and _same_derived(copy.derived(), _generic(h))


def test_chi_validation():
    f = PrimeField(2)
    with pytest.raises(ShapeError):
        chi(Matrix(f, [[1, 0, 1], [0, 1, 0]]), (1, 2), (1, 1))
    with pytest.raises(MarginError):
        chi(Matrix(f, np.eye(3, dtype=np.int64)), (1, 1), (1, 1, 1))
    with pytest.raises(SingularMatrixError):
        chi(Matrix(f, [[1, 1], [1, 1]]), (1, 1), (1, 1))


def test_axioms_hold_on_computed_grids():
    rng = random.Random(79)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(15):
            n = rng.randint(1, 5)
            a = random_invertible(f, n, rng)
            h = chi(a, random_composition(n, rng), random_composition(n, rng))
            report = check_axioms(h)
            assert report.ok and report.violations == ()
            assert bool(report)


# One cell of chi(a, (1, 2), (2, 1)) over GF(2) replaced by the span of the
# given rows, and the exact violations check_axioms reports, in its order:
# cell by cell in row-major order, and per cell the order of the axioms in
# its docstring.  The last six each hit one axiom.
_CORRUPTED = (
    ((0, 0), [[1, 0, 0]], ["ker chi[1,1] != dom chi[1,2]", "im chi[1,1] != indef chi[2,1]"]),
    ((1, 1), [[0, 1, 1]], ["ker chi[2,1] != dom chi[2,2]"]),
    ((1, 0), [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]], ["im chi[1,1] != indef chi[2,1]"]),
    ((0, 1), [[0, 1]], ["im chi[1,2] != indef chi[2,2]", "indef chi[1,2] != 0"]),
    ((1, 1), [[1, 1, 0]], ["im chi[2,2] != W_2", "ker chi[2,2] != 0"]),
    ((1, 1), [[1, 1, 0], [0, 0, 1]], ["im chi[1,2] != indef chi[2,2]", "ker chi[2,2] != 0"]),
    ((1, 0), [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
     ["im chi[1,1] != indef chi[2,1]", "dom chi[2,1] != V_2"]),
)


def test_axioms_reject_corrupted_grid():
    f = PrimeField(2)
    a = Matrix(f, [[1, 0, 1], [1, 1, 0], [0, 1, 0]])
    h = chi(a, (1, 2), (2, 1))
    for (i, j), rows, want in _CORRUPTED:
        grid = chi_cells(a, h.alpha, h.beta)
        grid[i][j] = LinearRelation(h.alpha[i], h.beta[j], Matrix(f, rows))
        bad = BiHinge(h.alpha, h.beta, grid)
        report = check_axioms(bad)
        assert not report.ok and list(report.violations) == want, (i, j, rows)
        with pytest.raises(AxiomError, match=re.escape("; ".join(want))):
            dimension_matrix(bad)


def test_grid_rejects_cells_over_mixed_fields():
    f = PrimeField(3)
    a = Matrix(f, [[1, 2, 0], [0, 1, 1], [1, 0, 0]])
    h = chi(a, (2, 1), (1, 2))
    grid = chi_cells(a, h.alpha, h.beta)
    grid[1][0] = LinearRelation(1, 1, Matrix(PrimeField(5), [[1, 4]]))
    want = "cell (2,1) is over GF(5), cell (1,1) over GF(3)"
    with pytest.raises(ValueError, match=re.escape(want)):
        BiHinge(h.alpha, h.beta, grid)


def test_dimension_matrix_margins_random():
    rng = random.Random(83)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(20):
            n = rng.randint(1, 5)
            alpha = random_composition(n, rng)
            beta = random_composition(n, rng)
            a = random_invertible(f, n, rng)
            d = dimension_matrix(chi(a, alpha, beta))
            assert [sum(row) for row in d.to_rows()] == list(alpha.parts)
            cols = [sum(d.entries[i][j] for i in range(len(alpha))) for j in range(len(beta))]
            assert cols == list(beta.parts)


def test_dimension_matrix_validation():
    with pytest.raises(MarginError, match="row 2"):
        DimensionMatrix([[1], [2]], (1, 1), (3,))
    with pytest.raises(MarginError, match="column 1"):
        DimensionMatrix([[1, 0], [1, 0]], (1, 1), (1, 1))
    with pytest.raises(MarginError, match="nonnegative"):
        DimensionMatrix([[1, -1], [0, 2]], (1, 1), (1, 1))
    with pytest.raises(MarginError, match="table"):
        DimensionMatrix([[1, 0], [0, 1]], (1, 1), (2,))
    # a table of the wrong shape is named by its shape, or by its row lengths
    # if they differ; the texts hold for entries whose sums pass int64, the
    # sums given exactly
    texts = (
        ([[1, 0], [0]], (1, 1), (1, 1), "need a 2 x 2 table, got rows of lengths [2, 1]"),
        ([[1, 0]], (1,), (1,), "need a 1 x 1 table, got 1 x 2"),
        ([[1, 0], [0, 1]], (1, 1), (2,), "need a 2 x 1 table, got 2 x 2"),
        (5, (1,), (1,), "need a 1 x 1 table, got 0-dimensional data"),
        ([[10**30, 0], [0, 1]], (1, 1), (1, 1), "row 1 sums to 10" + "0" * 29 + ", expected 1"),
        ([[-10**30]], (1,), (1,), "cell dimensions must be nonnegative"),
        ([[2**62] * 4 + [1]], (1,), (1,) * 5, f"row 1 sums to {2**64 + 1}, expected 1"),
        ([[0, 2**63 - 1], [1, 0]], (2, 1), (1, 2), f"row 1 sums to {2**63 - 1}, expected 2"),
    )
    for entries, alpha, beta, text in texts:
        with pytest.raises(MarginError) as err:
            DimensionMatrix(entries, alpha, beta)
        assert str(err.value) == text
    d = DimensionMatrix(np.array([[0, 2], [1, 0]]), (2, 1), (1, 2))
    assert d.entries == ((0, 2), (1, 0)) and type(d.entries[0][0]) is int


def test_composition_api():
    c = Composition((2, 1, 3))
    assert c.n == 6 and len(c) == 3
    assert c.offsets == (0, 2, 3, 6)
    assert c.block(1) == (2, 3)
    assert list(c) == [2, 1, 3]
    assert Composition(c) == c
    with pytest.raises(ValueError):
        Composition((1, 0, 2))
    with pytest.raises(ValueError):
        Composition(())


def test_constructors_refuse_what_is_not_an_integer():
    # numpy reads a bool among ints as an int and casts floats and numeric
    # strings to int64, so Python values are judged by their own types
    f = PrimeField(5)
    cases = (
        (lambda: Composition([1.5, 2]), "composition parts must be integers, got 1.5"),
        (lambda: Composition(("1", 2)), "composition parts must be integers, got '1'"),
        (lambda: Composition([True, 2]), "composition parts must be integers, got True"),
        (lambda: Composition(5), "composition parts must be one flat sequence, got 0-dimensional data"),
        (lambda: Composition([[1, 2]]), "composition parts must be one flat sequence, got 2-dimensional data"),
        (lambda: Composition(np.array([[1, 2], [3, 4]])), "composition parts must be one flat sequence, got 2-dimensional data"),
        (lambda: DimensionMatrix([[1.7]], (1,), (1,)), "cell dimensions must be integers, got 1.7"),
        (lambda: DimensionMatrix([[True]], (1,), (1,)), "cell dimensions must be integers, got True"),
        (lambda: DimensionMatrix([["a", "b"]], (1,), (1, 1)), "cell dimensions must be integers, got 'a'"),
        (lambda: Matrix(f, [[True, False], [False, True]]), "matrix entries must be integers, got True"),
    )
    for build, text in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError and str(err.value) == text


def test_standard_bihinge_equals_chi_of_standard_matrix():
    for q in (2, 3):
        f = PrimeField(q)
        for alpha, beta in (((1, 1), (1, 1)), ((2, 1), (1, 1, 1)), ((2, 2), (1, 3))):
            for d in contingency_tables(alpha, beta):
                std = standard_matrix(d, f)
                assert chi(std, alpha, beta) == standard_bihinge(d, f), d.to_rows()


def test_standard_matrix_small_example():
    # two blocks of sizes (2, 1) against (1, 2), table [[1,1],[0,1]]
    f = PrimeField(2)
    d = DimensionMatrix([[1, 1], [0, 1]], (2, 1), (1, 2))
    m = standard_matrix(d, f)
    assert m.to_rows() == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    d2 = DimensionMatrix([[0, 1], [1, 0]], (1, 1), (1, 1))
    assert standard_matrix(d2, f).to_rows() == [[0, 1], [1, 0]]


def test_standard_matrix_matches_loop_oracle():
    # the units of each cell placed one by one, W_j filled as i ascends and
    # V_i as j ascends
    def oracle(d):
        arr = [[0] * d.alpha.n for _ in range(d.alpha.n)]
        r0 = list(d.beta.offsets[:-1])
        for i in range(len(d.alpha)):
            c0 = d.alpha.offsets[i]
            for j in range(len(d.beta)):
                for k in range(d.entries[i][j]):
                    arr[r0[j] + k][c0 + k] = 1
                r0[j] += d.entries[i][j]
                c0 += d.entries[i][j]
        return arr

    f = PrimeField(3)
    tables = 0
    for alpha in _MARGIN_SETS:
        for beta in _MARGIN_SETS:
            if sum(alpha) != sum(beta):
                continue
            for d in contingency_tables(alpha, beta):
                assert standard_matrix(d, f).to_rows() == oracle(d), d.to_rows()
                tables += 1
    assert tables > 20


def test_equivalence_matches_brute_partition():
    # pairwise: equal grids exactly on brute double-coset classmates
    alpha, beta, q = (1, 1), (1, 1), 3
    partition = double_cosets_brute(2, q, alpha, beta)
    label = dict(zip(enum_gl(2, q), partition.labels.tolist()))
    elements = sorted(label, key=label.get)  # class by class, each in key order
    rng = random.Random(89)
    for _ in range(200):
        a, b = rng.choice(elements), rng.choice(elements)
        assert equivalent(a, b, alpha, beta) == (label[a] == label[b])


def test_equivalent_validates_inputs():
    f2, f3 = PrimeField(2), PrimeField(3)
    with pytest.raises(ShapeError):
        equivalent(Matrix(f2, np.eye(2, dtype=np.int64)), Matrix(f3, np.eye(2, dtype=np.int64)), (1, 1), (1, 1))


def test_hinge_act_equivariance():
    """chi(h_blockdiag * a * g_blockdiag^-1) == hinge_act(gs, hs, chi(a)),
    checked with a * g_blockdiag in place of a: chi(h_blockdiag * a) ==
    hinge_act(gs, hs, chi(a * g_blockdiag))."""
    rng = random.Random(97)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(15):
            n = rng.randint(2, 5)
            alpha = random_composition(n, rng)
            beta = random_composition(n, rng)
            a = random_invertible(f, n, rng)
            gs = [random_invertible(f, alpha[i], rng) for i in range(len(alpha))]
            hs = [random_invertible(f, beta[j], rng) for j in range(len(beta))]
            gd = np.zeros((n, n), dtype=np.int64)
            hd = np.zeros((n, n), dtype=np.int64)
            for i in range(len(alpha)):
                lo, hi = alpha.block(i)
                gd[lo:hi, lo:hi] = gs[i].a
            for j in range(len(beta)):
                lo, hi = beta.block(j)
                hd[lo:hi, lo:hi] = hs[j].a
            assert chi(Matrix(f, hd) * a, alpha, beta) == hinge_act(gs, hs, chi(a * Matrix(f, gd), alpha, beta))


def test_hinge_act_shape_check():
    f = PrimeField(2)
    h = chi(Matrix(f, np.eye(2, dtype=np.int64)), (1, 1), (1, 1))
    with pytest.raises(ShapeError):
        hinge_act([Matrix(f, np.eye(1, dtype=np.int64))], [Matrix(f, np.eye(1, dtype=np.int64))] * 2, h)


def test_hinge_act_rejects_singular_factor():
    # the public action checks every factor; only internal callers with
    # factors known invertible skip the check
    f = PrimeField(3)
    h = chi(Matrix(f, [[1, 2, 0], [0, 1, 1], [1, 0, 0]]), (2, 1), (1, 2))
    eye = [Matrix(f, np.eye(2, dtype=np.int64)), Matrix(f, np.eye(1, dtype=np.int64))]
    singular = Matrix(f, [[1, 2], [2, 1]])  # rank 1 over GF(3)
    with pytest.raises(SingularMatrixError, match="column factor 1"):
        hinge_act([singular, eye[1]], [eye[1], eye[0]], h)
    with pytest.raises(SingularMatrixError, match="row factor 1"):
        hinge_act(eye, [Matrix(f, [[0]]), eye[0]], h)
    assert hinge_act(eye, [eye[1], eye[0]], h) == h


def test_hinge_act_rejects_factor_over_another_field():
    f = PrimeField(3)
    h = chi(Matrix(f, [[1, 2, 0], [0, 1, 1], [1, 0, 0]]), (2, 1), (1, 2))
    eye = [Matrix(f, np.eye(2, dtype=np.int64)), Matrix(f, np.eye(1, dtype=np.int64))]
    with pytest.raises(ValueError, match=re.escape("row factor 1: mixed fields GF(5) and GF(3)")):
        hinge_act(eye, [Matrix(PrimeField(5), [[3]]), eye[0]], h)


def test_normalize_standard_grid_gives_identities():
    f = PrimeField(3)
    d = DimensionMatrix([[1, 1], [1, 0]], (2, 1), (2, 1))
    std = standard_bihinge(d, f)
    gs, hs, dd = normalize(std)
    assert dd == d
    assert all(g == Matrix(f, np.eye(g.rows, dtype=np.int64)) for g in gs)
    assert all(h == Matrix(f, np.eye(h.rows, dtype=np.int64)) for h in hs)


def coarse_composition(n, rng):
    """A composition of n >= 5 into two to five blocks."""
    return Composition(np.diff([0, *sorted(rng.sample(range(1, n), rng.randint(1, 4))), n]))


def test_normalize_reaches_standard_form():
    # small grids over GF(2), GF(3) and GF(5), then p = 65521 and n <= 24
    # with two to five blocks a side: the contract holds, every witness is
    # invertible, and normalize reads the grid alone, so an unmarked copy
    # (derived through the Y-first RREF) gets the same witnesses
    rng = random.Random(101)
    cases = [(p, random_composition, 1, 5) for p in (2, 3, 5) for _ in range(15)]
    for p, composition, low, high in cases + [(65521, coarse_composition, 5, 24)] * 12:
        f = PrimeField(p)
        n = rng.randint(low, high)
        h = chi(random_invertible(f, n, rng), composition(n, rng), composition(n, rng))
        gs, hs, d = normalize(h)
        assert d == dimension_matrix(h)
        assert hinge_act(gs, hs, h) == standard_bihinge(d, f)
        assert all(m.rank() == m.rows for m in gs + hs)
        copy = BiHinge._of(h.alpha, h.beta, h.field, h.stack)
        assert not copy._from_pass and normalize(copy) == (gs, hs, d)


def test_stacked_axioms_match_each_grid():
    # one _axiom_tables call over many grids gives each grid's own flags and
    # table, with every third grid broken (cells zeroed) so that flags differ
    for n, q in ((2, 3), (3, 2)):
        f = PrimeField(q)
        mats = [Matrix(f, m) for m in gl_array(n, q)]
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                grids = _chi_each(mats, alpha, beta)
                for k in range(0, len(grids), 3):
                    h = grids[k]
                    grids[k] = BiHinge._of(h.alpha, h.beta, h.field, np.zeros_like(h.stack))
                flags, tables = _axiom_tables(grids)
                for k, h in enumerate(grids):
                    one_flags, one_table = _axiom_tables([h])
                    assert np.array_equal(flags[k], one_flags[0]) and flags[k].any() == (k % 3 == 0)
                    assert np.array_equal(tables[k], one_table[0]), (alpha, beta, k)


def test_stacked_normalize_matches_normalize_everywhere():
    # every element and composition pair of GL(2,3) and GL(3,2): the stacked
    # witnesses and tables are normalize's, grid by grid, and they carry
    # each grid onto its standard form
    for n, q in ((2, 3), (3, 2)):
        f = PrimeField(q)
        mats = [Matrix(f, m) for m in gl_array(n, q)]
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                grids = _chi_each(mats, alpha, beta)
                gs, hs, tables = _normalize_each(grids)
                for k, h in enumerate(grids):
                    g1, h1, d = normalize(h)
                    assert d.to_rows() == tables[k].tolist()
                    assert [m.a.tolist() for m in g1] == [g[k].tolist() for g in gs]
                    assert [m.a.tolist() for m in h1] == [x[k].tolist() for x in hs]
                    assert hinge_act(g1, h1, h) == standard_bihinge(d, f), (alpha, beta, k)


def test_invariance_under_triangular_moves():
    rng = random.Random(103)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(25):
            n = rng.randint(1, 5)
            alpha = random_composition(n, rng)
            beta = random_composition(n, rng)
            a = random_invertible(f, n, rng)
            d = random_unitriangular(beta, f, rng, lower=True)
            c = random_unitriangular(alpha, f, rng, lower=False)
            assert chi(d * a * c, alpha, beta) == chi(a, alpha, beta)
            assert equivalent(d * a * c, a, alpha, beta)


def test_cell_pass_block_counts_are_the_dimension_table():
    # the table equivalent compares before gathering any cell: the pivot
    # block counts of one stacked _cell_pass per group and composition pair
    # against dimension_matrix of chi's grids (_chi_each, equal to chi's)
    for n, q in ((3, 2), (2, 3)):
        f = PrimeField(q)
        elements = gl_array(n, q).astype(np.int64)
        mats = [Matrix(f, m) for m in elements]
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                counts = _block_counts(_cell_pass(elements, q, alpha)[0], alpha, beta)
                for a, h, table in zip(mats, _chi_each(mats, alpha, beta), counts):
                    assert table.tolist() == dimension_matrix(h).to_rows(), (a, alpha, beta)


def pivot_sets(h):
    """Each cell's pivot columns: where the nonzero rows of its basis lead."""
    return [tuple((cell != 0).argmax(axis=1)[cell.any(axis=1)].tolist()) for cell in h.stack]


def block_permutation(comp, field, rng):
    """A block diagonal permutation matrix, each block of comp permuted at random."""
    perm = [lo + k for lo, hi in zip(comp.offsets, comp.offsets[1:]) for k in rng.sample(range(hi - lo), hi - lo)]
    return Matrix(field, np.eye(comp.n, dtype=np.int64)[perm])


def test_equivalent_agrees_with_grid_equality():
    # seeded pairs: every kind of partner on finest and on coarse
    # compositions over every prime (kind, composition and prime cycle
    # independently). Random partners (in general another table: the early
    # exit), l a u partners (equivalent), torus partners a t, t diagonal
    # (same table and pivot sets, in general another coset: on coarse cells
    # this reaches the span check) and block permutations on both sides
    # (same table, in general other pivot sets); the verdict is grid
    # equality every time, and every required kind of pair occurs
    rng = random.Random(107)
    primes = (2, 3, 5, 7, 251, 65521)
    seen = set()
    for trial in range(240):
        f = PrimeField(primes[trial // 8 % 6])
        n = rng.randint(1, 12)
        finest = trial // 4 % 2 == 0
        alpha, beta = (Composition((1,) * n) if finest else random_composition(n, rng) for _ in range(2))
        a = random_invertible(f, n, rng)
        kind = ("random", "l a u", "torus", "pivots")[trial % 4]
        if kind == "random":
            b = random_invertible(f, n, rng)
        elif kind == "l a u":
            b = random_unitriangular(beta, f, rng, lower=True) * a * random_unitriangular(alpha, f, rng, lower=False)
        elif kind == "torus":
            b = a * Matrix(f, np.diag([rng.randrange(1, f.p) for _ in range(n)]))
        else:
            b = block_permutation(beta, f, rng) * a * block_permutation(alpha, f, rng)
        grid_a, grid_b = chi(a, alpha, beta), chi(b, alpha, beta)
        same_table = dimension_matrix(grid_a) == dimension_matrix(grid_b)
        same_pivots = same_table and pivot_sets(grid_a) == pivot_sets(grid_b)
        assert equivalent(a, b, alpha, beta) == (grid_a == grid_b), (kind, a, b, alpha, beta)
        assert same_table or kind == "random"
        seen.add((kind, finest, same_table, same_pivots, grid_a == grid_b))
    assert {("l a u", True, True, True, True), ("l a u", False, True, True, True),
            ("torus", True, True, True, False), ("torus", False, True, True, False),
            ("pivots", False, True, False, False),
            ("random", True, False, False, False), ("random", False, False, False, False)} <= seen
    assert all(verdict for kind, *_, verdict in seen if kind == "l a u")
    # a singular input still raises with the first singular matrix's column
    f = PrimeField(5)
    at_2, at_1 = Matrix(f, [[1, 0, 1], [0, 1, 1], [2, 3, 0]]), Matrix(f, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    for a, b, column in ((at_2, at_1, 2), (at_1, at_2, 1), (at_2, Matrix(f, np.eye(3, dtype=np.int64)), 2)):
        for alpha in ((3,), (1, 2), (1, 1, 1)):
            with pytest.raises(SingularMatrixError, match=f"column {column} depends"):
                equivalent(a, b, alpha, (2, 1))


def test_grids_separate_cosets_gl2_gf3():
    # every pair of GL(2, 3) elements, both compositions: grid equality
    # must coincide with brute double-coset equality
    q = 3
    elements = list(enum_gl(2, q))
    for alpha, beta in (((1, 1), (1, 1)), ((2,), (1, 1)), ((1, 1), (2,))):
        label = dict(zip(elements, double_cosets_brute(2, q, alpha, beta).labels.tolist()))
        grids = {m: chi(m, alpha, beta) for m in elements}
        for a in elements:
            for b in elements:
                assert (grids[a] == grids[b]) == (label[a] == label[b])


def test_bihinge_equal_and_hash():
    f = PrimeField(2)
    a = Matrix(f, [[1, 0, 1], [1, 1, 0], [0, 1, 0]])
    h1 = chi(a, (1, 2), (2, 1))
    h2 = chi(a, (1, 2), (2, 1))
    assert h1 == h2 and hash(h1) == hash(h2)
    # a pickled chi grid equals it and derives the same spaces without its pass
    copy = pickle.loads(pickle.dumps(h1))
    assert copy == h1 and all(np.array_equal(x, y) for x, y in zip(copy.derived(), h1.derived()))
    assert h1 != chi(a, (2, 1), (2, 1))
