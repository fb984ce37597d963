"""Linear relations: the four derived subspaces, theta and the group action.

Oracles enumerate relation members pointwise over GF(2) and GF(3), so the
derived spaces are verified against their set-theoretic definitions rather
than against other elimination code.
"""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinge.field import PrimeField
from hinge.linalg import Matrix, ShapeError, SingularMatrixError, _kernel_rows, _span
from hinge.relations import LinearRelation, act_stack, derive_stack, y_first


def vectors(s):
    """Every vector of a subspace, coefficient tuples in lexicographic order."""
    p = s.field.p
    for coeffs in product(range(p), repeat=s.rows):
        yield (np.array(coeffs, dtype=np.int64) @ s.a) % p


def relation(field, dim_x, dim_y, rows):
    """The relation spanned by explicit (xi | eta) rows."""
    gens = np.array(rows, dtype=np.int64).reshape(-1, dim_x + dim_y)
    return LinearRelation(dim_x, dim_y, Matrix(field, gens))


def act(rel, g, h):
    """The relation {(g xi, h eta) : (xi, eta) in rel} for invertible g, h,
    moved by act_stack as a stack of one."""
    if g.shape != (rel.dim_x, rel.dim_x) or h.shape != (rel.dim_y, rel.dim_y):
        raise ShapeError(f"action shapes {g.shape}, {h.shape} do not fit {rel}")
    if g.rank() != rel.dim_x or h.rank() != rel.dim_y:
        raise SingularMatrixError(f"action factors of ranks {g.rank()}, {h.rank()}")
    moved = act_stack(rel._stack(), g.a[None], h.a[None], rel.field.p)
    return LinearRelation(rel.dim_x, rel.dim_y, Matrix(rel.field, moved[0]))


def graph(a):
    """The graph {(x, a x)} of a matrix, spanned by the rows (e_c | a e_c)."""
    rows = np.concatenate([np.eye(a.cols, dtype=np.int64), a.a.T], axis=1)
    return LinearRelation(a.cols, a.rows, Matrix(a.field, rows))


def quotient_rows(big, small):
    """Rows of big's RREF basis whose pivots are not pivots of small.

    When small <= big these rows represent a basis of the quotient big/small:
    pivot columns of a subspace are the leading positions of its nonzero
    vectors, so they are monotone under inclusion and the selected rows span a
    complement of small inside big.
    """
    small_piv = set(pivots(small))
    keep = [i for i, c in enumerate(pivots(big)) if c not in small_piv]
    return big.a[keep]


def pivots(s):
    return tuple(int(np.argmax(row != 0)) for row in s.a)


def members(rel):
    """All (xi, eta) pairs of a relation as tuples of tuples."""
    out = set()
    for v in vectors(rel.basis):
        v = tuple(int(x) for x in v)
        out.add((v[: rel.dim_x], v[rel.dim_x :]))
    return out


def derived_sets(pairs, dim_x, dim_y):
    """ker/dom/im/indef straight from the definition, as sets."""
    zero_y = (0,) * dim_y
    zero_x = (0,) * dim_x
    ker = {xi for xi, eta in pairs if eta == zero_y}
    dom = {xi for xi, eta in pairs}
    im = {eta for xi, eta in pairs}
    indef = {eta for xi, eta in pairs if xi == zero_x}
    return ker, dom, im, indef


def as_set(s):
    return {tuple(int(x) for x in v) for v in vectors(s)}


def random_relation(rng, field, dim_x, dim_y):
    k = rng.randint(0, dim_x + dim_y)
    rows = [[rng.randrange(field.p) for _ in range(dim_x + dim_y)] for _ in range(k)]
    if not rows:
        return LinearRelation(dim_x, dim_y, Matrix.zeros(field, 0, dim_x + dim_y))
    return relation(field, dim_x, dim_y, rows)


def test_graph_of_matrix():
    f = PrimeField(3)
    a = Matrix(f, [[1, 2], [0, 1], [2, 0]])
    rel = graph(a)
    assert (rel.dim_x, rel.dim_y) == (2, 3)
    want = set()
    for x in product(range(3), repeat=2):
        y = tuple(int(v) for v in (a.a @ np.array(x, dtype=np.int64)) % 3)
        want.add((x, y))
    assert members(rel) == want
    assert rel.ker().rows == 0
    assert rel.dom() == Matrix(f, np.eye(2, dtype=np.int64))
    assert rel.indef().rows == 0
    assert rel.im().rows == 2


def test_graph_theta_is_the_matrix():
    # For an invertible a the quotients are X and Y themselves in the standard
    # bases, so theta must reproduce a exactly.
    f = PrimeField(5)
    a = Matrix(f, [[2, 1], [1, 1]])  # det = 1
    assert graph(a).theta() == a


def test_x_plus_zero_relation():
    # The relation X x {0}: everything is kernel, nothing is image.
    f = PrimeField(2)
    rel = relation(f, 2, 2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert rel.ker() == Matrix(f, np.eye(2, dtype=np.int64))
    assert rel.dom() == Matrix(f, np.eye(2, dtype=np.int64))
    assert rel.im().rows == 0
    assert rel.indef().rows == 0
    assert rel.theta().shape == (0, 0)


def test_derived_spaces_match_pointwise_definition():
    rng = random.Random(43)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(40):
            dim_x, dim_y = rng.randint(0, 3), rng.randint(0, 3)
            rel = random_relation(rng, f, dim_x, dim_y)
            ker, dom, im, indef = derived_sets(members(rel), dim_x, dim_y)
            assert as_set(rel.ker()) == ker
            assert as_set(rel.dom()) == dom
            assert as_set(rel.im()) == im
            assert as_set(rel.indef()) == indef


def test_theta_respects_membership():
    """(rep, lift) with lift in the class theta(rep) must lie in the relation.

    Checked pointwise: for every domain-basis class rep, theta gives image
    coordinates over the quotient frame; some member of the relation must
    connect rep to that eta modulo indefiniteness.
    """
    rng = random.Random(47)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(40):
            rel = random_relation(rng, f, rng.randint(0, 3), rng.randint(0, 3))
            theta = rel.theta()
            dom_rows = quotient_rows(rel.dom(), rel.ker())
            q_rows = quotient_rows(rel.im(), rel.indef())
            pairs = members(rel)
            indef_set = as_set(rel.indef())
            for k in range(dom_rows.shape[0]):
                xi = tuple(int(v) for v in dom_rows[k])
                eta = tuple(int(v) for v in (theta.a[:, k] @ q_rows) % p)
                hits = {
                    e for x, e in pairs if x == xi
                }
                assert any(
                    tuple((np.array(e) - np.array(eta)) % p) in indef_set for e in hits
                ), f"theta column {k} does not certify membership"


def test_relation_layer_at_large_p_matches_kernel_formulas():
    """At p = 65521, where members cannot be enumerated, check each derived
    space against a formula of its own and theta by span membership.

    ker and indef are spans of the basis combinations that vanish on the
    other half; dom and im are spans of the halves.  For each domain class
    xi, a lift eta with (xi, eta) in L is solved for through a kernel, and
    eta minus theta's image combination must lie in indef.
    """
    rng = random.Random(67)
    p = 65521
    f = PrimeField(p)
    rels = [
        graph(Matrix(f, [[3, 1], [65520, 7], [2, 0]])),
        LinearRelation(3, 2, Matrix.zeros(f, 0, 5)),
        relation(f, 2, 2, [[1, 5, 0, 0], [0, 0, 9, 1]]),  # dom == ker
    ]
    for _ in range(60):
        dim_x, dim_y = rng.randint(1, 6), rng.randint(1, 6)
        gens = [[rng.randrange(p) for _ in range(dim_x + dim_y)] for _ in range(rng.randint(1, 5))]
        gens.append([sum(col) % p for col in zip(*gens)])  # rank-deficient generators
        rels.append(relation(f, dim_x, dim_y, gens))
    for rel in rels:
        b = rel.basis.a
        bx, by = b[:, : rel.dim_x], b[:, rel.dim_x :]
        assert rel.dom() == _span(f, bx)
        assert rel.im() == _span(f, by)
        assert rel.ker() == _span(f, _kernel_rows(by.T, p) @ bx % p)
        assert rel.indef() == _span(f, _kernel_rows(bx.T, p) @ by % p)
        theta = rel.theta()
        dom_rows = quotient_rows(rel.dom(), rel.ker())
        q_rows = quotient_rows(rel.im(), rel.indef())
        assert theta.shape == (q_rows.shape[0], dom_rows.shape[0])
        assert theta.rank() == dom_rows.shape[0]
        for k, xi in enumerate(dom_rows):
            # (c, t) with c @ bx == t * xi; any t != 0 gives the lift c @ by / t
            sol = _kernel_rows(np.concatenate([bx, (-xi)[None, :] % p]).T, p)
            c = next(row for row in sol if row[-1])
            eta = c[:-1] @ by * pow(int(c[-1]), -1, p) % p
            rest = (eta - theta.a[:, k] @ q_rows) % p
            both = np.concatenate([rel.indef().a, rest[None, :]])
            assert _span(f, both) == rel.indef(), f"theta column {k} of {rel}"


def _member_rows(data, p, dim_x, dim_y):
    """Generator rows of one relation of a kind the stacked derive must handle."""
    size = dim_x + dim_y
    kind = data.draw(st.sampled_from(("random", "deficient", "zero", "dom == ker", "graph")))
    entry = st.integers(0, p - 1)
    if kind == "zero":
        return np.zeros((0, size), dtype=np.int64)
    if kind == "graph":  # rows (e_c | a e_c)
        a = np.array(data.draw(st.lists(entry, min_size=dim_x * dim_y, max_size=dim_x * dim_y)))
        return np.concatenate([np.eye(dim_x, dtype=np.int64), a.reshape(dim_x, dim_y)], axis=1)
    if kind == "dom == ker":  # (xi | 0) rows and (0 | eta) rows only
        gens = np.array(data.draw(st.lists(entry, min_size=size * size, max_size=size * size)))
        gens = gens.reshape(size, size)
        gens[: size // 2, dim_x:] = 0
        gens[size // 2 :, :dim_x] = 0
        return gens
    low, high = (1, size) if kind == "random" else (0, size - 1)  # "deficient": rank < size
    rank = data.draw(st.integers(low, high))
    left = np.array(data.draw(st.lists(entry, min_size=size * rank, max_size=size * rank)))
    right = np.array(data.draw(st.lists(entry, min_size=rank * size, max_size=rank * size)))
    return left.reshape(size, rank) @ right.reshape(rank, size) % p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_derive_stack_property(data):
    # every member of a stack, below and above the size at which y_first
    # reduces it as one stack, against the kernel formulas of the test above
    p = data.draw(st.sampled_from((2, 3, 5, 65521)))
    n_rel = data.draw(st.sampled_from((1, 2, 7, 8, 17)))
    dim_x, dim_y = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    f = PrimeField(p)
    size = dim_x + dim_y
    bases = [_span(f, _member_rows(data, p, dim_x, dim_y)).a for _ in range(n_rel)]
    stack = np.zeros((n_rel, size, size), dtype=np.int64)
    for m, b in zip(stack, bases):
        m[: len(b)] = b
    dv = derive_stack(stack, y_first(stack, dim_x, p), dim_x)

    def padded(space, width):
        out = np.zeros((width, width), dtype=np.int64)
        out[: space.rows] = space.a
        return out

    for k, b in enumerate(bases):
        bx, by = b[:, :dim_x], b[:, dim_x:]
        ker = _span(f, _kernel_rows(by.T, p) @ bx % p)
        dom = _span(f, bx)
        im = _span(f, by)
        indef = _span(f, _kernel_rows(bx.T, p) @ by % p)
        for got, space, width in zip(dv[:4], (ker, dom, im, indef), (dim_x, dim_x, dim_y, dim_y)):
            assert np.array_equal(got[k], padded(space, width)), (k, b)
        assert dv.dims[:, k].tolist() == [ker.rows, dom.rows, im.rows, indef.rows]
        d = dom.rows - ker.rows
        theta, lifts = dv.theta[k, :d, :d], dv.lifts[k, :d]
        q_rows = quotient_rows(im, indef)
        assert Matrix(f, theta).rank() == d == len(q_rows)
        assert np.array_equal(lifts[:, :dim_x], quotient_rows(dom, ker))
        for r, (xi, row) in enumerate(zip(quotient_rows(dom, ker), lifts)):
            # a lift of xi solved through a kernel, and the stored lift row,
            # which must lie in the relation, both map to theta's column r mod indef
            sol = _kernel_rows(np.concatenate([bx, (-xi)[None, :] % p]).T, p)
            c = next(s for s in sol if s[-1])
            eta = c[:-1] @ by * pow(int(c[-1]), -1, p) % p
            assert _span(f, np.concatenate([b, row[None]])).rows == len(b)
            for y in (eta, row[dim_x:]):
                rest = (y - theta[:, r] @ q_rows) % p
                assert _span(f, np.concatenate([indef.a, rest[None]])) == indef


def test_theta_square_and_invertible():
    rng = random.Random(53)
    f = PrimeField(3)
    for _ in range(40):
        rel = random_relation(rng, f, rng.randint(0, 3), rng.randint(0, 3))
        theta = rel.theta()
        d = rel.dom().rows - rel.ker().rows
        assert theta.shape == (d, d)
        assert rel.im().rows - rel.indef().rows == d
        assert theta.rank() == d


def test_relations_distinguish_scalars():
    f = PrimeField(3)
    one = graph(Matrix(f, [[1]]))
    two = graph(Matrix(f, [[2]]))
    assert one != two
    assert one.theta().to_rows() == [[1]]
    assert two.theta().to_rows() == [[2]]


def test_act_matches_pointwise_transform():
    rng = random.Random(59)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(30):
            dim_x, dim_y = rng.randint(1, 3), rng.randint(1, 3)
            rel = random_relation(rng, f, dim_x, dim_y)
            g = random_invertible(rng, f, dim_x)
            h = random_invertible(rng, f, dim_y)
            acted = act(rel, g, h)
            want = set()
            for xi, eta in members(rel):
                gx = tuple(int(v) for v in (g.a @ np.array(xi, dtype=np.int64)) % p)
                he = tuple(int(v) for v in (h.a @ np.array(eta, dtype=np.int64)) % p)
                want.add((gx, he))
            assert members(acted) == want


def random_invertible(rng, field, n):
    while True:
        rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        m = Matrix(field, rows)
        if m.rank() == n:
            return m


def inverse(g):
    """g^-1 of an invertible g, read off the RREF [I | g^-1] of [g | I]."""
    n = g.rows
    reduced, _ = Matrix(g.field, np.concatenate([g.a, np.eye(n, dtype=np.int64)], axis=1)).rref()
    assert reduced.a[:, :n].tolist() == np.eye(n, dtype=np.int64).tolist()
    return Matrix(g.field, reduced.a[:, n:])


def test_act_group_law_and_inverse():
    rng = random.Random(61)
    f = PrimeField(3)
    eye2, eye3 = Matrix(f, np.eye(2, dtype=np.int64)), Matrix(f, np.eye(3, dtype=np.int64))
    for _ in range(20):
        rel = random_relation(rng, f, 2, 3)
        g1, g2 = random_invertible(rng, f, 2), random_invertible(rng, f, 2)
        h1, h2 = random_invertible(rng, f, 3), random_invertible(rng, f, 3)
        assert act(rel, eye2, eye3) == rel
        assert act(act(rel, g1, h1), g2, h2) == act(rel, g2 * g1, h2 * h1)
        assert act(act(rel, g1, h1), inverse(g1), inverse(h1)) == rel


def test_act_validates_factors():
    f = PrimeField(2)
    rel = graph(Matrix(f, [[1, 0], [0, 1]]))
    with pytest.raises(ShapeError):
        act(rel, Matrix(f, np.eye(3, dtype=np.int64)), Matrix(f, np.eye(2, dtype=np.int64)))
    with pytest.raises(SingularMatrixError):
        act(rel, Matrix(f, [[1, 1], [1, 1]]), Matrix(f, np.eye(2, dtype=np.int64)))


def test_quotient_rows_picks_complement():
    f = PrimeField(2)
    big = _span(f, np.eye(3, dtype=np.int64))
    small = _span(f, np.array([[0, 1, 1]]))
    rows = quotient_rows(big, small)
    # two rows whose pivots avoid small's pivot column 1
    assert rows.shape == (2, 3)
    assert _span(f, np.concatenate([small.a, rows], axis=0)) == big


def test_relation_shape_validation():
    f = PrimeField(2)
    with pytest.raises(ShapeError):
        LinearRelation(2, 2, Matrix.zeros(f, 0, 3))
    with pytest.raises(ShapeError):
        LinearRelation(2, 2, Matrix(f, [[1, 0, 1, 1, 0]]))
    with pytest.raises(ShapeError):
        LinearRelation(-1, 2, Matrix.zeros(f, 0, 1))


def test_relation_spans_any_generator_rows():
    # A non-RREF generator set, the same set with zero rows added and its RREF
    # span one relation: one basis, equal relations, equal hashes.
    f = PrimeField(5)
    gens = [[2, 4, 1, 3], [1, 2, 3, 0], [3, 1, 0, 4]]
    padded = [[0, 0, 0, 0]] + gens[:2] + [[0, 0, 0, 0]] + gens[2:]
    rref, _ = Matrix(f, gens).rref()
    reduced = Matrix(f, rref.a[: rref.rank()])
    rels = [LinearRelation(2, 2, Matrix(f, rows)) for rows in (gens, padded, reduced.a)]
    assert Matrix(f, gens) != reduced
    for rel in rels:
        assert rel.basis == reduced
        assert rel == rels[0] and hash(rel) == hash(rels[0])
