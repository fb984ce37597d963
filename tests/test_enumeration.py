"""Exhaustive enumeration, closure partitions and the counting formulas."""

import random
import tracemalloc
from collections import Counter, deque
from itertools import product, takewhile
from math import comb, factorial, isqrt, prod

import numpy as np
import pytest

from hinge import bihinge, enumeration, linalg, relations
from hinge.bihinge import Composition, DimensionMatrix, MarginError, chi
from hinge.enumeration import (
    BudgetError,
    CosetPartition,
    DEFAULT_BUDGET,
    EnumerationBudget,
    _free_positions,
    _gl_codes,
    _move_table,
    _partition_labels,
    _row_codes,
    _table_sum,
    contingency_tables,
    double_cosets_brute,
    enum_gl,
    enum_subspaces,
    gaussian_binomial,
    gl_array,
    gl_order,
    predicted_coset_count,
    stab_order_formula,
    stabilizer_brute,
    subspace_count,
)
from hinge.field import PrimeField
from hinge.linalg import Matrix, _span
from hinge.relations import InvariantViolation
from hinge.selfcheck import all_compositions, check_stabilizers


def encode_matrix(m: Matrix) -> int:
    """The key of a matrix: its row-major entries as base-p digits, first
    entry highest."""
    key = 0
    for v in m.a.flat:
        key = key * m.field.p + int(v)
    return key


def block_positions(comp, lower: bool) -> list:
    """The block strictly lower (or upper) positions (r, c) of a composition,
    in row-major order."""
    comp = Composition(comp)
    block = [i for i, part in enumerate(comp) for _ in range(part)]
    return [
        (r, c)
        for r, c in product(range(comp.n), repeat=2)
        if ((block[r] > block[c]) if lower else (block[r] < block[c]))
    ]


def t_generators(comp, q: int, lower: bool) -> list:
    """The elementary generators I + e_rc of the block strictly lower (or
    upper) unitriangular group of a composition, (r, c) in row-major order."""
    gens = []
    for r, c in block_positions(comp, lower):
        arr = np.eye(Composition(comp).n, dtype=np.int64)
        arr[r, c] = 1
        gens.append(Matrix(PrimeField(q), arr))
    return gens


def merge_reference(labels: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Join the classes linked by the edges i -- nbr[i].

    labels[i] is the smallest index of a class member and labels[labels] ==
    labels.  Each round hooks the larger root of every edge whose ends differ
    onto the smaller one, then jumps pointers until every label is a root
    again (Shiloach-Vishkin min-label propagation).
    """
    while True:
        a = labels
        b = labels[nbr]
        diff = a != b
        if not diff.any():
            return labels
        a, b = a[diff], b[diff]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def closure_reference(elements: np.ndarray, alpha, beta, q: int) -> tuple:
    """(labels, class count) of the closure partition by min-label
    propagation over the whole array: every generator's product of every
    element, by row or column arithmetic, is found by its key in a dense
    index, and the classes it links are merged, generators in row-major
    order.  No orbit size is assumed or checked.  Classes are numbered by
    their smallest member."""
    total, n = elements.shape[:2]
    weights = q ** np.arange(n * n - 1, -1, -1, dtype=np.int64).reshape(n, n)
    keys = elements.reshape(total, -1).astype(np.int64) @ weights.ravel()
    index = np.full(q ** (n * n), -1, dtype=np.int64)
    index[keys] = np.arange(total)
    labels = np.arange(total)
    moves = [(elements, weights, r, c) for r, c in block_positions(beta, lower=True)]  # row r += row c
    moves += [  # column c += column r: row c += row r of the transpose
        (elements.transpose(0, 2, 1), weights.T, c, r) for r, c in block_positions(alpha, lower=False)
    ]
    for rows, w, i, j in moves:
        old = rows[:, i].astype(np.int64)
        nbr = index[keys + ((old + rows[:, j]) % q - old) @ w[i]]
        assert (nbr >= 0).all()
        labels = merge_reference(labels, nbr)
    roots = labels == np.arange(total)
    return (np.cumsum(roots) - 1)[labels], int(roots.sum())


def test_gl_order_values():
    assert gl_order(0, 2) == 1
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(4, 2) == 20160
    assert gl_order(2, 3) == 48
    assert gl_order(2, 5) == 480


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(3, 3, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    for n in range(6):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 2) == gaussian_binomial(n, n - k, 2)


def test_subspace_count_values():
    assert subspace_count(2, 2) == 5
    assert subspace_count(2, 3) == 6
    assert subspace_count(3, 2) == 16


def test_encode_decode_round_trip():
    rng = random.Random(137)
    for p in (2, 3, 251):
        f = PrimeField(p)
        for _ in range(10):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = Matrix(f, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            key = encode_matrix(m)
            digits = []
            for _ in range(rows * cols):
                key, v = divmod(key, p)
                digits.append(v)
            assert key == 0
            assert np.array(digits[::-1]).reshape(rows, cols).tolist() == m.to_rows()
    # first entry carries the highest weight
    f2 = PrimeField(2)
    assert encode_matrix(Matrix(f2, [[1, 0], [0, 1]])) == 0b1001
    assert encode_matrix(Matrix(f2, [[0, 1], [1, 0]])) == 0b0110


def test_enum_gl_complete_and_sorted():
    for n, q in ((1, 2), (2, 2), (2, 3), (3, 2)):
        elements = list(enum_gl(n, q))
        assert len(elements) == gl_order(n, q)
        keys = [encode_matrix(m) for m in elements]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for m in elements:
            assert m.rank() == n


def test_enum_gl_budget():
    with pytest.raises(BudgetError, match="24261120"):
        list(enum_gl(4, 3))
    with pytest.raises(BudgetError):
        list(enum_gl(2, 2, EnumerationBudget(max_group_order=5)))


def test_t_generators():
    gens = t_generators((2, 1), 2, lower=False)
    assert len(gens) == 2
    eye = np.eye(3, dtype=np.int64)
    for g in gens:
        diff = (g.a - eye) % 2
        assert diff.sum() == 1
    lows = t_generators((2, 1), 2, lower=True)
    assert len(lows) == 2
    for g in lows:
        r, c = np.argwhere(((g.a - eye) % 2) == 1)[0]
        assert r > c


def test_enum_subspaces_complete():
    for d, q in ((2, 2), (3, 2), (2, 3)):
        spaces = list(enum_subspaces(d, q))
        assert len(spaces) == subspace_count(d, q)
        assert len(set(spaces)) == len(spaces)
        by_dim = {}
        for s in spaces:
            assert s == _span(s.field, s.a)  # an RREF basis without zero rows
            by_dim[s.rows] = by_dim.get(s.rows, 0) + 1
        for k in range(d + 1):
            assert by_dim.get(k, 0) == gaussian_binomial(d, k, q)


def test_subspaces_sharing_four_spaces_number_gl_of_the_quotient():
    # Goursat's lemma, exhaustively: a subspace of GF(q)^a (+) GF(q)^b is
    # ker <= dom, indef <= im and an isomorphism dom/ker -> im/indef, so the
    # subspaces sharing their four spaces number |GL(dim dom - dim ker, q)|
    groups = 0
    for q, most in ((2, 5), (3, 4), (5, 3)):
        for w in range(1, most + 1):
            spaces = list(enum_subspaces(w, q))
            stack = np.zeros((len(spaces), w, w), dtype=np.int64)
            for m, space in zip(stack, spaces):
                m[: space.rows] = space.a
            for a in range(w + 1):
                dv = relations.derive_stack(stack, relations.y_first(stack, a, q), a)
                four = np.concatenate([x.reshape(len(stack), -1) for x in dv[:4]], axis=1)
                _, inverse, counts = np.unique(four, axis=0, return_inverse=True, return_counts=True)
                quotients = [gl_order(d, q) for d in (dv.dims[1] - dv.dims[0]).tolist()]
                assert (counts[inverse.ravel()] == quotients).all(), (q, a, w - a)
                groups += len(counts)
    assert groups == 3636


def test_double_cosets_gf2_sizes():
    part = double_cosets_brute(2, 2, (1, 1), (1, 1))
    assert isinstance(part, CosetPartition)
    assert part.num_classes == 2
    sizes = np.bincount(part.labels)
    assert sorted(sizes.tolist()) == [2, 4]
    assert len(part.labels) == 6
    f = PrimeField(2)
    label = dict(zip(enum_gl(2, 2), part.labels.tolist()))
    assert sizes[label[Matrix(f, [[0, 1], [1, 0]])]] == 2 and sizes[label[Matrix(f, np.eye(2, dtype=np.int64))]] == 4


def test_cosets_sorted_by_key():
    # the elements ascend in key order, and the classes in that of their
    # first members
    part = double_cosets_brute(2, 3, (1, 1), (1, 1))
    keys = [encode_matrix(Matrix(PrimeField(3), m)) for m in part.elements]
    assert keys == sorted(keys)
    firsts = np.unique(part.labels, return_index=True)[1]
    assert firsts.tolist() == sorted(firsts.tolist()) and part.labels[0] == 0
    assert len(part.labels) == gl_order(2, 3)


def test_coset_classes_are_grid_fibers():
    part = double_cosets_brute(3, 2, (2, 1), (1, 2))
    fibers = {}
    for m, k in zip(enum_gl(3, 2), part.labels.tolist()):
        fibers.setdefault(k, set()).add(chi(m, (2, 1), (1, 2)))
    assert len(fibers) == part.num_classes and all(len(grids) == 1 for grids in fibers.values())


def test_stabilizer_examples():
    d = DimensionMatrix([[1, 1]], (2,), (1, 1))
    assert stabilizer_brute(d, 2) == 2
    assert stab_order_formula(d, 2) == 2
    eye_d = DimensionMatrix([[1, 0], [0, 1]], (1, 1), (1, 1))
    assert stabilizer_brute(eye_d, 3) == 4
    assert stab_order_formula(eye_d, 3) == 4
    single = DimensionMatrix([[2]], (2,), (2,))
    assert stab_order_formula(single, 2) == gl_order(2, 2)
    assert stabilizer_brute(single, 2) == 6


def test_stabilizer_formula_vs_brute_margins():
    for q in (2, 3):
        for alpha, beta in (((1, 1), (2,)), ((2,), (2,)), ((2, 1), (1, 1, 1))):
            for d in contingency_tables(alpha, beta):
                assert stabilizer_brute(d, q) == stab_order_formula(d, q), (
                    f"table {d.to_rows()} at q={q}"
                )


def test_stabilizer_brute_is_independent_of_the_fast_path(monkeypatch):
    # the oracle tests span membership against the standard basis: it never
    # moves a cell with the hinge action nor reduces one, so it shares neither
    # with the normal form it checks
    def refused(*args, **kwargs):
        raise AssertionError("fast path called")

    for module, name in ((relations, "act_stack"), (bihinge, "act_stack"), (linalg, "_rref_each"),
                         (relations, "_rref_each"), (linalg, "_rref")):
        monkeypatch.setattr(module, name, refused)
    assert check_stabilizers(qs=(2, 3)) == (True, "38 tables over q in (2, 3)")


def test_contingency_tables():
    tables = contingency_tables((2, 1), (1, 2))
    assert [t.to_rows() for t in tables] == [[[0, 2], [1, 0]], [[1, 1], [0, 1]]]
    assert len(contingency_tables((1, 1), (1, 1))) == 2
    assert len(contingency_tables((1, 1, 1), (1, 1, 1))) == 6
    assert len(contingency_tables((2, 2), (2, 2))) == 3
    for t in contingency_tables((3, 1), (2, 2)):
        assert [sum(r) for r in t.to_rows()] == [3, 1]


def test_contingency_table_count_matches_the_listing():
    def count(alpha, beta):
        return _table_sum(alpha, beta, lambda v: 1)

    for n in range(1, 6):
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                tables = contingency_tables(alpha, beta)
                assert count(alpha, beta) == len(tables), (alpha, beta)
                # listed without validation, each equals the validated table
                assert all(DimensionMatrix(d.entries, alpha, beta) == d for d in tables), (alpha, beta)
    assert count((3, 1, 2), (2, 2, 2)) == len(contingency_tables((3, 1, 2), (2, 2, 2)))
    # closed forms far past any listing: permutation matrices and 0-1 tables
    # with two rows (or columns)
    assert count((1,) * 40, (1,) * 40) == factorial(40)
    assert count((15, 15), (1,) * 30) == comb(30, 15)
    assert count((1,) * 30, (15, 15)) == comb(30, 15)
    with pytest.raises(MarginError):
        count((1, 1), (3,))


def test_predicted_count_budget_names_the_charged_placements():
    # the table DP charges every class placement it tries to the subspace
    # budget: (1^6) x (1^6) tries 17
    ones = (1,) * 6
    assert predicted_coset_count(ones, ones, 2) == predicted_coset_count(
        ones, ones, 2, EnumerationBudget(max_subspace_lattice=17)
    ) == factorial(6)
    with pytest.raises(
        BudgetError,
        match=r"table placements for alpha=\(1(, 1){5}\), beta=\(1(, 1){5}\) = 17 "
        r"exceeds subspace budget 16",
    ):
        predicted_coset_count(ones, ones, 2, EnumerationBudget(max_subspace_lattice=16))


def test_predicted_counts():
    assert predicted_coset_count((1, 1), (1, 1), 2) == 2
    assert predicted_coset_count((1, 1), (1, 1), 3) == 8
    assert predicted_coset_count((2,), (1, 1), 2) == 3
    assert predicted_coset_count((1, 1, 1), (1, 1, 1), 2) == 6


def test_predicted_count_of_one_block_is_the_free_quotient():
    # with alpha = (n), T+(alpha) is trivial and T-(beta) acts freely, so the
    # count is |GL(n, q)| / |T-(beta)|, with the one block on either side;
    # a part of 130 or 100 must not raise the formula's scale to huge powers
    for n, q, betas in ((130, 2, [(130,), (65, 65), (30, 100), (1,) * 130]), (40, 65521, [(1,) * 40])):
        for beta in betas:
            want = gl_order(n, q) // q ** ((n * n - sum(b * b for b in beta)) // 2)
            assert predicted_coset_count((n,), beta, q) == predicted_coset_count(beta, (n,), q) == want, (n, q, beta)


def test_predicted_equals_brute_more_margins():
    for alpha, beta, q in (
        ((2, 1), (1, 2), 2),
        ((2, 1), (2, 1), 3),
        ((1, 1, 1), (2, 1), 2),
        ((3,), (1, 1, 1), 2),
    ):
        part = double_cosets_brute(sum(alpha), q, alpha, beta)
        assert part.num_classes == predicted_coset_count(alpha, beta, q)


def test_orbit_stabilizer_identity():
    # the weighted table DP against the listing sum it replaces: orbit sizes
    # group / stabilizer, one per contingency table
    pairs = 0
    for q, max_n in ((2, 5), (3, 5), (5, 4)):
        for n in range(1, max_n + 1):
            for alpha in all_compositions(n):
                for beta in all_compositions(n):
                    group = 1
                    for part in (*alpha, *beta):
                        group *= gl_order(part, q)
                    total = sum(
                        group // stab_order_formula(d, q) for d in contingency_tables(alpha, beta)
                    )
                    assert total == predicted_coset_count(alpha, beta, q), (alpha, beta, q)
                    pairs += 1
    assert pairs == 767


def test_flags_and_quotients_number_the_orbit_of_each_table():
    # the axiom grids with table d: a flag of each V_i with jumps row i of d,
    # one of each W_j with jumps column j, and per cell an isomorphism of
    # d_ij-dimensional quotients (Goursat); they number the orbit N / stab(d)
    # that check_completeness counts classes against, with stab_order_formula
    # read without stabilizer_brute
    def flags(m, jumps, q):
        count, rem = divmod(gl_order(m, q), prod(gl_order(v, q) for v in jumps)
                            * q ** sum(v * w for k, v in enumerate(jumps) for w in jumps[k + 1 :]))
        assert not rem
        return count

    tables = 0
    for q in (2, 3):
        for n in range(1, 6):
            for alpha in all_compositions(n):
                for beta in all_compositions(n):
                    group = prod(gl_order(part, q) for part in (*alpha, *beta))
                    for d in contingency_tables(alpha, beta):
                        rows = d.to_rows()
                        grids = prod(flags(part, row, q) for part, row in zip(alpha, rows))
                        grids *= prod(flags(part, column, q) for part, column in zip(beta, zip(*rows)))
                        grids *= prod(gl_order(v, q) for row in rows for v in row)
                        assert grids * stab_order_formula(d, q) == group, (q, d)
                        tables += 1
    assert tables == 6562


def test_budget_errors_carry_cardinality():
    tiny = EnumerationBudget(max_group_order=10, max_subspace_lattice=10)
    with pytest.raises(BudgetError, match="48"):
        list(enum_gl(2, 3, tiny))
    with pytest.raises(BudgetError, match="16"):
        list(enum_subspaces(3, 2, tiny))
    assert DEFAULT_BUDGET.max_group_order == 10 ** 7
    assert DEFAULT_BUDGET.max_subspace_lattice == 10 ** 6


def test_gl_array_is_the_sorted_invertible_matrices():
    # against an independent listing: every q**(n*n) matrix in lexicographic
    # order, kept when its rank is full; GL(3, 3) grows spans twice, by c v
    # for c in {1, 2}
    for n, q in ((1, 3), (2, 3), (3, 2), (2, 5), (3, 3)):
        field = PrimeField(q)
        want = [
            entries
            for entries in product(range(q), repeat=n * n)
            if Matrix(field, np.array(entries).reshape(n, n)).rank() == n
        ]
        got = gl_array(n, q)
        assert got.dtype == np.uint8
        assert got.reshape(len(got), -1).tolist() == [list(e) for e in want]
    assert gl_array(1, 257).dtype == np.uint16
    assert gl_array(1, 65521)[:, 0, 0].tolist() == list(range(1, 65521))
    assert gl_array(0, 2).shape == (1, 0, 0)


def test_gl_codes_are_what_the_closure_would_build():
    # the keys, row codes and move table the enumeration hands the closure
    # in its cache equal, dtypes included, what the closure builds from the
    # elements
    for n, q in ((1, 3), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2), (2, 31)):
        elements, cache = _gl_codes(n, q)
        assert np.array_equal(elements, gl_array(n, q)) and elements.dtype == gl_array(n, q).dtype
        assert set(cache) == {"keys", "table", 0}, (n, q)
        keys, codes, table = cache["keys"], cache[0], cache["table"]
        want = _row_codes(elements.reshape(len(elements), -1), q)
        assert keys.dtype == want.dtype and np.array_equal(keys, want), (n, q)
        assert sorted(codes) == list(range(n)), (n, q)
        for k in range(n):
            want = _row_codes(elements[:, k], q)
            assert codes[k].dtype == want.dtype and np.array_equal(codes[k], want), (n, q, k)
        if n == 1:
            assert table is None  # no moves, and a q**2 table at q = 65521
            continue
        place = q ** np.arange(n - 1, -1, -1)
        want = _move_table(np.arange(q ** n)[:, None] // place % q, q)
        assert table.dtype == want.dtype and np.array_equal(table, want), (n, q)


def test_double_cosets_brute_match_a_cold_closure():
    # double_cosets_brute hands the closure the enumeration's keys, row
    # codes and table; a cold call rebuilds them from the elements alone.
    # (2) x (2) at q = 3 has no moves on either side
    cases = [(n, q, all_compositions(n)) for n, q in ((3, 2), (2, 5), (4, 2))]
    cases = [(n, q, [(a, b) for a in comps for b in comps]) for n, q, comps in cases]
    for n, q, pairs in cases + [(2, 3, [((2,), (2,))])]:
        elements = gl_array(n, q)
        for alpha, beta in pairs:
            part = double_cosets_brute(n, q, alpha, beta)
            labels, count = _partition_labels(elements, alpha, beta, q, {})
            assert np.array_equal(part.elements, elements)
            assert part.labels.dtype == labels.dtype and np.array_equal(part.labels, labels), (n, q, alpha, beta)
            assert part.num_classes == count, (n, q, alpha, beta)


def test_partition_labels_check_the_keys_a_cache_brings():
    # keys handed in through the cache are checked as the closure's own are
    elements, cache = _gl_codes(2, 3)
    keys = cache["keys"]
    for bad in (keys[::-1], np.sort(np.r_[keys[:-1], keys[0]])):
        with pytest.raises(InvariantViolation, match="does not strictly ascend"):
            _partition_labels(elements, (1, 1), (1, 1), 3, {**cache, "keys": bad})


def test_partition_labels_rejects_products_outside_the_set():
    # half of GL(2, 2) is not closed under the generator: adding row 0 to
    # row 1 of the identity gives (1 0; 1 1), which is not among the three
    with pytest.raises(InvariantViolation, match="maps element 2 outside the element set"):
        _partition_labels(gl_array(2, 2)[:3], (2,), (1, 1), 2, {})
    # the dense index would keep only the last of two equal keys, so a stack
    # with a repeated or out-of-order element is refused before any move
    for stack in (gl_array(2, 2)[[0, 0, 1]], gl_array(2, 2)[::-1]):
        with pytest.raises(InvariantViolation, match="does not strictly ascend"):
            _partition_labels(stack, (1, 1), (1, 1), 2, {})


def test_partition_labels_match_min_label_propagation():
    # the cycle joins against the min-label propagation they replaced, bit
    # for bit: every composition pair of the small groups, two pairs of
    # GL(3, 5) and one of GL(2, 31), whose cycles need five doubling steps
    cases = [(n, q, all_compositions(n)) for n, q in ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2))]
    cases = [(n, q, [(a, b) for a in comps for b in comps]) for n, q, comps in cases]
    cases += [(3, 5, [((1, 1, 1), (1, 1, 1)), ((1, 2), (2, 1))]), (2, 31, [((1, 1), (1, 1))])]
    for n, q, pairs in cases:
        elements, cache = gl_array(n, q), {}
        for alpha, beta in pairs:
            labels, count = _partition_labels(elements, alpha, beta, q, cache)
            want, want_count = closure_reference(elements, alpha, beta, q)
            assert np.array_equal(labels, want) and count == want_count, (n, q, alpha, beta)


def test_partition_labels_certify_the_orbit_size():
    # the nine rank-1 matrices of GF(2)^(2x2), in key order, are closed
    # under the moves of (1, 1) x (1, 1), but adding row 0 to row 1 fixes
    # the three with a zero top row, so the left group does not act freely
    # on them; propagation, which assumes no orbit size, splits them into 4
    # classes, and the closure refuses them
    rank1 = [m for m in product(range(2), repeat=4) if m[0] * m[3] == m[1] * m[2] and any(m)]
    rank1 = np.array(rank1, dtype=np.uint8).reshape(-1, 2, 2)
    assert len(rank1) == 9 and closure_reference(rank1, (1, 1), (1, 1), 2)[1] == 4
    with pytest.raises(InvariantViolation, match="does not hold q\\*\\*1 elements"):
        _partition_labels(rank1, (1, 1), (1, 1), 2, {})


def test_partition_labels_refuse_a_move_that_does_not_permute_the_classes(monkeypatch):
    # taken by rising block height, a move need not normalize the group of
    # the moves before it, so it need not permute their classes in cycles
    # of 1 or q: at (2, 1, 1) x (4) over GL(4, 2) the doubling steps end on
    # a class that does not stay, and the closure raises rather than
    # following the steps further
    falling = enumeration._free_positions
    monkeypatch.setattr(enumeration, "_free_positions", lambda comp, lower: falling(comp, lower)[::-1])
    with pytest.raises(InvariantViolation, match="does not permute the classes in cycles of 1 or q"):
        _partition_labels(gl_array(4, 2), (2, 1, 1), (4,), 2, {})


def closure_checks_reference(elements: np.ndarray, alpha, beta, q: int):
    """What _partition_labels must do on a stack of n x n matrices in key
    order, worked out product by product: (labels, count), or the message
    it must raise.

    Moves are taken in the closure's order: the side with more moves first,
    the left side on a tie, each side by falling block height, row-major
    within one height.  At each move every element's product is formed by
    matrix arithmetic and looked up by its entries; the first move with a
    product outside the set names the smallest element it moves out.  After
    the first side, each class of its moves must hold q**moves elements."""
    n = elements.shape[1]
    where = {m.tobytes() for m in elements}

    def ordered(comp, lower):
        block = [i for i, part in enumerate(Composition(comp)) for _ in range(part)]
        return sorted(block_positions(comp, lower), key=lambda rc: -abs(block[rc[0]] - block[rc[1]]))

    sides = [[(True, r, c) for r, c in ordered(beta, True)], [(False, r, c) for r, c in ordered(alpha, False)]]
    first = int(len(sides[1]) > len(sides[0]))
    for side in (first, 1 - first):
        for left, r, c in sides[side]:
            g = np.eye(n, dtype=np.int64)
            g[r, c] = 1  # left: row r += row c; right: column c += column r
            products = ((g @ elements if left else elements @ g) % q).astype(elements.dtype)
            out = [k for k, m in enumerate(products) if m.tobytes() not in where]
            if out:
                return f"a generator maps element {out[0]} outside the element set"
        if side == first:
            only = (alpha, (n,)) if first else ((n,), beta)  # the first side's moves alone
            size = q ** len(sides[first])
            if (np.bincount(closure_reference(elements, *only, q)[0]) != size).any():
                return f"a class of the free side does not hold q**{len(sides[first])} elements"
    return closure_reference(elements, alpha, beta, q)


def test_partition_labels_on_partial_sets_raise_exactly_where_a_product_leaves():
    # seeded parts of GL(3, 2), GL(2, 3) and GL(2, 5), and of all 2 x 2
    # matrices over GF(2) and GF(3), on every composition pair: arbitrary
    # subsets, the whole stack, unions of the first side's orbits, the
    # stack less one of those orbits, and unions of double cosets.  Where a
    # product leaves the set or a class of the first side is short, the
    # closure must raise the reference's message, naming the same element;
    # elsewhere its labels must be the reference's
    rng = np.random.default_rng(27)
    stacks = [(gl_array(n, q), q) for n, q in ((3, 2), (2, 3), (2, 5))]
    stacks += [(np.array(list(product(range(q), repeat=4)), dtype=np.uint8).reshape(-1, 2, 2), q) for q in (2, 3)]
    seen = Counter()
    for elements, q in stacks:
        n = elements.shape[1]
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                free = len(block_positions(alpha, False)) > len(block_positions(beta, True))
                orbits = closure_reference(elements, *((alpha, (n,)) if free else ((n,), beta)), q)[0]
                cosets = closure_reference(elements, alpha, beta, q)[0]
                masks = [np.ones(len(elements), dtype=bool)]
                masks += [rng.random(len(elements)) < p for p in (0.5, 0.9, 0.98)]
                masks.append(rng.random(orbits.max() + 1)[orbits] < 0.5)
                masks += [orbits != k for k in rng.choice(orbits.max() + 1, size=4)]
                masks.append(rng.random(cosets.max() + 1)[cosets] < 0.5)
                for mask in masks:
                    part = elements[mask]
                    if not len(part):
                        continue
                    want = closure_checks_reference(part, alpha, beta, q)
                    if isinstance(want, str):
                        with pytest.raises(InvariantViolation) as raised:
                            _partition_labels(part, alpha, beta, q, {})
                        assert str(raised.value) == want, (q, alpha, beta, mask.sum())
                        seen["short" if "does not hold" in want else "outside"] += 1
                    else:
                        labels, count = _partition_labels(part, alpha, beta, q, {})
                        assert np.array_equal(labels, want[0]) and count == want[1], (q, alpha, beta, mask.sum())
                        seen["closed"] += 1
    assert min(seen["outside"], seen["short"], seen["closed"]) >= 10, seen


def test_closure_traced_peak_is_bounded_by_its_inputs():
    # traced allocations of the closure alone, over GL(3, 5) at the finest
    # pair, against the enumeration's elements, keys, row codes and move
    # table plus the index the closure builds: 1.47 times those now, 1.82
    # with a neighbour id per element, 1.90 with int64 class ids
    elements, cache = _gl_codes(3, 5)
    index = 5 ** 9 * np.min_scalar_type(-len(elements)).itemsize
    codes = sum(c.nbytes for c in cache[0].values())
    inputs = elements.nbytes + cache["keys"].nbytes + codes + cache["table"].nbytes + index
    tracemalloc.start()
    try:
        _partition_labels(elements, (1, 1, 1), (1, 1, 1), 5, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * inputs, (peak, inputs)


def test_free_positions_fall_in_block_height():
    # with e_rc e_cd - e_cd e_rc = e_rd, a commutator of two moves sits
    # higher than both, so a move normalizes the group of the higher moves
    # before it: the closure's cycle joins need that order
    assert _free_positions(Composition((1, 1, 1)), lower=True) == [(2, 0), (1, 0), (2, 1)]
    for comp in all_compositions(4):
        block = [i for i, part in enumerate(comp) for _ in range(part)]
        for lower in (True, False):
            got = _free_positions(comp, lower)
            heights = [abs(block[r] - block[c]) for r, c in got]
            assert sorted(got) == block_positions(comp, lower), (comp, lower)
            assert heights == sorted(heights, reverse=True), (comp, lower)


def test_partition_labels_share_one_cache_per_element_stack():
    # a cache shared by every composition pair of one stack gives each pair
    # the labels of a fresh call; a pair builds the move table and row codes
    # only for the sides that have moves, so (n) x (n) builds neither
    for n, q in ((2, 3), (3, 2), (3, 3)):
        elements, cache = gl_array(n, q), {}
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                labels, count = _partition_labels(elements, alpha, beta, q, cache)
                want, want_count = _partition_labels(elements, alpha, beta, q, {})
                assert np.array_equal(labels, want) and count == want_count, (n, q, alpha, beta)
        assert sorted(cache[0]) == sorted(cache[1]) == list(range(n))
    elements, cache = gl_array(3, 2), {}
    _partition_labels(elements, (3,), (3,), 2, cache)
    assert set(cache) == {"keys", "index"}
    index = cache["index"]
    _partition_labels(elements, (3,), (2, 1), 2, cache)
    assert set(cache) == {"keys", "index", "table", 0} and sorted(cache[0]) == [0, 1, 2]
    assert cache["index"] is index  # built once, by the first call


def test_double_cosets_of_gl1_build_no_move_table():
    # GL(1, q) has no free block positions, so no moves and no move table:
    # at q = 65521 a table over all code pairs would hold q**2 = 4.3e9 entries
    q = 65521
    part = double_cosets_brute(1, q, (1,), (1,))
    assert part.num_classes == q - 1 == predicted_coset_count((1,), (1,), q)
    assert part.labels.tolist() == list(range(q - 1))


def test_key_space_fits_every_full_group_in_budget():
    # the closure's dense index has one slot per key, q**(n*n) of them, and
    # its move table one entry per pair of row codes, q**(2n) of them; for
    # every prime q and n inside the default group budget both stay within
    # a small multiple of |GL(n, q)|, so the group budget bounds them
    limit = DEFAULT_BUDGET.max_group_order
    sieve = np.ones(limit + 2, dtype=bool)  # gl_order(1, q) = q - 1 <= limit
    sieve[:2] = False
    for f in range(2, isqrt(limit + 1) + 1):
        if sieve[f]:
            sieve[f * f :: f] = False
    primes = np.flatnonzero(sieve)
    assert (primes < 3.47 * (primes - 1)).all()  # n = 1: no moves, no table
    primes = primes.tolist()
    n = 2
    while gl_order(n, 2) <= limit:
        for q in takewhile(lambda q: gl_order(n, q) <= limit, primes):
            assert q ** (n * n) < 3.47 * gl_order(n, q), (n, q)
            assert 3 * q ** (2 * n) <= 8 * gl_order(n, q), (n, q)
        n += 1
    assert n == 6  # GL(5, 2) was the largest group checked

def test_closure_labels_match_matrix_product_bfs():
    # an independent closure: breadth-first search over Matrix products g * m
    # and m * h, visited elements held by encode_matrix key; classes are
    # numbered from their smallest member, as the stacked closure numbers them
    for n, q in ((2, 3), (3, 2)):
        elements = list(enum_gl(n, q))
        index = {encode_matrix(m): k for k, m in enumerate(elements)}
        for alpha in all_compositions(n):
            right = t_generators(alpha, q, lower=False)
            for beta in all_compositions(n):
                left = t_generators(beta, q, lower=True)
                want = [None] * len(elements)
                count = 0
                for start in range(len(elements)):
                    if want[start] is not None:
                        continue
                    want[start] = count
                    todo = deque([elements[start]])
                    while todo:
                        m = todo.popleft()
                        for nbr in [g * m for g in left] + [m * h for h in right]:
                            k = index[encode_matrix(nbr)]
                            if want[k] is None:
                                want[k] = count
                                todo.append(nbr)
                    count += 1
                part = double_cosets_brute(n, q, alpha, beta)
                assert part.labels.tolist() == want, (n, q, alpha, beta)
                assert part.num_classes == count


def test_coset_partition_labels_every_element_of_gl42():
    part = double_cosets_brute(4, 2, (1, 3), (2, 2))
    assert part.num_classes == predicted_coset_count((1, 3), (2, 2), 2)
    assert len(part.labels) == gl_order(4, 2)
    assert (np.bincount(part.labels) > 0).sum() == part.num_classes == part.labels.max() + 1
