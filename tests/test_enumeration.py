"""Exhaustive enumeration, closure partitions and the counting formulas."""

import random
from collections import deque
from itertools import product, takewhile
from math import comb, factorial, isqrt

import numpy as np
import pytest

from hinge import bihinge, linalg, relations
from hinge.bihinge import BiHinge, Composition, DimensionMatrix, MarginError, check_axioms, chi
from hinge.enumeration import (
    BudgetError,
    CosetPartition,
    DEFAULT_BUDGET,
    EnumerationBudget,
    _closure_cache,
    _free_positions,
    _gl_codes,
    _move_table,
    _partition_labels,
    _row_codes,
    _table_sum,
    all_bihinges_brute,
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
from hinge.relations import InvariantViolation, LinearRelation
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


def test_double_cosets_gf2_sizes():
    part = double_cosets_brute(2, 2, (1, 1), (1, 1))
    assert isinstance(part, CosetPartition)
    assert part.num_classes == 2
    sizes = np.bincount(part.labels)
    assert sorted(sizes.tolist()) == [2, 4]
    assert len(part.labels) == 6
    f = PrimeField(2)
    label = dict(zip(enum_gl(2, 2), part.labels.tolist()))
    assert sizes[label[Matrix(f, [[0, 1], [1, 0]])]] == 2 and sizes[label[Matrix.identity(f, 2)]] == 4


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


def test_all_bihinges_counts():
    assert len(all_bihinges_brute((1, 1), (1, 1), 2)) == 2
    assert len(all_bihinges_brute((1, 1), (1, 1), 3)) == 8
    assert len(all_bihinges_brute((2,), (1, 1), 2)) == 3
    for h in all_bihinges_brute((1, 1), (1, 1), 3):
        assert check_axioms(h)


def test_all_bihinges_brute_match_the_public_constructor_in_product_order():
    # the grids are stacked from padded candidate bases; they must be the
    # grids BiHinge builds from every product of subspaces that passes
    # check_axioms, read-only uint16 stacks with the same ranks, in order
    for alpha, beta, q in (((1, 1), (1, 1), 2), ((1, 1), (1, 1), 3), ((2,), (1, 1), 2)):
        shapes = [(a, b) for a in alpha for b in beta]
        want = []
        for combo in product(*(list(enum_subspaces(a + b, q)) for a, b in shapes)):
            cells = iter(LinearRelation(a, b, m) for (a, b), m in zip(shapes, combo))
            h = BiHinge(alpha, beta, [[next(cells) for _ in beta] for _ in alpha])
            if check_axioms(h):
                want.append(h)
        got = all_bihinges_brute(alpha, beta, q)
        assert got == want and [hash(h) for h in got] == [hash(h) for h in want]
        for g, w in zip(got, want):
            assert g.stack.dtype == np.uint16 and not g.stack.flags.writeable
            assert np.array_equal(g.ranks, w.ranks)


def test_realized_grids_are_exactly_the_axiom_solutions():
    for q in (2, 3):
        grids = set(all_bihinges_brute((1, 1), (1, 1), q))
        images = {chi(m, (1, 1), (1, 1)) for m in enum_gl(2, q)}
        assert grids == images


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
                         (relations, "_rref_each"), (bihinge, "_rref_each"), (linalg, "_rref")):
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
                assert count(alpha, beta) == len(contingency_tables(alpha, beta)), (alpha, beta)
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


def test_budget_errors_carry_cardinality():
    tiny = EnumerationBudget(max_group_order=10, max_subspace_lattice=10)
    with pytest.raises(BudgetError, match="48"):
        list(enum_gl(2, 3, tiny))
    with pytest.raises(BudgetError, match="16"):
        list(enum_subspaces(3, 2, tiny))
    with pytest.raises(BudgetError):
        all_bihinges_brute((2, 2), (2, 2), 3, tiny)
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
    # equal, dtypes included, what the closure builds from the elements
    for n, q in ((1, 3), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2), (2, 31)):
        elements, codes, keys, table = _gl_codes(n, q)
        assert np.array_equal(elements, gl_array(n, q)) and elements.dtype == gl_array(n, q).dtype
        want = _row_codes(elements.reshape(len(elements), -1), q)
        assert keys.dtype == want.dtype and np.array_equal(keys, want), (n, q)
        assert codes.shape == (n, len(elements)), (n, q)
        for k in range(n):
            want = _row_codes(elements[:, k], q)
            assert codes.dtype == want.dtype and np.array_equal(codes[k], want), (n, q, k)
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
            labels, count = _partition_labels(elements, alpha, beta, q)
            assert np.array_equal(part.elements, elements)
            assert part.labels.dtype == labels.dtype and np.array_equal(part.labels, labels), (n, q, alpha, beta)
            assert part.num_classes == count, (n, q, alpha, beta)


def test_partition_labels_check_the_keys_a_cache_brings():
    # keys handed in through the cache are checked as the closure's own are
    elements, codes, keys, table = _gl_codes(2, 3)
    for bad in (keys[::-1], np.sort(np.r_[keys[:-1], keys[0]])):
        cache = _closure_cache(codes, bad, table)
        with pytest.raises(InvariantViolation, match="does not strictly ascend"):
            _partition_labels(elements, (1, 1), (1, 1), 3, cache)


def test_partition_labels_rejects_products_outside_the_set():
    # half of GL(2, 2) is not closed under the generator: adding row 0 to
    # row 1 of the identity gives (1 0; 1 1), which is not among the three
    with pytest.raises(InvariantViolation, match="maps element 2 outside the element set"):
        _partition_labels(gl_array(2, 2)[:3], (2,), (1, 1), 2)
    # the dense index would keep only the last of two equal keys, so a stack
    # with a repeated or out-of-order element is refused before any move
    for stack in (gl_array(2, 2)[[0, 0, 1]], gl_array(2, 2)[::-1]):
        with pytest.raises(InvariantViolation, match="does not strictly ascend"):
            _partition_labels(stack, (1, 1), (1, 1), 2)


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
        _partition_labels(rank1, (1, 1), (1, 1), 2)


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
                want, want_count = _partition_labels(elements, alpha, beta, q)
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
