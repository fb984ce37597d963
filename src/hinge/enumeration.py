"""Brute-force ground truth: exhaustive enumeration and closed-form counting.

Everything here is meant to cross-check the fast invariants on small fields:
full enumeration of GL(n, q) and of subspace lattices, generators of the
block triangular groups, double coset partitions by closure, grids filtered
by the axioms, stabilizer orders by direct count, and the orbit-counting
formula.  Budgets are hard limits; exceeding one raises BudgetError with the
offending cardinality, never a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .bihinge import (
    BiHinge,
    Composition,
    DimensionMatrix,
    MarginError,
    check_axioms,
    hinge_act,
    standard_bihinge,
)
from .field import PrimeField
from .linalg import Matrix
from .relations import InvariantViolation, LinearRelation
from .subspaces import Subspace


class BudgetError(RuntimeError):
    """An enumeration would exceed its size budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard caps on enumeration sizes, in group elements and grid candidates."""

    max_group_order: int = 10 ** 7
    max_subspace_lattice: int = 10 ** 6

    def check_group(self, size: int, what: str):
        if size > self.max_group_order:
            raise BudgetError(f"{what} = {size} exceeds group budget {self.max_group_order}")

    def check_subspace(self, size: int, what: str):
        if size > self.max_subspace_lattice:
            raise BudgetError(
                f"{what} = {size} exceeds subspace budget {self.max_subspace_lattice}"
            )


DEFAULT_BUDGET = EnumerationBudget()


def gl_order(n: int, q: int) -> int:
    """|GL(n, q)| = prod over k < n of (q^n - q^k); 1 for n = 0."""
    qn = q ** n
    order = 1
    for k in range(n):
        order *= qn - q ** k
    return order


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for t in range(k):
        num *= q ** (n - t) - 1
        den *= q ** (t + 1) - 1
    assert num % den == 0
    return num // den


def subspace_count(d: int, q: int) -> int:
    """Total number of subspaces of GF(q)^d, all dimensions together."""
    return sum(gaussian_binomial(d, k, q) for k in range(d + 1))


def encode_matrix(m: Matrix) -> int:
    """Fixed-width integer key: row-major base-p digits, first entry highest."""
    return _digits_key(m.a, m.field.p)


def _digits_key(arr: np.ndarray, p: int) -> int:
    key = 0
    for v in arr.flat:
        key = key * p + int(v)
    return key


def enum_gl(n: int, q: int, budget: EnumerationBudget = None):
    """Yield every element of GL(n, q) exactly once, in ascending key order.

    Rows are chosen top to bottom in lexicographic order, skipping vectors in
    the span of the rows above, so the stream is complete, duplicate-free and
    deterministic.
    """
    budget = budget or DEFAULT_BUDGET
    budget.check_group(gl_order(n, q), f"|GL({n},{q})|")
    field = PrimeField(q)
    vectors = [np.array(v, dtype=np.int64) for v in product(range(q), repeat=n)]

    def grow(rows, span_list, span_set):
        if len(rows) == n:
            yield Matrix._new(field, np.array(rows, dtype=np.int64))
            return
        for v in vectors:
            if v.tobytes() in span_set:
                continue
            new_list = list(span_list)
            new_set = set(span_set)
            for c in range(1, q):
                w = c * v % q
                for s in span_list:
                    t = (s + w) % q
                    new_list.append(t)
                    new_set.add(t.tobytes())
            yield from grow(rows + [v], new_list, new_set)

    zero = np.zeros(n, dtype=np.int64)
    yield from grow([], [zero], {zero.tobytes()})


def _free_positions(comp: Composition, lower: bool) -> list:
    """Row-major off-diagonal block positions, lower or upper of the diagonal."""
    block_of = np.empty(comp.n, dtype=np.int64)
    for i in range(len(comp)):
        lo, hi = comp.block(i)
        block_of[lo:hi] = i
    out = []
    for r in range(comp.n):
        for c in range(comp.n):
            if (block_of[r] > block_of[c]) if lower else (block_of[r] < block_of[c]):
                out.append((r, c))
    return out


def t_generators(comp, q: int, lower: bool) -> list:
    """Elementary one-parameter generators I + e_rc of a unitriangular group."""
    comp = Composition(comp)
    field = PrimeField(q)
    gens = []
    for r, c in _free_positions(comp, lower):
        arr = np.eye(comp.n, dtype=np.int64)
        arr[r, c] = 1
        gens.append(Matrix._new(field, arr))
    return gens


def enum_subspaces(d: int, q: int, budget: EnumerationBudget = None):
    """Yield every subspace of GF(q)^d once: by dimension, then pivot set,
    then free entries, all lexicographically."""
    budget = budget or DEFAULT_BUDGET
    budget.check_subspace(subspace_count(d, q), f"subspaces of GF({q})^{d}")
    field = PrimeField(q)
    yield Subspace.zero(field, d)
    for k in range(1, d + 1):
        for piv in combinations(range(d), k):
            pivset = set(piv)
            free = [
                (i, c) for i in range(k) for c in range(piv[i] + 1, d) if c not in pivset
            ]
            base = np.zeros((k, d), dtype=np.int64)
            for i, c in enumerate(piv):
                base[i, c] = 1
            for values in product(range(q), repeat=len(free)):
                arr = base.copy()
                for (i, c), v in zip(free, values):
                    arr[i, c] = v
                yield Subspace._trusted(Matrix._new(field, arr))


def _int_powers(p: int, count: int):
    """Descending powers of p as int64 when they fit a machine word, else None."""
    if p ** count < 2 ** 62:
        return np.array([p ** k for k in range(count - 1, -1, -1)], dtype=np.int64)
    return None


def _partition_labels(arrays: list, left_gens: list, right_gens: list, p: int):
    """Connected components of the multiplication graph over raw arrays.

    Closure by depth-first search: neighbors of m are g @ m for left
    generators and m @ g for right generators.  Membership is tracked with the
    row-major base-p integer keys of encode_matrix (vectorized while the key
    fits a machine word).  Returns (labels list, class count).
    """
    if not arrays:
        return [], 0
    count = arrays[0].size
    powers = _int_powers(p, count)

    if powers is not None:
        def key(arr):
            return int(arr.reshape(-1) @ powers)
    else:
        def key(arr):
            return _digits_key(arr, p)

    index = {key(arr): i for i, arr in enumerate(arrays)}
    labels = [-1] * len(arrays)
    classes = 0
    for start in range(len(arrays)):
        if labels[start] >= 0:
            continue
        labels[start] = classes
        stack = [arrays[start]]
        while stack:
            cur = stack.pop()
            for g in left_gens:
                nb = (g @ cur) % p
                j = index[key(nb)]
                if labels[j] < 0:
                    labels[j] = classes
                    stack.append(nb)
            for g in right_gens:
                nb = (cur @ g) % p
                j = index[key(nb)]
                if labels[j] < 0:
                    labels[j] = classes
                    stack.append(nb)
        classes += 1
    return labels, classes


@dataclass(frozen=True)
class CosetPartition:
    """A partition of GL(n, q) into double cosets, classes in discovery order.

    Classes and their members both ascend in encode_matrix key order; the
    first member of each class is its minimal representative.
    """

    q: int
    alpha: Composition
    beta: Composition
    classes: tuple

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> list:
        return [len(c) for c in self.classes]

    def total(self) -> int:
        return sum(len(c) for c in self.classes)


def double_cosets_brute(
    n: int, q: int, alpha, beta, budget: EnumerationBudget = None
) -> CosetPartition:
    """Partition all of GL(n, q) into double cosets by generator closure.

    Left moves multiply by elementary generators of the lower unitriangular
    group of beta, right moves by those of the upper unitriangular group of
    alpha.
    """
    alpha = Composition(alpha)
    beta = Composition(beta)
    if alpha.n != n or beta.n != n:
        raise MarginError(f"compositions must sum to {n}")
    elements = list(enum_gl(n, q, budget))
    left = [g.a for g in t_generators(beta, q, lower=True)]
    right = [g.a for g in t_generators(alpha, q, lower=False)]
    labels, count = _partition_labels([m.a for m in elements], left, right, q)
    classes = [[] for _ in range(count)]
    for m, lab in zip(elements, labels):
        classes[lab].append(m)
    return CosetPartition(q, alpha, beta, tuple(tuple(c) for c in classes))


def all_bihinges_brute(alpha, beta, q: int, budget: EnumerationBudget = None) -> list:
    """Every axiom-satisfying grid, by filtering the full product of cells.

    Candidates per cell are all subspaces of GF(q)^(alpha_i + beta_j); the
    product over the grid must fit the subspace budget.
    """
    budget = budget or DEFAULT_BUDGET
    alpha = Composition(alpha)
    beta = Composition(beta)
    field = PrimeField(q)
    total = 1
    for a_i in alpha:
        for b_j in beta:
            total *= subspace_count(a_i + b_j, q)
    budget.check_subspace(total, f"grid candidates for alpha={alpha.parts}, beta={beta.parts}")
    cell_lists = []
    for a_i in alpha:
        for b_j in beta:
            cells = [
                LinearRelation(a_i, b_j, s) for s in enum_subspaces(a_i + b_j, q, budget)
            ]
            cell_lists.append(cells)
    q_blocks = len(beta)
    out = []
    for combo in product(*cell_lists):
        grid = [combo[i * q_blocks : (i + 1) * q_blocks] for i in range(len(alpha))]
        h = BiHinge(alpha, beta, grid)
        if check_axioms(h):
            out.append(h)
    return out


def stabilizer_brute(d: DimensionMatrix, q: int, budget: EnumerationBudget = None) -> int:
    """Order of the block change-of-basis stabilizer of the standard grid."""
    budget = budget or DEFAULT_BUDGET
    field = PrimeField(q)
    order = 1
    for a_i in d.alpha:
        order *= gl_order(a_i, q)
    for b_j in d.beta:
        order *= gl_order(b_j, q)
    budget.check_group(order, "stabilizer search space")
    std = standard_bihinge(d, field)
    g_lists = [list(enum_gl(a_i, q, budget)) for a_i in d.alpha]
    h_lists = [list(enum_gl(b_j, q, budget)) for b_j in d.beta]
    count = 0
    for gs in product(*g_lists):
        for hs in product(*h_lists):
            if hinge_act(gs, hs, std) == std:
                count += 1
    return count


def stab_order_formula(d: DimensionMatrix, q: int) -> int:
    """Closed-form stabilizer order: reductive GL factors times q-power
    unipotent factors, one per ordered pair of cells sharing a row or column."""
    order = 1
    for row in d.entries:
        for v in row:
            order *= gl_order(v, q)
    expo = 0
    p_blocks, q_blocks = len(d.alpha), len(d.beta)
    for i in range(p_blocks):
        for j in range(q_blocks):
            for j2 in range(j + 1, q_blocks):
                expo += d[i, j] * d[i, j2]
    for j in range(q_blocks):
        for i in range(p_blocks):
            for i2 in range(i + 1, p_blocks):
                expo += d[i, j] * d[i2, j]
    return order * q ** expo


def contingency_tables(alpha, beta) -> list:
    """All nonnegative integer tables with row margins alpha and column
    margins beta, in lexicographic row order."""
    alpha = Composition(alpha)
    beta = Composition(beta)
    if alpha.n != beta.n:
        raise MarginError(f"margins disagree: {alpha.n} != {beta.n}")
    q_blocks = len(beta)

    def rows_summing(total, caps):
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for v in range(min(total, caps[0]) + 1):
            for rest in rows_summing(total - v, caps[1:]):
                yield (v,) + rest

    out = []

    def fill(i, remaining, acc):
        if i == len(alpha):
            if all(v == 0 for v in remaining):
                out.append(DimensionMatrix(acc, alpha, beta))
            return
        for row in rows_summing(alpha[i], remaining):
            fill(
                i + 1,
                tuple(remaining[j] - row[j] for j in range(q_blocks)),
                acc + [row],
            )

    fill(0, tuple(beta.parts), [])
    return out


def predicted_coset_count(alpha, beta, q: int) -> int:
    """Number of double cosets by orbit counting over contingency tables.

    Sums |prod GL(alpha_i)| * |prod GL(beta_j)| / stabilizer over all tables;
    every division must be exact, anything else is an implementation error.
    """
    alpha = Composition(alpha)
    beta = Composition(beta)
    numerator = 1
    for a_i in alpha:
        numerator *= gl_order(a_i, q)
    for b_j in beta:
        numerator *= gl_order(b_j, q)
    total = 0
    for d in contingency_tables(alpha, beta):
        s = stab_order_formula(d, q)
        orbit, rem = divmod(numerator, s)
        if rem:
            raise InvariantViolation(
                f"stabilizer {s} does not divide group order {numerator} for {d}"
            )
        total += orbit
    return total
