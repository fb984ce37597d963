"""Brute-force ground truth: exhaustive enumeration and closed-form counting.

Everything here is meant to cross-check the fast invariants on small fields:
GL(n, q) as one (N, n, n) array and subspace lattices enumerated in full,
generators of the block triangular groups, double coset partitions by
closure (connected components of the generator graph: each product is
looked up in a dense key -> element index, and the classes are merged by
numpy label propagation), grids filtered by the axioms, stabilizer orders
by direct count, and the orbit-counting formula.  Budgets are hard limits;
exceeding one raises BudgetError with the offending cardinality, never a
silent truncation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations, product
from math import factorial, prod

import numpy as np

from .bihinge import (
    BiHinge,
    Composition,
    DimensionMatrix,
    MarginError,
    _axiom_flags,
    standard_bihinge,
)
from .field import PrimeField
from .linalg import Matrix
from .relations import InvariantViolation, LinearRelation, act_stack, derive_stack, y_first
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
    key = 0
    for v in m.a.flat:
        key = key * m.field.p + int(v)
    return key


# Elements per numpy pass over a stack of matrices: bounds the temporaries of
# the whole-group array routes (a 2**16 x 5 x 5 int64 chunk is 13 MB).
CHUNK = 1 << 16


def gl_array(n: int, q: int, budget: EnumerationBudget = None) -> np.ndarray:
    """Every element of GL(n, q) as one (N, n, n) array, in ascending key order.

    Rows are chosen top to bottom in lexicographic order, skipping vectors in
    the span of the rows above, so the array is complete, duplicate-free and
    sorted by encode_matrix key.  Each prefix of rows carries its span as the
    list of its q**k members; a boolean mask over the q**n vectors marks
    them, and every vector outside the mask extends the prefix.  Entries are
    stored in the smallest unsigned dtype that holds q - 1.
    """
    budget = budget or DEFAULT_BUDGET
    budget.check_group(gl_order(n, q), f"|GL({n},{q})|")
    PrimeField(q)  # rejects a modulus that is not a prime field
    dtype = np.min_scalar_type(q - 1)
    size = q ** n
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    vectors = (np.arange(size)[:, None] // weights % q).astype(dtype)
    wide = np.min_scalar_type(q * q)  # holds a span member plus c * v before reduction
    coeffs = np.arange(q, dtype=wide)[:, None, None]
    rows = np.zeros((1, 0, n), dtype=dtype)
    span = np.zeros((1, 1, n), dtype=wide)
    for k in range(n):
        count = size - q ** k  # vectors outside a k-dimensional span
        new = np.empty((len(rows), count, k + 1, n), dtype=dtype)
        new[:, :, :k] = rows[:, None]
        more = k + 1 < n
        if more:
            new_span = np.empty((len(rows), count, q ** (k + 1), n), dtype=wide)
        for lo in range(0, len(rows), CHUNK):
            hi = min(lo + CHUNK, len(rows))
            outside = np.ones((hi - lo, size), dtype=bool)
            outside[np.arange(hi - lo)[:, None], span[lo:hi] @ weights] = False
            cand = vectors[np.nonzero(outside)[1].reshape(hi - lo, count)]
            new[lo:hi, :, k] = cand
            if more:  # span(prefix + v) = union over c of span(prefix) + c v
                grown = span[lo:hi, None, None] + coeffs * cand[:, :, None, None]
                new_span[lo:hi] = (grown % q).reshape(hi - lo, count, -1, n)
        rows = new.reshape(-1, k + 1, n)
        if more:
            span = new_span.reshape(len(rows), -1, n)
    return rows


def enum_gl(n: int, q: int, budget: EnumerationBudget = None):
    """Yield every element of GL(n, q) exactly once, in ascending key order."""
    field = PrimeField(q)
    for arr in gl_array(n, q, budget):
        yield Matrix._new(field, arr.astype(np.int64))


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


def _place_values(radix: np.ndarray) -> np.ndarray:
    """Mixed-radix place values: each position weighs the product of the
    radices after it."""
    place = np.ones(len(radix), dtype=np.int64)
    for k in range(len(radix) - 2, -1, -1):
        place[k] = place[k + 1] * radix[k + 1]
    return place


# A closure move table may hold at most this many entries per stack element.
MOVE_TABLE_RATIO = 8


def _elementary_entry(g: np.ndarray) -> tuple:
    """(i, j, c) for a matrix that differs from the identity only in its
    off-diagonal entry (i, j) = c; ValueError for any other matrix."""
    rows, cols = np.nonzero(g != np.eye(len(g), dtype=g.dtype))
    if len(rows) != 1 or rows[0] == cols[0]:
        raise ValueError(
            "closure generators must differ from the identity in one off-diagonal entry"
        )
    return int(rows[0]), int(cols[0]), int(g[rows[0], cols[0]])


def _row_code_digits(radix: tuple) -> tuple:
    """Place values of the mixed-radix codes of a row with the given radices,
    and the digits of every code: code u has digit k = u // place[k] %
    radix[k].  Returns (place, digits), digits of shape (product of the
    radices, len(radix))."""
    place = _place_values(radix)
    return place, np.arange(prod(radix), dtype=np.int64)[:, None] // place % np.array(radix)


def _row_codes(flat: np.ndarray, positions, radix: tuple, place) -> np.ndarray:
    """Codes of one row for every element of a flat (N, n * n) stack, the
    row's entries sitting at the given flat positions.  Sums run in the
    smallest unsigned dtype that holds every code, CHUNK elements at a
    time; a position of radix 1 holds only zeros and is skipped."""
    dtype = np.min_scalar_type(prod(radix) - 1)
    codes = np.zeros(len(flat), dtype=dtype)
    terms = zip(positions.tolist(), place.tolist(), radix)
    terms = [(t, dtype.type(v)) for t, v, r in terms if r > 1]
    for lo in range(0, len(flat), CHUNK):
        part = codes[lo : lo + CHUNK]
        for t, v in terms:
            part += flat[lo : lo + CHUNK, t].astype(dtype, copy=False) * v
    return codes


def _move_table(radix_i: tuple, radix_j: tuple, c: int, p: int, coding) -> np.ndarray:
    """The code of row x_i + c x_j mod p for every pair of codes (u of row i,
    v of row j), flat at u * R_j + v; -1 where some digit reaches its
    position's radix, i.e. the product leaves the key space.  coding maps
    radices to _row_code_digits.  The new digits, below p * p before
    reduction, are held in the smallest dtype that fits them."""
    (place, digits_i), digits_j = coding(radix_i), coding(radix_j)[1]
    small = np.min_scalar_type(p * p - 1)
    digit = digits_i.astype(small)[:, None] + digits_j.astype(small)[None] * small.type(c % p)
    digit %= small.type(p)
    code = np.where((digit < np.array(radix_i)).all(axis=2), digit @ place, -1)
    return code.astype(np.min_scalar_type(-len(digits_i))).ravel()


def _merge(labels: np.ndarray, nbr: np.ndarray) -> np.ndarray:
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


def _partition_labels(arrays, left_gens: list, right_gens: list, p: int):
    """Connected components of the multiplication graph over an element stack.

    The stack must ascend in encode_matrix key order, as gl_array does.
    Neighbors of m are g @ m for left generators and m @ g for right
    generators (a right product is a left one of the transposes).  The
    generators are invertible and act on a finite set, so each one permutes
    the elements and its edges may be followed both ways.

    Keys are mixed-radix: position k takes values below radix[k], its
    largest value in the stack plus one, and weighs the product of the
    radices after it, so keys ascend in row-major order.  Keys move by row
    codes.  A key is a sum of per-row parts, so each row of the stack (of
    its transpose, for the right side) gets one mixed-radix code per element
    and a spread table: the key part of a row with a given code.  Every
    generator must be elementary, I + c e_ij (ValueError otherwise); it sets
    row i to x_i + c x_j, which one table over all code pairs of rows i and
    j maps to the new code of row i, or to -1 when the product leaves the
    key space.  So a product's key is its element's key plus spread_i[new
    code] - spread_i[old code], a key change tabulated by code pair and
    gathered once per generator and element.  A table larger than
    MOVE_TABLE_RATIO times the element count raises BudgetError.

    Products are found by a dense index over the whole key space: each slot
    holds the element with that key, or -1, in the smallest signed dtype
    that holds the element count, and one spare slot past the end takes the
    moves the move table refuses.  A key space larger than MOVE_TABLE_RATIO
    times the element count raises BudgetError; a full GL(n, q) has fewer
    than 3.47 keys per element.  One generator at a time, a chunk of the
    stack at a time, the products are gathered from the index and the
    classes they link are merged.  A product outside the element set raises
    InvariantViolation.  Classes are numbered in the order of their first
    elements.  Returns (labels array, class count).
    """
    arrays = np.asarray(arrays)
    total, n = arrays.shape[:2]
    flat = arrays.reshape(total, -1)
    radix = flat.max(axis=0).astype(np.int64).reshape(n, n) + 1
    at = np.arange(n * n).reshape(n, n)  # flat position of each entry
    sides = [  # (flat positions, radices in the side's layout, its moves)
        (at, radix, [_elementary_entry(g) for g in left_gens]),
        (at.T, radix.T, [_elementary_entry(g.T) for g in right_gens]),
    ]
    for _, r, moves in sides:
        for i, j, _ in moves:
            size = prod(r[i].tolist()) * prod(r[j].tolist())
            if size > MOVE_TABLE_RATIO * total:
                raise BudgetError(
                    f"closure move table of {size} entries exceeds "
                    f"{MOVE_TABLE_RATIO} x {total} stack elements"
                )
    space = prod(radix.ravel().tolist())
    if space > MOVE_TABLE_RATIO * total:
        raise BudgetError(
            f"closure key space of {space} keys exceeds "
            f"{MOVE_TABLE_RATIO} x {total} stack elements"
        )
    weights = _place_values(radix.ravel()).reshape(n, n)
    keys = np.empty(total, dtype=np.int64)
    for lo in range(0, total, CHUNK):
        keys[lo : lo + CHUNK] = flat[lo : lo + CHUNK] @ weights.ravel()
    if not (keys[1:] > keys[:-1]).all():
        raise InvariantViolation("the element stack does not strictly ascend in key order")
    dtype = np.min_scalar_type(-total)
    index = np.full(space + 1, -1, dtype=dtype)  # refused moves land in slot space
    index[keys] = np.arange(total, dtype=dtype)
    labels = np.arange(total)
    nbr = np.empty(total, dtype=np.intp)
    coding = cache(_row_code_digits)  # rows with equal radices share digits
    move_table = cache(partial(_move_table, p=p, coding=coding))  # and move tables
    for (pos, r, moves), w in zip(sides, (weights, weights.T)):
        radices = [tuple(row) for row in r.tolist()]
        codes = {
            k: _row_codes(flat, pos[k], radices[k], coding(radices[k])[0])
            for k in {k for i, j, _ in moves for k in (i, j)}
        }
        for i, j, c in moves:
            table = move_table(radices[i], radices[j], c)
            spread = coding(radices[i])[1] @ w[i]  # key part of row i, by its code
            width = prod(radices[j])
            # key change by code pair; a refused move lands at or past the spare slot
            shift = np.where(table < 0, space, spread[table] - np.repeat(spread, width))
            for lo in range(0, total, CHUNK):
                hi = min(lo + CHUNK, total)
                pair = codes[i][lo:hi].astype(np.intp) * width + codes[j][lo:hi]
                moved = keys[lo:hi] + shift[pair]
                found = index[np.minimum(moved, space, out=moved)]
                if (found < 0).any():
                    raise InvariantViolation(
                        f"a generator maps element {lo + int(np.argmax(found < 0))} "
                        "outside the element set"
                    )
                nbr[lo:hi] = found
            labels = _merge(labels, nbr)
    roots = labels == np.arange(total)
    return (np.cumsum(roots) - 1)[labels], int(roots.sum())


@dataclass(frozen=True, eq=False)
class CosetPartition:
    """A partition of GL(n, q) into double cosets, classes in discovery order.

    elements is the group in ascending encode_matrix key order and labels[i]
    the class of elements[i].  Classes are numbered by their first member, so
    classes and their members both ascend in key order; the first member of
    each class is its minimal representative.  The Matrix objects of classes
    are built on first access.
    """

    q: int
    alpha: Composition
    beta: Composition
    elements: np.ndarray
    labels: np.ndarray
    num_classes: int

    @cached_property
    def classes(self) -> tuple:
        field = PrimeField(self.q)
        order = np.argsort(self.labels, kind="stable")
        bounds = np.cumsum(self.class_sizes())[:-1]
        return tuple(
            tuple(Matrix._new(field, self.elements[i].astype(np.int64)) for i in members)
            for members in np.split(order, bounds)
        )

    def class_sizes(self) -> list:
        return np.bincount(self.labels, minlength=self.num_classes).tolist()

    def total(self) -> int:
        return len(self.labels)


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
    elements = gl_array(n, q, budget)
    left = [g.a for g in t_generators(beta, q, lower=True)]
    right = [g.a for g in t_generators(alpha, q, lower=False)]
    labels, count = _partition_labels(elements, left, right, q)
    return CosetPartition(q, alpha, beta, elements, labels, count)


def all_bihinges_brute(alpha, beta, q: int, budget: EnumerationBudget = None) -> list:
    """Every axiom-satisfying grid, by filtering the full product of cells.

    Candidates per cell are all subspaces of GF(q)^(alpha_i + beta_j); the
    product over the grid must fit the subspace budget.  The candidates of a
    shape are derived by one derive_stack and their four spaces numbered,
    equal subspaces alike, so the axioms are checked on id arrays, CHUNK
    grids of the product at a time and in product order.
    """
    budget = budget or DEFAULT_BUDGET
    alpha, beta = Composition(alpha), Composition(beta)
    PrimeField(q)  # rejects a modulus that is not a prime field
    total = prod(subspace_count(a_i + b_j, q) for a_i in alpha for b_j in beta)
    budget.check_subspace(total, f"grid candidates for alpha={alpha.parts}, beta={beta.parts}")
    ids, candidates = {}, {}  # (dim, padded RREF bytes) -> id; shape -> relations, ids + dims
    shapes = [(a_i, b_j) for a_i in alpha for b_j in beta]
    for shape in dict.fromkeys(shapes):
        spaces = list(enum_subspaces(sum(shape), q, budget))
        stack = np.zeros((len(spaces), sum(shape), sum(shape)), dtype=np.int64)
        for m, space in zip(stack, spaces):
            m[: space.dim] = space.basis.a
        ranks = np.array([space.dim for space in spaces], dtype=np.intp)
        dv = derive_stack(stack, y_first(stack, ranks, shape[0], q), ranks, *shape)
        space_ids = [[ids.setdefault((len(x), x.tobytes()), len(ids)) for x in a] for a in dv[:4]]
        relations = [LinearRelation(*shape, space) for space in spaces]
        candidates[shape] = relations, np.concatenate([space_ids, dv.dims])
    counts = [len(candidates[s][0]) for s in shapes]
    out = []
    for lo in range(0, total, CHUNK):
        picks = np.unravel_index(np.arange(lo, min(lo + CHUNK, total)), counts)
        table = np.stack([candidates[s][1][:, k] for s, k in zip(shapes, picks)], axis=-1)
        table = table.reshape(8, len(picks[0]), len(alpha), len(beta))
        bad = _axiom_flags(alpha, beta, *table[:4], table[4:])
        for combo in np.array(picks).T[~bad.any(axis=(1, 2, 3))].tolist():
            cells = iter([candidates[s][0][k] for s, k in zip(shapes, combo)])
            out.append(BiHinge(alpha, beta, [[next(cells) for _ in beta] for _ in alpha]))
    return out


def stabilizer_brute(d: DimensionMatrix, q: int, budget: EnumerationBudget = None) -> int:
    """Order of the block change-of-basis stabilizer of the standard grid.

    (gs, hs) fixes the grid exactly when every cell (i, j) is fixed by
    (gs[i], hs[j]).  So each cell is moved by every pair of its two groups,
    CHUNK pairs per act_stack, and the pairs fixing each cell are combined
    over the whole product of the groups, whose size the budget bounds.
    """
    budget = budget or DEFAULT_BUDGET
    blocks = (*d.alpha, *d.beta)
    budget.check_group(prod(gl_order(size, q) for size in blocks), "stabilizer search space")
    std = standard_bihinge(d, PrimeField(q))
    groups = [gl_array(size, q, budget).astype(np.int64) for size in blocks]
    fixed = np.ones([len(g) for g in groups], dtype=bool)
    for g in std.groups:
        for (i, j), cell, rank in zip(g.cells.tolist(), g.stack, g.ranks.tolist()):
            xs, ys = groups[i], groups[len(d.alpha) + j]
            pairs = np.arange(len(xs) * len(ys))
            hits = []
            for lo in range(0, len(pairs), CHUNK):
                x, y = np.divmod(pairs[lo : lo + CHUNK], len(ys))
                same = np.broadcast_to(cell, (len(x), *cell.shape))
                moved, _ = act_stack(same, np.full(len(x), rank), xs[x], ys[y], g.dim_x, q)
                hits.append((moved == cell).all(axis=(1, 2)))
            shape = [1] * len(groups)
            shape[i], shape[len(d.alpha) + j] = len(xs), len(ys)
            fixed &= np.concatenate(hits).reshape(shape)
    return int(fixed.sum())


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


def _class_counts(r: int, m: int, most: int):
    """Every (c_0, ..., c_r) with c_0 + ... + c_r = m and sum over v of
    v * c_v at most `most`: c_v of m columns open at r take v each."""
    if r == 0:
        yield (m,)
        return
    for c_r in range(min(m, most // r) + 1):
        for head in _class_counts(r - 1, m - c_r, most - r * c_r):
            yield head + (c_r,)


def _row_placements(open_sums: tuple, need: int) -> Counter:
    """Rows summing to need below the open column sums, counted by the
    multiset of sums they leave open (a sorted tuple).  Columns are placed
    one class of equal open sums at a time: when c_v of the m columns open
    at r take v, m! / prod(c_v!) rows agree up to the order of the class."""
    placed = Counter({((), need): 1})  # (sums left open so far, still needed)
    for r, m in Counter(open_sums).items():
        grown = Counter()
        for (left, rest), ways in placed.items():
            for c in _class_counts(r, m, rest):
                taken = sum(v * c_v for v, c_v in enumerate(c))
                after = tuple(r - v for v, c_v in enumerate(c) for _ in range(c_v))
                grown[left + after, rest - taken] += ways * (
                    factorial(m) // prod(map(factorial, c))
                )
        placed = grown
    out = Counter()
    for (left, rest), ways in placed.items():
        if rest == 0:
            out[tuple(sorted(left))] += ways
    return out


def contingency_table_count(alpha, beta) -> int:
    """len(contingency_tables(alpha, beta)), without listing a table.

    Rows are placed one at a time below the column sums still open.  How a
    partial table completes depends only on the multiset of those sums, so
    partial tables are counted by that multiset.  Transposing a table swaps
    its margins, so the side with fewer distinct parts serves as the columns.
    """
    alpha = Composition(alpha)
    beta = Composition(beta)
    if alpha.n != beta.n:
        raise MarginError(f"margins disagree: {alpha.n} != {beta.n}")
    rows, cols = sorted((alpha.parts, beta.parts), key=lambda p: -len(set(p)))
    ways = Counter({tuple(sorted(cols)): 1})  # open column sums -> partial tables
    for need in rows:
        grown = Counter()
        for open_sums, k in ways.items():
            for left, placements in _row_placements(open_sums, need).items():
                grown[left] += k * placements
        ways = grown
    return sum(ways.values())


def predicted_coset_count(alpha, beta, q: int, budget: EnumerationBudget = None) -> int:
    """Number of double cosets by orbit counting over contingency tables.

    Sums |prod GL(alpha_i)| * |prod GL(beta_j)| / stabilizer over all tables;
    every division must be exact, anything else is an implementation error.
    The tables are counted first, and listed only within the subspace budget.
    """
    budget = budget or DEFAULT_BUDGET
    alpha = Composition(alpha)
    beta = Composition(beta)
    budget.check_subspace(
        contingency_table_count(alpha, beta),
        f"contingency tables for alpha={alpha.parts}, beta={beta.parts}",
    )
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
