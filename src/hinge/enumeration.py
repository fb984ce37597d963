"""Brute-force ground truth: exhaustive enumeration and closed-form counting.

Everything here is meant to cross-check the fast invariants on small fields:
GL(n, q) as one (N, n, n) array, enumerated row by row on base-q row codes
(spans grow by gathers from a table of row-code sums); subspace lattices
enumerated in full; double coset partitions of the whole group by closure
(a row or column move is a gather from the same table and a lookup in a
dense key index, and the enumeration hands the closure its keys, row
codes and table; a move is applied to the class minima only, which still
checks every element, as a class leaves the element set as a whole, and
joins the cycles it makes of the classes so far on their minima; the
first side's classes are checked by orbit size); stabilizer orders by
direct count; and the orbit-counting formula, summed by one weighted DP
over contingency tables that never lists a table.  Budgets are hard
limits; exceeding one raises BudgetError with the offending cardinality,
never a silent truncation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import factorial, prod

import numpy as np

from .bihinge import Composition, DimensionMatrix, MarginError, standard_bihinge
from .field import PrimeField
from .linalg import Matrix
from .relations import InvariantViolation


class BudgetError(RuntimeError):
    """An enumeration would exceed its size budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard caps on enumeration sizes: group elements, and subspaces or the
    placements of the count formula's table DP."""

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


# Elements per numpy pass over a stack of matrices: bounds the temporaries of
# the whole-group array routes (a 2**16 x 5 x 5 int64 chunk is 13 MB).
CHUNK = 1 << 16


def _gl_codes(n: int, q: int, budget: EnumerationBudget = None) -> tuple:
    """GL(n, q) as gl_array gives it, with what the closure reads off it.

    Returns (elements, cache), cache the _partition_labels cache of the
    elements, filled ahead: cache["keys"] the keys and cache[0][k] the codes
    of row k, as _row_codes gives them, and cache["table"] the _move_table,
    None for n < 2 (GL(1, q) grows no span; its table would hold q**2
    entries).  A prefix of k rows carries its span as its q**k codes, and
    the codes outside it, in ascending order, extend it.  The span of
    prefix + v is the union over c of span + c v, gathered from the table.
    Keys grow as key * q**n + code, so they ascend with the prefixes.  The
    elements are written last, each row's n digits copied as one item.
    """
    budget = budget or DEFAULT_BUDGET
    budget.check_group(gl_order(n, q), f"|GL({n},{q})|")
    PrimeField(q)  # rejects a modulus that is not a prime field
    size = q ** n
    code = np.min_scalar_type(size - 1)
    place = q ** np.arange(n - 1, -1, -1)
    digits = (np.arange(size)[:, None] // place % q).astype(np.min_scalar_type(q - 1))
    table = _move_table(digits, q) if n > 1 else None
    if table is not None:  # scaled[v, c]: the code of c v
        scaled = (np.arange(q)[:, None, None] * digits % q @ place).T.astype(code)
    span = np.zeros((1, 1), dtype=code)
    keys = np.zeros(1, dtype=np.min_scalar_type(q ** (n * n) - 1))
    picks = []  # per row, the code each prefix of the rows above appends
    for k in range(n):
        count = size - q ** k  # codes outside a k-dimensional span
        pick = np.empty((len(span), count), dtype=code)
        for lo in range(0, len(span), CHUNK):
            hi = min(lo + CHUNK, len(span))
            start = np.arange(0, (hi - lo) * size, size)[:, None]  # of each prefix's mask row
            outside = np.ones((hi - lo) * size, dtype=bool)
            outside[span[lo:hi] + start] = False
            pick[lo:hi] = np.flatnonzero(outside).reshape(hi - lo, count) - start
        if k + 1 < n:  # the codes of span + c v, by pick and c
            span = table[span.astype(np.intp)[:, None, None] * size + scaled[pick][..., None]]
            span = span.reshape(-1, q ** (k + 1))
        keys = (keys[:, None] * size + pick).ravel()
        picks.append(pick.ravel())
    codes = np.empty((n, len(keys)), dtype=code)
    width = n * digits.itemsize  # bytes of a row, copied as one item
    item = np.dtype(f"u{width}") if width in (1, 2, 4, 8) else np.dtype((np.void, width))
    rows = np.empty((len(keys), n), dtype=item)
    items = digits.view(rows.dtype).ravel()
    for k, pick in enumerate(picks):
        codes[k].reshape(len(pick), -1)[:] = pick[:, None]
        rows.reshape(len(pick), -1, n)[:, :, k] = items[pick][:, None]
    return rows.view(digits.dtype).reshape(len(keys), n, n), {"keys": keys, "table": table, 0: dict(enumerate(codes))}


def gl_array(n: int, q: int, budget: EnumerationBudget = None) -> np.ndarray:
    """Every element of GL(n, q) as one (N, n, n) array, in ascending key order.

    Rows are chosen top to bottom as base-q row codes in ascending order,
    skipping the codes of the span of the rows above (see _gl_codes), so the
    array is complete, duplicate-free and sorted by key, the base-q number
    of the row-major entries.  Entries are in the smallest unsigned dtype
    that holds q - 1.
    """
    return _gl_codes(n, q, budget)[0]


def enum_gl(n: int, q: int, budget: EnumerationBudget = None):
    """Yield every element of GL(n, q) exactly once, in ascending key order."""
    field = PrimeField(q)
    for arr in gl_array(n, q, budget):
        yield Matrix._new(field, arr.astype(np.int64))


def _free_positions(comp: Composition, lower: bool) -> list:
    """Off-diagonal block positions, lower or upper, by falling block height."""
    block_of = [i for i, part in enumerate(comp) for _ in range(part)]
    out = [(r, c) for r, c in product(range(comp.n), repeat=2)
           if (block_of[r] > block_of[c] if lower else block_of[r] < block_of[c])]
    return sorted(out, key=lambda rc: -abs(block_of[rc[0]] - block_of[rc[1]]))


def enum_subspaces(d: int, q: int, budget: EnumerationBudget = None):
    """Yield every subspace of GF(q)^d once, as its RREF basis Matrix: by
    dimension, then pivot set, then free entries, all lexicographically."""
    budget = budget or DEFAULT_BUDGET
    budget.check_subspace(subspace_count(d, q), f"subspaces of GF({q})^{d}")
    field = PrimeField(q)
    yield Matrix.zeros(field, 0, d)
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
                yield Matrix._new(field, arr)


def _row_codes(rows: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of every row of an (N, m) array, first entry highest: one
    row of every element, or its whole key.  Codes are built CHUNK rows at a
    time in the smallest unsigned dtype that holds q**m - 1."""
    dtype = np.min_scalar_type(q ** rows.shape[1] - 1)
    codes = np.zeros(len(rows), dtype=dtype)
    for lo in range(0, len(rows), CHUNK):
        part = codes[lo : lo + CHUNK]
        for column in rows[lo : lo + CHUNK].T:
            part *= dtype.type(q)
            part += column.astype(dtype, copy=False)
    return codes


def _move_table(digits: np.ndarray, q: int) -> np.ndarray:
    """The code of x + y mod q for every pair of row codes (u of x, v of y),
    flat at u * q**n + v; digits[u] are the n base-q digits of code u.  For
    n >= 2 every digit sum, below 2q, fits the dtype of the codes."""
    size, n = digits.shape
    dtype = np.min_scalar_type(size - 1)
    table = np.zeros((size, size), dtype=dtype)
    for k, d in enumerate(digits.astype(dtype).T):
        table += (d[:, None] + d) % dtype.type(q) * dtype.type(q ** (n - 1 - k))
    return table.ravel()


def _partition_labels(elements: np.ndarray, alpha, beta, q: int, cache: dict):
    """The classes of T-(beta) \\ GL(n, q) / T+(alpha), by generator closure.

    elements is GL(n, q), or a part of it, as gl_array gives it.  An
    element's key is the base-q number of its row-major entries, and the
    keys must strictly ascend (InvariantViolation otherwise), which also
    rules out duplicates.  A dense index over all q**(n*n) keys holds each
    element's position, or -1, in the smallest signed dtype that holds the
    element count.

    The moves are the elementary generators of the free block positions: a
    left move (r, c) of beta's lower positions adds row c to row r, a right
    move (r, c) of alpha's upper positions adds column r to column c.  A
    right move is a left move of the transpose, so each side works on its
    rows, which carry base-q codes: row i of an element adds code *
    q**(n(n-1-i)) to its key, column j adds spread[code] * q**(n-1-j),
    spread placing a column code's digits one row apart.  One table over
    all code pairs, built only when a side has moves, gives the code of
    x_i + x_j mod q for every generator of both sides, so a product's key
    is its element's key plus a key change gathered by code pair, and the
    product is looked up in the index.

    The side with more moves, the free side, goes first, then the other.
    By falling block height, each generator normalizes the group of those
    before it on its side, and the other side commutes with the free side,
    so every generator g permutes the classes so far, orbits of the group
    H of the moves before it.  So a move is applied to the class minima
    only: N, N/q, N/q**2, ... of them on the free side, the classes left
    on the other.  That still checks every element.  If the set is closed
    under H, g maps a class H x into the set exactly when it maps x there
    (g H x = H g x), so a class leaves the set as a whole, and the smallest
    element that leaves it is a class minimum: a product outside the set
    raises InvariantViolation at the same move, naming the same element,
    as a check of every element would.  A move has order q, so the cycles
    have length 1 or q; ceil(log2 q) doubling steps over the images of the
    class minima join each cycle on its smallest class (InvariantViolation
    if they end on a class that does not stay).  The renumberings compose
    as class-to-class maps, and the elements are relabelled only when the
    classes have shrunk by a factor of 16 and at the end of each side.  Both groups act freely on invertible matrices, so every orbit of
    the free side has q**moves elements; joins follow moves, so a class of
    that size is an orbit, and a bincount checks every class of the free
    side for it (InvariantViolation otherwise).  Classes are numbered by
    their smallest members.  Returns (int64 labels array, class count).

    cache is a dict shared by the calls on one element stack, {} at first:
    it keeps the keys, index, table and the free side's row codes
    (cache[side][row]) for the next call; the other side's codes are built
    for the minima it starts from.  _gl_codes fills the keys, the table and
    the left side's row codes ahead; the keys are checked all the same.
    """
    total, n = elements.shape[:2]
    place = q ** np.arange(n - 1, -1, -1)  # of a digit in a row code
    step = q ** (n * np.arange(n - 1, -1, -1))  # of a row code in a key
    if "index" not in cache:
        keys = cache["keys"] if "keys" in cache else _row_codes(elements.reshape(total, -1), q)
        if not (keys[1:] > keys[:-1]).all():
            raise InvariantViolation("the element stack does not strictly ascend in key order")
        dtype = np.min_scalar_type(-total)
        cache["keys"], cache["index"] = keys, np.full(q ** (n * n), -1, dtype=dtype)
        cache["index"][keys] = np.arange(total, dtype=dtype)
    keys, index = cache["keys"], cache["index"]
    ids = np.arange(total, dtype=index.dtype)  # in the index's dtype, gathered by np.take
    mins = ids  # class -> smallest member, ascending
    cls = remap = None  # element -> class at the last relabel -> class now; None is the identity
    digits = np.arange(q ** n)[:, None] // place % q
    sides = [  # (rows, moves (i, j): row i += row j, key part of a code, weight of a row)
        (elements, _free_positions(Composition(beta), lower=True), digits @ place, step),
        (elements.transpose(0, 2, 1),
         [(c, r) for r, c in _free_positions(Composition(alpha), lower=False)],
         digits @ step, place),
    ]
    if any(moves for _, moves, _, _ in sides) and "table" not in cache:
        cache["table"] = _move_table(digits, q)
    free = max(range(2), key=lambda side: len(sides[side][1]))  # the left side on a tie
    for side in (free, 1 - free):
        rows, moves, part, weight = sides[side]
        if not moves:
            continue
        delta = part[cache["table"]] - np.repeat(part, q ** n)  # key change / weight, by code pair
        moved = {k for move in moves for k in move}
        if side == free:  # every element is a class minimum: the codes of all, cached
            codes = cache.setdefault(side, {})
            for k in moved - codes.keys():
                codes[k] = _row_codes(rows[:, k], q)
            codes, at = {k: codes[k] for k in moved}, keys  # of the minima, in step with mins
        else:  # the codes of the minima only: of their columns, or of their rows
            block = np.take(elements, mins, axis=0)
            block = place @ block if side else block @ place
            codes, at = {k: block[:, k] for k in moved}, np.take(keys, mins)
        for m, (i, j) in enumerate(moves):
            succ = np.empty(len(mins), dtype=ids.dtype)  # the class each class minimum moves to
            for lo in range(0, len(mins), CHUNK):
                pair = codes[i][lo : lo + CHUNK].astype(np.intp) * q ** n + codes[j][lo : lo + CHUNK]
                found = index[at[lo : lo + CHUNK] + delta[pair] * weight[i]]
                if (found < 0).any():
                    raise InvariantViolation(
                        f"a generator maps element {mins[lo + np.argmax(found < 0)]} outside the element set"
                    )
                for hop in (cls, remap):
                    if hop is not None:
                        found = np.take(hop, found)
                succ[lo : lo + CHUNK] = found
            low = own = ids[: len(mins)]  # the smallest class in 2**k steps along each cycle
            for k in range((q - 1).bit_length()):
                if k:
                    succ = np.take(succ, succ)
                later = np.take(low, succ)
                low = np.minimum(low, later, out=later)
            del succ
            kept = np.flatnonzero(low == own)  # the classes that stay, each its cycle's smallest
            rank = np.full(len(own), -1, dtype=ids.dtype)
            rank[kept] = ids[: len(kept)]
            new = np.take(rank, low)
            if (new < 0).any():
                raise InvariantViolation("a generator does not permute the classes in cycles of 1 or q")
            del low, rank
            remap = new if remap is None else np.take(new, remap)
            mins, at = np.take(mins, kept), np.take(at, kept)
            codes = {k: np.take(c, kept) for k, c in codes.items()}
            del kept
            if cls is None or m == len(moves) - 1 or len(remap) >= 16 * len(mins):  # relabel
                cls, remap = (remap if cls is None else np.take(remap, cls)), None
        if side == free and (np.bincount(cls) != q ** len(moves)).any():
            raise InvariantViolation(f"a class of the free side does not hold q**{len(moves)} elements")
    return (ids if cls is None else cls).astype(np.int64), len(mins)


@dataclass(frozen=True, eq=False)
class CosetPartition:
    """A partition of GL(n, q) into double cosets.

    elements is the group in ascending key order, as gl_array gives it, and
    labels[i] the class of elements[i].  Classes are numbered by their
    smallest member, so they ascend in key order of their representatives.
    """

    q: int
    alpha: Composition
    beta: Composition
    elements: np.ndarray
    labels: np.ndarray
    num_classes: int


def double_cosets_brute(
    n: int, q: int, alpha, beta, budget: EnumerationBudget = None
) -> CosetPartition:
    """Partition all of GL(n, q) into double cosets by generator closure.

    Left moves add a row to a row of a later block of beta, right moves a
    column to a column of a later block of alpha: the elementary generators
    of the two unitriangular groups.
    """
    alpha = Composition(alpha)
    beta = Composition(beta)
    if alpha.n != n or beta.n != n:
        raise MarginError(f"compositions must sum to {n}")
    elements, cache = _gl_codes(n, q, budget)
    labels, count = _partition_labels(elements, alpha, beta, q, cache)
    return CosetPartition(q, alpha, beta, elements, labels, count)


def stabilizer_brute(d: DimensionMatrix, q: int, budget: EnumerationBudget = None) -> int:
    """Order of the block change-of-basis stabilizer of the standard grid.

    (gs, hs) fixes the grid exactly when every cell (i, j) is fixed by
    (gs[i], hs[j]).  A cell is its RREF basis B, with pivot columns P; a pair
    (g, h) moves it to the span of M = (B_x g^T | B_y h^T), which has B's rank
    as g and h are invertible, so the pair fixes it exactly when every row of
    M lies in B's span: M == M[:, P] @ B mod q.  So the test needs neither the
    hinge action nor a row reduction.  Each cell is tested against every pair
    of its two groups, CHUNK pairs at a time, and the pairs fixing each cell
    are combined over the whole product of the groups, whose size the budget
    bounds.
    """
    budget = budget or DEFAULT_BUDGET
    blocks = (*d.alpha, *d.beta)
    budget.check_group(prod(gl_order(size, q) for size in blocks), "stabilizer search space")
    std = standard_bihinge(d, PrimeField(q))
    groups = [gl_array(size, q, budget).astype(np.int64) for size in blocks]
    fixed = np.ones([len(g) for g in groups], dtype=bool)
    for k, rows in enumerate(std._bases()):
        i, j = divmod(k, len(d.beta))
        basis = np.array(rows, dtype=np.int64).reshape(-1, d.alpha[i] + d.beta[j])
        piv = (basis != 0).argmax(axis=1)
        xs, ys = groups[i], groups[len(d.alpha) + j]
        pairs = np.arange(len(xs) * len(ys))
        hits = []
        for lo in range(0, len(pairs), CHUNK):
            x, y = np.divmod(pairs[lo : lo + CHUNK], len(ys))
            moved = np.concatenate(
                [basis[:, : d.alpha[i]] @ xs[x].transpose(0, 2, 1), basis[:, d.alpha[i] :] @ ys[y].transpose(0, 2, 1)],
                axis=2,
            ) % q
            hits.append((moved[:, :, piv] @ basis % q == moved).all(axis=(1, 2)))
        shape = [1] * len(groups)
        shape[i], shape[len(d.alpha) + j] = len(xs), len(ys)
        fixed &= np.concatenate(hits).reshape(shape)
    return int(fixed.sum())


def stab_order_formula(d: DimensionMatrix, q: int) -> int:
    """Closed-form stabilizer order: reductive GL factors times q-power
    unipotent factors, one per ordered pair of cells sharing a row or column."""
    rows = d.entries
    order = prod(gl_order(v, q) for row in rows for v in row)
    expo = sum(x * y for line in (*rows, *zip(*rows)) for x, y in combinations(line, 2))
    return order * q ** expo


def contingency_tables(alpha, beta) -> list:
    """All nonnegative integer tables with row margins alpha and column
    margins beta, in lexicographic row order.  Each is built with its
    margins, so none is validated again."""
    alpha = Composition(alpha)
    beta = Composition(beta)
    if alpha.n != beta.n:
        raise MarginError(f"margins disagree: {alpha.n} != {beta.n}")

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
            if not any(remaining):
                out.append(DimensionMatrix._of(acc, alpha, beta))
            return
        for row in rows_summing(alpha[i], remaining):
            fill(i + 1, tuple(r - v for r, v in zip(remaining, row)), acc + (row,))

    fill(0, beta.parts, ())
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


def _row_placements(open_sums: tuple, need: int, weights: list, charge) -> Counter:
    """Rows summing to need below the open column sums, summed by the
    multiset of sums they leave open (a sorted tuple): each row adds the
    product of weights[v] over its entries v.  Columns are placed one class
    of equal open sums at a time: when c_v of the m columns open at r take
    v, m! / prod(c_v!) rows agree up to the order of the class, and each
    adds prod weights[v]**c_v.  charge() is called once per placement."""
    placed = Counter({((), need): 1})  # (sums left open so far, still needed)
    for r, m in Counter(open_sums).items():
        grown = Counter()
        for (left, rest), ways in placed.items():
            for c in _class_counts(r, m, rest):
                charge()
                taken = sum(v * c_v for v, c_v in enumerate(c))
                after = tuple(r - v for v, c_v in enumerate(c) for _ in range(c_v))
                grown[left + after, rest - taken] += (
                    ways
                    * (factorial(m) // prod(map(factorial, c)))
                    * prod(weights[v] ** c_v for v, c_v in enumerate(c) if c_v)
                )
        placed = grown
    out = Counter()
    for (left, rest), ways in placed.items():
        if rest == 0:
            out[tuple(sorted(left))] += ways
    return out


def _table_sum(alpha, beta, weight, budget: EnumerationBudget = None):
    """Sum over contingency_tables(alpha, beta) of prod over cells of
    weight(d_ij), without listing a table.

    Rows are placed one at a time below the column sums still open.  How a
    partial table completes depends only on the multiset of those sums, so
    partial tables are summed by that multiset.  Transposing a table swaps
    its margins and keeps its cells, so the side with fewer distinct parts
    serves as the columns.  Every class placement tried is charged against
    the subspace budget; BudgetError names the charge once it passes.
    """
    budget = budget or DEFAULT_BUDGET
    alpha = Composition(alpha)
    beta = Composition(beta)
    if alpha.n != beta.n:
        raise MarginError(f"margins disagree: {alpha.n} != {beta.n}")
    rows, cols = sorted((alpha.parts, beta.parts), key=lambda p: -len(set(p)))
    weights = [weight(v) for v in range(min(max(rows), max(cols)) + 1)]  # no cell is larger
    what = f"table placements for alpha={alpha.parts}, beta={beta.parts}"
    spent = 0

    def charge():
        nonlocal spent
        spent += 1
        budget.check_subspace(spent, what)

    sums = Counter({tuple(sorted(cols)): 1})  # open column sums -> partial table sum
    for need in rows:
        grown = Counter()
        for open_sums, k in sums.items():
            for left, s in _row_placements(open_sums, need, weights, charge).items():
                grown[left] += k * s
        sums = grown
    return sum(sums.values())


def predicted_coset_count(alpha, beta, q: int, budget: EnumerationBudget = None) -> int:
    """Number of double cosets by orbit counting over contingency tables.

    Table d has orbit N / stab_order_formula(d, q), N = prod |GL(alpha_i, q)|
    * prod |GL(beta_j, q)|.  The stabilizer's q-exponent is half - sum d_ij^2,
    half = (sum alpha_i^2 + sum beta_j^2) / 2 (an integer, since v^2 = v
    mod 2 makes the sum 2n mod 2), so the orbit is N / q**half times the
    product over cells of w(v) = q**(v*v) / |GL(v, q)|, and one _table_sum
    gives the count.  No cell exceeds m = min(max alpha, max beta), and
    |GL(v, q)| divides g = |GL(m, q)| for every v <= m, so the DP sums
    integers: g * w(v) per cell, scaled by g**cells in all, when the table
    has fewer cells than n, else g**v * w(v), scaled by g**n.  The sum is
    divided once at the end.  That division must be exact; anything else
    is an implementation error.
    """
    alpha = Composition(alpha)
    beta = Composition(beta)
    numerator = prod(gl_order(part, q) for part in (*alpha, *beta))
    half = (sum(a * a for a in alpha) + sum(b * b for b in beta)) // 2
    g = gl_order(min(max(alpha), max(beta)), q)
    cells = len(alpha) * len(beta)
    per_cell = cells < alpha.n
    scaled = _table_sum(alpha, beta, lambda v: q ** (v * v) * g ** (1 if per_cell else v) // gl_order(v, q), budget)
    total, rem = divmod(numerator * scaled, q ** half * g ** (cells if per_cell else alpha.n))
    if rem:
        raise InvariantViolation(
            f"the orbit sum for alpha={alpha.parts}, beta={beta.parts} is not an integer"
        )
    return total
