"""Grids of linear relations attached to invertible matrices over GF(p).

Fix compositions alpha (columns, blocks V_1..V_p) and beta (rows, blocks
W_1..W_q) of n.  An invertible n x n matrix a determines one relation per
block pair: (xi, eta) belongs to cell (i, j) exactly when some x supported on
V_1 + ... + V_i with V_i-slice xi maps under a to a vector vanishing on
W_1 + ... + W_{j-1} with W_j-slice eta.  The grid is a complete invariant of
the double coset of a under the block strictly triangular groups: lower
unitriangular for beta acting on the left, upper unitriangular for alpha on
the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .field import PrimeField
from .linalg import Matrix, ShapeError, SingularMatrixError, _back_substitute, _column_pass, _column_pass_each, _integers, _kernel_rows, _rref_each
from .relations import Derived, LinearRelation, act_stack, derive_stack, y_first


class MarginError(ValueError):
    """Block sizes do not add up to the ambient dimension or stated margins."""


class AxiomError(ValueError):
    """A relation grid violates the gluing axioms."""


class Composition:
    """An ordered tuple of positive block sizes with cumulative offsets."""

    __slots__ = ("parts", "n", "offsets")

    def __init__(self, parts):
        parts = parts.parts if isinstance(parts, Composition) else tuple(_integers(parts, "composition parts must be integers").tolist())
        if not parts or any(x < 1 for x in parts):
            raise ValueError(f"composition parts must be positive ints, got {parts}")
        self.parts = parts
        self.n = sum(parts)
        offs = [0]
        for x in parts:
            offs.append(offs[-1] + x)
        self.offsets = tuple(offs)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def block(self, i: int) -> tuple:
        """Half-open coordinate range of block i (0-based)."""
        return self.offsets[i], self.offsets[i + 1]

    def __eq__(self, other):
        if isinstance(other, Composition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Composition{self.parts}"


class DimensionMatrix:
    """A p x q table of cell dimensions with margins alpha and beta.

    Row i sums to alpha[i] and column j sums to beta[j]; the constructor
    enforces both.  This is exactly a contingency table with the given
    margins.
    """

    __slots__ = ("entries", "alpha", "beta")

    def __init__(self, entries, alpha, beta):
        alpha = Composition(alpha)
        beta = Composition(beta)
        need = f"need a {len(alpha)} x {len(beta)} table, got"
        try:
            table = _integers(entries, "cell dimensions must be integers")
        except ShapeError:
            raise MarginError(f"{need} rows of lengths {[np.size(row) for row in entries]}") from None
        if table.shape != (len(alpha), len(beta)):
            raise MarginError(f"{need} {table.shape[0]} x {table.shape[1]}" if table.ndim == 2 else f"{need} {table.ndim}-dimensional data")
        rows = table.tolist()  # Python ints: exact sums, in loops over rows and columns only
        if min(map(min, rows)) < 0:
            raise MarginError("cell dimensions must be nonnegative")
        for name, sums, margin in (("row", map(sum, rows), alpha), ("column", map(sum, zip(*rows)), beta)):
            for k, (total, want) in enumerate(zip(sums, margin.parts)):
                if total != want:
                    raise MarginError(f"{name} {k + 1} sums to {total}, expected {want}")
        self.entries = tuple(map(tuple, rows))
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def _of(cls, entries: tuple, alpha: Composition, beta: Composition) -> "DimensionMatrix":  # trusted: row tuples with these margins
        d = object.__new__(cls)
        d.entries, d.alpha, d.beta = entries, alpha, beta
        return d

    def to_rows(self) -> list:
        return [list(r) for r in self.entries]

    def __eq__(self, other):
        if not isinstance(other, DimensionMatrix):
            return NotImplemented
        return (
            self.entries == other.entries
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.entries, self.alpha, self.beta))

    def __repr__(self):
        return f"DimensionMatrix({self.to_rows()}, alpha={self.alpha.parts}, beta={self.beta.parts})"


def _shapes(alpha: Composition, beta: Composition) -> tuple:
    """(shapes, back): (dx, dy, at) per cell shape, in the order of its first
    cell, at the indices i * q + j of its cells, ascending; back takes the
    cells listed shape by shape, in that order, to cell order."""
    rows, cols = {}, {}
    for i, a in enumerate(alpha.parts):
        rows.setdefault(a, []).append(i)
    for j, b in enumerate(beta.parts):
        cols.setdefault(b, []).append(j)
    shapes = [(a, b, (np.array(i)[:, None] * len(beta) + j).ravel()) for a, i in rows.items() for b, j in cols.items()]
    return shapes, np.argsort(np.concatenate([at for _, _, at in shapes]))


def _in_cell_order(parts: list, back: np.ndarray, axis: int) -> np.ndarray:
    """Arrays whose axis lists the cells of each shape of _shapes, in its
    order, as one array with that axis in cell order (a single shape's is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis).take(back, axis=axis)


def _take(stack: np.ndarray, at, dx: int, dy: int, alpha: Composition) -> np.ndarray:
    """The (dx, dy) cells at of padded stacks (..., N, C, C) in their own
    columns (x | y): (..., k, dx + dy, dx + dy)."""
    part = stack.take(at, axis=-3)[..., : dx + dy, :]
    return np.concatenate((part[..., :dx], part[..., max(alpha) : max(alpha) + dy]), axis=-1)


def _pad(rows: np.ndarray, lead: int, alpha: Composition, beta: Composition) -> np.ndarray:
    """Cell bases (..., r, w) in the padded layout of grids over (alpha,
    beta), (..., C, C) uint16: the first lead columns at [0, lead), the rest
    from max(alpha) on (from max(beta) on if called with beta, alpha)."""
    gap, size = max(alpha), max(alpha) + max(beta)
    out = np.zeros(rows.shape[:-2] + (size, size), dtype=np.uint16)
    out[..., : rows.shape[-2], :lead] = rows[..., :lead]
    out[..., : rows.shape[-2], gap : gap + rows.shape[-1] - lead] = rows[..., lead:]
    return out


class BiHinge:
    """A p x q grid of linear relations, cell (i, j) between V_i and W_j.

    Held padded, as derived() reads it: stack is one read-only (p * q, C, C)
    uint16 array (p < 2**16), C = max(alpha) + max(beta), member i * q + j the
    RREF basis of cell (i, j) with X at [0, alpha_i) and Y from max(alpha) on,
    zero elsewhere and past its rank ranks[i * q + j].  Bases are canonical,
    so two grids are equal exactly when their stacks are.  A cell is read
    through _bases() and derived(), as cell_records prints it; BiHinge(alpha,
    beta, grid) keeps only the stack of the LinearRelations it is given.
    """

    __slots__ = ("alpha", "beta", "field", "stack", "ranks", "_derived", "_from_pass")

    def __init__(self, alpha, beta, grid):
        alpha = Composition(alpha)
        beta = Composition(beta)
        grid = tuple(tuple(row) for row in grid)
        if len(grid) != len(alpha) or any(len(row) != len(beta) for row in grid):
            raise ShapeError(f"grid must be {len(alpha)} x {len(beta)}")
        field = grid[0][0].field
        cells = [c for row in grid for c in row]
        for (i, j), cell in zip(product(range(len(alpha)), range(len(beta))), cells):
            if cell.dim_x != alpha[i] or cell.dim_y != beta[j]:
                raise ShapeError(
                    f"cell ({i + 1},{j + 1}) has shape {cell.dim_x} => {cell.dim_y}, "
                    f"expected {alpha[i]} => {beta[j]}"
                )
            if cell.field != field:
                raise ValueError(
                    f"cell ({i + 1},{j + 1}) is over {cell.field}, cell (1,1) over {field}"
                )
        stack = np.stack([_pad(c.basis.a, c.dim_x, alpha, beta) for c in cells])
        self._init(alpha, beta, field, stack, np.array([c.basis.rows for c in cells], dtype=np.intp))

    @classmethod
    def _of(cls, alpha: Composition, beta: Composition, field: PrimeField, stack, ranks, from_pass=False) -> "BiHinge":
        h = object.__new__(cls)
        h._init(alpha, beta, field, stack, ranks, from_pass)
        return h

    def _init(self, alpha, beta, field, stack, ranks, from_pass=False):
        stack.flags.writeable = False
        self.alpha, self.beta, self.field = alpha, beta, field
        self.stack, self.ranks = stack, ranks
        self._derived, self._from_pass = None, from_pass

    def _bases(self) -> list:
        """Each cell's RREF basis rows (x | y) in its own columns, as lists of
        ints, cell (i, j) at i * q + j."""
        out = [None] * len(self.stack)
        for dx, dy, at in _shapes(self.alpha, self.beta)[0]:
            rows = _take(self.stack, at, dx, dy, self.alpha).tolist()
            for k, m, rank in zip(at.tolist(), rows, self.ranks[at].tolist()):
                out[k] = m[:rank]
        return out

    def derived(self) -> Derived:
        """derive_stack of every cell at once, cell (i, j) at index i * q + j;
        the N = 1 case of _derive_each, cached."""
        return _derive_each([self])[0]

    def __eq__(self, other):
        if not isinstance(other, BiHinge):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.beta == other.beta
            and self.field == other.field
            and np.array_equal(self.stack, other.stack)
        )

    def __hash__(self):
        return hash((self.alpha, self.beta, self.field.p, self.stack.tobytes()))

    def __reduce__(self):  # a pickled chi grid leaves its mark behind and derives like any other
        return BiHinge._of, (self.alpha, self.beta, self.field, self.stack, self.ranks)

    def __repr__(self):
        return f"BiHinge(alpha={self.alpha.parts}, beta={self.beta.parts})"


def chi_cell(a: Matrix, col_lo: int, col_hi: int, row_lo: int, row_hi: int) -> LinearRelation:
    """One grid cell of an invertible matrix, from the slice boundaries.

    The feasible inputs are the x supported on columns [0, col_hi) whose image
    vanishes on rows [0, row_lo); in those restricted coordinates they form the
    kernel of the top-left row_lo x col_hi slice of a.  Each feasible x
    contributes the pair (x restricted to [col_lo, col_hi), a x restricted to
    [row_lo, row_hi)).  chi does not call this: it is the definitional oracle
    for chi's cells, also where the completeness check interns them.
    """
    field = a.field
    p = field.p
    arr = a.a
    kern = _kernel_rows(arr[:row_lo, :col_hi], p)
    xi = kern[:, col_lo:col_hi]
    eta = (kern @ arr[row_lo:row_hi, :col_hi].T) % p
    gens = np.concatenate([xi, eta], axis=1)
    return LinearRelation(col_hi - col_lo, row_hi - row_lo, Matrix._new(field, gens))


def chi(a: Matrix, alpha, beta) -> BiHinge:
    """The full relation grid of an invertible matrix.

    Args:
        a: invertible n x n matrix; raises SingularMatrixError otherwise.
        alpha: composition of n grouping the columns into V_1..V_p.
        beta: composition of n grouping the rows into W_1..W_q.

    Returns:
        The BiHinge with cell (i, j) = chi_cell at the block boundaries,
        computed as the stack of one by _chi_each.
    """
    alpha, beta = _compositions_of(a, alpha, beta)
    return _chi_each([a], alpha, beta)[0]


def _compositions_of(a: Matrix, alpha, beta) -> tuple:
    """alpha and beta as Compositions; ShapeError unless a is square and
    MarginError unless both sum to its size."""
    alpha = Composition(alpha)
    beta = Composition(beta)
    n = a.rows
    if a.cols != n:
        raise ShapeError(f"need a square matrix, got {a.shape}")
    if alpha.n != n or beta.n != n:
        raise MarginError(
            f"compositions must sum to {n}, got alpha -> {alpha.n}, beta -> {beta.n}"
        )
    return alpha, beta


def _chi_each(mats, alpha, beta) -> list:
    """The grids of N n x n matrices over one field, in order: one _cell_pass
    over their stack, then _grids_from_pass.

    alpha and beta are Compositions of n.  Shapes and margins are not
    checked; a singular member raises SingularMatrixError, the first
    singular matrix in input order naming its own column.
    """
    field = mats[0].field
    return _grids_from_pass(_cell_pass(np.stack([a.a for a in mats]), field.p, alpha), field, alpha, beta)


def _grids_from_pass(cpass: tuple, field: PrimeField, alpha: Composition, beta: Composition) -> list:
    """The grid of every member of a _cell_pass over alpha, in stack order.

    The pass runs on a' = a Pi, Pi reversing every alpha block, and gives
    a' @ f == af with f unit upper triangular and pivot rows sigma, so:
      - column c of f is supported on [0, c] and af[:, c] first becomes
        nonzero at row sigma[c];
      - Pi keeps every block, so {Pi f[:, c] : c < col_hi, sigma[c] >= row_lo}
        is a basis of the kernel of a[:row_lo, :col_hi] for every block
        boundary col_hi and every row_lo at once;
      - so cell (i, j) is the span of the rows (x | af[r0:r1, c]) over those
        c, x = f[c0:c1, c] read backwards, which is chi_cell with that basis.
    x then leads at a known column: _cell_rrefs back-substitutes the cells of
    one shape over all N matrices at once, placed into the padded stack of
    every grid, marked _from_pass.
    """
    (shapes, back), q = _shapes(alpha, beta), len(beta)
    stacks, ranks = [], []
    for dx, dy, at in shapes:
        rows, r = _cell_rrefs(cpass, np.array(alpha.offsets)[at // q], np.array(beta.offsets)[at % q], dx, dy, field.p)
        stacks.append(_pad(rows, dx, alpha, beta))
        ranks.append(r)
    stack, ranks = _in_cell_order(stacks, back, 1), _in_cell_order(ranks, back, 1)
    return [BiHinge._of(alpha, beta, field, stack[k], ranks[k], from_pass=True) for k in range(len(stack))]


def _cell_pass(stack: np.ndarray, p: int, alpha: Composition) -> tuple:
    """(sigma, tau, f^T, af^T) of one _column_pass_each over an (N, n, n)
    stack with the columns of every block of alpha reversed, tau = sigma^-1
    per member, once per pass.

    The reversal Pi lies in B+(alpha), which keeps the rank of every top-left
    block slice, so _block_counts of sigma is that of the plain pass: the
    grid's dimension table.  A singular stack re-runs the plain _column_pass
    member by member in input order and raises the error of the first
    singular member, which names a column of that matrix in its own order,
    as one chi per member would.
    """
    flip = [lo + hi - 1 - c for lo, hi in zip(alpha.offsets, alpha.offsets[1:]) for c in range(lo, hi)]
    try:
        sigma, f, af, _ = _column_pass_each(stack[:, :, flip], p)
    except SingularMatrixError:
        for a in stack:
            _column_pass(a, p)
        raise
    return sigma, np.argsort(sigma, axis=1), f.transpose(0, 2, 1), af.transpose(0, 2, 1)


def _block_counts(sigma: np.ndarray, alpha: Composition, beta: Composition) -> np.ndarray:
    """(N, p, q) counts of the pivots (sigma[k][c], c) of N column passes with
    c in column block i of alpha and sigma[k][c] in row block j of beta: the
    units of perm in each block of an l @ perm @ u factorization, and so the
    dimension table of the grid (see lpu)."""
    count, n = sigma.shape
    if (beta.n, alpha.n) != (n, n):
        raise ShapeError(f"permutation shape {(n, n)} does not match ({beta.n}, {alpha.n})")
    row_block = np.repeat(np.arange(len(beta)), beta.parts)[sigma]
    cell = (np.arange(count)[:, None] * len(alpha) + np.repeat(np.arange(len(alpha)), alpha.parts)) * len(beta)
    counts = np.bincount((cell + row_block).ravel(), minlength=count * len(alpha) * len(beta))
    return counts.reshape(count, len(alpha), len(beta))


def _cell_rrefs(cpass: tuple, c0, r0, na: int, nb: int, p: int) -> tuple:
    """The cells of shape (na, nb) at column and row offsets (c0[k], r0[k]) of
    every member of a _cell_pass that reversed [c0, c1 = c0 + na), as (rows,
    ranks): rows (N, cells, top, na + nb) int64, top the largest rank, each
    cell its RREF basis padded with zero rows.

    The cell's rows (x | y) = (f[c1 - 1 - k, c] for k < na | af[r0:r1, c])
    over c < c1 with sigma[c] >= r0 fill two kinds of slots: own slot s < na
    (c = c1 - 1 - s), x leading with a 1 at s, and y slot t < nb (c =
    tau[r0 + t]), y leading at t, x zero when c < c0.  The own slots with
    sigma >= r0 and then the y slots with tau < c0 are in echelon form, each
    leading at its slot, so one _back_substitute of the kept slots gives the
    RREF, with no pivot search.  A cell has at most na + min(nb, c0) rows.
    """
    sigma, tau, ft, mt = cpass
    count, cells, w = len(sigma), len(c0), na + nb
    own = (c0 + na - 1)[:, None] - np.arange(na)
    rows = r0[:, None] + np.arange(nb)
    ys = tau[:, rows]
    slots = np.empty((count, cells, w), dtype=np.intp)
    slots[:, :, :na], slots[:, :, na:] = own, ys
    keep = np.empty((count, cells, w), dtype=bool)
    keep[:, :, :na], keep[:, :, na:] = sigma[:, own] >= r0[:, None], ys < c0[:, None]
    ranks = keep.sum(axis=2)
    top = int(ranks.max())
    lead = np.argsort(~keep, axis=2, kind="stable")[:, :, :top]  # kept slots first
    m, k = np.arange(count)[:, None, None], np.arange(cells)[:, None]
    src = slots[m, k, lead][..., None]
    x, y = ft[m[..., None], src, own[:, None]], mt[m[..., None], src, rows[:, None]]
    part = np.concatenate((x, y), axis=3, dtype=np.int64)
    part[np.arange(top) >= ranks[:, :, None]] = 0
    _back_substitute(part.reshape(count * cells, top, w), lead.reshape(count * cells, top), p)
    return part, ranks


def _derive_each(grids) -> list:
    """Every grid's derived(), filling the empty caches: grids sharing
    (field, alpha, beta) and the _from_pass mark by one derive_stack, its
    swapped argument read off the X-first forms of marked grids, else their
    Y-first RREF; each grid keeps its own slice."""
    batches = {}
    for h in grids:
        if h._derived is None:
            batches.setdefault((h.field, h.alpha, h.beta, h._from_pass), []).append(h)
    for (field, alpha, beta, from_pass), hs in batches.items():
        stack, ranks = np.concatenate([h.stack for h in hs]), np.concatenate([h.ranks for h in hs])
        swapped = _neighbour_forms(stack, alpha, beta) if from_pass else _y_first_stack(stack, ranks, alpha, beta, field.p)
        dv, size = derive_stack(stack, swapped, ranks, max(alpha), max(beta)), len(hs[0].stack)
        for k, h in enumerate(hs):
            cut = slice(k * size, (k + 1) * size)
            h._derived = Derived(*(x[cut] for x in dv[:4]), dv.dims[:, cut], dv.theta[cut], dv.lifts[cut])
    return [h._derived for h in grids]


def _neighbour_forms(stack: np.ndarray, alpha: Composition, beta: Composition) -> np.ndarray:
    """derive_stack's swapped argument for B chi grids' (B * p * q, C, C)
    stack, laid out as _y_first_stack's: per cell the rows (im | 0), then (0 |
    ker).  By the gluing axioms im(i, j) = indef(i + 1, j), W_j in the last
    row, and ker(i, j) = dom(i, j + 1), 0 in the last column."""
    mx, my, q, k = max(alpha), max(beta), len(beta), np.arange(len(stack))
    i, j, out = k // q % len(alpha), k % q, np.zeros_like(stack)
    dom = stack[:, :mx, :mx]  # the X halves of the rows that pivot in X, then zero rows
    up, last, left = k[i < len(alpha) - 1], k[i == len(alpha) - 1], k[j < q - 1]
    indef_at = (dom[up + q] != 0).any(axis=2).sum(axis=1)[:, None] + np.arange(my)  # rows from dim dom on
    out[up[:, None], np.arange(my), :my] = stack[(up + q)[:, None], indef_at, mx:]
    out[last[:, None], np.arange(my), np.arange(my)] = np.arange(my) < np.array(beta.parts)[j[last], None]
    im_dim = (out[:, :my, :my] != 0).any(axis=2).sum(axis=1)
    out[left[:, None], im_dim[left, None] + np.arange(mx), my:] = dom[left + 1]
    return out


def _y_first_stack(stack: np.ndarray, ranks: np.ndarray, alpha: Composition, beta: Composition, p: int) -> np.ndarray:
    """The y_first form of every cell of B grids' (B * p * q, C, C) stack,
    padded with Y at [0, beta_j) and X from max(beta) on, by one y_first per
    cell shape on its own columns: 3x faster than one y_first of the padded
    stack for check_axioms on coarse n = 96 grids (2-vCPU x86-64 host)."""
    out, size = np.empty_like(stack), len(alpha) * len(beta)
    for dx, dy, at in _shapes(alpha, beta)[0]:
        at = (np.arange(0, len(stack), size)[:, None] + at).ravel()  # the shape's cells in every grid
        out[at] = _pad(y_first(_take(stack, at, dx, dy, alpha).astype(np.int64), ranks[at], dx, p), dy, beta, alpha)
    return out


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of check_axioms; falsy when any gluing axiom fails."""

    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


# The gluing axioms in check_axioms order, with 1-based block indices.
_AXIOMS = (
    "ker chi[{i},{j}] != dom chi[{i},{j1}]",
    "im chi[{i},{j}] != indef chi[{i1},{j}]",
    "indef chi[1,{j}] != 0",
    "im chi[{p},{j}] != W_{j}",
    "ker chi[{i},{q}] != 0",
    "dom chi[{i},1] != V_{i}",
)


def _axiom_flags(alpha: Composition, beta: Composition, ker, dom, im, indef, dims) -> np.ndarray:
    """(B, p, q, 6) flags of the _AXIOMS that each of B grids violates.

    ker, dom, im and indef are (B, p, q, ...) arrays, equal at two cells
    exactly when the subspaces are; dims is (4, B, p, q), their dimensions.
    """
    ker_dim, dom_dim, im_dim, indef_dim = dims
    entries = tuple(range(3, ker.ndim))
    bad = np.zeros(ker.shape[:3] + (len(_AXIOMS),), dtype=bool)
    bad[:, :, :-1, 0] = (ker[:, :, :-1] != dom[:, :, 1:]).any(axis=entries)
    bad[:, :-1, :, 1] = (im[:, :-1] != indef[:, 1:]).any(axis=entries)
    bad[:, 0, :, 2] = indef_dim[:, 0] != 0
    bad[:, -1, :, 3] = im_dim[:, -1] != beta.parts
    bad[:, :, -1, 4] = ker_dim[:, :, -1] != 0
    bad[:, :, 0, 5] = dom_dim[:, :, 0] != alpha.parts
    return bad


def _axiom_tables(grids, generic=False) -> tuple:
    """(flags, d) of B grids sharing (field, alpha, beta) by one _axiom_flags
    call: flags (B, p, q, 6) and the (B, p, q) tables d = dim dom - dim ker,
    equal to dim im - dim indef by derive_stack's dims.  The spaces are the
    derived() caches, or with generic those of unmarked copies, from the
    Y-first RREF: four axioms hold by construction on the neighbours'."""
    h, dvs = grids[0], _derive_each([BiHinge._of(g.alpha, g.beta, g.field, g.stack, g.ranks) for g in grids] if generic else grids)
    shape = (len(grids), len(h.alpha), len(h.beta))
    spaces = [np.concatenate(x).reshape(shape + x[0].shape[1:]) for x in zip(*(dv[:4] for dv in dvs))]
    dims = np.concatenate([dv.dims for dv in dvs], axis=1).reshape((4,) + shape)
    return _axiom_flags(h.alpha, h.beta, *spaces, dims), dims[1] - dims[0]


def _violations(flags: np.ndarray) -> tuple:
    """The _AXIOMS a (p, q, 6) flag array marks, cell by cell in row-major order."""
    p, q = flags.shape[:2]
    return tuple(_AXIOMS[k].format(i=i + 1, j=j + 1, i1=i + 2, j1=j + 2, p=p, q=q) for i, j, k in np.argwhere(flags))


def _dimension_tables(grids) -> np.ndarray:
    """The d of _axiom_tables; AxiomError for the first grid failing an axiom."""
    flags, d = _axiom_tables(grids)
    for k in np.flatnonzero(flags.any(axis=(1, 2, 3)))[:1].tolist():
        raise AxiomError("; ".join(_violations(flags[k])))
    return d


def check_axioms(h: BiHinge) -> AxiomReport:
    """Check the gluing axioms that characterize realizable relation grids.

    Adjacent cells must share their boundary subspaces, the first row of
    blocks must have no indefiniteness, the last must cover W_j, the last
    column must have trivial kernels and the first must have full domains.
    Violations are reported with 1-based indices, cell by cell in row-major
    order.  The subspaces are compared as whole arrays, derived afresh
    through the Y-first RREF of every cell whatever made the grid.
    """
    violations = _violations(_axiom_tables([h], generic=True)[0][0])
    return AxiomReport(not violations, violations)


def dimension_matrix(h: BiHinge) -> DimensionMatrix:
    """Cell dimensions dim dom - dim ker, margins alpha and beta guaranteed.

    Raises AxiomError when the axioms fail on derived(); the margin
    identities only hold on honest grids.  A chi grid's table is dim dom(i, j)
    - dim dom(i, j + 1), read from the X-first forms.  The stack of one of
    _dimension_tables.
    """
    return DimensionMatrix(_dimension_tables([h])[0], h.alpha, h.beta)


def standard_matrix(d: DimensionMatrix, field: PrimeField) -> Matrix:
    """The 0-1 representative matrix of a dimension table.

    For each cell (i, j) an identity block of size d[i, j] is placed with its
    rows at sub-block W_j^i inside row block W_j and its columns at sub-block
    V_i^j inside column block V_i.  Unit k of cell (i, j) sits at row
    offset(W_j) + w_start[i, j] + k and column offset(V_i) + v_start[i, j] + k,
    all units placed by one assignment.
    """
    table = np.array(d.entries)
    v_start, w_start = _sub_block_starts(table)
    cell, k = np.nonzero(np.arange(table.max()) < table.reshape(-1, 1))
    i, j = np.divmod(cell, len(d.beta))
    arr = np.zeros((d.alpha.n, d.alpha.n), dtype=np.int64)
    rows = np.array(d.beta.offsets)[j] + w_start[i, j] + k
    arr[rows, np.array(d.alpha.offsets)[i] + v_start[i, j] + k] = 1
    return Matrix._new(field, arr)


def _sub_block_starts(table: np.ndarray) -> tuple:
    """Offsets of V_i^j inside V_i (ascending in j) and of W_j^i inside W_j (in i)."""
    return np.cumsum(table, axis=-1) - table, np.cumsum(table, axis=-2) - table


def standard_bihinge(d: DimensionMatrix, field: PrimeField) -> BiHinge:
    """The canonical grid with the given dimension table.

    Cell (i, j) is spanned by identity pairs matching V_i^j with W_j^i,
    kernel rows V_i^{j+1}..V_i^q and indefiniteness rows W_j^1..W_j^{i-1}.
    In that order the rows are already its RREF basis: the first ones pivot
    at the columns of V_i from V_i^j on, the indefiniteness rows at the
    leading columns of W_j, and the identity pairs meet W_j past those.  So
    its flags are coordinate sub-blocks and its theta is an identity.  It
    equals chi of standard_matrix(d) cell by cell.
    """
    table = np.array(d.entries)
    v_start, w_start = _sub_block_starts(table)
    own = np.array(d.alpha.parts)[:, None] - v_start  # identity pairs, then kernel rows
    mx, size = max(d.alpha), max(d.alpha) + max(d.beta)
    stack = np.zeros((table.size, size, size), dtype=np.uint16)
    zero = np.zeros_like(table)
    for count, row, col in ((own, zero, v_start), (table, zero, mx + w_start), (w_start, own, mx + zero)):
        cell, k = np.nonzero(np.arange(size) < count.reshape(-1, 1))  # unit k of each cell's run
        stack[cell, row.ravel()[cell] + k, col.ravel()[cell] + k] = 1
    return BiHinge._of(d.alpha, d.beta, field, stack, (own + w_start).ravel())


def equivalent(a: Matrix, b: Matrix, alpha, beta) -> bool:
    """Whether a and b lie in the same double coset, decided via their grids.

    Both run as one _cell_pass stack, and a singular input raises as chi of
    a, then chi of b would.  The pass's pivot block counts are each grid's
    dimension table, an invariant of the coarser B-(beta) \\ GL / B+(alpha)
    double coset, so differing tables decide False before any cell is
    gathered; equal tables go on to both X-first grids, compared whole.
    """
    if a.field != b.field or a.shape != b.shape:
        raise ShapeError("matrices must share a field and a shape")
    alpha, beta = _compositions_of(a, alpha, beta)
    cpass = _cell_pass(np.stack([a.a, b.a]), a.field.p, alpha)
    counts = _block_counts(cpass[0], alpha, beta)
    if not np.array_equal(counts[0], counts[1]):
        return False
    grid_a, grid_b = _grids_from_pass(cpass, a.field, alpha, beta)
    return grid_a == grid_b


def hinge_act(gs, hs, h: BiHinge) -> BiHinge:
    """Apply block changes of basis: cell (i, j) maps by (gs[i], hs[j]).

    Matches conjugating the underlying matrix by the block-diagonal matrices
    with blocks hs on the left and inverse blocks gs on the right.  Raises
    ShapeError, SingularMatrixError or ValueError unless every factor is an
    invertible matrix of its block's size over the grid's field.
    """
    gs, hs = list(gs), list(hs)
    if len(gs) != len(h.alpha) or len(hs) != len(h.beta):
        raise ShapeError(f"need {len(h.alpha)} column factors and {len(h.beta)} row factors")
    for side, factors, comp in (("column", gs, h.alpha), ("row", hs, h.beta)):
        for k, m in enumerate(factors):
            if m.field != h.field:
                raise ValueError(f"{side} factor {k + 1}: mixed fields {m.field} and {h.field}")
            if m.shape != (comp[k], comp[k]):
                raise ShapeError(
                    f"{side} factor {k + 1} has shape {m.shape}, expected {(comp[k], comp[k])}"
                )
            if m.rank() != comp[k]:
                raise SingularMatrixError(f"{side} factor {k + 1} is singular")
    return _hinge_act([m.a[None] for m in gs], [m.a[None] for m in hs], [h])[0]


def _hinge_act(gs: list, hs: list, grids) -> list:
    """hinge_act of B grids sharing (field, alpha, beta), unchecked: gs[i] and
    hs[j] stack the grids' factors of V_i and W_j, (B, alpha_i, alpha_i) and
    (B, beta_j, beta_j).  One act_stack per cell shape, on that shape's own
    columns, moves all B grids."""
    h, q = grids[0], len(grids[0].beta)
    stack, ranks = np.stack([g.stack for g in grids]), np.stack([g.ranks for g in grids])
    (shapes, back), moved, moved_ranks = _shapes(h.alpha, h.beta), [], []
    for dx, dy, at in shapes:
        i, j = np.divmod(at, q)
        gx = np.stack([gs[k] for k in i.tolist()], axis=1).reshape(-1, dx, dx)
        hy = np.stack([hs[k] for k in j.tolist()], axis=1).reshape(-1, dy, dy)
        part = _take(stack, at, dx, dy, h.alpha).astype(np.int64)
        acted, acted_ranks = act_stack(part.reshape((-1,) + part.shape[2:]), ranks.take(at, axis=1).ravel(),
                                       gx, hy, dx, h.field.p)
        moved.append(_pad(acted.reshape(part.shape), dx, h.alpha, h.beta))
        moved_ranks.append(acted_ranks.reshape(len(grids), -1))
    moved, moved_ranks = _in_cell_order(moved, back, 1), _in_cell_order(moved_ranks, back, 1)
    return [BiHinge._of(h.alpha, h.beta, h.field, m, r) for m, r in zip(moved, moved_ranks)]


def normalize(h: BiHinge) -> tuple:
    """Block changes of basis carrying a grid to its standard form.

    Returns (gs, hs, d) with hinge_act(gs, hs, h) == standard_bihinge(d) and
    d == dimension_matrix(h).  For each V_i the kernel flag is refined by the
    pivot rule into an adapted basis whose j-th sub-block represents the
    dom/ker quotient of cell (i, j); each W_j basis is pushed forward through
    the cells, lifting the V_i^j representatives and stacking ascending in i.
    Representative and push are the X and Y halves of the cell's lift rows
    (relations.derive_stack).  On a grid already standard both lists come
    out as identity matrices.  The stack of one of _normalize_each.

    Raises AxiomError, as dimension_matrix does, when the grid is not realizable.
    """
    gs, hs, tables = _normalize_each([h])
    witnesses = [[Matrix._new(h.field, np.ascontiguousarray(m[0])) for m in side] for side in (gs, hs)]
    return witnesses[0], witnesses[1], DimensionMatrix(tables[0], h.alpha, h.beta)


def _normalize_each(grids) -> tuple:
    """normalize of B grids sharing (field, alpha, beta): (gs, hs, tables),
    gs and hs stacked as _hinge_act takes them, tables from _dimension_tables.
    Per side, the block bases of all grids are placed, transposed, by one
    assignment into [basis^T | I] padded to the largest block, and inverted
    by one _rref_each of each block's own rows."""
    h, tables = grids[0], _dimension_tables(grids)
    v_start, w_start = _sub_block_starts(tables)
    lifts = np.concatenate([g._derived.lifts for g in grids])
    cell, r = np.nonzero(np.arange(lifts.shape[1]) < tables.reshape(-1, 1))
    b, i, j = np.unravel_index(cell, tables.shape)
    mx = max(h.alpha)
    witnesses = []
    sides = (h.alpha, i, v_start, lifts[cell, r, :mx]), (h.beta, j, w_start, lifts[cell, r, mx:])
    for comp, block, at, rows in sides:
        size = max(comp)
        aug = np.tile(np.eye(size, 2 * size, size, dtype=np.int64), (len(grids), len(comp), 1, 1))  # [0 | I]
        aug[b, block, :, at[b, i, j] + r] = rows  # column = position in the block
        flat, parts = aug.reshape(-1, size, 2 * size), np.tile(comp.parts, len(grids))
        _rref_each(flat, h.field.p, parts)
        if (flat[:, :, :size] != np.eye(size, dtype=np.int64) * (np.arange(size) < parts[:, None, None])).any():
            raise SingularMatrixError(f"a witness basis is singular over {h.field}")
        witnesses.append([aug[:, k, :part, size : size + part] for k, part in enumerate(comp.parts)])
    return witnesses[0], witnesses[1], tables
