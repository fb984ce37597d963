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

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import PrimeField
from .linalg import Matrix, ShapeError, SingularMatrixError, _back_substitute, _column_pass, _column_pass_each, _kernel_rows, _rref_each
from .relations import Derived, LinearRelation, act_stack, derive_stack, y_first


class MarginError(ValueError):
    """Block sizes do not add up to the ambient dimension or stated margins."""


class AxiomError(ValueError):
    """A relation grid violates the gluing axioms."""


class Composition:
    """An ordered tuple of positive block sizes with cumulative offsets."""

    __slots__ = ("parts", "n", "offsets")

    def __init__(self, parts):
        if isinstance(parts, Composition):
            parts = parts.parts
        parts = tuple(int(x) for x in parts)
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
        try:
            table = np.array(entries, dtype=np.int64)
        except OverflowError:  # entries past int64 stay Python ints
            table = np.array(entries, dtype=object)
        except ValueError:  # rows of unequal lengths
            table = None
        if table is None or table.shape != (len(alpha), len(beta)):
            raise MarginError(f"need a {len(alpha)} x {len(beta)} table, got {len(entries)} rows")
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

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

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


class CellGroup(NamedTuple):
    """The cells of one shape of a grid: their (N, 2) block indices (i, j) in
    row-major order, the (N, C, C) stack of their RREF bases (X coordinates
    first, zero rows past the rank, C = dim_x + dim_y) and their ranks."""

    dim_x: int
    dim_y: int
    cells: np.ndarray
    stack: np.ndarray
    ranks: np.ndarray


def _shape_groups(alpha: Composition, beta: Composition) -> dict:
    """(alpha_i, beta_j) -> (N, 2) array of the cells (i, j) of that shape,
    row-major, the shapes in the order of their first cell."""
    seen_a, seen_b = {}, {}
    ka = np.array([seen_a.setdefault(a, len(seen_a)) for a in alpha.parts])
    kb = np.array([seen_b.setdefault(b, len(seen_b)) for b in beta.parts])
    order = np.argsort((ka[:, None] * len(seen_b) + kb).ravel(), kind="stable")
    cells = np.stack(np.divmod(order, len(beta)), axis=1)
    groups, lo = {}, 0
    for a in seen_a:
        for b in seen_b:
            n = alpha.parts.count(a) * beta.parts.count(b)
            groups[a, b], lo = cells[lo : lo + n], lo + n
    return groups


def _embed(out: np.ndarray, at: np.ndarray, part: np.ndarray, lead: int, gap: int):
    """Members of part into out[at]: their first lead columns first, the rest from gap on."""
    rows, width = part.shape[1:]
    out[at, :rows, :lead] = part[:, :, :lead]
    out[at, :rows, gap : gap + width - lead] = part[:, :, lead:]


class BiHinge:
    """A p x q grid of linear relations, cell (i, j) between V_i and W_j.

    Held as per-shape arrays, one CellGroup per cell shape in order of first
    appearance.  Bases are canonical, so two grids are equal exactly when
    their stacks are.  grid and cell() build LinearRelation views of the
    stacked rows when read.
    """

    __slots__ = ("alpha", "beta", "field", "groups", "_grid", "_derived", "_y_first")

    def __init__(self, alpha, beta, grid):
        alpha = Composition(alpha)
        beta = Composition(beta)
        grid = tuple(tuple(row) for row in grid)
        if len(grid) != len(alpha) or any(len(row) != len(beta) for row in grid):
            raise ShapeError(f"grid must be {len(alpha)} x {len(beta)}")
        field = grid[0][0].field
        for i, row in enumerate(grid):
            for j, cell in enumerate(row):
                if cell.dim_x != alpha[i] or cell.dim_y != beta[j]:
                    raise ShapeError(
                        f"cell ({i + 1},{j + 1}) has shape {cell.dim_x} => {cell.dim_y}, "
                        f"expected {alpha[i]} => {beta[j]}"
                    )
                if cell.field != field:
                    raise ValueError(
                        f"cell ({i + 1},{j + 1}) is over {cell.field}, cell (1,1) over {field}"
                    )
        groups = []
        for (na, nb), cells in _shape_groups(alpha, beta).items():
            stack = np.zeros((len(cells), na + nb, na + nb), dtype=np.int64)
            for m, (i, j) in zip(stack, cells):
                m[: grid[i][j].basis.rows] = grid[i][j].basis.a
            ranks = np.array([grid[i][j].basis.rows for i, j in cells], dtype=np.intp)
            groups.append(CellGroup(na, nb, cells, stack, ranks))
        self._init(alpha, beta, field, groups)
        self._grid = grid

    @classmethod
    def _of(cls, alpha: Composition, beta: Composition, field: PrimeField, groups, y_first=None) -> "BiHinge":
        h = object.__new__(cls)
        h._init(alpha, beta, field, groups)
        h._y_first = y_first
        return h

    def _init(self, alpha, beta, field, groups):
        for g in groups:
            g.stack.flags.writeable = False
        self.alpha, self.beta, self.field = alpha, beta, field
        self.groups = tuple(groups)
        self._grid = self._derived = self._y_first = None

    @property
    def grid(self) -> tuple:
        if self._grid is None:
            rows = [[None] * len(self.beta) for _ in range(len(self.alpha))]
            for g in self.groups:
                for (i, j), m, rank in zip(g.cells.tolist(), g.stack, g.ranks.tolist()):
                    rows[i][j] = LinearRelation(g.dim_x, g.dim_y, Matrix._new(self.field, m[:rank]))
            self._grid = tuple(tuple(row) for row in rows)
        return self._grid

    def cell(self, i: int, j: int) -> LinearRelation:
        return self.grid[i][j]

    def derived(self) -> Derived:
        """derive_stack of every cell at once, cell (i, j) at index i * q + j;
        the N = 1 case of _derive_each, cached."""
        _derive_each([self])
        return self._derived

    def __eq__(self, other):
        if not isinstance(other, BiHinge):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.beta == other.beta
            and self.field == other.field
            and all(np.array_equal(a.stack, b.stack) for a, b in zip(self.groups, other.groups))
        )

    def __hash__(self):
        stacks = b"".join(g.stack.tobytes() for g in self.groups)
        return hash((self.alpha, self.beta, self.field.p, stacks))

    def __getstate__(self):  # a pickled chi grid leaves its pass behind and derives like any other
        return None, {name: getattr(self, name) for name in self.__slots__} | {"_y_first": None}

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
    one shape over all N matrices at once into each grid's CellGroup, and the
    Y-first forms derived() reads, for all N grids when the first is derived.
    """
    p = field.p
    shapes = [(na, nb, ij, np.array(alpha.offsets)[ij[:, 0]], np.array(beta.offsets)[ij[:, 1]])
              for (na, nb), ij in _shape_groups(alpha, beta).items()]
    x_first = [_cell_rrefs(cpass, c0, r0, na, nb, p) for na, nb, _, c0, r0 in shapes]
    y_first_forms = functools.cache(lambda: {
        (na, nb): _cell_rrefs(cpass, c0, r0, na, nb, p, y_first=True)[0] for na, nb, _, c0, r0 in shapes})
    return [BiHinge._of(alpha, beta, field, [
        CellGroup(na, nb, ij, g[k], r[k]) for (na, nb, ij, _, _), (g, r) in zip(shapes, x_first)
    ], lambda shape, k=k: y_first_forms()[shape][k]) for k in range(len(cpass[0]))]


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


def _cell_rrefs(cpass: tuple, c0, r0, na: int, nb: int, p: int, height=None, y_first=False) -> tuple:
    """The cells of shape (na, nb) at column and row offsets (c0[k], r0[k]) of
    every member of a _cell_pass that reversed [c0, c1 = c0 + na), as (gens,
    ranks): gens (N, cells, height, na + nb) int64, each cell its RREF basis
    (with the columns (y | x) if y_first) padded with zero rows.

    The cell's rows (x | y) = (f[c1 - 1 - k, c] for k < na | af[r0:r1, c])
    over c < c1 with sigma[c] >= r0 fill two kinds of slots: own slot s < na
    (c = c1 - 1 - s), x leading with a 1 at s, and y slot t < nb (c =
    tau[r0 + t]), y leading at t, x zero when c < c0.  X first, the own slots
    with sigma >= r0 and then the y slots with tau < c0 are in echelon form,
    each leading at its slot; Y first, the y slots with tau < c1 and then the
    own slots with sigma >= r1 are.  So one _back_substitute of the kept slots
    gives the RREF, with no pivot search.  height defaults to na + nb, the
    square a CellGroup holds; a cell has at most na + min(nb, c0) rows.
    """
    sigma, tau, ft, mt = cpass
    count, cells, w = len(sigma), len(c0), na + nb
    own = (c0 + na - 1)[:, None] - np.arange(na)
    rows = r0[:, None] + np.arange(nb)
    ys = tau[:, rows]
    y_at, own_at = (slice(0, nb), slice(nb, w)) if y_first else (slice(na, w), slice(0, na))
    slots = np.empty((count, cells, w), dtype=np.intp)
    slots[:, :, y_at], slots[:, :, own_at] = ys, own
    keep = np.empty((count, cells, w), dtype=bool)
    keep[:, :, y_at] = ys < (c0 + na if y_first else c0)[:, None]
    keep[:, :, own_at] = sigma[:, own] >= (r0 + nb if y_first else r0)[:, None]
    ranks = keep.sum(axis=2)
    top = int(ranks.max())
    lead = np.argsort(~keep, axis=2, kind="stable")[:, :, :top]  # kept slots first
    m, k = np.arange(count)[:, None, None], np.arange(cells)[:, None]
    src = slots[m, k, lead][..., None]
    x, y = ft[m[..., None], src, own[:, None]], mt[m[..., None], src, rows[:, None]]
    part = np.concatenate((y, x) if y_first else (x, y), axis=3, dtype=np.int64)
    part[np.arange(top) >= ranks[:, :, None]] = 0
    _back_substitute(part.reshape(count * cells, top, w), lead.reshape(count * cells, top), p)
    gens = np.zeros((count, cells, w if height is None else height, w), dtype=np.int64)
    gens[:, :, :top] = part
    return gens, ranks


def _by_shape(grids) -> dict:
    """(dim_x, dim_y) -> each grid's group of that cell shape, in grid order."""
    shapes = {}
    for h in grids:
        for g in h.groups:
            shapes.setdefault((g.dim_x, g.dim_y), []).append(g)
    return shapes


def _derive_each(grids):
    """Fill the derived() cache of every grid that has none.

    Grids sharing (field, alpha, beta) are derived together: every cell of
    every such grid goes into one stack, reduced Y first (see _y_first_forms)
    and read by one derive_stack, and each grid keeps its own slice.  In the
    stack both echelon forms are embedded with X at [0, dim_x) and Y from
    max(alpha) on: zero columns keep a member in RREF and change none of its
    derived spaces.  Entries are only compared and moved, so uint16 holds
    them (p < 2**16).
    """
    batches = {}
    for h in grids:
        if h._derived is None:
            batches.setdefault((h.field, h.alpha, h.beta), []).append(h)
    for (field, alpha, beta), hs in batches.items():
        mx, my, cells = max(alpha), max(beta), len(alpha) * len(beta)
        stack = np.zeros((len(hs) * cells, mx + my, mx + my), dtype=np.uint16)
        swapped = np.zeros_like(stack)
        ranks = np.zeros(len(stack), dtype=np.intp)
        for (dx, dy), parts in _by_shape(hs).items():
            at = ((np.arange(len(hs)) * cells)[:, None] + parts[0].cells @ (len(beta), 1)).ravel()
            part = np.concatenate([g.stack for g in parts])
            part_ranks = np.concatenate([g.ranks for g in parts])
            _embed(stack, at, part, dx, mx)
            _embed(swapped, at, _y_first_forms(hs, dx, dy, part, part_ranks, field.p), dy, my)
            ranks[at] = part_ranks
        dv = derive_stack(stack, swapped, ranks, mx, my)
        for k, h in enumerate(hs):
            cut = slice(k * cells, (k + 1) * cells)
            spaces = (x[cut] for x in dv[:4])
            h._derived = Derived(*spaces, dv.dims[:, cut], dv.theta[cut], dv.lifts[cut])
            h._y_first = None


def _y_first_forms(hs, dx: int, dy: int, part: np.ndarray, ranks: np.ndarray, p: int) -> np.ndarray:
    """The Y-first forms of the (dx, dy) cells of grids hs, stacked in part:
    a chi grid's read off its pass, one y_first over those of the rest."""
    forms = [h._y_first and h._y_first((dx, dy)) for h in hs]
    missing = [form is None for form in forms]
    if any(missing):
        at = np.repeat(missing, len(part) // len(hs))
        fresh = iter(np.split(y_first(part[at], ranks[at], dx, p), sum(missing)))
        forms = [next(fresh) if form is None else form for form in forms]
    return np.concatenate(forms)


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


def _axiom_tables(grids) -> tuple:
    """(flags, d) of B grids sharing (field, alpha, beta) by one _axiom_flags
    call: flags (B, p, q, 6) and the (B, p, q) tables d = dim dom - dim ker,
    equal to dim im - dim indef by derive_stack's dims."""
    _derive_each(grids)
    h, dvs = grids[0], [g._derived for g in grids]
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
    order.  The subspaces are compared as the whole arrays of derived().
    """
    violations = _violations(_axiom_tables([h])[0][0])
    return AxiomReport(not violations, violations)


def dimension_matrix(h: BiHinge) -> DimensionMatrix:
    """Cell dimensions dim dom - dim ker, margins alpha and beta guaranteed.

    Raises AxiomError when the grid fails check_axioms; the margin identities
    only hold on honest grids.  The stack of one of _dimension_tables.
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
    groups = []
    for (na, nb), cells in _shape_groups(d.alpha, d.beta).items():
        stack = np.zeros((len(cells), na + nb, na + nb), dtype=np.int64)
        ranks = []
        for m, (i, j) in zip(stack, cells):
            v, w, size = v_start[i, j], w_start[i, j], table[i, j]
            own = na - v  # identity pairs, then kernel rows
            m[np.arange(own), v + np.arange(own)] = 1
            m[np.arange(size), na + w + np.arange(size)] = 1
            m[own + np.arange(w), na + np.arange(w)] = 1
            ranks.append(own + w)
        groups.append(CellGroup(na, nb, cells, stack, np.array(ranks, dtype=np.intp)))
    return BiHinge._of(d.alpha, d.beta, field, groups)


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
    (B, beta_j, beta_j).  One act_stack per cell shape moves all B grids."""
    moved, shapes = {}, _by_shape(grids)
    for (dx, dy), parts in shapes.items():
        i, j = parts[0].cells.T.tolist()
        gx = np.stack([gs[k] for k in i], axis=1).reshape(-1, dx, dx)
        hy = np.stack([hs[k] for k in j], axis=1).reshape(-1, dy, dy)
        stack, ranks = act_stack(np.concatenate([g.stack for g in parts]),
                                 np.concatenate([g.ranks for g in parts]), gx, hy, dx, grids[0].field.p)
        moved[dx, dy] = stack.reshape(len(grids), len(i), *stack.shape[1:]), ranks.reshape(len(grids), -1)
    return [BiHinge._of(h.alpha, h.beta, h.field, [
        g._replace(stack=moved[g.dim_x, g.dim_y][0][b], ranks=moved[g.dim_x, g.dim_y][1][b]) for g in h.groups
    ]) for b, h in enumerate(grids)]


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
