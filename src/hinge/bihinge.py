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

import numpy as np

from .field import PrimeField
from .linalg import Matrix, ShapeError, _column_pass, _kernel_rows, _rref_stack
from .relations import LinearRelation
from .subspaces import Subspace, _span_rows


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
        rows = tuple(tuple(int(v) for v in row) for row in entries)
        if len(rows) != len(alpha) or any(len(r) != len(beta) for r in rows):
            raise MarginError(
                f"need a {len(alpha)} x {len(beta)} table, got {len(rows)} rows"
            )
        if any(v < 0 for row in rows for v in row):
            raise MarginError("cell dimensions must be nonnegative")
        for i, row in enumerate(rows):
            if sum(row) != alpha[i]:
                raise MarginError(f"row {i + 1} sums to {sum(row)}, expected {alpha[i]}")
        for j in range(len(beta)):
            col = sum(rows[i][j] for i in range(len(alpha)))
            if col != beta[j]:
                raise MarginError(f"column {j + 1} sums to {col}, expected {beta[j]}")
        self.entries = rows
        self.alpha = alpha
        self.beta = beta

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

    def to_rows(self) -> list:
        return [list(r) for r in self.entries]

    def v_start(self, i: int, j: int) -> int:
        """Local offset of sub-block V_i^j inside V_i (sub-blocks ascend in j)."""
        return sum(self.entries[i][:j])

    def w_start(self, j: int, i: int) -> int:
        """Local offset of sub-block W_j^i inside W_j (sub-blocks ascend in i)."""
        return sum(self.entries[k][j] for k in range(i))

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


class BiHinge:
    """A p x q grid of linear relations, cell (i, j) between V_i and W_j."""

    __slots__ = ("alpha", "beta", "grid")

    def __init__(self, alpha, beta, grid):
        alpha = Composition(alpha)
        beta = Composition(beta)
        grid = tuple(tuple(row) for row in grid)
        if len(grid) != len(alpha) or any(len(row) != len(beta) for row in grid):
            raise ShapeError(f"grid must be {len(alpha)} x {len(beta)}")
        for i, row in enumerate(grid):
            for j, cell in enumerate(row):
                if cell.dim_x != alpha[i] or cell.dim_y != beta[j]:
                    raise ShapeError(
                        f"cell ({i + 1},{j + 1}) has shape {cell.dim_x} => {cell.dim_y}, "
                        f"expected {alpha[i]} => {beta[j]}"
                    )
        self.alpha = alpha
        self.beta = beta
        self.grid = grid

    @property
    def field(self) -> PrimeField:
        return self.grid[0][0].field

    def cell(self, i: int, j: int) -> LinearRelation:
        return self.grid[i][j]

    def cells(self):
        for i in range(len(self.alpha)):
            for j in range(len(self.beta)):
                yield i, j, self.grid[i][j]

    def __eq__(self, other):
        if not isinstance(other, BiHinge):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.beta == other.beta
            and self.grid == other.grid
        )

    def __hash__(self):
        return hash((self.alpha, self.beta, self.grid))

    def __repr__(self):
        return f"BiHinge(alpha={self.alpha.parts}, beta={self.beta.parts})"


def chi_cell(a: Matrix, col_lo: int, col_hi: int, row_lo: int, row_hi: int) -> LinearRelation:
    """One grid cell of an invertible matrix, from the slice boundaries.

    The feasible inputs are the x supported on columns [0, col_hi) whose image
    vanishes on rows [0, row_lo); in those restricted coordinates they form the
    kernel of the top-left row_lo x col_hi slice of a.  Each feasible x
    contributes the pair (x restricted to [col_lo, col_hi), a x restricted to
    [row_lo, row_hi)).  chi does not call this: it is the definitional oracle
    for chi's cells and for the stacked cells of the completeness check.
    """
    field = a.field
    p = field.p
    arr = a.a
    kern = _kernel_rows(arr[:row_lo, :col_hi], p)
    xi = kern[:, col_lo:col_hi]
    eta = (kern @ arr[row_lo:row_hi, :col_hi].T) % p
    gens = np.concatenate([xi, eta], axis=1)
    return LinearRelation(col_hi - col_lo, row_hi - row_lo, _span_rows(field, gens))


# Fewest cells of one shape that chi reduces as one stack.  Measured with
# random generator stacks of cell sizes 2 to 40 (2-vCPU x86-64 host): at 4
# cells the stack was 1.1-1.5x slower than one _rref per cell, at 8 cells
# 0.7-0.9x (faster), at 64 cells 0.2-0.6x.
_STACK_MIN_CELLS = 8


def chi(a: Matrix, alpha, beta) -> BiHinge:
    """The full relation grid of an invertible matrix.

    Args:
        a: invertible n x n matrix; raises SingularMatrixError otherwise.
        alpha: composition of n grouping the columns into V_1..V_p.
        beta: composition of n grouping the rows into W_1..W_q.

    Returns:
        The BiHinge with cell (i, j) = chi_cell at the block boundaries.

    One column elimination serves every cell.  It gives a @ f == af with f
    unit upper triangular and pivot rows sigma, so:
      - column c of f is supported on [0, c] and a @ f[:, c] == af[:, c]
        first becomes nonzero at row sigma[c];
      - hence {f[:, c] : c < col_hi, sigma[c] >= row_lo} is a basis of the
        kernel of a[:row_lo, :col_hi] for every (row_lo, col_hi) at once, its
        size col_hi minus the rank of that slice;
      - so cell (i, j) is the span of the rows (f[c0:c1, c] | af[r0:r1, c])
        over those c, which is chi_cell with that kernel basis.
    Columns with c < c0 and sigma[c] >= r1 contribute zero rows, so a cell's
    candidate generators are its own columns c in [c0, c1), kept when
    sigma[c] >= r0, and the columns tau[r] = sigma^-1[r] for r in [r0, r1),
    kept when tau[r] < c0: alpha[i] + beta[j] candidates, the dropped ones
    zeroed.  Cells of one shape therefore stack without padding and are
    reduced by one _rref_stack call.  A shape held by fewer than
    _STACK_MIN_CELLS cells is reduced cell by cell with _rref instead: a
    stack pays a fixed numpy cost per column that only enough cells repay.
    At finest compositions every cell has shape (1, 1); at coarse ones most
    shapes are held by a single cell.
    """
    alpha = Composition(alpha)
    beta = Composition(beta)
    n = a.rows
    if a.cols != n:
        raise ShapeError(f"need a square matrix, got {a.shape}")
    if alpha.n != n or beta.n != n:
        raise MarginError(
            f"compositions must sum to {n}, got alpha -> {alpha.n}, beta -> {beta.n}"
        )
    field = a.field
    sigma, f, af = _column_pass(a)
    sigma = np.array(sigma)
    tau = np.argsort(sigma)
    ft = f.T  # row c is column c of f
    mt = af.T
    shapes = {}
    for i in range(len(alpha)):
        for j in range(len(beta)):
            shapes.setdefault((alpha[i], beta[j]), []).append((i, j))
    grid = [[None] * len(beta) for _ in range(len(alpha))]
    for (na, nb), cells in shapes.items():
        ij = np.array(cells)
        c0 = np.array(alpha.offsets)[ij[:, 0], None]
        r0 = np.array(beta.offsets)[ij[:, 1], None]
        own = c0 + np.arange(na)
        back = tau[r0 + np.arange(nb)]
        src = np.concatenate([own, back], axis=1)[:, :, None]
        keep = np.concatenate([sigma[own] >= r0, back < c0], axis=1)
        gens = np.concatenate(
            [ft[src, c0[:, :, None] + np.arange(na)], mt[src, r0[:, :, None] + np.arange(nb)]],
            axis=2,
        )
        if len(cells) < _STACK_MIN_CELLS:
            spaces = [_span_rows(field, g[k]) for g, k in zip(gens, keep)]
        else:
            gens[~keep] = 0
            ranks = _rref_stack(gens, field.p)
            spaces = [
                Subspace._trusted(Matrix._new(field, gens[k, :rank]))
                for k, rank in enumerate(ranks.tolist())
            ]
        for (i, j), space in zip(cells, spaces):
            grid[i][j] = LinearRelation(na, nb, space)
    return BiHinge(alpha, beta, grid)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of check_axioms; falsy when any gluing axiom fails."""

    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def check_axioms(h: BiHinge) -> AxiomReport:
    """Check the gluing axioms that characterize realizable relation grids.

    Adjacent cells must share their boundary subspaces, the first row of
    blocks must have no indefiniteness, the last must cover W_j, the last
    column must have trivial kernels and the first must have full domains.
    Violations are reported with 1-based indices.
    """
    p, q = len(h.alpha), len(h.beta)
    bad = []
    for i in range(p):
        for j in range(q):
            cell = h.grid[i][j]
            if j + 1 < q and cell.ker() != h.grid[i][j + 1].dom():
                bad.append(f"ker chi[{i + 1},{j + 1}] != dom chi[{i + 1},{j + 2}]")
            if i + 1 < p and cell.im() != h.grid[i + 1][j].indef():
                bad.append(f"im chi[{i + 1},{j + 1}] != indef chi[{i + 2},{j + 1}]")
            if i == 0 and cell.indef().dim != 0:
                bad.append(f"indef chi[1,{j + 1}] != 0")
            if i == p - 1 and cell.im().dim != h.beta[j]:
                bad.append(f"im chi[{p},{j + 1}] != W_{j + 1}")
            if j == q - 1 and cell.ker().dim != 0:
                bad.append(f"ker chi[{i + 1},{q}] != 0")
            if j == 0 and cell.dom().dim != h.alpha[i]:
                bad.append(f"dom chi[{i + 1},1] != V_{i + 1}")
    return AxiomReport(not bad, tuple(bad))


def dimension_matrix(h: BiHinge) -> DimensionMatrix:
    """Cell dimensions dim dom - dim ker, margins alpha and beta guaranteed.

    Raises AxiomError when the grid fails check_axioms; the margin identities
    only hold on honest grids.  The equal count dim im - dim indef is asserted
    rather than assumed.
    """
    report = check_axioms(h)
    if not report:
        raise AxiomError("; ".join(report.violations))
    entries = []
    for i in range(len(h.alpha)):
        row = []
        for j in range(len(h.beta)):
            cell = h.grid[i][j]
            d = cell.dom().dim - cell.ker().dim
            other = cell.im().dim - cell.indef().dim
            if d != other:
                raise AxiomError(
                    f"cell ({i + 1},{j + 1}) has dom/ker count {d} but im/indef count {other}"
                )
            row.append(d)
        entries.append(row)
    return DimensionMatrix(entries, h.alpha, h.beta)


def standard_matrix(d: DimensionMatrix, field: PrimeField) -> Matrix:
    """The 0-1 representative matrix of a dimension table.

    For each cell (i, j) an identity block of size d[i, j] is placed with its
    rows at sub-block W_j^i inside row block W_j and its columns at sub-block
    V_i^j inside column block V_i.
    """
    n = d.alpha.n
    arr = np.zeros((n, n), dtype=np.int64)
    r0 = list(d.beta.offsets[:-1])  # next free row of each W_j, as i ascends
    for i in range(len(d.alpha)):
        c0 = d.alpha.offsets[i]  # next free column of V_i, as j ascends
        for j in range(len(d.beta)):
            size = d[i, j]
            for k in range(size):
                arr[r0[j] + k, c0 + k] = 1
            r0[j] += size
            c0 += size
    return Matrix._new(field, arr)


def standard_bihinge(d: DimensionMatrix, field: PrimeField) -> BiHinge:
    """The canonical grid with the given dimension table.

    Cell (i, j) is spanned by indefiniteness rows W_j^1..W_j^{i-1}, identity
    pairs matching V_i^j with W_j^i, and kernel rows V_i^{j+1}..V_i^q, so its
    flags are coordinate sub-blocks and its theta is an identity.  It equals
    chi of standard_matrix(d) cell by cell.
    """
    p_blocks, q_blocks = len(d.alpha), len(d.beta)
    grid = []
    for i in range(p_blocks):
        a_i = d.alpha[i]
        row = []
        for j in range(q_blocks):
            b_j = d.beta[j]
            size = d[i, j]
            vstart = d.v_start(i, j)
            wstart = d.w_start(j, i)
            rows = np.zeros((wstart + size + (a_i - vstart - size), a_i + b_j), dtype=np.int64)
            r = 0
            for m in range(wstart):  # indefiniteness: leading W_j sub-blocks
                rows[r, a_i + m] = 1
                r += 1
            for k in range(size):  # theta identity pairs
                rows[r, vstart + k] = 1
                rows[r, a_i + wstart + k] = 1
                r += 1
            for c in range(vstart + size, a_i):  # kernel: trailing V_i sub-blocks
                rows[r, c] = 1
                r += 1
            rel = LinearRelation(a_i, b_j, _span_rows(field, rows))
            row.append(rel)
        grid.append(row)
    return BiHinge(d.alpha, d.beta, grid)


def equivalent(a: Matrix, b: Matrix, alpha, beta) -> bool:
    """Whether a and b lie in the same double coset, decided via their grids."""
    if a.field != b.field or a.shape != b.shape:
        raise ShapeError("matrices must share a field and a shape")
    return chi(a, alpha, beta) == chi(b, alpha, beta)


def hinge_act(gs, hs, h: BiHinge) -> BiHinge:
    """Apply block changes of basis: cell (i, j) maps by (gs[i], hs[j]).

    Matches conjugating the underlying matrix by the block-diagonal matrices
    with blocks hs on the left and inverse blocks gs on the right.
    """
    gs = list(gs)
    hs = list(hs)
    if len(gs) != len(h.alpha) or len(hs) != len(h.beta):
        raise ShapeError(
            f"need {len(h.alpha)} column factors and {len(h.beta)} row factors"
        )
    grid = [
        [h.grid[i][j].act(gs[i], hs[j]) for j in range(len(h.beta))]
        for i in range(len(h.alpha))
    ]
    return BiHinge(h.alpha, h.beta, grid)


def normalize(h: BiHinge) -> tuple:
    """Block changes of basis carrying a grid to its standard form.

    Returns (gs, hs, d) with hinge_act(gs, hs, h) == standard_bihinge(d) and
    d == dimension_matrix(h).  For each V_i the kernel flag is refined by the
    pivot rule into an adapted basis whose j-th sub-block represents the
    dom/ker quotient of cell (i, j); each W_j basis is pushed forward through
    the cells, lifting the V_i^j representatives and stacking ascending in i.
    Representative and push are the X and Y halves of one basis row of the
    cell (LinearRelation._lift_rows).
    On a grid already standard both lists come out as identity matrices.

    Raises AxiomError (via dimension_matrix) when the grid is not realizable.
    """
    d = dimension_matrix(h)
    field = h.field
    p_blocks, q_blocks = len(h.alpha), len(h.beta)
    lifts = [[h.grid[i][j]._lift_rows() for j in range(q_blocks)] for i in range(p_blocks)]
    gs = []
    for i in range(p_blocks):
        reps = np.concatenate([rows[:, : h.alpha[i]] for rows in lifts[i]], axis=0)
        gs.append(Matrix._new(field, np.ascontiguousarray(reps.T)).inverse())
    hs = []
    for j in range(q_blocks):
        pushed = np.concatenate([lifts[i][j][:, h.alpha[i] :] for i in range(p_blocks)], axis=0)
        hs.append(Matrix._new(field, np.ascontiguousarray(pushed.T)).inverse())
    return gs, hs, d
