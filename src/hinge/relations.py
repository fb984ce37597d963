"""Linear relations X => Y: subspaces of X + Y with the four derived spaces.

A relation L between X = GF(p)^dim_x and Y = GF(p)^dim_y is any subspace of
the direct sum, with coordinates 0..dim_x-1 on the X side.  It carries four
canonical subspaces

    ker L    = {xi : (xi, 0) in L}          inside X
    dom L    = {xi : (xi, eta) in L}        inside X
    im L     = {eta : (xi, eta) in L}       inside Y
    indef L  = {eta : (0, eta) in L}        inside Y

and an invertible operator theta(L): dom/ker -> im/indef induced by membership.

All five are read off two echelon forms.  The stored basis is the RREF of L
with X first: its rows that pivot in X have X halves forming the RREF of dom,
and the remaining rows are (0 | RREF of indef).  One more RREF of the basis
with its Y columns first gives im and (0 | ker) the same way.  theta needs no
solve.  The basis row whose X pivot is not a ker pivot lifts the dom/ker
class of its X half.  Its Y half is zero at the indef pivots, which are
pivot columns of other rows, so its indef coordinates vanish, and its
im/indef coordinates are its entries at the im pivots that are not indef
pivots.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField
from .linalg import Matrix, ShapeError, SingularMatrixError, _rref
from .subspaces import Subspace, _span_rows, subspace_from_generators


class InvariantViolation(RuntimeError):
    """A relation failed an identity that holds for every honest construction."""


def quotient_rows(big: Subspace, small: Subspace) -> np.ndarray:
    """Rows of big's RREF basis whose pivots are not pivots of small.

    When small <= big these rows represent a basis of the quotient big/small:
    pivot columns of a subspace are the leading positions of its nonzero
    vectors, so they are monotone under inclusion and the selected rows span a
    complement of small inside big.
    """
    small_piv = set(small.pivots())
    keep = [i for i, c in enumerate(big.pivots()) if c not in small_piv]
    return big.basis.a[keep]


def _subspace(field: PrimeField, rows: np.ndarray) -> Subspace:
    """Subspace of rows already in RREF without zero rows."""
    return Subspace._trusted(Matrix._new(field, np.ascontiguousarray(rows)))


class LinearRelation:
    """A linear relation from GF(p)^dim_x to GF(p)^dim_y.

    Immutable; the derived subspaces and theta are computed lazily and cached.
    Equality is equality of the underlying subspaces (dimensions included),
    which by design is representational equality of canonical bases.
    """

    __slots__ = ("dim_x", "dim_y", "space", "_ker", "_dom", "_im", "_indef", "_theta", "_lifts")

    def __init__(self, dim_x: int, dim_y: int, space: Subspace):
        if dim_x < 0 or dim_y < 0:
            raise ShapeError("relation dimensions must be nonnegative")
        if space.ambient_dim != dim_x + dim_y:
            raise ShapeError(
                f"relation space lives in dim {space.ambient_dim}, expected {dim_x + dim_y}"
            )
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.space = space
        self._ker = self._dom = self._im = self._indef = self._theta = self._lifts = None

    @classmethod
    def graph(cls, a: Matrix) -> "LinearRelation":
        """The graph {(x, a x)} of a matrix, a relation of dimension a.cols."""
        gens = np.concatenate([np.eye(a.cols, dtype=np.int64), a.a.T % a.field.p], axis=1)
        return cls(a.cols, a.rows, _span_rows(a.field, gens))

    @classmethod
    def from_generators(cls, field: PrimeField, dim_x: int, dim_y: int, rows) -> "LinearRelation":
        """Relation spanned by explicit (xi | eta) rows of length dim_x + dim_y."""
        gens = Matrix(field, np.array(rows, dtype=np.int64).reshape(-1, dim_x + dim_y))
        return cls(dim_x, dim_y, subspace_from_generators(gens))

    @property
    def field(self) -> PrimeField:
        return self.space.field

    def _halves(self):
        b = self.space.basis.a
        return b[:, : self.dim_x], b[:, self.dim_x :]

    def _derive(self):
        """Fill ker, dom, im, indef, theta and the lift rows (module docstring)."""
        field = self.field
        p = field.p
        dx, dy = self.dim_x, self.dim_y
        b = self.space.basis.a
        piv = (b != 0).argmax(axis=1).tolist() if b.size else []  # b has no zero rows
        k = sum(c < dx for c in piv)  # pivots ascend: X-pivot rows come first
        swapped = np.concatenate([b[:, dx:], b[:, :dx]], axis=1)
        piv_y = _rref(swapped, p)  # b has full row rank, so every row keeps a pivot
        m = sum(c < dy for c in piv_y)
        self._dom = _subspace(field, b[:k, :dx])
        self._indef = _subspace(field, b[k:, dx:])
        self._im = _subspace(field, swapped[:m, :dy])
        self._ker = _subspace(field, swapped[m:, dy:])
        ker_piv = {c - dy for c in piv_y[m:]}
        lifts = [r for r in range(k) if piv[r] not in ker_piv]
        indef_piv = set(piv[k:])
        q_piv = [dx + c for c in piv_y[:m] if dx + c not in indef_piv]
        if len(lifts) != len(q_piv):
            raise InvariantViolation(
                f"dom/ker has dimension {len(lifts)} but im/indef has {len(q_piv)}"
            )
        self._lifts = lifts
        self._theta = Matrix._new(field, np.ascontiguousarray(b[lifts][:, q_piv].T))

    def dom(self) -> Subspace:
        if self._dom is None:
            self._derive()
        return self._dom

    def im(self) -> Subspace:
        if self._im is None:
            self._derive()
        return self._im

    def ker(self) -> Subspace:
        if self._ker is None:
            self._derive()
        return self._ker

    def indef(self) -> Subspace:
        if self._indef is None:
            self._derive()
        return self._indef

    def theta(self) -> Matrix:
        """The induced operator dom/ker -> im/indef in the canonical bases.

        Both quotient bases come from the pivot rule in quotient_rows.  Column
        k of the result holds the image coordinates of the k-th domain basis
        class.  A 0 x 0 matrix is legal (relation with dom == ker).
        """
        if self._theta is None:
            self._derive()
        return self._theta

    def _lift_rows(self) -> np.ndarray:
        """The basis rows (xi | eta) whose X halves are quotient_rows(dom, ker).

        Row k lifts the k-th domain class of theta: xi is its representative
        and eta a member of the image class theta maps it to.
        """
        if self._lifts is None:
            self._derive()
        return self.space.basis.a[self._lifts]

    def act(self, g: Matrix, h: Matrix) -> "LinearRelation":
        """The relation {(g xi, h eta) : (xi, eta) in L} for invertible g, h."""
        if g.shape != (self.dim_x, self.dim_x) or h.shape != (self.dim_y, self.dim_y):
            raise ShapeError(
                f"action needs shapes {(self.dim_x, self.dim_x)} and "
                f"{(self.dim_y, self.dim_y)}, got {g.shape} and {h.shape}"
            )
        if g.rank() != self.dim_x or h.rank() != self.dim_y:
            raise SingularMatrixError(
                f"action factors must be invertible, got ranks {g.rank()}, {h.rank()}"
            )
        bx, by = self._halves()
        p = self.field.p
        gens = np.concatenate([(bx @ g.a.T) % p, (by @ h.a.T) % p], axis=1)
        return LinearRelation(self.dim_x, self.dim_y, _span_rows(self.field, gens))

    def __eq__(self, other):
        if not isinstance(other, LinearRelation):
            return NotImplemented
        return (
            self.dim_x == other.dim_x
            and self.dim_y == other.dim_y
            and self.space == other.space
        )

    def __hash__(self):
        return hash((self.dim_x, self.dim_y, self.space))

    def __repr__(self):
        return (
            f"LinearRelation({self.dim_x} => {self.dim_y} over GF({self.field.p}), "
            f"dim {self.space.dim})"
        )
