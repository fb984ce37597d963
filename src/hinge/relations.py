"""Linear relations X => Y: subspaces of X + Y with the four derived spaces.

A relation L between X = GF(p)^dim_x and Y = GF(p)^dim_y is any subspace of
the direct sum, with coordinates 0..dim_x-1 on the X side.  A subspace is
held as its canonical basis: an RREF Matrix without zero rows, whose .rows
is the dimension.  L carries four such subspaces

    ker L    = {xi : (xi, 0) in L}          inside X
    dom L    = {xi : (xi, eta) in L}        inside X
    im L     = {eta : (xi, eta) in L}       inside Y
    indef L  = {eta : (0, eta) in L}        inside Y

and an invertible operator theta(L): dom/ker -> im/indef induced by membership.

Relations of one shape are held as a stack: an (N, C, C) array, C = dim_x +
dim_y, whose member k is the RREF basis of one relation, X coordinates
first, padded with zero rows.  derive_stack reads all five of every member
off two echelon forms at once.  The rows that pivot in X have X halves
forming the RREF of dom, and the remaining rows are (0 | RREF of indef).
The RREF with the Y columns first (y_first) gives im and (0 | ker) the same
way, as do rows (im | 0), (0 | ker) built otherwise.  theta needs no solve.
The basis row whose X pivot is not a ker pivot lifts the dom/ker class of
its X half.  Its Y half is zero at the indef pivots, which are pivot columns
of other rows, so its indef coordinates vanish, and its im/indef
coordinates are its entries at the im pivots that are not indef pivots.  A
LinearRelation is a stack of one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .field import PrimeField
from .linalg import Matrix, ShapeError, _rref_each, _span


class InvariantViolation(RuntimeError):
    """A relation failed an identity that holds for every honest construction."""


class Derived(NamedTuple):
    """What derive_stack reads off a stack of relations, member k at index k."""

    ker: np.ndarray
    dom: np.ndarray
    im: np.ndarray
    indef: np.ndarray
    dims: np.ndarray
    theta: np.ndarray
    lifts: np.ndarray


def _pivot_mask(stack: np.ndarray, member: np.ndarray) -> np.ndarray:
    """(N, C + 1) mask of the pivot columns of the nonzero rows; column C is spare."""
    width = stack.shape[2]
    nonzero = stack != 0
    mask = np.zeros((len(stack), width + 1), dtype=bool)
    mask[member, np.where(nonzero.any(axis=2), nonzero.argmax(axis=2) if width else 0, width)] = True
    return mask


def y_first(stack: np.ndarray, dim_x: int, p: int) -> np.ndarray:
    """The RREF of every member of a stack with its columns reordered (Y, X)."""
    swapped = np.concatenate([stack[:, :, dim_x:], stack[:, :, :dim_x]], axis=2)
    _rref_each(swapped, p)
    return swapped


def derive_stack(stack, swapped, dim_x: int) -> Derived:
    """ker, dom, im, indef, theta and the lift rows of a stack of relations.

    stack is (N, R, C), C = dim_x + dim_y <= R, each member an RREF basis
    padded with zero rows, its rank its count of nonzero rows.  swapped has
    the columns (y | x): rows pivoting in Y whose Y halves are im's RREF,
    then (0 | RREF of ker), zero past the rank, as in the y_first form; the
    X halves of the im rows are never read.  ker and dom come out (N, dim_x,
    dim_x) and im and indef (N, dim_y, dim_y), RREF bases padded with zero
    rows, so two subspaces of one space are equal exactly when their arrays
    are; dims is (4, N), their dimensions.  With d = dim dom - dim ker,
    theta[k, :d, :d] is member k's theta and lifts[k, :d] its lift rows (xi
    | eta), xi representing a dom/ker class and eta in the class theta maps
    it to; entries past d mean nothing.  Raises InvariantViolation if some
    member's quotients differ.
    """
    dx, dy = dim_x, stack.shape[2] - dim_x
    member = np.arange(len(stack))[:, None]
    x_piv = _pivot_mask(stack, member)  # dom pivots, then indef pivots
    y_piv = _pivot_mask(swapped, member)  # im pivots, then ker pivots
    rank, dom_dim, im_dim = x_piv[:, :-1].sum(axis=1), x_piv[:, :dx].sum(axis=1), y_piv[:, :dy].sum(axis=1)
    lift_cols = x_piv[:, :dx] & ~y_piv[:, dy:-1]
    q_cols = y_piv[:, :dy] & ~x_piv[:, dx:-1]
    d, d_im = lift_cols.sum(axis=1), q_cols.sum(axis=1)
    if (d != d_im).any():
        k = np.flatnonzero(d != d_im)[0]
        raise InvariantViolation(f"dom/ker has dimension {d[k]} but im/indef has {d_im[k]}")
    t = min(dx, dy)
    row_of = x_piv.cumsum(axis=1) - 1  # pivot column -> its row
    lifts = stack[member, row_of[member, np.argsort(~lift_cols, axis=1, kind="stable")[:, :t]]]
    q_order = dx + np.argsort(~q_cols, axis=1, kind="stable")[:, :t, None]
    return Derived(  # the rows past a rank are zero, and R >= C keeps every index in range
        ker=swapped[member, im_dim[:, None] + np.arange(dx), dy:],
        dom=stack[:, :dx, :dx],
        im=swapped[:, :dy, :dy],
        indef=stack[member, dom_dim[:, None] + np.arange(dy), dx:],
        dims=np.stack([rank - im_dim, dom_dim, im_dim, rank - dom_dim]),
        theta=lifts[member[:, :, None], np.arange(t), q_order],
        lifts=lifts,
    )


def act_stack(stack, gx, hy, p: int) -> np.ndarray:
    """The stack of the relations {(g xi, h eta)}, member k moved by gx[k]
    and hy[k]; the factors are not checked for invertibility."""
    dim_x = gx.shape[1]
    moved = np.concatenate(
        [stack[:, :, :dim_x] @ gx.transpose(0, 2, 1), stack[:, :, dim_x:] @ hy.transpose(0, 2, 1)],
        axis=2,
    ) % p
    _rref_each(moved, p)
    return moved


class LinearRelation:
    """The linear relation from GF(p)^dim_x to GF(p)^dim_y spanned by the
    (xi | eta) rows of a Matrix with dim_x + dim_y columns.

    Immutable; .basis is the span's canonical basis, and the derived
    subspaces and theta are computed lazily and cached.  Equality is
    equality of dimensions and bases, so any generators of one span give
    one relation.
    """

    __slots__ = ("dim_x", "dim_y", "basis", "_derived")

    def __init__(self, dim_x: int, dim_y: int, rows: Matrix):
        if dim_x < 0 or dim_y < 0:
            raise ShapeError("relation dimensions must be nonnegative")
        if rows.cols != dim_x + dim_y:
            raise ShapeError(f"relation rows have {rows.cols} columns, expected {dim_x + dim_y}")
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.basis = _span(rows.field, rows.a)
        self._derived = None

    @property
    def field(self) -> PrimeField:
        return self.basis.field

    def _stack(self) -> np.ndarray:
        """This relation as a stack of one: its basis padded to (1, C, C)."""
        size = self.dim_x + self.dim_y
        basis = self.basis.a
        stack = np.zeros((1, size, size), dtype=np.int64)
        stack[0, : len(basis)] = basis
        return stack

    def _spaces(self) -> tuple:
        """(ker, dom, im, indef, theta), derive_stack of a stack of one, cached."""
        if self._derived is None:
            field = self.field
            stack = self._stack()
            dv = derive_stack(stack, y_first(stack, self.dim_x, field.p), self.dim_x)
            dims = dv.dims[:, 0]
            spaces = tuple(
                Matrix._new(field, np.ascontiguousarray(s[0, :k])) for s, k in zip(dv[:4], dims)
            )
            d = dims[1] - dims[0]
            theta = Matrix._new(field, np.ascontiguousarray(dv.theta[0, :d, :d]))
            self._derived = spaces + (theta,)
        return self._derived

    def ker(self) -> Matrix:
        return self._spaces()[0]

    def dom(self) -> Matrix:
        return self._spaces()[1]

    def im(self) -> Matrix:
        return self._spaces()[2]

    def indef(self) -> Matrix:
        return self._spaces()[3]

    def theta(self) -> Matrix:
        """The induced operator dom/ker -> im/indef in the canonical bases.

        The domain classes are the rows of dom's RREF basis whose pivots are
        not ker pivots, the image classes those of im's basis whose pivots are
        not indef pivots.  Column k of the result holds the image coordinates
        of the k-th domain class.  A 0 x 0 matrix is legal (relation with
        dom == ker).
        """
        return self._spaces()[4]

    def __eq__(self, other):
        if not isinstance(other, LinearRelation):
            return NotImplemented
        return (
            self.dim_x == other.dim_x
            and self.dim_y == other.dim_y
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.dim_x, self.dim_y, self.basis))

    def __repr__(self):
        return (
            f"LinearRelation({self.dim_x} => {self.dim_y} over GF({self.field.p}), "
            f"dim {self.basis.rows})"
        )
