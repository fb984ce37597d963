"""Dense exact matrices over GF(p) with reduced row echelon machinery.

Entries live in immutable int64 numpy arrays, always reduced mod p.  All
routines are exact: there is no floating point anywhere in this package.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .field import PrimeField


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """A square matrix expected to be invertible is not."""


def _integers(data, refusal: str) -> np.ndarray:
    """data as an array of integers: numpy's, or Python ints in an object
    array past int64 and uint64.  An array is judged by its dtype, Python
    values by their types, as numpy reads a bool among ints as an int: a
    bool, float or string raises a ValueError, the refusal and what it got,
    and rows of unequal lengths a ShapeError."""
    try:
        raw = np.asarray(data)
    except ValueError:
        raise ShapeError("data has rows of unequal lengths") from None
    if isinstance(data, np.ndarray) and raw.dtype.kind != "O":
        if raw.size and raw.dtype.kind not in "iu":
            raise ValueError(f"{refusal}, got {raw.dtype} data")
        return raw
    rows = data if raw.ndim > 1 else [data] if raw.ndim else [[data]]  # values in rows, one level deep
    for _ in range(raw.ndim - 2):
        rows = chain.from_iterable(rows)
    rows = list(rows)
    bad = {t for t in {type(v) for row in rows for v in row} if t is bool or not issubclass(t, (int, np.integer))}
    if bad:
        raise ValueError(f"{refusal}, got {next(v for row in rows for v in row if type(v) in bad)!r}")
    return np.array(data, dtype=object) if raw.dtype.kind == "f" else raw  # ints past int64 of both signs infer as float


def _as_reduced(field: PrimeField, data) -> np.ndarray:
    raw = _integers(data, "matrix entries must be integers")
    p = field.p
    if raw.dtype.kind == "O":
        raw = raw % p  # Python ints of any size, reduced before they meet int64
    elif raw.dtype.kind == "u":
        raw = raw % np.array(p, dtype=raw.dtype)  # in its own dtype: no wrap past int64
    if raw.ndim != 2:
        raise ShapeError(f"matrix data must be 2-dimensional, got ndim={raw.ndim}")
    return raw.astype(np.int64) % p


class Matrix:
    """An immutable rows x cols matrix over a PrimeField.

    Matrices hash by modulus, shape and entry bytes, so they can seed sets and
    dicts during exhaustive enumeration.  The raw array is exposed as .a for
    read-only numpy work; it is flagged unwriteable.
    """

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, data):
        self.field = field
        arr = _as_reduced(field, data)
        arr.flags.writeable = False
        self.a = arr

    @classmethod
    def _new(cls, field: PrimeField, arr: np.ndarray) -> "Matrix":
        # Trusted path: arr is int64, already reduced, ownership transfers here.
        m = object.__new__(cls)
        m.field = field
        arr.flags.writeable = False
        m.a = arr
        return m

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Matrix":
        return cls._new(field, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple:
        return self.a.shape

    def to_rows(self) -> list:
        return self.a.tolist()

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError(f"mixed fields {self.field} and {other.field}")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        return Matrix._new(self.field, (self.a @ other.a) % self.field.p)

    def rank(self) -> int:
        arr = self.a.copy()
        return len(_rref(arr, self.field.p))

    def rref(self) -> tuple:
        """Reduced row echelon form.  Returns (matrix, pivot column tuple)."""
        arr = self.a.copy()
        piv = _rref(arr, self.field.p)
        return Matrix._new(self.field, arr), tuple(piv)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.field.p, self.shape, self.a.tobytes()))

    def __repr__(self):
        body = "; ".join(" ".join(str(int(v)) for v in row) for row in self.a)
        return f"Matrix(GF({self.field.p}), [{body}])"


def _rref(arr: np.ndarray, p: int) -> list:
    """In-place Gauss-Jordan reduction mod p.  Returns the pivot column list.

    Pivot search scans columns left to right and takes the first nonzero entry
    at or below the current row, so the result is the canonical RREF.
    """
    rows, cols = arr.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = arr[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            arr[[r, i]] = arr[[i, r]]
        v = int(arr[r, c])
        if v != 1:
            arr[r] = arr[r] * pow(v, -1, p) % p
        col = arr[:, c]
        sel = col.nonzero()[0]
        sel = sel[sel != r]
        if sel.size:
            arr[sel] = (arr[sel] - col[sel, None] * arr[r]) % p
        pivots.append(c)
        r += 1
    return pivots


def _span(field: PrimeField, rows: np.ndarray) -> Matrix:
    """The canonical basis of the span of rows reduced mod p: their RREF
    without zero rows.  A subspace is this Matrix; its dimension is .rows."""
    arr = np.array(rows, dtype=np.int64)
    piv = _rref(arr, field.p)
    return Matrix._new(field, np.ascontiguousarray(arr[: len(piv)]))


def _unit_inverses(units: np.ndarray, p: int) -> np.ndarray:
    """pow(v, -1, p) of every entry of a 1-d array of units, once per distinct value."""
    if p < 16:  # a table of the p - 1 inverses: 1.4-7 us a call on 8-200 units at p = 2-13, np.unique 13-32 us;
        # the two meet near p = 61 (2-vCPU x86-64 host, medians of 9 interleaved runs)
        return np.array([0] + [pow(v, -1, p) for v in range(1, p)])[units]
    if units.size < 64:  # np.unique costs 12-20 us and a pow 0.3-0.8 us (2-vCPU x86-64 host), so one pow per unit
        return np.array([pow(v, -1, p) for v in units.tolist()], dtype=np.int64)
    v, where = np.unique(units, return_inverse=True)
    return np.array([pow(int(x), -1, p) for x in v], dtype=np.int64)[where]


def _rref_stack(arr: np.ndarray, p: int) -> np.ndarray:
    """In-place canonical RREF of every matrix in an (N, R, C) stack.

    Each matrix comes out exactly as _rref leaves it: per column, the first
    nonzero entry at or below that matrix's current row is swapped up and
    scaled to 1, then cleared from the other rows.  Returns the ranks.  The
    pivot row is zero left of its column, so only columns from there on are
    touched.
    """
    n_mat, rows, cols = arr.shape
    below = np.arange(rows)
    r = np.zeros(n_mat, dtype=np.intp)
    for c in range(cols):
        col = arr[:, :, c]
        hits = (col != 0) & (below >= r[:, None])
        sel = np.flatnonzero(hits.any(axis=1))
        if sel.size == 0:
            continue
        rr = r[sel]
        src = hits[sel].argmax(axis=1)
        swap = src != rr
        if swap.any():
            s, top, low = sel[swap], rr[swap], src[swap]
            arr[s, top], arr[s, low] = arr[s, low], arr[s, top]
        piv_row = arr[sel, rr, c:] * _unit_inverses(arr[sel, rr, c], p)[:, None] % p
        arr[sel, rr, c:] = piv_row
        fac = arr[sel, :, c]
        fac[np.arange(sel.size), rr] = 0
        rows = arr[sel, :, c:]  # a copy, cleared in place
        rows -= fac[:, :, None] * piv_row[:, None, :]
        rows %= p
        arr[sel, :, c:] = rows
        r[sel] += 1
    return r


def _back_substitute(arr: np.ndarray, lead: np.ndarray, p: int):
    """In-place RREF of every member of an (M, H, w) stack in row echelon form:
    row h of member m is zero or leads at column lead[m, h], the leads rising
    down its nonzero rows.  Rows are scaled to a leading 1 and then, bottom
    up, cleared at the leads below by one vector-matrix product with the rows
    there, already reduced: no pivot search.  Row h is unchanged until its own
    step: up to as many members as rows read their entries at the leads once,
    as a table (0.81x a gather per row on grid-coarse's stacks; grid-fine's and
    ground-truth's gather, 0.80x and 0.93x the table).  One member: matvecs."""
    count, height, _ = arr.shape
    m = np.arange(count)[:, None]
    v = np.maximum(arr[m, np.arange(height), lead], 1)  # a zero row scales by 1
    arr[...] = arr * _unit_inverses(v.ravel(), p).reshape(v.shape)[:, :, None] % p
    if count == 1:
        a, piv, table = arr[0], lead[0], arr[0][:, lead[0]]
        for h, c in zip(range(height - 2, -1, -1), piv[-2::-1].tolist()):
            row = a[h, c:]
            row -= table[h, h + 1 :] @ a[h + 1 :, c:]
            row %= p
        return
    table = arr[m, :, lead].transpose(0, 2, 1) if count <= height else None
    for h in range(height - 2, -1, -1):
        coef = arr[m, h, lead[:, h + 1 :]] if table is None else table[:, h, h + 1 :]
        arr[:, h] = (arr[:, h] - (coef[:, None] @ arr[:, h + 1 :])[:, 0]) % p


# Fewest matrices that _rref_each reduces as one stack, one per cell of a shape
# for act_stack (hinge_act) and y_first (check_axioms and derived() of grids no
# column pass made).  On bench/workloads.py grids of seeds 1-3 (minima of 7 x 3
# runs, 2-vCPU x86-64 host), coarse shapes (one or two cells) stay below it:
# cell by cell, hinge_act took 4.4-29 ms and check_axioms 3.0-11, against 10-42
# and 9.2-36 forced through the stack.  Fine grids (one shape of n^2 cells)
# reach it: the stack took 0.61-3.3 and 0.37-1.2 ms, against 1.5-5.5 and 1.3-4.8.
_STACK_MIN_CELLS = 8


def _rref_each(arr: np.ndarray, p: int):
    """In-place canonical RREF of every matrix in an (N, R, C) stack.

    A stack pays a fixed numpy cost per column that only enough members
    repay, so fewer than _STACK_MIN_CELLS matrices are reduced one by one
    with _rref, each up to its last nonzero row: past it, _rref would scan
    every column left after its last pivot.
    """
    if len(arr) >= _STACK_MIN_CELLS:
        _rref_stack(arr, p)
        return
    for m, top in zip(arr, (arr.any(axis=2) * np.arange(1, arr.shape[1] + 1)).max(axis=1, initial=0).tolist()):
        _rref(m[:top], p)


def _kernel_rows(arr: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {x : arr @ x = 0}.  Not canonicalized; callers rref."""
    rows, cols = arr.shape
    work = arr % p
    piv = _rref(work, p)
    pivset = set(piv)
    free = [c for c in range(cols) if c not in pivset]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        out[k, f] = 1
        for r, c in enumerate(piv):
            out[k, c] = -int(work[r, f]) % p
    return out


def _column_pass(a: np.ndarray, p: int) -> tuple:
    """One column elimination of a square matrix, returning (sigma, f, af, u).

    Columns go left to right.  Column c's pivot is its first nonzero entry, in
    row sigma[c]; multiples of column c are then subtracted from the columns
    to its right to clear that row.  Only these rightward column operations
    are used, so f is unit upper triangular, af == a @ f, and column c of af
    vanishes above row sigma[c].  sigma is therefore the permutation of an
    l @ perm @ u factorization, with l[:, sigma[c]] == af[:, c], and u ==
    f^-1: u[c, j] is the multiple of column c that cleared column j, since
    the inverses I + u[c, c+1:] of the steps multiply without cross terms.
    Raises SingularMatrixError when some column of a depends on earlier ones.

    The steps run left-looking (Golub and Van Loan, Matrix Computations,
    section 3.2).  w holds [af^T | f^T] and starts as [a^T | I]; step c
    finishes row c by subtracting u[:c, c] times the finished rows above it,
    takes the pivot, and fills row c of u at once from column sigma[c] of
    the rows below, less their part already cleared by the finished rows.
    No row past c is written before its own step.  Each product sums at most
    n terms below p^2 < 2^32, exact in int64.  Against the right-looking order, which
    rewrote every later column at every step, a pass took 1.46 against 3.89
    ms at n = 96 and 0.47 against 0.93 at n = 48 (p = 65521, minima of 30
    interleaved runs, 2-vCPU x86-64 host).
    """
    n = len(a)
    w = np.concatenate([a.T, np.eye(n, dtype=np.int64)], axis=1)
    u = np.eye(n, dtype=np.int64)
    sigma = np.empty(n, dtype=np.intp)
    for c in range(n):
        row = w[c, : n + c]  # row k of f^T is zero past column k
        row -= u[:c, c] @ w[:c, : n + c]
        row %= p
        nz = row[:n].nonzero()[0]
        if nz.size == 0:
            raise SingularMatrixError(f"matrix is singular over GF({p}): column {c} depends on earlier columns")
        sigma[c] = r = int(nz[0])
        u[c, c + 1 :] = (w[c + 1 :, r] - w[:c, r] @ u[:c, c + 1 :]) % p * pow(int(row[r]), -1, p) % p
    return sigma, w[:, n:].T, w[:, :n].T, u


def _column_pass_each(stack: np.ndarray, p: int) -> tuple:
    """_column_pass of every matrix in an (N, n, n) stack, one left-looking
    step per column for all N, its products batched over the members.  A
    stack of one goes to _column_pass: at N = 1 the stacked steps took 2.21
    against 1.46 ms at n = 96 and 0.26 against 0.14 at n = 16 (p = 65521,
    minima of 30 interleaved runs, 2-vCPU x86-64 host)."""
    count, n, cols = stack.shape
    if cols != n:
        raise ShapeError(f"need a square matrix, got {stack.shape[1:]}")
    if count == 1:
        return tuple(x[None] for x in _column_pass(stack[0], p))
    w = np.concatenate([stack.transpose(0, 2, 1), np.broadcast_to(np.eye(n, dtype=np.int64), stack.shape)], axis=2)
    u = np.tile(np.eye(n, dtype=np.int64), (count, 1, 1))
    sigma = np.empty((count, n), dtype=np.intp)
    members = np.arange(count)
    for c in range(n):
        row = w[:, c, : n + c]  # as in _column_pass, per member
        row -= (u[:, None, :c, c] @ w[:, :c, : n + c])[:, 0]
        row %= p
        r = (row[:, :n] != 0).argmax(axis=1)
        piv = row[members, r]
        if not piv.all():
            raise SingularMatrixError(f"matrix is singular over GF({p}): column {c} depends on earlier columns")
        sigma[:, c] = r
        below = w[members, c + 1 :, r] - (w[members, None, :c, r] @ u[:, :c, c + 1 :])[:, 0]
        u[:, c, c + 1 :] = below % p * _unit_inverses(piv, p)[:, None] % p
    return sigma, w[:, :, n:].transpose(0, 2, 1), w[:, :, :n].transpose(0, 2, 1), u
