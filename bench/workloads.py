"""Seeded inputs for the hinge benchmark, each with its answer known by construction.

Nothing here imports hinge: every expected answer comes from how the input
was built, with numpy only.

A grid matrix is built as a = L P D U (L unit lower, P a permutation, D an
invertible diagonal, U unit upper).  Since L lies in the lower and D U in the
upper Borel group, the Bruhat permutation of a is P, so its dimension table
is the block count of P: entry (i, j) counts the units of P in column block
alpha_i and row block beta_j.  Partners of a:

- equal: l a u with l in T-(beta) and u in T+(alpha), the same double coset;
- unequal: L' P' D' U' where P' has other block counts, another coset;
- torus (finest compositions, p > 2): L' P D' U' with D' != D.  The monomial
  P D indexes the U-\\GL/U+ cosets, so this is another coset, yet both
  matrices have the same block counts and hence the same canonical_01.
"""

from __future__ import annotations

import json
import os
from itertools import product
from math import prod

import numpy as np

# (sizes, modulus, finest compositions?) per grid workload.
GRID = {
    "grid-fine": ((16, 24, 32), 7, True),
    "grid-coarse": ((48, 64, 96), 65521, False),
}

# Brute counts over GL(4, 2), with 12 and 7 closure generators.  Few ops,
# so each runs in several passes of a run.
COUNT_Q = 2
COUNT_PAIRS = (
    ((1, 1, 1, 1), (1, 1, 1, 1)),
    ((1, 3), (2, 2)),
)
# Completeness over GL(2, 2) and GL(3, 2).  (-q 3 --max-n 3 takes 20-40 s:
# one sample per run, whose time moves by a fifth with a shared host's load.)
SELFCHECK_Q, SELFCHECK_MAX_N = 2, 3
# The pinned cases of the counting suite: (alpha, beta, q).
SELFCHECK_COUNT_CASES = (((1, 1), (1, 1), 2), ((1, 1), (1, 1), 3), ((2,), (1, 1), 2), ((1, 1, 1), (1, 1, 1), 2))


def gl_order(n: int, q: int) -> int:
    return prod(q ** n - q ** k for k in range(n))


def _tables(alpha, beta):
    """Nonnegative integer tables with row sums alpha and column sums beta."""
    if not alpha:
        if not any(beta):
            yield ()
        return
    for row in product(*(range(min(alpha[0], b) + 1) for b in beta)):
        if sum(row) == alpha[0]:
            rest = tuple(b - r for b, r in zip(beta, row))
            for tail in _tables(alpha[1:], rest):
                yield (row,) + tail


def coset_count(alpha, beta, q: int) -> int:
    """Number of T-(beta)\\GL/T+(alpha) double cosets by orbit counting.

    The cosets with dimension table d form one orbit of the block diagonal
    groups; its stabilizer is prod GL(d_ij) times one q-power per pair of
    cells sharing a row or a column of the table.
    """
    group = prod(gl_order(a, q) for a in alpha) * prod(gl_order(b, q) for b in beta)
    total = 0
    for d in _tables(tuple(alpha), tuple(beta)):
        pairs = sum(x * y for row in d for k, x in enumerate(row) for y in row[k + 1 :])
        cols = list(zip(*d))
        pairs += sum(x * y for col in cols for k, x in enumerate(col) for y in col[k + 1 :])
        stab = prod(gl_order(v, q) for row in d for v in row) * q ** pairs
        orbit, rem = divmod(group, stab)
        if rem:
            raise ArithmeticError(f"stabilizer {stab} does not divide {group}")
        total += orbit
    return total


def block_of(comp) -> np.ndarray:
    return np.repeat(np.arange(len(comp)), comp)


def block_counts(perm: np.ndarray, alpha, beta) -> list:
    """Units of a permutation matrix per (column block i, row block j)."""
    ca, cb = np.cumsum((0,) + tuple(alpha)), np.cumsum((0,) + tuple(beta))
    return [
        [int(perm[cb[j] : cb[j + 1], ca[i] : ca[i + 1]].sum()) for j in range(len(beta))]
        for i in range(len(alpha))
    ]


def _unitriangular(rng, n, p, lower: bool, comp=None) -> np.ndarray:
    """Unit (block) triangular matrix; comp=None means the full Borel unipotent."""
    blk = block_of(comp) if comp is not None else np.arange(n)
    mask = blk[:, None] > blk[None, :] if lower else blk[:, None] < blk[None, :]
    return np.where(mask, rng.integers(0, p, (n, n)), 0) + np.eye(n, dtype=np.int64)


def _lpdu(rng, perm: np.ndarray, diag: np.ndarray, p: int) -> np.ndarray:
    n = len(diag)
    left = _unitriangular(rng, n, p, lower=True)
    right = _unitriangular(rng, n, p, lower=False)
    return (left @ ((perm * diag[None, :]) % p) % p) @ right % p


def _permutation(rng, n) -> np.ndarray:
    return np.eye(n, dtype=np.int64)[rng.permutation(n)]


def _composition(rng, n) -> tuple:
    k = int(rng.integers(3, 6))
    cuts = np.sort(rng.choice(np.arange(1, n), k - 1, replace=False))
    return tuple(int(x) for x in np.diff(np.concatenate(([0], cuts, [n]))))


def grid_case(rng, n: int, p: int, fine: bool) -> dict:
    """One matrix with its partners, compositions and known dimension table."""
    if fine:
        alpha = beta = (1,) * n
    else:
        alpha = _composition(rng, n)
        beta = _composition(rng, n)
        while beta == alpha:
            beta = _composition(rng, n)
    perm = _permutation(rng, n)
    diag = rng.integers(1, p, n)
    a = _lpdu(rng, perm, diag, p)
    table = block_counts(perm, alpha, beta)
    l = _unitriangular(rng, n, p, lower=True, comp=beta)
    u = _unitriangular(rng, n, p, lower=False, comp=alpha)
    other = _permutation(rng, n)
    while block_counts(other, alpha, beta) == table:
        other = _permutation(rng, n)
    partners = {
        "equal": ((l @ a) % p @ u % p, True),
        "unequal": (_lpdu(rng, other, rng.integers(1, p, n), p), False),
    }
    if fine and p > 2:  # GF(2) has no other diagonal
        diag2 = rng.integers(1, p, n)
        while np.array_equal(diag2, diag):
            diag2 = rng.integers(1, p, n)
        partners["torus"] = (_lpdu(rng, perm, diag2, p), False)
    return {"alpha": alpha, "beta": beta, "a": a, "table": table, "partners": partners}


def _write_problem(path: str, p: int, alpha, beta, m: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"modulus": p, "alpha": list(alpha), "beta": list(beta), "matrix": m.tolist()}, fh)


def grid_ops(sizes, p: int, fine: bool, seed: int, workdir: str) -> list:
    """Write the problem files; return the ops on one matrix of each size.

    Each matrix gets the ops invariants, equivalent (one per partner),
    canonical and normalize.
    """
    rng = np.random.default_rng([seed, sizes[0]])
    ops = []
    for n in sizes:
        case = grid_case(rng, n, p, fine)
        stem = os.path.join(workdir, f"n{n}")
        a_path = stem + "-a.json"
        _write_problem(a_path, p, case["alpha"], case["beta"], case["a"])
        known = {"modulus": p, "alpha": list(case["alpha"]), "beta": list(case["beta"]),
                 "table": case["table"]}
        ops.append({"kind": "invariants", "files": [a_path], **known})
        for name, (m, same) in case["partners"].items():
            path = f"{stem}-{name}.json"
            _write_problem(path, p, case["alpha"], case["beta"], m)
            ops.append({"kind": "equivalent", "files": [a_path, path], "pair": name, "expect": same, **known})
        ops.append({"kind": "canonical", "files": [a_path], **known})
        ops.append({"kind": "normalize", "files": [a_path], **known})
    return ops


def ground_truth_ops(seed: int) -> list:
    """selfcheck, then every brute count in a seed-chosen order."""
    q, max_n = SELFCHECK_Q, SELFCHECK_MAX_N
    ops = [
        {
            "kind": "selfcheck",
            "args": ["-q", str(q), "--max-n", str(max_n)],
            "lines": [f"GL({n},{q}): {gl_order(n, q)} elements" for n in range(2, max_n + 1)]
            + [f"counts {[coset_count(a, b, c) for a, b, c in SELFCHECK_COUNT_CASES]}"],
        }
    ]
    for k in np.random.default_rng(seed).permutation(len(COUNT_PAIRS)):
        alpha, beta = COUNT_PAIRS[k]
        ops.append({"kind": "count", "alpha": list(alpha), "beta": list(beta), "q": COUNT_Q,
                    "expect": coset_count(alpha, beta, COUNT_Q)})
    return ops


def make_ops(workload: str, seed: int, workdir: str) -> list:
    if workload in GRID:
        return grid_ops(*GRID[workload], seed, workdir)
    if workload == "ground-truth":
        return ground_truth_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
