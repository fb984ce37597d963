"""Small-size self-test of the benchmark harness.

Run from the root of a checkout:

    python3 bench/selftest.py

It checks, by brute force with numpy alone, that the generator's known
answers hold: dimension tables against corner-rank Bruhat permutations,
pair verdicts against explicit double cosets, and the coset count formula
against orbit enumeration.  Then it runs small workloads through the harness
with hinge and checks that every operation passes, and that one injected
wrong answer is counted in failed_frac without stopping the run.
"""

from __future__ import annotations

import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from itertools import product

import numpy as np

import run
import workloads


def fail(message: str):
    raise SystemExit(f"FAIL {message}")


def rank_mod(m: np.ndarray, p: int) -> int:
    m = [[int(v) % p for v in row] for row in m]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(v - f * w) % p for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


def bruhat_permutation(a: np.ndarray, p: int) -> np.ndarray:
    """Units where the corner-rank second difference is 1."""
    n = len(a)
    r = np.zeros((n + 1, n + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i, j] = rank_mod(a[:i, :j], p)
    return r[1:, 1:] - r[:-1, 1:] - r[1:, :-1] + r[:-1, :-1]


def unitriangular_group(comp, p: int, lower: bool) -> list:
    blk = workloads.block_of(comp)
    n = len(blk)
    free = [(r, c) for r in range(n) for c in range(n) if (blk[r] > blk[c] if lower else blk[r] < blk[c])]
    out = []
    for values in product(range(p), repeat=len(free)):
        m = np.eye(n, dtype=np.int64)
        for (r, c), v in zip(free, values):
            m[r, c] = v
        out.append(m)
    return out


def double_coset(a: np.ndarray, alpha, beta, p: int) -> set:
    left = unitriangular_group(beta, p, lower=True)
    right = unitriangular_group(alpha, p, lower=False)
    return {((l @ a % p) @ u % p).tobytes() for l in left for u in right}


def inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    n = len(a)
    aug = [[int(v) % p for v in row] + [int(i == k) for k in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [v * inv % p for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[c])]
    return np.array([row[n:] for row in aug], dtype=np.int64)


def same_coset(a: np.ndarray, b: np.ndarray, alpha, beta, p: int) -> bool:
    """b in T-(beta) a T+(alpha): some a^-1 l b, l in T-(beta), lies in T+(alpha)."""
    ls = np.stack(unitriangular_group(beta, p, lower=True))
    x = (inverse_mod(a, p) @ ls % p) @ b % p
    blk = workloads.block_of(alpha)
    free = blk[:, None] < blk[None, :]
    return bool(np.all(free | (x == np.eye(len(a), dtype=np.int64)), axis=(1, 2)).any())


def check_cases():
    """Known tables and verdicts of small generated cases, by brute force."""
    rng = np.random.default_rng(7)
    cases = [(3, 3, True), (4, 5, True), (5, 3, False), (6, 2, False)]
    for n, p, fine in cases * 3:
        case = workloads.grid_case(rng, n, p, fine)
        a, alpha, beta = case["a"], case["alpha"], case["beta"]
        if rank_mod(a, p) != n:
            fail(f"generated matrix of size {n} over GF({p}) is singular")
        perm = bruhat_permutation(a, p)
        if workloads.block_counts(perm, alpha, beta) != case["table"]:
            fail(f"known table {case['table']} is not the Bruhat block count")
        for name, (m, same) in case["partners"].items():
            if same_coset(a, m, alpha, beta, p) != same:
                fail(f"{name} partner of an n={n} case: expected same coset = {same}")
        if "torus" in case["partners"] and workloads.block_counts(bruhat_permutation(case["partners"]["torus"][0], p), alpha, beta) != case["table"]:
            fail("torus partner does not share the block counts of its matrix")


def all_compositions(n: int) -> list:
    return [c for k in range(1, n + 1) for c in product(range(1, n + 1), repeat=k) if sum(c) == n]


def orbit_count(n: int, q: int, alpha, beta) -> int:
    """Double cosets of GL(n, q) by explicit orbits."""
    mats = [np.array(v, dtype=np.int64).reshape(n, n) for v in product(range(q), repeat=n * n)]
    unseen = {m.tobytes(): m for m in mats if rank_mod(m, q) == n}
    count = 0
    while unseen:
        _, a = unseen.popitem()
        for key in double_coset(a, alpha, beta, q):
            unseen.pop(key, None)
        count += 1
    return count


def check_counts():
    for n, q in ((2, 3), (3, 2)):
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                got, want = workloads.coset_count(alpha, beta, q), orbit_count(n, q, alpha, beta)
                if got != want:
                    fail(f"coset_count{alpha, beta, q} = {got}, orbits give {want}")


def check_harness(root: str):
    """Small workloads pass; one wrong expectation is counted, not fatal."""
    src = os.path.join(root, "src")
    hinge, import_s = run.import_hinge(src)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=root)
    try:
        ops = workloads.grid_ops((4, 5), 3, True, 1, workdir)
        ops += workloads.grid_ops((6, 7), 5, False, 1, workdir)
        args = run.parse_args(["--workload", "grid-fine", "--seed", "1", "--seconds", "0", "--trace", "1"])
        for label, want_failed in (("clean", 0), ("injected", 1)):
            if label == "injected":
                victim = next(op for op in ops if op["kind"] == "equivalent")
                victim["expect"] = not victim["expect"]
            out = io.StringIO()
            with redirect_stdout(out):
                result = run.run(args, hinge, import_s, ops, [0.0])
            # each op runs twice under --trace 1
            if result["attempted"] != 2 * len(ops) or result["failed"] != 2 * want_failed:
                fail(f"{label}: attempted {result['attempted']}, failed {result['failed']}\n{out.getvalue()}")
            if result["correct"] != (want_failed == 0):
                fail(f"{label}: correct is {result['correct']}")
            frac = f"failed_frac {2 * want_failed / (2 * len(ops)):.6g} ({2 * want_failed}/{2 * len(ops)})"
            if frac not in out.getvalue():
                fail(f"{label}: no line '{frac}'")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    check_cases()
    check_counts()
    check_harness(os.getcwd())
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
