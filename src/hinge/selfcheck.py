"""Randomized and exhaustive verification suites behind `hinge selfcheck`.

Each suite returns (ok, detail) and draws from its own fixed seed, so a
selfcheck run is reproducible bit for bit.  The acceptance tests drive the
same functions at their contractual sizes.
"""

from __future__ import annotations

import random
from math import prod

import numpy as np

from .bihinge import (
    Composition,
    DimensionMatrix,
    _axiom_tables,
    _block_counts,
    _cell_pass,
    _cell_rrefs,
    _chi_each,
    _dimension_tables,
    _grids_from_pass,
    _hinge_act,
    _normalize_each,
    _violations,
    chi_cell,
    standard_bihinge,
    standard_matrix,
)
from .enumeration import (
    CHUNK,
    DEFAULT_BUDGET,
    BudgetError,
    EnumerationBudget,
    _gl_codes,
    _partition_labels,
    contingency_tables,
    double_cosets_brute,
    gl_order,
    predicted_coset_count,
    stab_order_formula,
    stabilizer_brute,
)
from .field import PrimeField
from .linalg import Matrix
from .lpu import _lpu_each, canonical_01
from .relations import InvariantViolation


def random_invertible(field: PrimeField, n: int, rng: random.Random) -> Matrix:
    """A uniform invertible n x n matrix: n rows of n rng.randrange(p) draws,
    redrawn until invertible, tested on the Python ints before any array is
    built."""
    p = field.p
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _invertible(rows, p):
            return Matrix._new(field, np.array(rows, dtype=np.int64).reshape(n, n))


def _invertible(rows: list, p: int) -> bool:
    """Whether a square matrix of ints in [0, p) is invertible mod p, by
    forward elimination; each step keeps the columns right of its pivot and
    builds new row lists, so rows is left as it was."""
    while rows:
        pivot = next((row for row in rows if row[0]), None)
        if pivot is None:
            return False
        inv, rest = pow(pivot[0], -1, p), pivot[1:]
        rows = [
            [(x - f * y) % p for x, y in zip(row[1:], rest)] if (f := row[0] * inv % p) else row[1:]
            for row in rows
            if row is not pivot
        ]
    return True


def _composition(cuts) -> Composition:
    """The composition of len(cuts) + 1 with a part ending at every gap k
    whose cuts[k] is true."""
    ends = [0, *(k + 1 for k, cut in enumerate(cuts) if cut), len(cuts) + 1]
    return Composition([b - a for a, b in zip(ends, ends[1:])])


def random_composition(n: int, rng: random.Random) -> Composition:
    """A uniform composition of n: one rng.random() per gap, in order."""
    return _composition([rng.random() < 0.5 for _ in range(n - 1)])


def random_unitriangular(comp, field: PrimeField, rng: random.Random, lower: bool) -> Matrix:
    """Uniform element of the block strictly triangular group."""
    comp = Composition(comp)
    arr = np.eye(comp.n, dtype=np.int64)
    for i in range(len(comp)):
        r0, r1 = comp.block(i)
        for j in range(len(comp)):
            if (j < i) if lower else (j > i):
                c0, c1 = comp.block(j)
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        arr[r, c] = rng.randrange(field.p)
    return Matrix._new(field, arr)


def all_compositions(n: int) -> list:
    """All 2^(n-1) compositions of n, by ascending cut sets."""
    return [_composition([mask >> k & 1 for k in range(n - 1)]) for mask in range(1 << (n - 1))]


def _random_setup(qs, max_n, rng):
    q = rng.choice(list(qs))
    field = PrimeField(q)
    n = rng.randint(1, max_n)
    alpha = random_composition(n, rng)
    beta = random_composition(n, rng)
    a = random_invertible(field, n, rng)
    return field, n, alpha, beta, a


def _random_suite(draws, checks, passed: str) -> tuple:
    """(ok, detail) of a random suite, checked a group of trials at a time.

    draws[t] is (alpha, beta, matrices), every trial with as many.  Trials
    sharing (q, n, alpha, beta) are a group, their grids from one _chi_each.
    checks(mats, grids) yields (detail, flags) per check in check order:
    flags one bool per trial, detail its FAIL line as a format of the trial
    t (or one per trial).  A FAIL names the smallest failing trial and its
    first failing check, so the first failing trial in draw order.  An
    exception raised for a group (AxiomError from _dimension_tables, say)
    escapes before any later group is checked.
    """
    groups = {}
    for t, (alpha, beta, mats) in enumerate(draws):
        groups.setdefault((mats[0].field.p, alpha, beta), []).append(t)
    fails = {}
    for (_, alpha, beta), ts in groups.items():
        mats = [m for t in ts for m in draws[t][2]]
        for detail, flags in checks(mats, _chi_each(mats, alpha, beta)):
            for k in np.flatnonzero(flags).tolist():
                fails.setdefault(ts[k], (detail if isinstance(detail, str) else detail[k]).format(t=ts[k]))
    return (False, fails[min(fails)]) if fails else (True, passed)


def check_invariance(qs=(2, 3, 5), max_n=6, trials=200) -> tuple:
    """chi is unchanged by triangular moves, each side alone and jointly."""
    rng = random.Random(101)
    draws = []
    for _ in range(trials):
        field, n, alpha, beta, a = _random_setup(qs, max_n, rng)
        d = random_unitriangular(beta, field, rng, lower=True)
        c = random_unitriangular(alpha, field, rng, lower=False)
        draws.append((alpha, beta, (a, d * a, a * c, d * a * c)))

    def checks(mats, grids):
        for k, side in enumerate(("left", "right", "joint"), 1):
            yield f"{side} move changed the grid at trial {{t}}", [g != h for g, h in zip(grids[k::4], grids[::4])]

    return _random_suite(draws, checks, f"{trials} random triples over q in {tuple(qs)}, n <= {max_n}")


def check_axiom_soundness(qs=(2, 3, 5), max_n=6, trials=200) -> tuple:
    """Every computed grid satisfies the gluing axioms, on spaces derived
    afresh through the Y-first RREF of each cell shape of a group."""
    rng = random.Random(202)
    setups = [_random_setup(qs, max_n, rng) for _ in range(trials)]

    def checks(mats, grids):
        flags = _axiom_tables(grids, generic=True)[0]
        yield [f"trial {{t}}: {'; '.join(_violations(bad))}" for bad in flags], flags.any(axis=(1, 2, 3))

    draws = [(alpha, beta, (a,)) for _, _, alpha, beta, a in setups]
    return _random_suite(draws, checks, f"{trials} random grids over q in {tuple(qs)}, n <= {max_n}")


_MARGIN_SETS = ((1, 1), (2,), (2, 1), (1, 2), (1, 1, 1))


def check_canonical_consistency(qs=(2, 3)) -> tuple:
    """chi of the standard 0-1 matrix equals the standard grid, per table."""
    checked = 0
    for q in qs:
        field = PrimeField(q)
        for alpha in _MARGIN_SETS:
            for beta in _MARGIN_SETS:
                if sum(alpha) != sum(beta):
                    continue
                tables = list(contingency_tables(alpha, beta))
                grids = _chi_each([standard_matrix(d, field) for d in tables], tables[0].alpha, tables[0].beta)
                for d, h in zip(tables, grids):
                    if h != standard_bihinge(d, field):
                        return False, f"table {d.to_rows()} over GF({q})"
                    checked += 1
    return True, f"{checked} dimension tables over q in {tuple(qs)}"


def _intern_rows(rows: np.ndarray) -> tuple:
    """Number the distinct rows of an (N, ...) array: (ids, first index per id).

    Each row's bytes, zero-padded to whole 64-bit words, are sorted with one
    stable lexsort; equal rows get one id, numbered in sorted order, and the
    first index of an id is its smallest.
    """
    count = len(rows)
    raw = np.ascontiguousarray(rows).reshape(count, -1).view(np.uint8)
    pad = -raw.shape[1] % 8
    if pad:
        raw = np.concatenate([raw, np.zeros((count, pad), dtype=np.uint8)], axis=1)
    words = raw.view(np.uint64)
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    starts = np.ones(count, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(count, dtype=np.intp)
    ids[order] = np.cumsum(starts) - 1
    return ids, order[starts]


# Elements per column pass and cell gather of _grid_cell_ids.  Its RREF
# stacks hold up to 2n^2 int64 entries per element; at CHUNK elements
# check_completeness(4, 2) peaked at 58 MB resident, at CHUNK // 8 at 45 MB,
# with no measured change in time (2-vCPU x86-64 host, three runs each).
_CELL_CHUNK = CHUNK // 8

# int64 entries of the (elements, rh, q^ch) images a x that _cell_check
# holds at once (2 MB); its other temporaries are smaller.  At 1 << 22
# check_completeness(4, 2) peaked at 60 MB resident and took 1.2-1.4 s, at
# 1 << 18 46 MB and 1.0 s (2-vCPU x86-64 host).
_CHECK_ENTRIES = 1 << 18


def _cell_check(elements: np.ndarray, q: int, cut: tuple, bases: np.ndarray) -> np.ndarray:
    """Per matrix of an (N, n, n) array, whether bases[k] is the RREF basis,
    padded with zero rows, of its cell at cut (cl, ch, rl, rh), by enumeration.

    The cell is {(x[cl:ch], (a x)[rl:rh]) : x in GF(q)^ch, (a x)[:rl] = 0}.
    The x run over all q^ch vectors in base-q order, so those with x[cl:ch] = u
    sit at s q^(ch - cl) + code(u) for s < q^cl.  A basis passes when it has
    RREF shape (entries below q, its rank nonzero rows first, each leading
    with a 1 in a column that is zero in every other row, leads rising),
    each row is a feasible pair, and the feasible x number q^rank times those
    whose pair is zero.  Then its rows span the cell, whose dimension is the
    rank, and it is the cell's unique RREF; nothing here reads chi's route.
    """
    cl, ch, rl, rh = cut
    na = ch - cl
    count, height, _ = bases.shape
    nz = bases != 0
    filled = nz.any(axis=2)
    rank = filled.sum(axis=1)
    lead = nz.argmax(axis=2)
    ok = (bases < q).all(axis=(1, 2)) & (rank <= ch)
    ok &= (filled == (np.arange(height) < rank[:, None])).all(axis=1)
    ok &= (np.diff(lead, axis=1) > 0).all(axis=1, where=filled[:, 1:])
    alone = np.take_along_axis(nz, lead[:, None, :], axis=2).sum(axis=1) == 1  # nonzeros in each lead column
    ok &= ((np.take_along_axis(bases, lead[..., None], axis=2)[..., 0] == 1) & alone).all(axis=1, where=filled)
    xs = np.arange(q**ch)[:, None] // q ** np.arange(ch - 1, -1, -1) % q
    step = max(1, _CHECK_ENTRIES // (rh * len(xs)))
    for lo in range(0, count, step):
        part = slice(lo, lo + step)
        ax = elements[part, :rh, :ch].astype(np.int64) @ xs.T % q
        feasible = ~ax[:, :rl].any(axis=1)
        zero = feasible[:, :: q**na] & ~ax[:, rl:, :: q**na].any(axis=1)
        ok[part] &= feasible.sum(axis=1) == zero.sum(axis=1) * q ** np.minimum(rank[part], ch)
        # % q only keeps the indices in range: an entry >= q has failed already
        codes = (bases[part, :, :na] % q).astype(np.int64) @ q ** np.arange(na - 1, -1, -1)
        at_u = codes[..., None] + q**na * np.arange(q**cl)  # the x of each row's u
        m = np.arange(len(ax))[:, None, None]
        pairs = feasible[m, at_u] & (ax[m, rl:, at_u] == bases[part, :, None, na:]).all(axis=3)
        ok[part] &= pairs.any(axis=2).all(axis=1)
    return ok


def _grid_cell_ids(elements: np.ndarray, q: int, cuts: list, doms: list) -> np.ndarray:
    """Intern every cut-rectangle cell of every matrix to a small int id per cut.

    A cell's id is the index of its RREF basis among the distinct bases of
    that cut.  The bases are chi's: per column block [cl, ch), one _cell_pass
    per _CELL_CHUNK elements with that block reversed (blocks of one column
    share the plain pass), held in the elements' dtype, and one _cell_rrefs
    per (cl, ch, rl) with rh = n.  The RREF of a column prefix is the prefix
    of the RREF, so the first (ch - cl) + (rh - rl) columns are the basis of
    the cell of rh.  The basis of the first element of every id must pass
    _cell_check, one enumeration per cut, so a fault in chi's route cannot
    vouch for itself; on a failure the first failing element's definitional
    chi_cell names the difference in an InvariantViolation.  doms has a slot
    per cut: doms[k] gets the dom dimension of every id of cut k, the
    checked basis's rows with a nonzero X part, in uint8.
    """
    count, n = len(elements), elements.shape[1]
    ids = np.empty((count, len(cuts)), dtype=np.min_scalar_type(count))
    chunks = [slice(lo, lo + _CELL_CHUNK) for lo in range(0, count, _CELL_CHUNK)]
    by_flip = {}
    for k, (cl, ch, rl, rh) in enumerate(cuts):
        flip = Composition((1,) * cl + (ch - cl,) + (1,) * (n - ch))
        by_flip.setdefault(flip, {}).setdefault((cl, ch, rl), []).append((rh, k))
    for flip, by_prefix in by_flip.items():
        passes = [[x.astype(elements.dtype) for x in _cell_pass(elements[at].astype(np.int64), q, flip)] for at in chunks]
        for (cl, ch, rl), tails in by_prefix.items():
            na, nb = ch - cl, n - rl
            stack = np.zeros((count, na + min(nb, cl), na + nb), dtype=elements.dtype)
            for at, cpass in zip(chunks, passes):
                rows = _cell_rrefs(cpass, np.array([cl]), np.array([rl]), na, nb, q)[:, 0]
                stack[at, : rows.shape[1]] = rows
            for rh, k in tails:
                bases = stack[:, :, : na + rh - rl]
                ids[:, k], firsts = _intern_rows(bases)
                checked = bases[firsts]
                passed = _cell_check(elements[firsts], q, (cl, ch, rl, rh), checked)
                if passed.all():
                    doms[k] = checked[:, :, :na].any(axis=2).sum(axis=1, dtype=np.uint8)
                    continue
                idx = firsts[np.argmin(passed)]
                m = Matrix._new(PrimeField(q), elements[idx].astype(np.int64))
                want, got = chi_cell(m, cl, ch, rl, rh).basis.a, bases[idx]
                same = np.array_equal(got[: len(want)], want) and not got[len(want) :].any()
                raise InvariantViolation(
                    f"cell {(cl, ch, rl, rh)} of {m.to_rows()}: stacked basis {got.tolist()} "
                    + ("equals chi_cell but fails the enumeration check" if same
                       else f"differs from chi_cell {want.tolist()}")
                )
    return ids


def check_completeness(n: int, q: int, budget: EnumerationBudget = DEFAULT_BUDGET) -> tuple:
    """Equal grids iff same double coset, and every axiom grid a chi image,
    for every composition pair of n.

    Enumerates GL(n, q) once, interns every cut-rectangle cell of every
    element once, then checks the grid partition against the closure
    partition for all pairs (alpha, beta).  The grids compared are chi's,
    each distinct cell checked by enumeration (see _grid_cell_ids).

    Each grid's dimension table is read off the checked bases: d_ij = dim
    dom(i, j) - dim dom(i, j + 1), 0 past the last column, as ker(i, j) =
    dom(i, j + 1) by chi_cell's definition.  For every table d of
    contingency_tables the pair must have exactly N / stab_order_formula(d,
    q) classes, N = prod |GL(alpha_i, q)| * prod |GL(beta_j, q)|, no class
    may have another table, and predicted_coset_count classes in all.  The
    grids are axiom grids, as their cells are chi_cell's (_cell_check) and
    chi_cell's cells satisfy the axioms by definition; the axiom grids with
    table d number N / stab(d) (Goursat's lemma per cell, flag counts per
    row and column), so the chi images are all of them.
    """
    elements, cache = _gl_codes(n, q, budget)  # the closure's cache, shared by every pair
    comps = all_compositions(n)
    cuts = [
        (cl, ch, rl, rh)
        for cl in range(n)
        for ch in range(cl + 1, n + 1)
        for rl in range(n)
        for rh in range(rl + 1, n + 1)
    ]
    cut_index = {cut: k for k, cut in enumerate(cuts)}
    doms = [None] * len(cuts)
    try:
        ids = _grid_cell_ids(elements, q, cuts, doms)
    except InvariantViolation as exc:
        return False, f"GL({n},{q}): {exc}"
    pairs = classes_seen = tables_seen = 0
    for alpha in comps:
        sel_cols = [alpha.block(i) for i in range(len(alpha))]
        for beta in comps:
            labels, nclasses = _partition_labels(elements, alpha, beta, q, cache)
            sel = [
                cut_index[cl, ch, rl, rh]
                for cl, ch in sel_cols
                for rl, rh in (beta.block(j) for j in range(len(beta)))
            ]
            at = f"alpha={alpha.parts} beta={beta.parts}"
            grids, firsts = _intern_rows(ids[:, sel])
            grid_of_class = np.empty(nclasses, dtype=grids.dtype)
            grid_of_class[labels] = grids
            if not np.array_equal(grid_of_class[labels], grids):
                return False, f"{at}: one coset, two grids"
            if len(firsts) != nclasses:
                return False, f"{at}: {nclasses} cosets but {len(firsts)} grids"
            table = np.stack([doms[k][ids[firsts, k]] for k in sel], axis=1).astype(np.int16)
            table = table.reshape(len(firsts), len(alpha), len(beta))
            table[:, :, :-1] -= table[:, :, 1:]  # dim dom(i, j) - dim ker(i, j), ker(i, j) = dom(i, j + 1), 0 in the last column
            kinds, found = _intern_rows(table)
            classes_of = {tuple(map(tuple, d)): c for d, c in zip(table[found].tolist(), np.bincount(kinds).tolist())}
            tables = {d.entries: d for d in contingency_tables(alpha, beta)}
            group = prod(gl_order(part, q) for part in (*alpha, *beta))
            extra = sorted(classes_of.keys() - tables.keys())
            if extra:
                return False, f"{at}: {classes_of[extra[0]]} classes with table {list(map(list, extra[0]))}, not a contingency table"
            for entries, d in tables.items():
                stab, got = stab_order_formula(d, q), classes_of.get(entries, 0)
                if got * stab != group:
                    return False, f"{at}: table {d.to_rows()} has {got} classes, not {group} / {stab}"
            predicted = predicted_coset_count(alpha, beta, q, budget)
            if nclasses != predicted:
                return False, f"{at}: {nclasses} classes in {len(tables)} tables, predicted_coset_count {predicted}"
            pairs += 1
            classes_seen += nclasses
            tables_seen += len(tables)
    return True, (
        f"GL({n},{q}): {len(elements)} elements, {pairs} composition pairs, "
        f"{classes_seen} class checks, {tables_seen} tables"
    )


def check_stabilizers(qs=(2, 3), budget: EnumerationBudget = DEFAULT_BUDGET) -> tuple:
    """Brute stabilizer orders match the closed formula on small margins."""
    margins = ((1, 1), (2,), (2, 1), (1, 1, 1))
    checked = 0
    for q in qs:
        for alpha in margins:
            for beta in margins:
                if sum(alpha) != sum(beta):
                    continue
                for d in contingency_tables(alpha, beta):
                    brute = stabilizer_brute(d, q, budget)
                    formula = stab_order_formula(d, q)
                    if brute != formula:
                        return False, (
                            f"table {d.to_rows()} q={q}: brute {brute} vs formula {formula}"
                        )
                    checked += 1
    return True, f"{checked} tables over q in {tuple(qs)}"


def check_lpu(qs=(2, 3, 5), max_n=6, trials=200) -> tuple:
    """Decomposition exactness plus agreement with the relation grid."""
    rng = random.Random(303)
    setups = [_random_setup(qs, max_n, rng) for _ in range(trials)]

    def checks(mats, grids):
        h, p = grids[0], mats[0].field.p
        l, sigma, u = _lpu_each(mats)
        n, l_perm = sigma.shape[1], np.take_along_axis(l, sigma[:, None, :], axis=2)  # column c is l[:, sigma[c]]
        yield "trial {t}: l perm u != a", (l_perm @ u % p != np.stack([a.a for a in mats])).any(axis=(1, 2))
        yield "trial {t}: witnesses are not triangular", np.triu(l, 1).any(axis=(1, 2)) | np.tril(u, -1).any(axis=(1, 2))
        yield "trial {t}: perm is not a permutation matrix", (np.sort(sigma, axis=1) != np.arange(n)).any(axis=1)
        tables = _dimension_tables(grids)
        yield "trial {t}: block counts disagree with the grid", (_block_counts(sigma, h.alpha, h.beta) != tables).any(axis=(1, 2))
        # canonical_01 takes the one-matrix column pass; check it on the group's first trial
        same = canonical_01(mats[0], h.alpha, h.beta) == standard_matrix(DimensionMatrix(tables[0], h.alpha, h.beta), h.field)
        yield "trial {t}: canonical forms disagree", [not same] + [False] * (len(mats) - 1)

    draws = [(alpha, beta, (a,)) for _, _, alpha, beta, a in setups]
    return _random_suite(draws, checks, f"{trials} random matrices over q in {tuple(qs)}, n <= {max_n}")


def check_normal_form(q: int = 3, max_n: int = 5, trials: int = 100) -> tuple:
    """normalize carries every computed grid onto its standard form."""
    rng = random.Random(404)
    field = PrimeField(q)
    draws = []
    for _ in range(trials):
        n = rng.randint(1, max_n)
        alpha = random_composition(n, rng)
        beta = random_composition(n, rng)
        draws.append((alpha, beta, (random_invertible(field, n, rng),)))

    def checks(mats, grids):
        gs, hs, tables = _normalize_each(grids)
        h, distinct = grids[0], {t.tobytes(): t for t in tables}
        standard = {k: standard_bihinge(DimensionMatrix(t, h.alpha, h.beta), field) for k, t in distinct.items()}
        yield "trial {t}: normalized grid is not standard", [
            moved != standard[t.tobytes()] for moved, t in zip(_hinge_act(gs, hs, grids), tables)
        ]

    return _random_suite(draws, checks, f"{trials} random grids over GF({q}), n <= {max_n}")


def count_three_ways(alpha, beta, q: int, budget: EnumerationBudget = DEFAULT_BUDGET) -> tuple:
    """(formula count, closure class count, distinct grid count) for one case."""
    alpha, beta = Composition(alpha), Composition(beta)
    predicted = predicted_coset_count(alpha, beta, q, budget)
    partition = double_cosets_brute(alpha.n, q, alpha, beta, budget)
    cpass = _cell_pass(partition.elements.astype(np.int64), q, alpha)
    grids = set(_grids_from_pass(cpass, PrimeField(q), alpha, beta))
    return predicted, partition.num_classes, len(grids)


_COUNT_CASES = (
    ((1, 1), (1, 1), 2),
    ((1, 1), (1, 1), 3),
    ((2,), (1, 1), 2),
    ((1, 1, 1), (1, 1, 1), 2),
)


def check_counting(budget: EnumerationBudget = DEFAULT_BUDGET) -> tuple:
    """Formula, closure and grid counts agree on the pinned small cases."""
    results = []
    for alpha, beta, q in _COUNT_CASES:
        predicted, brute, grids = count_three_ways(alpha, beta, q, budget)
        if not predicted == brute == grids:
            return False, (
                f"alpha={alpha} beta={beta} q={q}: "
                f"predicted {predicted}, closure {brute}, grids {grids}"
            )
        results.append(predicted)
    return True, f"counts {results} for {len(_COUNT_CASES)} cases"


def run_selfcheck(qs=(2, 3), max_n: int = 4, budget: EnumerationBudget = DEFAULT_BUDGET) -> bool:
    """Run every suite, print one PASS/FAIL line each, return overall success.

    The completeness rounds, one per q and n from 2 to max_n, run last as
    suites of their own.  A suite that would exceed the budget is announced
    as a SKIP line, with the BudgetError's message, rather than silently
    dropped; a SKIP does not fail the run.
    """
    qs = tuple(qs)
    suites = [
        ("invariance", lambda: check_invariance(qs=qs, max_n=max_n, trials=200)),
        ("axioms", lambda: check_axiom_soundness(qs=qs, max_n=max_n, trials=100)),
        ("canonical-forms", lambda: check_canonical_consistency(qs=qs)),
        ("stabilizers", lambda: check_stabilizers(qs=qs, budget=budget)),
        ("lpu", lambda: check_lpu(qs=qs, max_n=max_n, trials=200)),
        ("normal-form", lambda: check_normal_form(q=qs[0] if 3 not in qs else 3, max_n=min(max_n, 5))),
        ("counting", lambda: check_counting(budget=budget)),
        *(("completeness", lambda n=n, q=q: check_completeness(n, q, budget)) for q in qs for n in range(2, max_n + 1)),
    ]
    ok_all = True
    for name, run in suites:
        try:
            ok, detail = run()
        except BudgetError as exc:
            print(f"SKIP {name}: {exc}")
            continue
        ok_all = ok_all and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok_all
