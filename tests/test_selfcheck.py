"""The selfcheck suites' stacked routes, pinned to their definitions and output."""

import random

import numpy as np
import pytest

from hinge import bihinge, selfcheck
from hinge.bihinge import BiHinge, _chi_each, chi_cell, dimension_matrix, standard_bihinge
from hinge.cli import main
from hinge.enumeration import contingency_tables, enum_gl, gl_array
from hinge.field import PrimeField
from hinge.linalg import Matrix
from hinge.selfcheck import (
    _cell_check,
    _grid_cell_ids,
    _random_setup,
    all_compositions,
    check_axiom_soundness,
    check_completeness,
    check_invariance,
    check_lpu,
    check_normal_form,
    random_composition,
    random_invertible,
    random_unitriangular,
)


def all_cuts(n):
    return [
        (cl, ch, rl, rh)
        for cl in range(n)
        for ch in range(cl + 1, n + 1)
        for rl in range(n)
        for rh in range(rl + 1, n + 1)
    ]


def test_stacked_cells_match_chi_cell_everywhere():
    # every cut of every element: the interned id and the chi_cell basis
    # determine each other, so equal ids mean equal cells and distinct ids
    # distinct cells (one column pass shared by all cuts, one RREF stack
    # shared by all rh of a (cl, ch, rl))
    for n, q in ((2, 3), (3, 2)):
        elements = gl_array(n, q)
        matrices = list(enum_gl(n, q))
        cuts = all_cuts(n)
        ids = _grid_cell_ids(elements, q, cuts, [None] * len(cuts))
        for k, cut in enumerate(cuts):
            seen = set()
            for m, cid in zip(matrices, ids[:, k].tolist()):
                want = chi_cell(m, *cut).basis.a
                seen.add((cid, (want.shape, want.tobytes())))
            assert len(seen) == len({c for c, _ in seen}) == len({b for _, b in seen}), (n, q, cut)


def test_completeness_grids_are_chis_grids():
    # on every composition pair, two elements share an interned id tuple
    # exactly when _chi_each gives them equal grids
    for n, q in ((2, 3), (3, 2)):
        elements = gl_array(n, q)
        matrices = list(enum_gl(n, q))
        cuts = all_cuts(n)
        ids = _grid_cell_ids(elements, q, cuts, [None] * len(cuts))
        for alpha in all_compositions(n):
            for beta in all_compositions(n):
                sel = [
                    cuts.index((*alpha.block(i), *beta.block(j)))
                    for i in range(len(alpha))
                    for j in range(len(beta))
                ]
                pairs = set(zip(map(tuple, ids[:, sel].tolist()), _chi_each(matrices, alpha, beta)))
                assert len(pairs) == len({t for t, _ in pairs}) == len({h for _, h in pairs}), (
                    n, q, alpha.parts, beta.parts)


def test_completeness_fails_when_the_cell_gather_is_broken(monkeypatch):
    # the completeness check runs chi's own echelon gather over block-reversed
    # column passes, so a fault in it is caught by the per-id enumeration check:
    # here the (1, 3) cells lose their last basis row
    assert selfcheck._cell_rrefs is bihinge._cell_rrefs
    assert selfcheck._cell_pass is bihinge._cell_pass
    gather = bihinge._cell_rrefs

    def broken(cpass, c0, r0, na, nb, *rest, **options):
        gens = gather(cpass, c0, r0, na, nb, *rest, **options)
        if (na, nb) == (1, 3):
            count, cells = gens.shape[:2]
            last = np.maximum(gens.any(axis=3).sum(axis=2) - 1, 0)
            gens[np.arange(count)[:, None], np.arange(cells), last] = 0
        return gens

    monkeypatch.setattr(selfcheck, "_cell_rrefs", broken)
    ok, detail = check_completeness(3, 2)
    assert not ok
    assert "differs from chi_cell" in detail


def test_completeness_fails_when_the_oracle_checks_a_shifted_cut(monkeypatch):
    # the enumeration check is live: run at rl -> 0 (the same basis width)
    # it rejects bases that chi_cell agrees with, and the check FAILs
    real = selfcheck._cell_check

    def shifted(elements, q, cut, bases):
        cl, ch, rl, rh = cut
        return real(elements, q, (cl, ch, 0, rh - rl), bases)

    monkeypatch.setattr(selfcheck, "_cell_check", shifted)
    ok, detail = check_completeness(2, 2)
    assert not ok
    assert "equals chi_cell but fails the enumeration check" in detail


_REAL = {name: getattr(selfcheck, name) for name in ("stab_order_formula", "contingency_tables", "predicted_coset_count")}
_IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

# a name selfcheck reads, its faulty stand-in, and the FAIL detail of check_completeness(3, 2)
_TABLE_FAULTS = {
    "stabilizer": ("stab_order_formula",  # one unipotent factor too many on the identity table
                   lambda d, q: _REAL["stab_order_formula"](d, q) * (q if d.to_rows() == _IDENTITY_3 else 1),
                   f"alpha=(1, 1, 1) beta=(1, 1, 1): table {_IDENTITY_3} has 1 classes, not 1 / 2"),
    "tables": ("contingency_tables", lambda alpha, beta: _REAL["contingency_tables"](alpha, beta)[:-1],
               "alpha=(3,) beta=(3,): 168 classes with table [[3]], not a contingency table"),
    "total": ("predicted_coset_count", lambda *args: _REAL["predicted_coset_count"](*args) + 1,
              "alpha=(3,) beta=(3,): 168 classes in 1 tables, predicted_coset_count 169"),
}


@pytest.mark.parametrize("fault", list(_TABLE_FAULTS))
def test_completeness_fails_when_a_table_count_is_off(monkeypatch, fault):
    # the per-table counts are live: a stabilizer order off by a factor q, a
    # table missing from the list, or a total off by one each FAIL, naming
    # the pair and the table (or the count of tables) at fault
    name, faulty, detail = _TABLE_FAULTS[fault]
    monkeypatch.setattr(selfcheck, name, faulty)
    assert check_completeness(3, 2) == (False, detail)


def test_cell_check_accepts_chi_cell_and_rejects_every_mutation():
    # per cut, one element of every distinct chi_cell basis, padded as
    # _grid_cell_ids pads it: the basis passes, and each of its single-entry
    # mutations (every entry moved by every nonzero step mod q) fails
    mutations = 0
    for n, q in ((2, 3), (3, 2)):
        elements = gl_array(n, q)
        matrices = list(enum_gl(n, q))
        for cut in all_cuts(n):
            cl, ch, rl, rh = cut
            firsts = {}
            for k, m in enumerate(matrices):
                basis = chi_cell(m, *cut).basis.a
                firsts.setdefault((basis.shape, basis.tobytes()), (k, basis))
            height, width = ch - cl + min(n - rl, cl), ch - cl + rh - rl
            owners = [k for k, _ in firsts.values()]
            bases = np.zeros((len(owners), height, width), dtype=elements.dtype)
            for padded, (_, basis) in zip(bases, firsts.values()):
                padded[: len(basis)] = basis
            assert _cell_check(elements[owners], q, cut, bases).all(), (n, q, cut)
            # every entry moved by every nonzero step: (cells, entries, steps, h, w)
            moves = np.eye(height * width, dtype=np.int64).reshape(-1, 1, height, width) * np.arange(1, q)[:, None, None]
            mutated = ((bases[:, None, None] + moves) % q).astype(elements.dtype).reshape(-1, height, width)
            owned = elements[np.repeat(owners, len(mutated) // len(owners))]
            assert not _cell_check(owned, q, cut, mutated).any(), (n, q, cut)
            mutations += len(mutated)
    assert mutations == 8365


def _drawn_by_rank(field, n, rng):
    # the reference draw: each candidate an int64 Matrix of row-major
    # rng.randrange draws, kept when its Matrix.rank is full
    while True:
        rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        m = Matrix._new(field, np.array(rows, dtype=np.int64).reshape(n, n))
        if m.rank() == n:
            return m


def test_compositions_are_pinned():
    # all_compositions and random_composition share one cut-to-parts helper;
    # both lists, and the rng draws random_composition makes (one per gap),
    # are as they were before it
    assert [[c.parts for c in all_compositions(n)] for n in range(1, 6)] == [
        [(1,)],
        [(2,), (1, 1)],
        [(3,), (1, 2), (2, 1), (1, 1, 1)],
        [(4,), (1, 3), (2, 2), (1, 1, 2), (3, 1), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1)],
        [(5,), (1, 4), (2, 3), (1, 1, 3), (3, 2), (1, 2, 2), (2, 1, 2), (1, 1, 1, 2), (4, 1), (1, 3, 1),
         (2, 2, 1), (1, 1, 2, 1), (3, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)],
    ]
    rng = random.Random(2024)
    assert [random_composition(n, rng).parts for n in (1, 2, 3, 4, 5, 6, 7, 8) * 2] == [
        (1,), (1, 1), (2, 1), (2, 2), (1, 1, 2, 1), (1, 3, 2), (4, 2, 1), (3, 1, 1, 1, 1, 1),
        (1,), (1, 1), (1, 2), (2, 1, 1), (1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (3, 3, 1), (1, 3, 2, 1, 1),
    ]
    assert rng.random() == 0.49334177818512226


def test_random_invertible_draws_as_by_rank():
    # the exact-integer test accepts exactly the candidates of full rank, so
    # the same matrices come out and rng is left in the same state
    for p in (2, 3, 5, 65521):
        field = PrimeField(p)
        for n in range(1, 13):
            rng, ref = random.Random(n * p), random.Random(n * p)
            for _ in range(20):
                got, want = random_invertible(field, n, rng), _drawn_by_rank(field, n, ref)
                assert got == want and got.a.dtype == want.a.dtype, (p, n)
            assert rng.getstate() == ref.getstate(), (p, n)


# `hinge selfcheck -q 2,3 --max-n 3`: the random suites' lines exactly as
# printed before they were stacked (the same draws, the same checks), and
# every completeness line with the dimension tables it counted classes of.
_SELFCHECK_Q23_N3 = """\
PASS invariance: 200 random triples over q in (2, 3), n <= 3
PASS axioms: 100 random grids over q in (2, 3), n <= 3
PASS canonical-forms: 62 dimension tables over q in (2, 3)
PASS stabilizers: 38 tables over q in (2, 3)
PASS lpu: 200 random matrices over q in (2, 3), n <= 3
PASS normal-form: 100 random grids over GF(3), n <= 3
PASS counting: counts [2, 8, 3, 6] for 4 cases
PASS completeness: GL(2,2): 6 elements, 4 composition pairs, 14 class checks, 5 tables
PASS completeness: GL(3,2): 168 elements, 16 composition pairs, 480 class checks, 33 tables
PASS completeness: GL(2,3): 48 elements, 4 composition pairs, 88 class checks, 5 tables
PASS completeness: GL(3,3): 11232 elements, 16 composition pairs, 18384 class checks, 33 tables
all checks passed
"""


def test_selfcheck_stdout_is_frozen(capsys):
    assert main(["selfcheck", "-q", "2,3", "--max-n", "3"]) == 0
    assert capsys.readouterr().out == _SELFCHECK_Q23_N3


# Each random suite's draws, replayed from its seed the way the suite draws
# them: per trial (q, alpha, beta) and how many matrices the trial has.
def _invariance_keys(qs, max_n, trials, seed=101):
    rng = random.Random(seed)
    keys = []
    for _ in range(trials):
        field, _, alpha, beta, _ = _random_setup(qs, max_n, rng)
        random_unitriangular(beta, field, rng, lower=True)
        random_unitriangular(alpha, field, rng, lower=False)
        keys.append((field.p, alpha, beta))
    return keys, 4


def _setup_keys(seed):
    def keys(qs, max_n, trials):
        rng = random.Random(seed)
        return [(f.p, alpha, beta) for f, _, alpha, beta, _ in
                (_random_setup(qs, max_n, rng) for _ in range(trials))], 1
    return keys


def _normal_form_keys(qs, max_n, trials, seed=404):
    rng = random.Random(seed)
    field = PrimeField(qs[0])
    keys = []
    for _ in range(trials):
        n = rng.randint(1, max_n)
        alpha, beta = random_composition(n, rng), random_composition(n, rng)
        random_invertible(field, n, rng)
        keys.append((field.p, alpha, beta))
    return keys, 1


def _zeroed(h):
    return BiHinge._of(h.alpha, h.beta, h.field, np.zeros_like(h.stack))


def _y_halves_dropped(h):
    """h, its mark of a column pass kept, with the Y halves of the rows that
    pivot in X cleared in its first cell that has any nonzero, None if no
    cell has: dom, indef and the ranks stay, so ker and im read off the
    neighbours stay too, but ker grows to dom, so the axioms fail only on
    spaces derived afresh."""
    mx = max(h.alpha)
    dom_rows = (h.stack[:, :, :mx] != 0).any(axis=2)
    hit = np.flatnonzero((dom_rows[:, :, None] & (h.stack[:, :, mx:] != 0)).any(axis=(1, 2)))
    if not hit.size:
        return None
    stack = h.stack.copy()
    stack[hit[0], dom_rows[hit[0]], mx:] = 0
    return BiHinge._of(h.alpha, h.beta, h.field, stack, from_pass=h._from_pass)


def _other_table(h):
    """The standard grid of another dimension table, None if there is none."""
    d = dimension_matrix(h)
    other = [t for t in contingency_tables(h.alpha, h.beta) if t != d]
    return standard_bihinge(other[0], h.field) if other else None


def _reordered(h):
    """h with its cells in reverse order but its own derived spaces, so it
    passes the axioms and normalizes as h does; None if reversing keeps it."""
    if np.array_equal(h.stack, h.stack[::-1]):
        return None
    bad = BiHinge._of(h.alpha, h.beta, h.field, h.stack[::-1])
    bad._derived = h.derived()
    return bad


def _grid(corrupt):
    """Corrupt grid mid of _chi_each's list, in place; False if corrupt cannot."""
    def apply(grids, mid, p):
        bad = corrupt(grids[mid])
        if bad is not None:
            grids[mid] = bad
        return bad is not None
    return apply


def _bumped_u(factors, mid, p):
    # u[0, n-1] + 1 adds column 0 of l perm, which is nonzero, to column n-1
    # of the product; u stays upper triangular
    u = factors[2]
    u[mid, 0, -1] = (u[mid, 0, -1] + 1) % p
    return True


# suite, its draw replay, the function patched, a corruption of member mid
# of what it returns, the FAIL detail of trial t
_SUITES = {
    "invariance": (lambda: check_invariance(qs=(2, 3), max_n=3, trials=200), _invariance_keys,
                   "_chi_each", _grid(_zeroed), "changed the grid at trial {t}"),
    "axioms": (lambda: check_axiom_soundness(qs=(2, 3), max_n=3, trials=200), _setup_keys(202),
               "_chi_each", _grid(_zeroed), "trial {t}: "),
    "axioms-marked": (lambda: check_axiom_soundness(qs=(2, 3), max_n=3, trials=200), _setup_keys(202),
                      "_chi_each", _grid(_y_halves_dropped), "trial {t}: "),
    "lpu": (lambda: check_lpu(qs=(2, 3), max_n=3, trials=200), _setup_keys(303),
            "_chi_each", _grid(_other_table), "trial {t}: block counts disagree with the grid"),
    "lpu-factors": (lambda: check_lpu(qs=(2, 3), max_n=3, trials=200), _setup_keys(303),
                    "_lpu_each", _bumped_u, "trial {t}: l perm u != a"),
    "normal-form": (lambda: check_normal_form(q=3, max_n=3, trials=200), _normal_form_keys,
                    "_chi_each", _grid(_reordered), "trial {t}: normalized grid is not standard"),
}


@pytest.mark.parametrize("name", list(_SUITES))
def test_suites_name_the_first_failing_trial_in_draw_order(monkeypatch, name):
    # the patched stacked call corrupts the middle member of every group of
    # at least three trials; the FAIL must name the smallest corrupted
    # trial, which lies in a later group than the first one corrupted; a
    # suite makes one patched call per group, groups in first-draw order
    run, replay, target, corrupt, detail = _SUITES[name]
    keys, per = replay((2, 3) if name != "normal-form" else (3,), 3, 200)
    trials_of = {}
    for t, key in enumerate(keys):
        trials_of.setdefault(key, []).append(t)
    groups, corrupted = iter(trials_of.values()), []
    real = getattr(selfcheck, target)

    def corrupting(mats, *margins):
        out, ts = real(mats, *margins), next(groups)
        mid = len(mats) // 2
        assert len(mats) == per * len(ts) and (not margins or trials_of[(mats[0].field.p, *margins)] is ts)
        if len(mats) >= 3 * per and corrupt(out, mid, mats[0].field.p):
            corrupted.append(ts[mid // per])
        return out

    monkeypatch.setattr(selfcheck, target, corrupting)
    ok, got = run()
    assert not ok
    assert len(corrupted) >= 2 and min(corrupted) != corrupted[0]
    t = min(corrupted)
    want = detail.format(t=t)
    assert (got.endswith(want) if name == "invariance" else got.startswith(want)), (got, t)


def test_lpu_suite_checks_canonical_01_on_each_groups_first_trial(monkeypatch):
    # canonical_01 takes the one-matrix column pass, not the stacked one; the
    # suite calls it once per group, on the group's first trial, and a wrong
    # form from the third call on fails at the third group's first trial
    keys, _ = _setup_keys(303)((2, 3), 3, 200)
    firsts = sorted({key: t for t, key in reversed(list(enumerate(keys)))}.values())
    calls = []
    real = selfcheck.canonical_01

    def wrong_from_the_third(a, alpha, beta):
        calls.append(a)
        out = real(a, alpha, beta)
        return out if len(calls) < 3 else Matrix._new(out.field, (out.a + 1) % out.field.p)

    monkeypatch.setattr(selfcheck, "canonical_01", wrong_from_the_third)
    ok, got = check_lpu(qs=(2, 3), max_n=3, trials=200)
    assert not ok and got == f"trial {firsts[2]}: canonical forms disagree"
    assert len(calls) == len(firsts) < 200
