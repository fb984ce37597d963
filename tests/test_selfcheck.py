"""The completeness check's stacked routes, pinned to their definitions."""

import numpy as np

from hinge import selfcheck
from hinge.bihinge import chi_cell
from hinge.enumeration import enum_gl, gl_array
from hinge.selfcheck import (
    _cell_bases,
    _graph_echelon,
    _grid_cell_ids,
    check_completeness,
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
    # every cut of every element: the stacked basis is chi_cell's RREF basis
    # padded with zero rows, and the interned ids (one elimination shared by
    # all rh of a (cl, ch, rl)) separate exactly the distinct chi_cell bases
    for n, q in ((2, 3), (3, 2)):
        elements = gl_array(n, q)
        matrices = list(enum_gl(n, q))
        cuts = all_cuts(n)
        ids = _grid_cell_ids(elements, q, cuts)
        for k, cut in enumerate(cuts):
            bases = _cell_bases(_graph_echelon(elements, q, *cut), *cut)
            seen = set()
            for m, got, cid in zip(matrices, bases, ids[:, k].tolist()):
                want = chi_cell(m, *cut).space.basis.a
                assert np.array_equal(got[: len(want)], want), (n, q, cut, m.to_rows())
                assert not got[len(want) :].any(), (n, q, cut, m.to_rows())
                seen.add((cid, want.tobytes()))
            assert len(seen) == len({c for c, _ in seen}) == len({b for _, b in seen})


def test_completeness_fails_when_the_oracle_disagrees(monkeypatch):
    # the per-id chi_cell check is live: a wrong oracle turns into a FAIL
    def shifted(a, cl, ch, rl, rh):
        return chi_cell(a, cl, ch, 0, rh)

    monkeypatch.setattr(selfcheck, "chi_cell", shifted)
    ok, detail = check_completeness(2, 2)
    assert not ok
    assert "differs from chi_cell" in detail
