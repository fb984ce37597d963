"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single PASS or FAIL line (visible under pytest -s or in
the captured output of a failure) and enforces both the exact expected
values and a wall-clock ceiling.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they go by.
"""

import json
import time

from hinge.bihinge import DimensionMatrix, chi, standard_bihinge, standard_matrix
from hinge.cli import main
from hinge.enumeration import stabilizer_brute
from hinge.field import PrimeField
from hinge.linalg import Matrix
from hinge.selfcheck import (
    check_completeness,
    check_invariance,
    check_lpu,
    check_normal_form,
    check_stabilizers,
    count_three_ways,
)
from hinge.serialize import cell_records, dumps_json


def report(name, ok, elapsed, limit, detail=""):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{verdict} {name}: {elapsed:.2f}s (limit {limit:g}s){suffix}")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name} took {elapsed:.2f}s, ceiling {limit:g}s"


# The 12 x 12 worked example: one unit per row, reading the blocks of the
# all-ones 4 x 3 dimension table column-block by column-block.
_UNIT_COLS = (0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11)

ALPHA_12 = (3, 3, 3, 3)
BETA_12 = (4, 4, 4)


def test_worked_example_grid():
    start = time.perf_counter()
    field = PrimeField(2)
    big = Matrix(field, [[1 if c == unit else 0 for c in range(12)] for unit in _UNIT_COLS])
    h = chi(big, ALPHA_12, BETA_12)

    # cell in block row 3, block column 2: a 3 -> 4 relation, read off
    # derived() and off its record as `hinge invariants` writes it
    k = 2 * len(BETA_12) + 1
    dv, cell = h.derived(), json.loads(dumps_json({"cells": cell_records(h)}))["cells"][k]
    assert (cell["i"], cell["j"], cell["dim_x"], cell["dim_y"]) == (3, 2, 3, 4)
    dims = dv.dims[:, k].tolist()  # ker, dom, im, indef
    assert dv.dom[k, : dims[1]].tolist() == [[0, 1, 0], [0, 0, 1]]
    assert dv.ker[k, : dims[0]].tolist() == [[0, 0, 1]]
    assert dv.im[k, : dims[2]].tolist() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert dv.indef[k, : dims[3]].tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert cell["theta"] == [[1]]
    assert dims == [1, 2, 3, 2]
    assert (cell["ker_dim"], cell["dom_dim"], cell["indef_dim"], cell["im_dim"]) == (1, 2, 2, 3)

    ones = DimensionMatrix([[1, 1, 1]] * 4, ALPHA_12, BETA_12)
    assert standard_matrix(ones, field) == big
    assert h == standard_bihinge(ones, field)

    elapsed = time.perf_counter() - start
    report("worked example 12x12 grid", True, elapsed, 1.0, "cell (3,2) and full grid exact")


def test_invariance_thousand_trials():
    start = time.perf_counter()
    ok, detail = check_invariance(qs=(2, 3, 5), max_n=6, trials=1000)
    report("triangular-move invariance", ok, time.perf_counter() - start, 30.0, detail)


_COMPLETENESS_CASES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (2, 7), (3, 5))


def test_completeness_exhaustive():
    start = time.perf_counter()
    failures = []
    for n, q in _COMPLETENESS_CASES:
        ok, detail = check_completeness(n, q)
        if not ok:
            failures.append(f"n={n} q={q}: {detail}")
    note = "; ".join(failures) if failures else "all composition pairs on eight (n, q) cases"
    report("grid = coset, exhaustively", not failures, time.perf_counter() - start, 600.0, note)


def test_axiom_grids_all_realized_table_by_table():
    # every composition pair of GL(2, 2) and GL(2, 3), (1,1) x (1,1) among
    # them: each dimension table has N / stab(d) classes, as many as there
    # are axiom grids with that table, so every axiom grid is a chi image
    start = time.perf_counter()
    details = [check_completeness(2, q) for q in (2, 3)]
    ok = all(ok for ok, _ in details) and all(detail.endswith(", 5 tables") for _, detail in details)
    report("axiom grids all realized, table by table", ok, time.perf_counter() - start, 60.0,
           "; ".join(detail for _, detail in details))


_COUNT_EXPECTED = (
    ((1, 1), (1, 1), 2, 2),
    ((1, 1), (1, 1), 3, 8),
    ((2,), (1, 1), 2, 3),
    ((1, 1, 1), (1, 1, 1), 2, 6),
)


def test_counting_triple_match():
    start = time.perf_counter()
    seen = []
    for alpha, beta, q, want in _COUNT_EXPECTED:
        predicted, closure, grids = count_three_ways(alpha, beta, q)
        assert predicted == closure == grids == want, (
            f"alpha={alpha} beta={beta} q={q}: "
            f"predicted {predicted}, closure {closure}, grids {grids}, expected {want}"
        )
        seen.append(predicted)
    report("count formula = closure = grids", True, time.perf_counter() - start, 120.0,
           f"counts {seen}")


def test_stabilizer_formula():
    start = time.perf_counter()
    ok, detail = check_stabilizers(qs=(2, 3))
    pinned = stabilizer_brute(DimensionMatrix([[1, 1]], (2,), (1, 1)), 2)
    ok = ok and pinned == 2
    report("stabilizer formula vs brute", ok, time.perf_counter() - start, 120.0,
           f"{detail}; pinned case gives {pinned}")


def test_lpu_thousand_trials():
    start = time.perf_counter()
    ok, detail = check_lpu(qs=(2, 3, 5), max_n=6, trials=1000)
    report("factorization consistency", ok, time.perf_counter() - start, 60.0, detail)


def test_normal_form_five_hundred_trials():
    start = time.perf_counter()
    ok, detail = check_normal_form(q=3, max_n=5, trials=500)
    report("normalization reaches standard form", ok, time.perf_counter() - start, 120.0, detail)


def test_cli_contract(capsys, tmp_path):
    start = time.perf_counter()

    count_cases = (
        (["--alpha", "1,1", "--beta", "1,1", "-q", "2"], 2),
        (["--alpha", "1,1", "--beta", "1,1", "-q", "3"], 8),
        (["--alpha", "2", "--beta", "1,1", "-q", "2"], 3),
    )
    for flags, want in count_cases:
        assert main(["count", *flags, "--brute"]) == 0
        assert capsys.readouterr().out == f"predicted {want}\nbrute {want}\nMATCH\n"
        assert main(["count", *flags, "--brute", "--format", "json"]) == 0
        want_json = '{"predicted": %d, "brute": %d, "match": true}\n' % (want, want)
        assert capsys.readouterr().out == want_json

    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps(
        {"modulus": 2, "alpha": [1, 1], "beta": [1, 1], "matrix": [[1, 0], [0, 1]]}))
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps(
        {"modulus": 2, "alpha": [1, 1], "beta": [1, 1], "matrix": [[0, 1], [1, 0]]}))

    assert main(["equivalent", str(identity), str(swap)]) == 1
    assert capsys.readouterr().out == "NOT-EQUIVALENT\n"
    assert main(["equivalent", str(identity), str(swap), "--format", "json"]) == 1
    assert capsys.readouterr().out == '{"equivalent": false}\n'

    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report("command-line contract", True, elapsed, 60.0,
               "three MATCH counts, NOT-EQUIVALENT verdict, frozen JSON")
