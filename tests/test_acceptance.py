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
    check_surjectivity,
    count_three_ways,
)


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

    # cell in block row 3, block column 2: a 3 -> 4 relation
    cell = h.cell(2, 1)
    assert cell.dim_x == 3 and cell.dim_y == 4
    assert cell.dom().to_rows() == [[0, 1, 0], [0, 0, 1]]
    assert cell.ker().to_rows() == [[0, 0, 1]]
    assert cell.im().to_rows() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert cell.indef().to_rows() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert cell.theta().to_rows() == [[1]]
    dims = (cell.ker().rows, cell.dom().rows, cell.indef().rows, cell.im().rows)
    assert dims == (1, 2, 2, 3)

    ones = DimensionMatrix([[1, 1, 1]] * 4, ALPHA_12, BETA_12)
    assert standard_matrix(ones, field) == big
    assert h == standard_bihinge(ones, field)

    elapsed = time.perf_counter() - start
    report("worked example 12x12 grid", True, elapsed, 1.0, "cell (3,2) and full grid exact")


def test_invariance_thousand_trials():
    start = time.perf_counter()
    ok, detail = check_invariance(qs=(2, 3, 5), max_n=6, trials=1000)
    report("triangular-move invariance", ok, time.perf_counter() - start, 30.0, detail)


_COMPLETENESS_CASES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (2, 7))


def test_completeness_exhaustive():
    start = time.perf_counter()
    failures = []
    for n, q in _COMPLETENESS_CASES:
        ok, detail = check_completeness(n, q)
        if not ok:
            failures.append(f"n={n} q={q}: {detail}")
    note = "; ".join(failures) if failures else "all composition pairs on seven (n, q) cases"
    report("grid = coset, exhaustively", not failures, time.perf_counter() - start, 600.0, note)


def test_surjectivity_small_fields():
    start = time.perf_counter()
    ok2, detail2 = check_surjectivity(2)
    ok3, detail3 = check_surjectivity(3)
    ok = ok2 and ok3 and detail2 == "GF(2): all 2 grids realized" \
        and detail3 == "GF(3): all 8 grids realized"
    report("axiom grids all realized", ok, time.perf_counter() - start, 60.0,
           f"{detail2}; {detail3}")


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
