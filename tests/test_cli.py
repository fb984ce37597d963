"""The hinge command: stdout contracts and the exit-code table.

Most tests drive main() in process and pin stdout byte for byte; one
subprocess test exercises the real interpreter entry point.
"""

import json
import shlex
import subprocess
import sys
from decimal import Decimal
from math import factorial
from pathlib import Path
from time import perf_counter

import pytest

from hinge import bihinge, cli, selfcheck
from hinge.cli import main
from hinge.enumeration import BudgetError, gl_order
from hinge.relations import InvariantViolation


def write_problem(tmp_path, name, modulus, alpha, beta, matrix):
    path = tmp_path / name
    path.write_text(
        json.dumps({"modulus": modulus, "alpha": alpha, "beta": beta, "matrix": matrix}),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def identity2(tmp_path):
    return write_problem(tmp_path, "identity.json", 2, [1, 1], [1, 1], [[1, 0], [0, 1]])


@pytest.fixture
def swap2(tmp_path):
    return write_problem(tmp_path, "swap.json", 2, [1, 1], [1, 1], [[0, 1], [1, 0]])


def _readme_block(after: str, lang: str) -> str:
    """The first fenced block of a language after a line of the README."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return text[text.index(after) :].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_print_what_they_document(capsys, monkeypatch, tmp_path, identity2, swap2):
    # the library example prints, line by line, the comment on each print
    code = _readme_block("## Library example", "python")
    want = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == want
    # each command of the example session, on identity.json and swap.json,
    # prints the lines below it and exits as the exit-code table says
    monkeypatch.chdir(tmp_path)
    sessions = _readme_block("Example session:", "sh").strip().split("\n\n")
    for command, *lines in (session.splitlines() for session in sessions):
        assert command.startswith("$ hinge ")
        code = 1 if lines[-1] in ("NOT-EQUIVALENT", "MISMATCH") else 0
        assert main(shlex.split(command)[2:]) == code, command
        assert capsys.readouterr() == ("".join(line + "\n" for line in lines), ""), command
    assert len(sessions) == 2


def test_count_brute_match_text(capsys):
    assert main(["count", "--alpha", "1,1", "--beta", "1,1", "-q", "2", "--brute"]) == 0
    assert capsys.readouterr().out == "predicted 2\nbrute 2\nMATCH\n"


def test_count_brute_match_json(capsys):
    assert main(
        ["count", "--alpha", "1,1", "--beta", "1,1", "-q", "3", "--brute", "--format", "json"]
    ) == 0
    assert capsys.readouterr().out == '{"predicted": 8, "brute": 8, "match": true}\n'


def test_count_without_brute(capsys):
    assert main(["count", "--alpha", "2", "--beta", "1,1", "-q", "2"]) == 0
    assert capsys.readouterr().out == "predicted 3\n"


def test_count_budget_flag(capsys):
    argv = ["count", "--alpha", "1,1", "--beta", "1,1", "-q", "2", "--brute"]
    assert main([*argv, "--budget", "5"]) == 6
    err = capsys.readouterr().err
    assert "6" in err and "budget" in err
    assert main([*argv, "--budget", "100"]) == 0
    assert capsys.readouterr().out.endswith("MATCH\n")


def test_count_formula_budget(capsys):
    # (1^10) x (1^10) has 10! contingency tables: summed by the table DP, never listed
    ones = ",".join(["1"] * 10)
    start = perf_counter()
    assert main(["count", "--alpha", ones, "--beta", ones, "-q", "2"]) == 0
    assert perf_counter() - start < 1
    assert capsys.readouterr() == ("predicted 3628800\n", "")


def test_count_formula_forty_ones(capsys):
    # 40! permutation tables, each one orbit of size (q - 1)^40
    ones = ",".join(["1"] * 40)
    start = perf_counter()
    assert main(["count", "--alpha", ones, "--beta", ones, "-q", "3"]) == 0
    assert perf_counter() - start < 0.5
    assert capsys.readouterr().out == f"predicted {factorial(40) * 2 ** 40}\n"


def test_count_formula_budget_charges_placements(capsys):
    # the budget bounds the DP's work: refused after 1001 placements, long
    # before its states grow
    start = perf_counter()
    code = main(["count", "--alpha", ",".join(["5"] * 20), "--beta", ",".join(["4"] * 25),
                 "-q", "7", "--budget", "1000"])
    assert code == 6
    assert perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "table placements" in err and "= 1001 exceeds subspace budget 1000" in err


def test_count_prints_past_the_int_digit_limit(capsys):
    # |GL(130, 2)| has 5,088 digits, past the 4,300 that Python converts by
    # default (3.10.7 on); count lifts that limit only while it prints
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    want = format(Decimal(gl_order(130, 2)), "f")  # exact, and not limited
    for fmt, out in (("text", f"predicted {want}\n"), ("json", f'{{"predicted": {want}}}\n')):
        start = perf_counter()
        assert main(["count", "--alpha", "130", "--beta", "130", "-q", "2", "--format", fmt]) == 0
        assert perf_counter() - start < 1
        assert capsys.readouterr() == (out, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_count_rejects_non_prime_modulus(capsys):
    # checked before the formula runs, with or without --brute
    for q in ("-3", "0", "1", "4"):
        for extra in ([], ["--brute"]):
            assert main(["count", "--alpha", "1,1", "--beta", "1,1", "-q", q, *extra]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "modulus must be a prime" in err


def test_budget_environment_variable_is_not_read(capsys, monkeypatch):
    # --budget is the one way to set the caps
    monkeypatch.setenv("HINGE_BUDGET", "5")
    assert main(["count", "--alpha", "1,1", "--beta", "1,1", "-q", "2", "--brute"]) == 0
    assert capsys.readouterr() == ("predicted 2\nbrute 2\nMATCH\n", "")


def test_equivalent_verdicts(capsys, tmp_path, identity2, swap2):
    upper = write_problem(tmp_path, "upper.json", 2, [1, 1], [1, 1], [[1, 1], [0, 1]])
    assert main(["equivalent", identity2, upper]) == 0
    assert capsys.readouterr().out == "EQUIVALENT\n"
    assert main(["equivalent", identity2, swap2]) == 1
    assert capsys.readouterr().out == "NOT-EQUIVALENT\n"
    assert main(["equivalent", identity2, swap2, "--format", "json"]) == 1
    assert capsys.readouterr().out == '{"equivalent": false}\n'


def test_equivalent_header_mismatch(capsys, tmp_path, identity2):
    other = write_problem(tmp_path, "gf3.json", 3, [1, 1], [1, 1], [[1, 0], [0, 1]])
    assert main(["equivalent", identity2, other]) == 5
    assert "headers differ" in capsys.readouterr().err


def test_invariants_text(capsys, swap2):
    assert main(["invariants", swap2]) == 0
    out = capsys.readouterr().out
    assert out.startswith("modulus 2\nalpha 1 1\nbeta 1 1\ndimension matrix:\n  0 1\n  1 0\n")
    assert "canonical 0-1 matrix:" in out


# Text reports pinned byte for byte: a 2 x 2 problem over GF(2), a three-block
# problem over GF(5) with zero relation cells and a 2 x 2 theta, and the
# standard form of a 2 x 3 table over GF(3).
INVARIANTS_GF2_TEXT = """\
modulus 2
alpha 1 1
beta 1 1
dimension matrix:
  1 0
  0 1
chi[1,1]  ker=0 dom=1 indef=0 im=1
  (1 | 1)
  theta 1x1:
    1
chi[1,2]  ker=0 dom=0 indef=0 im=0
  (zero relation)
  theta 0x0
chi[2,1]  ker=1 dom=1 indef=1 im=1
  (1 | 0)
  (0 | 1)
  theta 0x0
chi[2,2]  ker=0 dom=1 indef=0 im=1
  (1 | 1)
  theta 1x1:
    1
canonical 0-1 matrix:
  1 0
  0 1
"""

INVARIANTS_GF5_TEXT = """\
modulus 5
alpha 2 1 2
beta 1 2 2
dimension matrix:
  1 1 0
  0 1 0
  0 0 2
chi[1,1]  ker=1 dom=2 indef=0 im=1
  (1 0 | 2)
  (0 1 | 0)
  theta 1x1:
    2
chi[1,2]  ker=0 dom=1 indef=0 im=1
  (0 1 | 3 3)
  theta 1x1:
    3
chi[1,3]  ker=0 dom=0 indef=0 im=0
  (zero relation)
  theta 0x0
chi[2,1]  ker=1 dom=1 indef=1 im=1
  (1 | 0)
  (0 | 1)
  theta 0x0
chi[2,2]  ker=0 dom=1 indef=1 im=2
  (1 | 0 4)
  (0 | 1 1)
  theta 1x1:
    4
chi[2,3]  ker=0 dom=0 indef=0 im=0
  (zero relation)
  theta 0x0
chi[3,1]  ker=2 dom=2 indef=1 im=1
  (1 0 | 0)
  (0 1 | 0)
  (0 0 | 1)
  theta 0x0
chi[3,2]  ker=2 dom=2 indef=2 im=2
  (1 0 | 0 0)
  (0 1 | 0 0)
  (0 0 | 1 0)
  (0 0 | 0 1)
  theta 0x0
chi[3,3]  ker=0 dom=2 indef=0 im=2
  (1 0 | 1 0)
  (0 1 | 2 1)
  theta 2x2:
    1 2
    0 1
canonical 0-1 matrix:
  1 0 0 0 0
  0 1 0 0 0
  0 0 1 0 0
  0 0 0 1 0
  0 0 0 0 1
"""

STANDARD_TEXT = """\
modulus 3
alpha 2 2
beta 1 2 1
standard matrix:
  0 0 1 0
  1 0 0 0
  0 0 0 1
  0 1 0 0
dimension matrix:
  0 1 1
  1 1 0
chi[1,1]  ker=2 dom=2 indef=0 im=0
  (1 0 | 0)
  (0 1 | 0)
  theta 0x0
chi[1,2]  ker=1 dom=2 indef=0 im=1
  (1 0 | 1 0)
  (0 1 | 0 0)
  theta 1x1:
    1
chi[1,3]  ker=0 dom=1 indef=0 im=1
  (0 1 | 1)
  theta 1x1:
    1
chi[2,1]  ker=1 dom=2 indef=0 im=1
  (1 0 | 1)
  (0 1 | 0)
  theta 1x1:
    1
chi[2,2]  ker=0 dom=1 indef=1 im=2
  (0 1 | 0 1)
  (0 0 | 1 0)
  theta 1x1:
    1
chi[2,3]  ker=0 dom=0 indef=1 im=1
  (0 0 | 1)
  theta 0x0
"""


def test_invariants_text_is_frozen(capsys, tmp_path):
    gf2 = write_problem(tmp_path, "gf2.json", 2, [1, 1], [1, 1], [[1, 1], [0, 1]])
    matrix = [[2, 0, 0, 0, 3], [0, 3, 4, 0, 2], [1, 3, 3, 2, 0], [0, 0, 3, 0, 0], [1, 1, 1, 4, 2]]
    gf5 = write_problem(tmp_path, "gf5.json", 5, [2, 1, 2], [1, 2, 2], matrix)
    for path, want in ((gf2, INVARIANTS_GF2_TEXT), (gf5, INVARIANTS_GF5_TEXT)):
        assert main(["invariants", path, "--format", "text"]) == 0
        assert capsys.readouterr() == (want, "")


def test_standard_text_is_frozen(capsys):
    argv = ["standard", "--dims", "0,1,1;1,1,0", "--alpha", "2,2", "--beta", "1,2,1", "-q", "3", "--format", "text"]
    assert main(argv) == 0
    assert capsys.readouterr() == (STANDARD_TEXT, "")


def test_invariants_json_round_trip(capsys, swap2):
    assert main(["invariants", swap2, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension_matrix"] == [[0, 1], [1, 0]]
    assert report["canonical"] == [[0, 1], [1, 0]]
    assert {(c["i"], c["j"]) for c in report["cells"]} == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_invariants_error_codes(capsys, tmp_path):
    singular = write_problem(tmp_path, "singular.json", 2, [1, 1], [1, 1], [[1, 1], [1, 1]])
    assert main(["invariants", singular]) == 3

    bad = tmp_path / "broken.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["invariants", str(bad)]) == 2

    margins = write_problem(tmp_path, "margins.json", 2, [1, 1, 1], [1, 1, 1], [[1, 0], [0, 1]])
    assert main(["invariants", margins]) == 4

    assert main(["invariants", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_singular_coarse_input_names_its_own_column(capsys, tmp_path):
    # the grid's column pass reverses each alpha block, and in that order
    # this matrix first fails at column 2; the message names column 1, where
    # its own columns first depend on earlier ones, as the plain pass does
    matrix = [[1, 1, 0], [2, 2, 1], [0, 0, 3]]
    singular = write_problem(tmp_path, "singular.json", 5, [3], [1, 2], matrix)
    eye = write_problem(tmp_path, "eye.json", 5, [3], [1, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    want = "error: matrix is singular over GF(5): column 1 depends on earlier columns\n"
    for argv in (["invariants", singular], ["equivalent", eye, singular], ["equivalent", singular, eye]):
        assert main(argv) == 3
        assert capsys.readouterr() == ("", want), argv
    # both inputs singular: the first one names its own column, as chi of the
    # first and then of the second would (this one fails at column 2, and at
    # column 2 of the reversed block too, while the first fails at column 1)
    late = write_problem(tmp_path, "late.json", 5, [3], [1, 2], [[1, 0, 1], [0, 1, 1], [2, 3, 0]])
    column = "error: matrix is singular over GF(5): column {} depends on earlier columns\n"
    for files, col in (([singular, late], 1), ([late, singular], 2)):
        for fmt in ("text", "json"):
            argv = ["equivalent", *files, "--format", fmt]
            assert main(argv) == 3
            assert capsys.readouterr() == ("", column.format(col)), argv


def test_huge_entries_reduce_mod_p(capsys, tmp_path):
    huge = write_problem(tmp_path, "huge.json", 5, [1], [1], [[10 ** 23 + 2]])
    assert main(["canonical", huge, "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"modulus": 5, "alpha": [1], "beta": [1], "matrix": [[1]]}\n'
    zero = write_problem(tmp_path, "zero.json", 5, [1], [1], [[10 ** 23]])
    assert main(["invariants", zero]) == 3
    capsys.readouterr()


def test_internal_errors_exit_7(capsys, monkeypatch, identity2, swap2):
    def broken(*args):
        raise InvariantViolation("injected")

    monkeypatch.setattr(bihinge, "derive_stack", broken)
    assert main(["invariants", swap2]) == 7
    assert "internal invariant violated: injected" in capsys.readouterr().err
    # a crash must not read as NOT-EQUIVALENT
    monkeypatch.setattr(cli, "equivalent", broken)
    assert main(["equivalent", identity2, swap2]) == 7
    assert capsys.readouterr().out == ""


def test_canonical_text_and_json(capsys, tmp_path):
    prob = write_problem(tmp_path, "p.json", 2, [1, 1], [1, 1], [[1, 1], [1, 0]])
    assert main(["canonical", prob]) == 0
    assert capsys.readouterr().out == "1 0\n0 1\n"
    assert main(["canonical", prob, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"modulus": 2, "alpha": [1, 1], "beta": [1, 1], "matrix": [[1, 0], [0, 1]]}


def test_standard_command(capsys):
    assert main(
        ["standard", "--dims", "0,1;1,0", "--alpha", "1,1", "--beta", "1,1", "-q", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "standard matrix:\n  0 1\n  1 0\n" in out
    assert main(
        [
            "standard",
            "--dims",
            "0,1;1,0",
            "--alpha",
            "1,1",
            "--beta",
            "1,1",
            "-q",
            "2",
            "--format",
            "json",
        ]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matrix"] == [[0, 1], [1, 0]]
    assert data["dimension_matrix"] == [[0, 1], [1, 0]]
    assert len(data["cells"]) == 4


def test_standard_margin_error(capsys):
    code = main(["standard", "--dims", "1,1;0,1", "--alpha", "1,1", "--beta", "1,1", "-q", "2"])
    assert code == 4
    assert "row 1" in capsys.readouterr().err


def test_standard_negative_dims_exit_4_in_either_spelling(capsys):
    # a table that starts with "-" is the value of --dims, spelled apart or
    # with "=", and fails the margin check, not the parser
    for spelling in (["--dims", "-1,2;2,-1"], ["--dims=-1,2;2,-1"]):
        for fmt in ("text", "json"):
            code = main(["standard", *spelling, "--alpha", "1,1", "--beta", "1,1", "-q", "3", "--format", fmt])
            captured = capsys.readouterr()
            assert (code, captured.out) == (4, ""), (spelling, fmt)
            assert "cell dimensions must be nonnegative" in captured.err


def test_standard_rejects_bad_modulus(capsys):
    code = main(["standard", "--dims", "1,0;0,1", "--alpha", "1,1", "--beta", "1,1", "-q", "6"])
    assert code == 2
    assert "prime" in capsys.readouterr().err


def test_selfcheck_quick(capsys):
    assert main(["selfcheck", "-q", "2", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS invariance" in out
    assert "PASS completeness" in out
    assert "FAIL" not in out
    assert out.rstrip().endswith("all checks passed")



def test_selfcheck_skips_suites_past_the_budget(capsys):
    # at this budget stabilizers (36 pairs), counting (GL(2,3)) and the
    # completeness round over GL(3,2) would exceed it: each prints SKIP and
    # the run goes on to the suites after it, and a SKIP does not fail it
    assert main(["selfcheck", "-q", "2", "--max-n", "3", "--budget", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS invariance",
        "PASS axioms",
        "PASS canonical-forms",
        "SKIP stabilizers",
        "PASS lpu",
        "PASS normal-form",
        "SKIP counting",
        "PASS completeness",
        "SKIP completeness",
        "all checks passed",
    ]
    assert lines[3] == "SKIP stabilizers: stabilizer search space = 36 exceeds group budget 30"
    assert lines[8] == "SKIP completeness: |GL(3,2)| = 168 exceeds group budget 30"


def test_selfcheck_skips_a_round_refused_inside_it(capsys, monkeypatch):
    # a BudgetError raised inside a completeness round, past its group
    # check, is a SKIP like a suite's, not exit 6; the counting suite reads
    # the same formula and skips too
    def refuse(*args):
        raise BudgetError("class placements = 1001 exceeds subspace budget 1000")

    monkeypatch.setattr(selfcheck, "predicted_coset_count", refuse)
    assert main(["selfcheck", "-q", "2", "--max-n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "SKIP counting: class placements = 1001 exceeds subspace budget 1000",
        "SKIP completeness: class placements = 1001 exceeds subspace budget 1000",
        "all checks passed",
    ]


def test_selfcheck_rejects_max_n_below_one(capsys):
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["selfcheck", "--max-n", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-n" in err and "at least 1" in err


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hinge.cli", "count", "--alpha", "1,1", "--beta", "1,1",
         "-q", "2", "--brute"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "predicted 2\nbrute 2\nMATCH\n"
