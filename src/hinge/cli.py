"""The `hinge` command line tool.

Subcommands: invariants, equivalent, canonical, standard, count, selfcheck.
Exit codes are a stable contract:

    0  success (EQUIVALENT, MATCH, all checks passed)
    1  negative verdict (NOT-EQUIVALENT, MISMATCH, a failed check)
    2  unreadable input: bad JSON, bad field, bad flag value
    3  singular matrix where an invertible one is required
    4  margin mismatch: compositions or table sums do not add up
    5  problem headers differ where they must agree
    6  an enumeration would exceed the size budget
    7  an internal invariant was violated (a bug in hinge, not a verdict)

The HINGE_BUDGET environment variable overrides the default enumeration
budget; an explicit --budget flag wins over the environment.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .bihinge import DimensionMatrix, MarginError, equivalent
from .enumeration import (
    DEFAULT_BUDGET,
    BudgetError,
    EnumerationBudget,
    double_cosets_brute,
    predicted_coset_count,
)
from .field import PrimeField
from .linalg import SingularMatrixError
from .lpu import canonical_01
from .relations import InvariantViolation
from .selfcheck import run_selfcheck
from .serialize import (
    HeaderMismatchError,
    ProblemFormatError,
    check_same_header,
    dumps_json,
    invariant_report,
    load_problem,
    render_matrix_rows,
    render_text,
    report_header,
    standard_report,
)

EXIT_OK = 0
EXIT_DIFFERENT = 1
EXIT_FORMAT = 2
EXIT_SINGULAR = 3
EXIT_MARGIN = 4
EXIT_HEADER = 5
EXIT_BUDGET = 6
EXIT_INTERNAL = 7


def _csv_ints(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _csv_rows(text: str) -> list:
    return [_csv_ints(row) for row in text.split(";")]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_budget(args) -> EnumerationBudget:
    value = getattr(args, "budget", None)
    if value is None:
        raw = os.environ.get("HINGE_BUDGET")
        if raw is not None:
            try:
                value = int(raw)
            except ValueError:
                raise ProblemFormatError(
                    f"HINGE_BUDGET must be an integer, got {raw!r}"
                ) from None
    if value is None:
        return DEFAULT_BUDGET
    if value < 1:
        raise ProblemFormatError(f"budget must be positive, got {value}")
    return EnumerationBudget(max_group_order=value, max_subspace_lattice=value)


def cmd_invariants(args) -> int:
    report = invariant_report(load_problem(args.file))
    print(dumps_json(report) if args.format == "json" else render_text(report))
    return EXIT_OK


def cmd_equivalent(args) -> int:
    a = load_problem(args.file_a)
    b = load_problem(args.file_b)
    check_same_header(a, b)
    same = equivalent(a.matrix, b.matrix, a.alpha, a.beta)
    if args.format == "json":
        print(dumps_json({"equivalent": same}))
    else:
        print("EQUIVALENT" if same else "NOT-EQUIVALENT")
    return EXIT_OK if same else EXIT_DIFFERENT


def cmd_canonical(args) -> int:
    problem = load_problem(args.file)
    rows = canonical_01(problem.matrix, problem.alpha, problem.beta).to_rows()
    if args.format == "json":
        print(dumps_json({**report_header(problem.field, problem.alpha, problem.beta), "matrix": rows}))
    else:
        print(render_matrix_rows(rows))
    return EXIT_OK


def cmd_standard(args) -> int:
    field = PrimeField(args.q)  # before the table, so a bad modulus exits 2 whatever the table
    report = standard_report(DimensionMatrix(args.dims, args.alpha, args.beta), field)
    print(dumps_json(report) if args.format == "json" else render_text(report))
    return EXIT_OK


def cmd_count(args) -> int:
    budget = _resolve_budget(args)
    PrimeField(args.q)  # the formula is only a coset count over a prime field
    predicted = predicted_coset_count(args.alpha, args.beta, args.q, budget)
    report = {"predicted": predicted}
    if args.brute:
        brute = double_cosets_brute(sum(args.alpha), args.q, args.alpha, args.beta, budget).num_classes
        report.update(brute=brute, match=brute == predicted)
    # a count may pass Python's int-to-str digit limit (3.10.7 on); problem files keep it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            print(dumps_json(report))
        else:
            print(f"predicted {predicted}")
            if args.brute:
                print(f"brute {brute}")
                print("MATCH" if report["match"] else "MISMATCH")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return EXIT_OK if report.get("match", True) else EXIT_DIFFERENT


def cmd_selfcheck(args) -> int:
    budget = _resolve_budget(args)
    ok = run_selfcheck(qs=args.q, max_n=args.max_n, budget=budget)
    print("all checks passed" if ok else "some checks FAILED")
    return EXIT_OK if ok else EXIT_DIFFERENT


def _add_format(parser):
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="text",
        help="output as one JSON document or as human-readable text",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hinge",
        description="Relation-grid invariants of matrices over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="full invariant of a problem file")
    p.add_argument("file", help="JSON problem file")
    _add_format(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("equivalent", help="decide whether two problems share a coset")
    p.add_argument("file_a", help="first JSON problem file")
    p.add_argument("file_b", help="second JSON problem file")
    _add_format(p)
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("canonical", help="0-1 matrix of the dimension table of a problem")
    p.add_argument("file", help="JSON problem file")
    _add_format(p)
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("standard", help="standard matrix and grid of a dimension table")
    p.add_argument(
        "--dims",
        type=_csv_rows,
        required=True,
        help="table rows as comma-separated ints, rows joined by ';'",
    )
    p.add_argument("--alpha", type=_csv_ints, required=True, help="column composition")
    p.add_argument("--beta", type=_csv_ints, required=True, help="row composition")
    p.add_argument("-q", type=int, required=True, help="field modulus (prime)")
    _add_format(p)
    p.set_defaults(func=cmd_standard)

    p = sub.add_parser("count", help="number of double cosets for given margins")
    p.add_argument("--alpha", type=_csv_ints, required=True, help="column composition")
    p.add_argument("--beta", type=_csv_ints, required=True, help="row composition")
    p.add_argument("-q", type=int, required=True, help="field modulus (prime)")
    p.add_argument("--brute", action="store_true", help="also count exhaustively and compare")
    p.add_argument("--budget", type=int, help="override both enumeration size caps")
    _add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("selfcheck", help="run the verification suites")
    p.add_argument(
        "-q",
        type=_csv_ints,
        default=[2, 3],
        help="comma-separated field moduli (default 2,3)",
    )
    p.add_argument(
        "--max-n", type=_positive_int, default=4, help="largest matrix size to test (at least 1)"
    )
    p.add_argument("--budget", type=int, help="override both enumeration size caps")
    p.set_defaults(func=cmd_selfcheck)

    return parser


_EXIT_CODES = (
    (HeaderMismatchError, EXIT_HEADER),
    (ProblemFormatError, EXIT_FORMAT),
    (MarginError, EXIT_MARGIN),
    (SingularMatrixError, EXIT_SINGULAR),
    (BudgetError, EXIT_BUDGET),
    (OSError, EXIT_FORMAT),
    (ValueError, EXIT_FORMAT),
)


def _join_dims_value(argv: list) -> list:
    """argv with "--dims" and a next token of "-" and a digit joined as
    "--dims=value": argparse reads a table such as "-1,2;2,-1" as an option
    and exits 2, where the joined spelling reaches the margin check."""
    out = []
    for tok in argv:
        if out and out[-1] == "--dims" and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_dims_value(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (BudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for kind, code in _EXIT_CODES:
            if isinstance(exc, kind):
                return code
        raise AssertionError("unreachable")
    except InvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
