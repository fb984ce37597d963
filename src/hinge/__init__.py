"""Exact linear algebra over prime fields and the relation-grid invariant.

The headline objects: chi attaches to an invertible matrix a grid of linear
relations that is a complete invariant of its double coset under block
strictly triangular groups; lpu and canonical_01 produce matrix normal forms;
the enumeration module cross-checks everything exhaustively on small fields.
"""

from .field import PrimeField
from .linalg import Matrix, ShapeError, SingularMatrixError
from .relations import InvariantViolation, LinearRelation
from .bihinge import (
    AxiomError,
    AxiomReport,
    BiHinge,
    Composition,
    DimensionMatrix,
    MarginError,
    check_axioms,
    chi,
    chi_cell,
    dimension_matrix,
    equivalent,
    hinge_act,
    normalize,
    standard_bihinge,
    standard_matrix,
)
from .lpu import (
    LpuDecomposition,
    canonical_01,
    lpu,
    rank_profile_permutation,
)
from .enumeration import (
    DEFAULT_BUDGET,
    BudgetError,
    CosetPartition,
    EnumerationBudget,
    contingency_tables,
    double_cosets_brute,
    enum_gl,
    enum_subspaces,
    gl_order,
    predicted_coset_count,
    stab_order_formula,
    stabilizer_brute,
)
from .serialize import (
    HeaderMismatchError,
    Problem,
    ProblemFormatError,
    dumps_json,
    invariant_report,
    load_problem,
    problem_from_dict,
)
from .selfcheck import run_selfcheck

__version__ = "0.1.0"

__all__ = [
    "AxiomError",
    "AxiomReport",
    "BiHinge",
    "BudgetError",
    "Composition",
    "CosetPartition",
    "DEFAULT_BUDGET",
    "DimensionMatrix",
    "EnumerationBudget",
    "HeaderMismatchError",
    "InvariantViolation",
    "LinearRelation",
    "LpuDecomposition",
    "MarginError",
    "Matrix",
    "PrimeField",
    "Problem",
    "ProblemFormatError",
    "ShapeError",
    "SingularMatrixError",
    "canonical_01",
    "check_axioms",
    "chi",
    "chi_cell",
    "contingency_tables",
    "dimension_matrix",
    "double_cosets_brute",
    "dumps_json",
    "enum_gl",
    "enum_subspaces",
    "equivalent",
    "gl_order",
    "hinge_act",
    "invariant_report",
    "load_problem",
    "lpu",
    "normalize",
    "predicted_coset_count",
    "problem_from_dict",
    "rank_profile_permutation",
    "run_selfcheck",
    "stab_order_formula",
    "stabilizer_brute",
    "standard_bihinge",
    "standard_matrix",
]
