"""Exact computations for finite-dimensional nilpotent Lie algebras
over the rationals: Schur multipliers by the Hopf formula, nonabelian
exterior squares, exterior centers and capability, dimension bounds
and their attainment, a built-in catalog of small algebras, and a
textual presentation format.

Arithmetic is exact: integers inside, ``Fraction`` at the API edges;
there is no floating point anywhere.
"""

from .bounds import (
    GammaImages,
    SweepRow,
    TheoremReport,
    attains_e2,
    bound_e1,
    bound_e2,
    check_theorem_2_1,
    check_theorem_2_2,
    check_theorem_2_5,
    check_theorem_2_6,
    check_theorem_3_7,
    classification_sweep,
    gamma_images,
    scan_theorem_2_9,
)
from .catalog import (
    abelian,
    catalog_get,
    enumerate_catalog,
    heisenberg,
    verify_catalog,
)
from .dsl import format_presentation, parse_presentation
from .errors import (
    DslError,
    DslSyntaxError,
    DuplicateInconsistentBracket,
    InvariantMismatch,
    JacobiViolation,
    MissingParameter,
    NotAnIdeal,
    NotCentral,
    NotNilpotent,
    NotOneDimensional,
    ResourceCapExceeded,
    SchurlabError,
    SingularMatrix,
    UnknownGenerator,
    UnknownName,
)
from .hall import (
    FreeNilpotentAlgebra,
    HallWord,
    free_nilpotent_algebra,
    hall_basis,
    witt_dim,
)
from .liealg import LieAlgebra, Quotient, SeriesReport, direct_sum
from .linalg import SpanBuilder, Subspace, kernel_basis
from .multiplier import (
    GaneaReport,
    MultiplierReport,
    Presentation,
    exterior_center,
    exterior_square_dim,
    ganea_dimension_check,
    is_capable,
    multiplier_report,
    present_minimal,
    schur_multiplier,
    schur_multiplier_dim,
)

__version__ = "0.1.0"

__all__ = [
    "DslError",
    "DslSyntaxError",
    "DuplicateInconsistentBracket",
    "FreeNilpotentAlgebra",
    "GammaImages",
    "GaneaReport",
    "HallWord",
    "InvariantMismatch",
    "JacobiViolation",
    "LieAlgebra",
    "MissingParameter",
    "MultiplierReport",
    "NotAnIdeal",
    "NotCentral",
    "NotNilpotent",
    "NotOneDimensional",
    "Presentation",
    "Quotient",
    "ResourceCapExceeded",
    "SchurlabError",
    "SeriesReport",
    "SingularMatrix",
    "SpanBuilder",
    "Subspace",
    "SweepRow",
    "TheoremReport",
    "UnknownGenerator",
    "UnknownName",
    "abelian",
    "attains_e2",
    "bound_e1",
    "bound_e2",
    "catalog_get",
    "check_theorem_2_1",
    "check_theorem_2_2",
    "check_theorem_2_5",
    "check_theorem_2_6",
    "check_theorem_3_7",
    "classification_sweep",
    "direct_sum",
    "enumerate_catalog",
    "exterior_center",
    "exterior_square_dim",
    "format_presentation",
    "free_nilpotent_algebra",
    "gamma_images",
    "ganea_dimension_check",
    "hall_basis",
    "heisenberg",
    "is_capable",
    "kernel_basis",
    "multiplier_report",
    "parse_presentation",
    "present_minimal",
    "scan_theorem_2_9",
    "schur_multiplier",
    "schur_multiplier_dim",
    "verify_catalog",
    "witt_dim",
]
