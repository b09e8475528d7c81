"""Exact computations for finite-dimensional nilpotent Lie algebras
over the rationals: Schur multipliers by the Hopf formula, nonabelian
exterior squares, exterior centers and capability, dimension bounds
and their attainment, a built-in catalog of small algebras, and a
textual presentation format.

Arithmetic is exact: integers inside, ``Fraction`` at the API edges;
there is no floating point anywhere.

The exports are lazy (PEP 562): ``schurlab.X`` and ``from schurlab
import X`` import the submodule that defines X on first use, so
importing the package, as every ``python -m schurlab`` run does, loads
none of them.  ``__all__``, ``import *`` and ``dir()`` list every name.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "bounds": (
        "GammaImages", "SweepRow", "TheoremReport", "attains_e2",
        "check_theorem_2_1", "check_theorem_2_2", "check_theorem_2_5",
        "check_theorem_2_6", "check_theorem_3_7", "classification_sweep",
        "gamma_images", "run_checks", "scan_theorem_2_9",
    ),
    "catalog": (
        "abelian", "catalog_get", "enumerate_catalog", "heisenberg",
        "verify_catalog",
    ),
    "dsl": ("format_presentation", "parse_presentation"),
    "errors": (
        "DslError", "DslSyntaxError", "DuplicateInconsistentBracket",
        "InvariantMismatch", "JacobiViolation", "MissingParameter",
        "NotAnIdeal", "NotCentral", "NotNilpotent", "NotOneDimensional",
        "ResourceCapExceeded", "SchurlabError", "SingularMatrix",
        "UnknownGenerator", "UnknownName",
    ),
    "hall": (
        "FreeNilpotentAlgebra", "HallWord", "free_nilpotent_algebra",
        "hall_basis", "witt_dim",
    ),
    "liealg": ("LieAlgebra", "Quotient", "SeriesReport", "direct_sum"),
    "linalg": ("SpanBuilder", "Subspace", "kernel_basis"),
    "multiplier": (
        "GaneaReport", "MultiplierReport", "Presentation", "bound_e1",
        "bound_e2", "exterior_center", "exterior_square_dim",
        "ganea_dimension_check", "is_capable", "multiplier_report",
        "present_minimal", "schur_multiplier", "schur_multiplier_dim",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
