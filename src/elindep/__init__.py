"""Symbolic-numeric toolkit for linear independence of E-function values.

The pipeline: build an E-function from its differential equation (or a
builtin/hypergeometric constructor), transform the annihilator to the
power-series side, read off a finite set that contains the transformed
function's singularities, and check the point conditions that certify
{1, f_1(a_1), ..., f_n(a_n)} linearly independent over the algebraic
numbers.  A lattice-based relation search cross-checks certificates
numerically.
"""

from .algebraic import (
    DEFAULT_PRECISION,
    AlgebraicNumber,
    Precision,
    alg_div,
    alg_equals,
    alg_is_zero,
    alg_nth_root,
    alg_pow,
    is_root_of,
    isolate_roots,
)
from .balls import Ball
from .criterion import (
    CAVEAT,
    CERTIFIED,
    INCONCLUSIVE,
    Certificate,
    Hypothesis,
    certify_hypergeometric,
    certify_main,
    certify_multi,
    certify_si_integrals,
    certify_single,
)
from .diffop import (
    DiffOperator,
    InhomogeneousResult,
    Recurrence,
    op_apply,
    op_compose,
    op_from_json,
    op_from_text,
    op_to_json,
    op_to_text,
    psi_transform,
    psi_transform_with_remainder,
    recurrence_from_ode,
)
from .efunction import (
    EFunction,
    GrowthReport,
    HypergeometricParams,
    ef_bessel_j0,
    ef_exp,
    ef_hypergeometric,
    ef_lagrange_combo,
    ef_mul_poly,
    ef_scale,
    ef_sin_integral,
    ef_sum,
    growth_check,
    hypergeometric_annihilator,
)
from .errors import (
    ElindepError,
    InputError,
    InsufficientTruncationError,
    InternalCheckError,
    PrecisionExceededError,
    UnsupportedOperationError,
)
from .numeric import (
    RelationReport,
    eval_efunction,
    eval_hypergeometric_value,
    falsify,
    find_integer_relation,
)
from .polynomials import Polynomial, poly_gcd, ratio_set_poly, resultant, squarefree_part
from .singularities import (
    RootSet,
    hypergeometric_singularities,
    ratio_condition,
    rootsets_disjoint,
    singularity_superset,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber",
    "Ball",
    "CAVEAT",
    "CERTIFIED",
    "Certificate",
    "DEFAULT_PRECISION",
    "DiffOperator",
    "EFunction",
    "ElindepError",
    "GrowthReport",
    "Hypothesis",
    "HypergeometricParams",
    "INCONCLUSIVE",
    "InhomogeneousResult",
    "InputError",
    "InsufficientTruncationError",
    "InternalCheckError",
    "Polynomial",
    "Precision",
    "PrecisionExceededError",
    "Recurrence",
    "RelationReport",
    "RootSet",
    "UnsupportedOperationError",
    "alg_div",
    "alg_equals",
    "alg_is_zero",
    "alg_nth_root",
    "alg_pow",
    "certify_hypergeometric",
    "certify_main",
    "certify_multi",
    "certify_si_integrals",
    "certify_single",
    "ef_bessel_j0",
    "ef_exp",
    "ef_hypergeometric",
    "ef_lagrange_combo",
    "ef_mul_poly",
    "ef_scale",
    "ef_sin_integral",
    "ef_sum",
    "eval_efunction",
    "eval_hypergeometric_value",
    "falsify",
    "find_integer_relation",
    "growth_check",
    "hypergeometric_annihilator",
    "hypergeometric_singularities",
    "is_root_of",
    "isolate_roots",
    "op_apply",
    "op_compose",
    "op_from_json",
    "op_from_text",
    "op_to_json",
    "op_to_text",
    "poly_gcd",
    "psi_transform",
    "psi_transform_with_remainder",
    "ratio_condition",
    "ratio_set_poly",
    "recurrence_from_ode",
    "resultant",
    "rootsets_disjoint",
    "singularity_superset",
    "squarefree_part",
]
