"""Exact invariants of fusion rings, Witt classes of metric groups, and
dimension-based solvability criteria.

The three layers:

* ``fusion_ring`` / ``fpdim``: commutative fusion rings with verified
  axioms, Frobenius-Perron dimensions certified by an integer Bareiss
  determinant per simple, invertibles, universal grading, nilpotency.
* ``metric_group`` / ``witt``: finite abelian groups with nondegenerate
  quadratic forms, exact cyclotomic Gauss sums, anisotropic reduction,
  pointed Witt classes and the subgroups they generate, words with an
  Ising factor (twice the Ising generator is the pointed [Z4, x^2/8]).
* ``classifier``: p^a q^b c factorization criteria for categorical
  dimensions, verdicts with witnesses, and exhaustive exception scans.

Everything is exact integer or rational arithmetic except the float
Perron root estimates, which exist only to locate candidates for the
exact certificates.
"""

from .classifier import (
    DimensionVerdict,
    Factorization,
    ScanReport,
    VerdictKind,
    factor_pac,
    factor_paqbc,
    scan_exceptions,
    verdict_dimension,
    verdict_ring,
)
from .errors import (
    CapExceededError,
    CertificationError,
    ConsistencyError,
    ConvergenceError,
    FusionWittError,
    ValidationError,
)
from .fpdim import FPDimData, fp_dim_data, simple_dims_prime_power
from .fusion_ring import (
    FusionRing,
    adjoint_subring,
    invertibles,
    make_ring,
    nilpotency,
    pointed_ring,
    stabilizer,
    subring_generated,
    tensor_square_check,
    universal_grading,
    validate_ring,
)
from .metric_group import (
    GaussSum,
    MetricGroup,
    direct_sum,
    gauss_sum,
    inverse_form,
    sylow_decompose,
    validate_metric,
)
from .metric_group import metric_group as make_metric
from .witt import (
    IDENTITY_CLASS,
    IDENTITY_WORD,
    ISING_GENERATOR_WORD,
    PointedWittClass,
    WittSubgroup,
    WittWord,
    anisotropic_reduction,
    class_eq,
    class_inverse,
    class_multiply,
    class_order,
    from_ising_category,
    generated_subgroup,
    metric_iso,
    pointed_witt_class,
    reduce_once,
    word_compose,
    word_eq,
    word_inverse,
    word_is_identity,
    word_order,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CertificationError",
    "ConsistencyError",
    "ConvergenceError",
    "DimensionVerdict",
    "FPDimData",
    "Factorization",
    "FusionRing",
    "FusionWittError",
    "GaussSum",
    "IDENTITY_CLASS",
    "IDENTITY_WORD",
    "ISING_GENERATOR_WORD",
    "MetricGroup",
    "PointedWittClass",
    "ScanReport",
    "ValidationError",
    "VerdictKind",
    "WittSubgroup",
    "WittWord",
    "adjoint_subring",
    "anisotropic_reduction",
    "class_eq",
    "class_inverse",
    "class_multiply",
    "class_order",
    "direct_sum",
    "factor_pac",
    "factor_paqbc",
    "fp_dim_data",
    "from_ising_category",
    "gauss_sum",
    "generated_subgroup",
    "inverse_form",
    "invertibles",
    "make_metric",
    "make_ring",
    "metric_iso",
    "nilpotency",
    "pointed_ring",
    "pointed_witt_class",
    "reduce_once",
    "scan_exceptions",
    "simple_dims_prime_power",
    "stabilizer",
    "subring_generated",
    "sylow_decompose",
    "tensor_square_check",
    "universal_grading",
    "validate_metric",
    "validate_ring",
    "verdict_dimension",
    "verdict_ring",
    "word_compose",
    "word_eq",
    "word_inverse",
    "word_is_identity",
    "word_order",
]
