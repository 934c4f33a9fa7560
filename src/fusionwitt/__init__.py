"""Exact invariants of fusion rings, Witt classes of metric groups, and
dimension-based solvability criteria.

The three layers:

* ``fusion_ring`` / ``fpdim``: commutative fusion rings checked
  against the axioms by validate_ring, Frobenius-Perron dimensions
  proved by one integer check of the product rule on the subring the
  candidate squares generate, invertibles, universal grading,
  nilpotency.
* ``metric_group`` / ``witt``: finite abelian groups with nondegenerate
  quadratic forms, exact cyclotomic Gauss sums, anisotropic reduction,
  pointed Witt classes and the subgroups they generate, words with an
  Ising factor (twice the Ising generator is the pointed [Z4, x^2/8]).
* ``classifier``: p^a q^b c factorization criteria for categorical
  dimensions, verdicts with witnesses, and exhaustive exception scans.

Everything is exact integer or rational arithmetic except the float
Perron root estimates, which exist only to locate candidates for the
exact certificates.

Helpers that only the tests call, such as make_ring and pointed_ring,
live in tests/conftest.py.

Each layer is loaded on first use.  Importing the package registers
every layer in ``sys.modules`` through ``importlib.util.LazyLoader``,
and a layer's body runs on its first attribute access, so a CLI verb
compiles and builds only the layers it runs (``classify`` loads
``caps``, ``errors``, ``arith`` and ``classifier``).  The names in
``__all__`` are read from their layers on access (PEP 562).  Before
Python 3.12 a lazy load is not thread-safe: two threads that touch the
same unloaded layer at once may both run its body.  The package is
single-threaded.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAYERS = ("arith", "caps", "classifier", "cyclotomic", "errors", "fpdim", "fusion_ring", "metric_group", "snf", "witt")

# exported name -> its layer; make_metric is metric_group.metric_group
_EXPORTS = {
    name: layer
    for layer, names in (
        ("classifier", "DimensionVerdict Factorization ScanReport VerdictKind factor_pac factor_paqbc"
                       " scan_exceptions verdict_dimension verdict_ring"),
        ("errors", "CapExceededError CertificationError ConsistencyError ConvergenceError FusionWittError"
                   " ValidationError"),
        ("fpdim", "FPDimData fp_dim_data simple_dims_prime_power"),
        ("fusion_ring", "FusionRing adjoint_subring invertibles nilpotency stabilizer subring_generated"
                        " tensor_square_check universal_grading validate_ring"),
        ("metric_group", "GaussSum MetricGroup direct_sum gauss_sum inverse_form make_metric sylow_decompose"
                         " validate_metric"),
        ("witt", "IDENTITY_CLASS IDENTITY_WORD ISING_GENERATOR_WORD PointedWittClass WittSubgroup WittWord"
                 " anisotropic_reduction class_eq class_inverse class_multiply class_order from_ising_category"
                 " generated_subgroup metric_iso pointed_witt_class reduce_once reduce_sylow_part word_compose word_eq"
                 " word_inverse word_is_identity word_order"),
    )
    for name in names.split()
}
_RENAMED = {"make_metric": "metric_group"}

__all__ = sorted(_EXPORTS)


def _register(layer: str):
    """Put a lazily loading module for layer in sys.modules."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((layer, _register(layer)) for layer in _LAYERS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], _RENAMED.get(name, name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
