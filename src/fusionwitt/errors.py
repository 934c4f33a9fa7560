"""Exception types shared across the package, and the Violation a
ValidationError carries."""

from typing import NamedTuple


class Violation(NamedTuple):
    """One broken axiom, with enough indices to locate it."""

    kind: str
    where: tuple
    detail: str

    def __str__(self) -> str:
        spot = ",".join(str(w) for w in self.where)
        return f"{self.kind}[{spot}]: {self.detail}"


class FusionWittError(Exception):
    """Base class for all package-specific failures."""


class ValidationError(FusionWittError):
    """Input data violates a structural axiom; carries the full report."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class ConsistencyError(FusionWittError):
    """An internal cross-check failed on data that passed validation."""


class ConvergenceError(FusionWittError):
    """Eigenvalue iteration did not settle within the iteration budget."""


class CertificationError(FusionWittError):
    """A dimension certificate fails or is missing.  Either the squared
    dimensions that the float estimates suggest fail the exact check (a
    simple in the subring they generate has none, or two of them break
    a product rule), or a test that needs every dimension certified
    meets one without."""


class CapExceededError(FusionWittError):
    """An enumeration or closure exceeded its configured cap."""
