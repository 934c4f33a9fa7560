"""Sufficient conditions for solvability and weak group-theoreticity
from the global dimension alone.

The criteria are purely arithmetic: n = p^a c or n = p^a q^b c with c
square-free decides the verdict; two small bounds (1800 for either
parity, 33075 for odd n) cover dimensions without such a factorization.
The scan reproduces the exceptional dimensions exhaustively and reports
them next to the acknowledged special cases, flagging any divergence
instead of quietly extending the case analysis.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import fpdim
from .arith import FACTOR_LIMIT, factorize, factorize_with_sieve, smallest_factor_sieve


class Factorization(NamedTuple):
    """n = p^a * q^b * c with c square-free and coprime to p and q.

    p (and q) may be None, with the matching exponent 0; q present
    implies p < q.  p^a q^b c == n always holds.
    """

    n: int
    p: int | None
    a: int
    q: int | None
    b: int
    c: int

    def __str__(self) -> str:
        """'n = p^a * q^b * c', leaving out the absent primes."""
        n, p, a, q, b, c = self
        if p is None:
            return f"{n} = {c}"
        return f"{n} = {p}^{a} * {c}" if q is None else f"{n} = {p}^{a} * {q}^{b} * {c}"


def _witness(n: int, factors: dict[int, int] | None, most: int) -> Factorization | None:
    """The witness read off the primes whose square divides n, or None
    when more than most of them do: with none, p is absent and c = n;
    with one, it is p; with two, they are p < q."""
    if n < 1:
        raise ValueError(f"expected a positive dimension, got {n}")
    if factors is None:
        factors = factorize(n)
    squared = [p for p, e in factors.items() if e >= 2]
    if len(squared) > most:
        return None
    if not squared:
        return Factorization(n, None, 0, None, 0, n)
    squared.sort()
    p, a = squared[0], factors[squared[0]]
    if len(squared) == 1:
        return Factorization(n, p, a, None, 0, n // p**a)
    q, b = squared[1], factors[squared[1]]
    return Factorization(n, p, a, q, b, n // (p**a * q**b))


def factor_pac(n: int, factors: dict[int, int] | None = None) -> Factorization | None:
    """n = p^a c with c square-free, coprime to p, a maximal.

    Square-free n returns the degenerate witness (p absent, c = n).
    The usable p is the prime whose square divides n; with two or more
    such primes no witness exists.
    """
    return _witness(n, factors, 1)


def factor_paqbc(n: int, factors: dict[int, int] | None = None) -> Factorization | None:
    """n = p^a q^b c, c square-free and coprime to pq, read off the
    primes whose square divides n.

    With at most one such prime this is the factor_pac witness; with
    exactly two, they are p < q; with three or more no witness exists.
    """
    return _witness(n, factors, 2)


class VerdictKind(Enum):
    SOLVABLE_SINGLE_PRIME = "SolvableSinglePrime"
    WGT_TWO_PRIMES = "WGTTwoPrimes"
    WGT_BELOW_1800 = "WGTBelow1800"
    SOLVABLE_ODD_BELOW_33075 = "SolvableOddBelow33075"
    UNKNOWN = "Unknown"


class DimensionVerdict(NamedTuple):
    """Outcome of the sufficient conditions for one dimension or ring.

    Solvable* kinds assert solvability, WGT* kinds weak
    group-theoreticity, always under the hypothesis of a weakly integral
    nondegenerate braided category of that dimension; notes spell out
    which criterion fired and any scan findings for the bound kinds.
    """

    kind: VerdictKind
    witness: Factorization | None
    notes: str


_HYPOTHESIS = "applies to weakly integral nondegenerate braided categories"


class BoundCriterion(NamedTuple):
    """Below limit, for odd dimensions only if odd_only, a dimension with
    no factorization gets kind when it is one of the acknowledged special
    cases, the ones the established case analysis handles explicitly."""

    limit: int
    odd_only: bool
    acknowledged: tuple[int, ...]
    kind: VerdictKind


BOUND_CRITERIA = (
    BoundCriterion(1800, False, (900,), VerdictKind.WGT_BELOW_1800),
    BoundCriterion(33075, True, (11025,), VerdictKind.SOLVABLE_ODD_BELOW_33075),
)


def verdict_dimension(n: int) -> DimensionVerdict:
    """Classify a global dimension by the arithmetic criteria.

    Priority: single-prime factorization, two-prime factorization, then
    the bound criteria in table order.  A dimension below a bound with
    no factorization gets that bound's verdict only when it is one of
    the acknowledged special cases; otherwise the verdict stays Unknown
    and the notes show the divergence between the scan and the
    acknowledged list.
    """
    w = factor_paqbc(n)
    if w is not None:
        kind, primes = (VerdictKind.WGT_TWO_PRIMES, "two") if w.q else (VerdictKind.SOLVABLE_SINGLE_PRIME, "single")
        return DimensionVerdict(kind, w, f"{primes}-prime criterion: {w} with square-free cofactor; {_HYPOTHESIS}")
    bound = next((b for b in BOUND_CRITERIA if n < b.limit and (n % 2 == 1 or not b.odd_only)), None)
    if bound is None:
        return DimensionVerdict(kind=VerdictKind.UNKNOWN, witness=None, notes=f"no criterion applies to {n}")
    if n in bound.acknowledged:
        notes = (f"{'odd-' if bound.odd_only else ''}below-{bound.limit} criterion: no two-prime factorization,"
                 f" but {n} is its acknowledged special case; {_HYPOTHESIS}")
        return DimensionVerdict(kind=bound.kind, witness=None, notes=notes)
    notes = (f"divergence: {'odd ' if bound.odd_only else ''}{n} < {bound.limit} admits no two-prime factorization"
             f" and the case analysis acknowledges only {set(bound.acknowledged)}; verdict withheld")
    return DimensionVerdict(kind=VerdictKind.UNKNOWN, witness=None, notes=notes)


def verdict_ring(data: fpdim.FPDimData, prime_power: fpdim.PrimePowerDims | None) -> DimensionVerdict:
    """Classify a fusion ring, using exact certificates only; prime_power
    is fpdim.simple_dims_prime_power(data), which the caller holds.

    Without weak integrality the criteria do not apply at all.  When
    every certified square is a power of one prime the single-prime
    criterion fires directly on the dimensions; otherwise the certified
    total falls through to verdict_dimension.
    """
    if not data.weakly_integral:
        return DimensionVerdict(VerdictKind.UNKNOWN, None,
                                "total dimension is not certified integral, the criteria need a weakly integral ring")
    if prime_power is not None:
        total = data.total_exact
        witness = factor_pac(total) if total is not None and total <= FACTOR_LIMIT else None
        if prime_power.pointed:
            notes = "all dimensions are 1 (pointed), the prime-power dimension criterion holds for every prime"
        else:
            notes = f"every squared dimension is a power of {prime_power.prime} (prime-power dimension criterion)"
        return DimensionVerdict(VerdictKind.SOLVABLE_SINGLE_PRIME, witness, f"{notes}; {_HYPOTHESIS}")
    assert data.total_exact is not None
    return verdict_dimension(data.total_exact)


class ScanReport(NamedTuple):
    """Exceptional dimensions below a limit: no p^a q^b c factorization.

    acknowledged restricts to the comparable range; divergent lists the
    exceptions the acknowledged case analysis does not cover."""

    limit: int
    odd_only: bool
    exceptions: tuple[int, ...]
    acknowledged: tuple[int, ...]
    divergent: tuple[int, ...]


def scan_exceptions(limit: int, odd_only: bool = False) -> ScanReport:
    """Exhaustive scan of n < limit for missing factorizations.

    Each n is factorized from one smallest_factor_sieve(limit), built
    once per scan.  Every candidate with three or more squared primes
    goes through factor_paqbc itself, so the list is exactly the set
    where it finds no witness.
    """
    if not 2 <= limit <= FACTOR_LIMIT:
        raise ValueError(f"scan limit must lie in [2, {FACTOR_LIMIT}]")
    sieve = smallest_factor_sieve(limit)
    step = 2 if odd_only else 1
    exceptions = []
    for n in range(1, limit, step):
        factors = factorize_with_sieve(n, sieve)
        # factor_paqbc finds a witness iff at most two primes appear
        # squared; count them here so the common case builds no witness
        if sum(1 for e in factors.values() if e >= 2) <= 2:
            continue
        if factor_paqbc(n, factors) is None:
            exceptions.append(n)
    bound = next(b for b in BOUND_CRITERIA if b.odd_only == odd_only)
    acknowledged = tuple(k for k in bound.acknowledged if k < limit)
    divergent = tuple(n for n in exceptions if n < bound.limit and n not in bound.acknowledged)
    return ScanReport(
        limit=limit,
        odd_only=odd_only,
        exceptions=tuple(exceptions),
        acknowledged=acknowledged,
        divergent=divergent,
    )
