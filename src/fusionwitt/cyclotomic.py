"""Exact arithmetic with sums of roots of unity.

Elements of Z[zeta_n] are stored as integer coefficient vectors reduced
modulo the n-th cyclotomic polynomial, so equality of two expressions in
n-th roots of unity is equality of tuples.  An element is built from
exponent counts and multiplied; that is all a Gauss sum needs.  No
floating point enters any equality decision; numeric() exists only for
sign disambiguation, with errors far below the gaps it has to resolve.

Phi_n is sparse at the levels a metric group meets (n = lcm(8, L)): with
r the product of the primes of n, Phi_n(x) = Phi_r(x**(n/r)), so Phi_n
has no more nonzero coefficients than Phi_r.  Reduction subtracts only
those nonzero coefficients, at a cost of len x taps rather than
len x phi(n).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cache
from math import prod

from .arith import divisors, factorize


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    For n with a square factor, Phi_n(x) = Phi_r(x**(n/r)) where r is the
    radical of n (the product of its primes).  For squarefree n, exact
    division: x**n - 1 = prod of Phi_d over d | n, each d squarefree too.

    >>> cyclotomic_polynomial(8)
    (1, 0, 0, 0, 1)
    """
    r = prod(factorize(n))
    if r < n:
        step, inner = n // r, cyclotomic_polynomial(r)
        poly = [0] * ((len(inner) - 1) * step + 1)
        poly[::step] = inner
        return tuple(poly)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            poly = _divide_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + dd]
        out[i] = q
        if q:
            for k in range(dd + 1):
                num[i + k] -= q * den[k]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@cache
def _taps(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """deg(Phi_n) and the nonzero lower coefficients of Phi_n as
    (k - deg, c) pairs: x**deg = -sum c x**k modulo Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    return deg, tuple((k - deg, c) for k, c in enumerate(phi[:deg]) if c)


def _reduce(coeffs: list[int], n: int) -> tuple[int, ...]:
    """Reduce an exponent-coefficient vector modulo Phi_n."""
    deg, taps = _taps(n)
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        q = work[i]
        if q:
            for offset, c in taps:
                work[i + offset] -= q * c
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_order], canonical coefficients of length
    deg(Phi_order)."""

    order: int
    coeffs: tuple[int, ...]

    @staticmethod
    def from_exponent_counts(order: int, counts: dict[int, int]) -> CycInt:
        """sum over exponents e of counts[e] * zeta_order**e."""
        vec = [0] * order
        for e, c in counts.items():
            vec[e % order] += c
        return CycInt(order, _reduce(vec, order))

    def _require_same(self, other: CycInt) -> None:
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders")

    def __mul__(self, other: CycInt) -> CycInt:
        self._require_same(other)
        conv = [0] * self.order
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[(i + j) % self.order] += a * b
        return CycInt(self.order, _reduce(conv, self.order))

    def numeric(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(a * z**i for i, a in enumerate(self.coeffs) if a)
