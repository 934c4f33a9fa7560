"""Frobenius-Perron dimensions with exact integrality certificates.

The numeric side is plain power iteration; the certified side is one
Bareiss determinant in exact integer arithmetic per simple, so that
"(dim X)**2 is the integer s" is a proof, not a float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import mul

from .arith import prime_power_base
from .errors import CertificationError, ConsistencyError, ConvergenceError
from .fusion_ring import FusionRing

# the corpus rings, the benchmark's ring realizations and the pointed
# Z_20, Z_24 and Z_30 rings converge within 5 steps per row (29 at most,
# at rank 9); 1500 allows 300 times that, yet stops an invalid rank-2
# ring in a few milliseconds
STEPS_PER_RANK = 1500


def perron_root(matrix: list[list[int]], tolerance: float) -> float:
    """Largest eigenvalue of a nonnegative integer matrix.

    Power iteration runs on M + I: the shift makes every diagonal block
    aperiodic, so the Rayleigh quotients settle instead of oscillating,
    and the all-ones start vector overlaps every block.  Stops when two
    successive Rayleigh quotients differ by less than tolerance / 10,
    within STEPS_PER_RANK steps per row.
    """
    r = len(matrix)
    budget = STEPS_PER_RANK * r
    shifted = [[matrix[i][j] + int(i == j) for j in range(r)] for i in range(r)]
    v = [1.0] * r
    last = None
    for _ in range(budget):
        w = [sum(map(mul, row, v)) for row in shifted]
        rayleigh = sum(map(mul, w, v)) / sum(map(mul, v, v))
        top = max(w)
        v = [wi / top for wi in w]
        if last is not None and abs(rayleigh - last) < tolerance / 10:
            return rayleigh - 1.0
        last = rayleigh
    raise ConvergenceError(f"power iteration did not converge in {budget} steps")


def bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix, exact, by Bareiss fraction-free
    elimination (Math. Comp. 22, 1968).

    After step k every entry left is a minor of order k + 2 of the
    row-swapped matrix, so each division by the previous pivot is exact
    over the integers, which the remainder check enforces.
    """
    a = [list(row) for row in matrix]
    r = len(a)
    sign, prev = 1, 1
    for k in range(r):
        swap = next((i for i in range(k, r) if a[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, r):
                row[j], rem = divmod(pivot * row[j] - f * top[j], prev)
                if rem:
                    raise ConsistencyError("Bareiss elimination left a nonzero remainder")
        prev = pivot
    return sign * prev


def sqrt_is_eigenvalue(matrix: list[list[int]], s: int) -> bool:
    """Is sqrt(s) an eigenvalue of the integer matrix, for s >= 1?

    Perfect square s = t**2: iff det(M - t I) = 0.  Otherwise x**2 - s
    is irreducible, so sqrt(s) and -sqrt(s) are eigenvalues together,
    and either is one iff det(M**2 - s I) = 0.
    """
    t = isqrt(s)
    if t * t == s:
        shifted = [[x - t * (i == j) for j, x in enumerate(row)] for i, row in enumerate(matrix)]
    else:
        cols = list(zip(*matrix))
        shifted = [
            [sum(map(mul, row, col)) - s * (i == j) for j, col in enumerate(cols)]
            for i, row in enumerate(matrix)
        ]
    return bareiss_det(shifted) == 0


def charpoly(matrix: list[list[int]]) -> list[int]:
    """Characteristic polynomial of an integer matrix, exact, ascending
    coefficients, monic of degree r.

    No package code calls it: it is the tests' independent oracle for
    sqrt_is_eigenvalue, kept here because the benchmark's tracer looks
    it up by this name.  Faddeev-LeVerrier recurrence: every division
    by k is exact over the integers, which the remainder check enforces.
    """
    r = len(matrix)
    coeffs = [0] * r + [1]  # fill c_{r-1} .. c_0 below
    m = [[0] * r for _ in range(r)]
    for k in range(1, r + 1):
        # m <- matrix @ (m + c_{k-1} I); at k=1 this is matrix itself
        prev_c = coeffs[r - k + 1] if k > 1 else 1
        work = [[m[i][j] + (prev_c if i == j else 0) for j in range(r)] for i in range(r)]
        m = [
            [sum(matrix[i][t] * work[t][j] for t in range(r)) for j in range(r)]
            for i in range(r)
        ]
        tr = sum(m[i][i] for i in range(r))
        if tr % k != 0:
            raise ArithmeticError("trace recurrence left a nonzero remainder")
        coeffs[r - k] = -tr // k
    return coeffs


@dataclass(frozen=True)
class FPDimData:
    """Numeric dimensions plus their exact certificates.

    exact_square[i] = s means the certified statement dim(X_i)**2 = s;
    None means no integer certificate exists at this tolerance.  total
    carries float error up to rank * tolerance * (2 max dim + 1).
    """

    dims: tuple[float, ...]
    exact_square: tuple[int | None, ...]
    total: float
    total_exact: int | None
    integral: bool
    weakly_integral: bool
    tolerance: float


def fp_dim_data(ring: FusionRing, tolerance: float = 1e-12) -> FPDimData:
    if not 0 < tolerance <= 1e-6:
        raise ValueError(f"tolerance {tolerance} outside the supported range (0, 1e-6]")
    dims: list[float] = []
    squares: list[int | None] = []
    integral = True
    for i in range(ring.rank):
        mat = ring.left_matrix(i)
        d = perron_root(mat, tolerance)
        dims.append(d)
        s = round(d * d)
        cert: int | None = None
        if s >= 1 and abs(d * d - s) <= max(tolerance, 4.0 * abs(d) * tolerance):
            if sqrt_is_eigenvalue(mat, s):
                cert = s
            elif abs(d - s**0.5) <= tolerance:
                raise CertificationError(
                    f"dim of X_{i} is numerically near sqrt({s}) but the exact root check fails"
                )
        squares.append(cert)
        t = isqrt(s) if cert is not None else 0
        if cert is None or t * t != cert:
            integral = False
    total = sum(d * d for d in dims)
    total_exact = sum(squares) if all(s is not None for s in squares) else None
    return FPDimData(
        dims=tuple(dims),
        exact_square=tuple(squares),
        total=total,
        total_exact=total_exact,
        integral=integral,
        weakly_integral=total_exact is not None,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class PrimePowerDims:
    """Outcome of the single-prime dimension test.

    pointed means every dimension is 1, where any prime works; prime is
    then None by convention.
    """

    prime: int | None
    pointed: bool


def simple_dims_prime_power(data: FPDimData) -> PrimePowerDims | None:
    """The unique prime p with every certified square a power of p.

    Requires every dimension to carry a certificate; returns None when
    the squares involve two or more primes.
    """
    if not all(s is not None for s in data.exact_square):
        raise CertificationError("prime-power test needs certificates for every dimension")
    if all(s == 1 for s in data.exact_square):
        return PrimePowerDims(prime=None, pointed=True)
    primes = set()
    for s in data.exact_square:
        if s != 1:
            p = prime_power_base(s)
            if p is None:
                return None
            primes.add(p)
    if len(primes) != 1:
        return None
    return PrimePowerDims(prime=primes.pop(), pointed=False)
