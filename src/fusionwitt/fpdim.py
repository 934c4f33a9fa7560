"""Frobenius-Perron dimensions with exact integrality certificates.

The numeric side is plain power iteration; the certified side is one
Bareiss determinant in exact integer arithmetic per simple.  The
determinant proves exactly that sqrt(s) is an eigenvalue of the simple's
left multiplication matrix L.  That it is the largest eigenvalue, so
that (dim X)**2 = s, rests on the float Perron value and its
Collatz-Wielandt bracket: a float comparison, not yet a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isqrt
from operator import mul

from .arith import prime_power_base
from .errors import CertificationError, ConsistencyError, ConvergenceError
from .fusion_ring import FusionRing

# the corpus rings, the benchmark's ring realizations and the pointed
# Z_20, Z_24 and Z_30 rings converge within 5 steps per row (29 at most,
# at rank 9); 1500 allows 300 times that, yet stops an invalid rank-2
# ring in a few milliseconds
STEPS_PER_RANK = 1500
# widest Collatz-Wielandt bracket, relative to max(1, dim), that
# perron_root accepts: on every left matrix of the corpus rings, the
# benchmark's ring realizations and the pointed Z_20, Z_24, Z_30 and
# Z_2 x Z_3 x Z_5 rings the widest is 1.7e-4 at tolerance 1e-6 and
# 2.0e-7 at 1e-12, so this has 58 times that margin
BRACKET_WIDTH = 1e-2


def collatz_wielandt(matrix: list[list[int]], v: list[float], width: float) -> tuple[float, float]:
    """Bounds low <= rho <= high on the spectral radius rho of a
    nonnegative matrix, from a positive vector v (Collatz-Wielandt).

    high is max_j (M v)_j / v_j.  For any index set S, v restricted to S
    gives rho >= min over j in S of (M v_S)_j / v_j.  S starts as every
    index and drops its lowest ratio while high - low exceeds width, so
    an iterate with a small part on a weaker diagonal block of a
    reducible matrix still gets a low end near rho.
    """
    u = list(v)
    ratios = {j: sum(map(mul, row, u)) / u[j] for j, row in enumerate(matrix) if u[j]}
    low = min(ratios.values())
    # the upper end needs every entry positive, which underflow can break
    high = max(ratios.values()) if len(ratios) == len(u) else inf
    while high - low > width and len(ratios) > 1:
        u[min(ratios, key=ratios.get)] = 0.0
        ratios = {j: sum(map(mul, matrix[j], u)) / u[j] for j in ratios if u[j]}
        low = max(low, min(ratios.values()))
    return low, high


def perron_root(matrix: list[list[int]], tolerance: float) -> float:
    """Largest eigenvalue of a nonnegative integer matrix.

    Power iteration runs on M + I: the shift makes every diagonal block
    aperiodic, so the Rayleigh quotients settle instead of oscillating,
    and the all-ones start vector overlaps every block.  Stops when two
    successive Rayleigh quotients differ by less than tolerance / 10,
    within STEPS_PER_RANK steps per row.

    The iterate v stays positive under the shift, so it brackets the
    spectral radius (collatz_wielandt).  A quotient that settled away
    from the spectral radius, as on a nilpotent Jordan block, leaves
    that bracket wider than BRACKET_WIDTH relative to max(1, root), and
    raises.
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
            root = rayleigh - 1.0
            width = BRACKET_WIDTH * max(1.0, root)
            low, high = collatz_wielandt(shifted, v, width)
            if high - low > width:
                raise ConvergenceError(
                    f"power iteration settled at {root!r}, but the spectral radius is only known"
                    f" to lie in [{low - 1.0!r}, {high - 1.0!r}]"
                )
            return root
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

    exact_square[i] = s means sqrt(s) is proved an eigenvalue of the left
    matrix of X_i, and s is the rounded square of its Perron value dims[i];
    None means no integer certificate exists at fp_dim_data's tolerance.
    total carries float error up to rank * tolerance * (2 max dim + 1).
    """

    dims: tuple[float, ...]
    exact_square: tuple[int | None, ...]
    total: float
    total_exact: int | None
    integral: bool
    weakly_integral: bool


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
