"""Frobenius-Perron dimensions with exact integrality certificates.

Power iteration estimates each dimension d_i in floats, and a simple
whose d_i**2 lies within the tolerance of an integer s_i >= 1 gets s_i
as its candidate.  One integer check on the ring's own coefficients
then proves every candidate at once (certify_squares), or raises.  A
certified square is a proof that (FPdim X_i)**2 = s_i: only dims and
total are floats.  That a simple has no candidate still rests on the
float window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import inf, isqrt
from operator import mul

from .arith import prime_power_base
from .errors import CertificationError, ConvergenceError
from .fusion_ring import FusionRing, subring_generated

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


def charpoly(matrix: list[list[int]]) -> list[int]:
    """Characteristic polynomial of an integer matrix, exact, ascending
    coefficients, monic of degree r.

    No package code calls it: the tests check sqrt_is_eigenvalue_oracle
    in tests/conftest.py against it, and it stays here because the
    benchmark's tracer looks it up by this name.  Faddeev-LeVerrier
    recurrence: every division by k is exact over the integers, which
    the remainder check enforces.
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

    exact_square[i] = s is proved: sqrt(s) is the Frobenius-Perron
    dimension of X_i.  None means dims[i]**2 is not within
    fp_dim_data's tolerance of an integer, a float verdict.  total
    carries float error up to rank * tolerance * (2 max dim + 1).
    """

    dims: tuple[float, ...]
    exact_square: tuple[int | None, ...]
    total: float
    total_exact: int | None
    integral: bool
    weakly_integral: bool


def certify_squares(ring: FusionRing, squares: dict[int, int]) -> None:
    """Prove FPdim X_i = sqrt(squares[i]) for every key i, or raise
    CertificationError naming the simples that refute it.

    Every member of the subring S that the keys generate needs a square.
    For i, j in S and t = s_i s_j, the product rule d_i d_j = sum_k
    N_ij^k d_k for d = sqrt(s), times sqrt(t), reads t = sum_k N_ij^k
    sqrt(s_k t).  Square roots of distinct squarefree integers are
    linearly independent over Q, so it holds exactly when every s_k t
    is a perfect square and the integer sum is t.  Then d is a character
    of S positive on its basis, and that character is unique: it is
    FPdim restricted to S (Etingof-Nikshych-Ostrik, On fusion
    categories, arXiv:math/0203060).
    """
    labels = ring.labels
    members = subring_generated(ring, squares)
    for k in members:
        if k not in squares:
            raise CertificationError(
                f"{labels[k]} has no integral dim^2, yet lies in the subring generated by the simples that have one"
            )
    for i, j in product(members, repeat=2):
        t = squares[i] * squares[j]
        terms = [(ring.coeff[i][j][k], squares[k] * t) for k in ring.constituents(i, j)]
        if any(isqrt(p) ** 2 != p for _, p in terms) or sum(n * isqrt(p) for n, p in terms) != t:
            raise CertificationError(
                f"candidate dims sqrt({squares[i]}) of {labels[i]} and sqrt({squares[j]}) of {labels[j]}:"
                f" their product differs from the dimension of {labels[i]} {labels[j]}"
            )


def fp_dim_data(ring: FusionRing, tolerance: float = 1e-12) -> FPDimData:
    if not 0 < tolerance <= 1e-6:
        raise ValueError(f"tolerance {tolerance} outside the supported range (0, 1e-6]")
    dims = tuple(perron_root(ring.left_matrix(i), tolerance) for i in range(ring.rank))
    candidates = {}
    for i, d in enumerate(dims):
        s = round(d * d)
        if s >= 1 and abs(d * d - s) <= max(tolerance, 4.0 * abs(d) * tolerance):
            candidates[i] = s
    certify_squares(ring, candidates)
    squares = tuple(candidates.get(i) for i in range(ring.rank))
    total_exact = sum(squares) if len(candidates) == ring.rank else None
    return FPDimData(
        dims=dims,
        exact_square=squares,
        total=sum(d * d for d in dims),
        total_exact=total_exact,
        integral=total_exact is not None and all(isqrt(s) ** 2 == s for s in squares),
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
