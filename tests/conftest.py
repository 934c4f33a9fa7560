from array import array
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

import pytest

from fusionwitt import cli, corpus
from fusionwitt.arith import factorize
from fusionwitt.errors import ConsistencyError, ValidationError, Violation
from fusionwitt.fusion_ring import FusionRing, validate_ring
from fusionwitt.metric_group import MetricGroup, _metric_from_generators, metric_group
from fusionwitt.witt import isotropic_elements, metric_iso, reduce_once


def load_ring(name):
    return cli.parse_ring_file(corpus.path(name))


def load_metric(name):
    orders, diag, cross = cli.parse_metric_file(corpus.path(name))
    return metric_group(orders, diag, cross)


def make_ring(labels, dual, coeff) -> FusionRing:
    """Build and validate; raises ValidationError on any broken axiom."""
    ring = as_ring(labels, dual, coeff)
    violations = validate_ring(ring)
    if violations:
        raise ValidationError(violations)
    return ring


def as_ring(labels, dual, coeff) -> FusionRing:
    """Build without validating."""
    return FusionRing(
        labels=tuple(labels),
        dual=tuple(dual),
        coeff=tuple(tuple(tuple(row) for row in plane) for plane in coeff),
    )


def mutate(ring: FusionRing, i: int, j: int, k: int, value: int) -> FusionRing:
    """ring with N[i][j][k] set to value, unvalidated."""
    coeff = [[list(row) for row in plane] for plane in ring.coeff]
    coeff[i][j][k] = value
    return as_ring(ring.labels, ring.dual, coeff)


def permuted(ring: FusionRing, order) -> FusionRing:
    """ring with basis element t the old element order[t]; order[0] = 0."""
    new = {old: t for t, old in enumerate(order)}
    return as_ring(
        [ring.labels[i] for i in order],
        [new[ring.dual[i]] for i in order],
        [[[ring.coeff[i][j][k] for k in order] for j in order] for i in order],
    )


def pointed_ring(orders: tuple[int, ...]) -> FusionRing:
    """Group ring of the abelian group with the given cyclic orders.

    Basis elements are the group elements, every dimension is 1.
    """
    elements = list(product(*(range(d) for d in orders))) or [()]
    index = {e: i for i, e in enumerate(elements)}
    rank = len(elements)
    add = lambda x, y: tuple((a + b) % d for a, b, d in zip(x, y, orders))
    neg = lambda x: tuple((-a) % d for a, d in zip(x, orders))
    coeff = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for x in elements:
        for y in elements:
            coeff[index[x]][index[y]][index[add(x, y)]] = 1
    labels = ["1" if not any(e) else "g" + "".join(str(a) for a in e) for e in elements]
    return make_ring(labels, [index[neg(e)] for e in elements], coeff)


def tensor_ring(a: FusionRing, b: FusionRing) -> FusionRing:
    """The tensor product ring, unvalidated: basis pairs (i, j) at index
    i * b.rank + j, labels joined by a dot, N[(i,j)][(k,l)][(m,n)] =
    N_a[i][k][m] N_b[j][l][n]."""
    pairs = list(product(range(a.rank), range(b.rank)))
    return FusionRing(
        labels=tuple(f"{a.labels[i]}.{b.labels[j]}" for i, j in pairs),
        dual=tuple(a.dual[i] * b.rank + b.dual[j] for i, j in pairs),
        coeff=tuple(
            tuple(tuple(a.coeff[i][k][m] * b.coeff[j][l][n] for m, n in pairs) for k, l in pairs)
            for i, j in pairs
        ),
    )


def validate_ring_oracle(ring: FusionRing) -> list[Violation]:
    """Every broken axiom of ring, in the order fusion_ring.validate_ring
    reports them, reading each coefficient through a call: the check as it
    stood when FusionRing had a coefficient method n(i, j, k)."""
    out: list[Violation] = []
    r = ring.rank
    if r < 1:
        return [Violation("shape", (), "rank must be at least 1")]
    if len(ring.dual) != r:
        return [Violation("shape", (), f"dual has length {len(ring.dual)}, expected {r}")]
    if sorted(ring.dual) != list(range(r)):
        return [Violation("duality", (), "dual is not a permutation of the basis")]
    if len(ring.coeff) != r or any(
        len(plane) != r or any(len(row) != r for row in plane) for plane in ring.coeff
    ):
        return [Violation("shape", (), f"coefficient table is not {r}x{r}x{r}")]
    for i, j, k in product(range(r), repeat=3):
        v = ring.coeff[i][j][k]
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            out.append(Violation("integrality", (i, j, k), f"coefficient {v!r} is not a nonnegative integer"))
    if out:
        return out

    def n(i, j, k):
        return ring.coeff[i][j][k]

    dual = ring.dual
    for i in range(r):
        if dual[dual[i]] != i:
            out.append(Violation("duality", (i,), "dual is not an involution"))
    if dual[0] != 0:
        out.append(Violation("duality", (0,), "unit must be self-dual"))
    for i, j in product(range(r), repeat=2):
        if n(0, i, j) != int(i == j):
            out.append(Violation("unit", (0, i, j), f"N[0][{i}][{j}] = {n(0, i, j)}, expected {int(i == j)}"))
        if n(i, 0, j) != int(i == j):
            out.append(Violation("unit", (i, 0, j), f"N[{i}][0][{j}] = {n(i, 0, j)}, expected {int(i == j)}"))
        want = int(j == dual[i])
        if n(i, j, 0) != want:
            out.append(Violation("rigidity", (i, j), f"N[{i}][{j}][0] = {n(i, j, 0)}, expected {want}"))
    for i, j, k in product(range(r), repeat=3):
        if n(i, j, k) != n(j, i, k):
            out.append(Violation("commutativity", (i, j, k), f"N[{i}][{j}][{k}] != N[{j}][{i}][{k}]"))
        if n(i, j, k) != n(dual[i], k, j):
            out.append(Violation("frobenius", (i, j, k), f"N[{i}][{j}][{k}] != N[{dual[i]}][{k}][{j}]"))
        if n(i, j, k) != n(k, dual[j], i):
            out.append(Violation("frobenius", (i, j, k), f"N[{i}][{j}][{k}] != N[{k}][{dual[j]}][{i}]"))
    for i, j, k, l in product(range(r), repeat=4):
        left = sum(n(i, j, m) * n(m, k, l) for m in range(r))
        right = sum(n(j, k, m) * n(i, m, l) for m in range(r))
        if left != right:
            out.append(Violation("associativity", (i, j, k, l), f"(X{i} X{j}) X{k} vs X{i} (X{j} X{k}) differ at X{l}"))
    return out


def direct_sum_by_rebase(a: MetricGroup, b: MetricGroup) -> MetricGroup:
    """The orthogonal sum of a and b as metric_group.direct_sum built it
    for every pair before a same-prime sum was a permutation: the block
    group, orders of a then of b and no cross terms between the blocks,
    rebased through the Smith normal form of its diagonal relations.  The
    summands are not recorded."""
    orders = a.orders + b.orders
    k, ka = len(orders), len(a.orders)
    L = lcm(a.level, b.level)
    sa, sb = L // a.level, L // b.level
    gram = [[sa * c for c in row] + [0] * (k - ka) for row in a.gram]
    gram += [[0] * ka + [sb * c for c in row] for row in b.gram]
    ambient = MetricGroup(orders, L, tuple(map(tuple, gram)), a.nondegenerate and b.nondegenerate)
    gens = [tuple(int(i == t) for i in range(k)) for t in range(k)]
    relations = [[d * x for x in h] for d, h in zip(orders, gens)]
    return _metric_from_generators(ambient, gens, relations, a.size * b.size)


def iso_eq(c1, c2) -> bool:
    """Equality of pointed Witt classes by metric_iso on their anisotropic
    representatives, prime by prime: the isomorphism search that class_eq
    ran before it compared class keys, kept as the tests' oracle."""
    return c1.primes == c2.primes and all(
        metric_iso(r1, r2) is not None for (_, r1), (_, r2) in zip(c1.parts, c2.parts))


def group_add(orders, x, y) -> tuple[int, ...]:
    """x + y in Z_d1 x ... x Z_dk."""
    return tuple((a + b) % d for a, b, d in zip(x, y, orders))


def element_order(orders, x) -> int:
    """The order of x in Z_d1 x ... x Z_dk."""
    return lcm(*(d // gcd(d, a) for a, d in zip(x, orders)))


def bilinear(mg, x, y) -> Fraction:
    """b(x, y) = q(x + y) - q(x) - q(y) mod 1, by bilinearity: sum y_j b(x, e_j)."""
    mg._require_element(x)
    mg._require_element(y)
    return Fraction(sum(map(mul, mg.pairing_row(x), y)) % mg.level, mg.level)


def is_square_free(n: int) -> bool:
    """True when no prime square divides n."""
    return all(e == 1 for e in factorize(n).values())


def recompose(f) -> int:
    """p^a q^b c of a classifier.Factorization, absent primes left out."""
    value = f.c
    if f.p is not None:
        value *= f.p**f.a
    if f.q is not None:
        value *= f.q**f.b
    return value


def check_factorization(f) -> None:
    """Raise AssertionError unless f is a valid witness for f.n: it
    recomposes to n, its cofactor is square-free and coprime to its
    primes, and the primes ascend."""
    if recompose(f) != f.n:
        raise AssertionError(f"factorization does not recompose to {f.n}")
    if not is_square_free(f.c):
        raise AssertionError(f"cofactor {f.c} is not square-free")
    for prime in (f.p, f.q):
        if prime is not None and f.c % prime == 0:
            raise AssertionError(f"cofactor {f.c} shares the prime {prime}")
    if f.q is not None and (f.p is None or f.p >= f.q):
        raise AssertionError("primes out of order")


def random_reduction(mg, rng):
    """Anisotropic reduction of mg, each step by rng.choice of the full
    list of isotropic elements."""
    while True:
        candidates = list(isotropic_elements(mg))
        if not candidates:
            return mg
        mg = reduce_once(mg, rng.choice(candidates))


def factorize_oracle(n: int) -> dict[int, int]:
    """Prime factorization of 1 <= n by trial division over 2, 3 and the
    numbers 6k +- 1, primes ascending: the loop arith.factorize used
    before it divided by precomputed blocks of primes."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def smallest_factor_sieve_oracle(limit: int) -> array:
    """Array s with s[n] = smallest prime factor of n for 2 <= n < limit
    (s[0] = 0, s[1] = 1), one entry at a time: the construction
    arith.smallest_factor_sieve used before its slice assignments, which
    also store 0 for a prime."""
    s = array("i", range(limit))
    for p in range(2, isqrt(limit - 1) + 1):
        if s[p] == p:
            for m in range(p * p, limit, p):
                if s[m] == m:
                    s[m] = p
    return s


def bareiss_det_oracle(matrix: list[list[int]]) -> int:
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


def sqrt_is_eigenvalue_oracle(matrix: list[list[int]], s: int) -> bool:
    """Is sqrt(s) an eigenvalue of the integer matrix, for s >= 1?  The
    per-simple certificate fpdim.fp_dim_data used before its subring check.

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
    return bareiss_det_oracle(shifted) == 0


def is_prime(n: int) -> bool:
    """Primality by trial division up to isqrt(n), sharing no code with
    either factorization."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def factorizes_oracle(n: int) -> bool:
    """Independent check that some p^a q^b c factorization of n exists.

    Walks the square-free divisors c of n and asks whether n / c has at
    most two distinct prime factors.  Shares no code path with the
    witness search of classifier.factor_paqbc.
    """
    primes = list(factorize_oracle(n))
    for mask in range(1 << len(primes)):
        c = 1
        for bit, p in enumerate(primes):
            if mask >> bit & 1:
                c *= p
        if len(factorize_oracle(n // c)) <= 2:
            return True
    return False


@pytest.fixture(scope="session")
def ising_ring():
    return load_ring("ising.fr")


@pytest.fixture(scope="session")
def fibonacci_ring():
    return load_ring("fibonacci.fr")


@pytest.fixture(scope="session")
def rep_s3_ring():
    return load_ring("rep_s3.fr")


@pytest.fixture(scope="session")
def z6_ring():
    return load_ring("z6.fr")


@pytest.fixture(scope="session")
def semion():
    return load_metric("semion.mg")


@pytest.fixture(scope="session")
def semion_bar():
    return load_metric("semion_bar.mg")


@pytest.fixture(scope="session")
def hyperbolic3():
    return load_metric("hyperbolic3.mg")


@pytest.fixture(scope="session")
def z3_third():
    return load_metric("z3_third.mg")


@pytest.fixture(scope="session")
def z3_two_thirds():
    return load_metric("z3_two_thirds.mg")


def frac(s):
    return Fraction(s)
