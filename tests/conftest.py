from array import array
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

import pytest

from fusionwitt import cli, corpus
from fusionwitt.arith import factorize
from fusionwitt.errors import ValidationError
from fusionwitt.fusion_ring import FusionRing, validate_ring
from fusionwitt.metric_group import metric_group
from fusionwitt.witt import isotropic_elements, reduce_once


def load_ring(name):
    return cli.parse_ring_file(corpus.path(name))


def load_metric(name):
    orders, diag, cross = cli.parse_metric_file(corpus.path(name))
    return metric_group(orders, diag, cross)


def make_ring(labels, dual, coeff) -> FusionRing:
    """Build and validate; raises ValidationError on any broken axiom."""
    ring = FusionRing(
        labels=tuple(labels),
        dual=tuple(dual),
        coeff=tuple(tuple(tuple(row) for row in plane) for plane in coeff),
    )
    violations = validate_ring(ring)
    if violations:
        raise ValidationError(violations)
    return ring


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
