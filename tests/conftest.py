from fractions import Fraction
from math import isqrt

import pytest

from fusionwitt import cli, corpus
from fusionwitt.metric_group import metric_group
from fusionwitt.witt import isotropic_elements, reduce_once


def load_ring(name):
    return cli.parse_ring_file(corpus.path(name))


def load_metric(name):
    orders, diag, cross = cli.parse_metric_file(corpus.path(name))
    return metric_group(orders, diag, cross)


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
