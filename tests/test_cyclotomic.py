import cmath
from functools import cache
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from fusionwitt import cyclotomic
from fusionwitt.arith import divisors, factorize
from fusionwitt.cyclotomic import CycInt, _reduce, cyclotomic_polynomial


@cache
def phi_division_oracle(n: int) -> tuple[int, ...]:
    """Phi_n by exact division for every n: x**n - 1 over Phi_d for all
    proper divisors d of n, square factors or not."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            den = phi_division_oracle(d)
            dd = len(den) - 1
            out = [0] * (len(num) - dd)
            for i in range(len(out) - 1, -1, -1):
                q = out[i] = num[i + dd]
                if q:
                    for k in range(dd + 1):
                        num[i + k] -= q * den[k]
            assert not any(num), f"Phi_{d} does not divide"
            num = out
    return tuple(num)


def dense_reduce_oracle(coeffs: list[int], n: int) -> tuple[int, ...]:
    """coeffs modulo Phi_n, subtracting every coefficient of Phi_n, zero or not."""
    phi = phi_division_oracle(n)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        q = work[i]
        if q:
            for k in range(deg + 1):
                work[i - deg + k] -= q * phi[k]
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


# lcm(8, L) for every level L that the corpus forms and the witt_reduce and
# witt_closure benchmark pools (seeds 1-5) reach, and the large-level goldens
REACHED_LEVELS = (8, 16, 24, 32, 40, 56, 64, 72, 104, 120, 128, 200, 216, 256, 280, 360, 392, 512, 648, 672,
                  1000, 1008, 1024, 1352, 1944, 2048, 2744, 4096, 5832, 8192)

# levels with a square factor, where Phi_n = Phi_rad(n)(x**(n/rad(n))) is sparse
SQUAREFUL_LEVELS = (
    *(2**k for k in range(2, 15)),
    *(8 * 3**j for j in range(1, 7)),
    8 * 3 * 5 * 7,
    *(2**a * 3**b * 5 for a in range(1, 5) for b in range(0, 4) if a > 1 or b > 1),
)


def test_polynomials_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_degree_is_euler_phi():
    from math import gcd

    for n in range(1, 40):
        degree = len(cyclotomic_polynomial(n)) - 1
        assert degree == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_primitive_root_vanishes_numerically():
    for n in (5, 7, 8, 9, 12, 24):
        poly = cyclotomic_polynomial(n)
        z = cmath.exp(2j * cmath.pi / n)
        value = sum(c * z**i for i, c in enumerate(poly))
        assert abs(value) < 1e-9


def test_full_rotation_sums_to_zero():
    assert CycInt.from_exponent_counts(12, {e: 1 for e in range(12)}) == CycInt.from_exponent_counts(12, {})


def test_known_identity_zeta3():
    # 1 + zeta_3 + zeta_3^2 = 0, expressed at order 24
    z = CycInt.from_exponent_counts(24, {8: 1})
    assert CycInt.from_exponent_counts(24, {0: 1, 8: 1, 16: 1}) == CycInt.from_exponent_counts(24, {})
    assert z * z == CycInt.from_exponent_counts(24, {0: -1, 8: -1})


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycInt.from_exponent_counts(8, {0: 1}) * CycInt.from_exponent_counts(12, {0: 1})


counts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=23), st.integers(min_value=-5, max_value=5)),
    max_size=6,
)
elements = st.builds(lambda pairs: CycInt.from_exponent_counts(24, dict(pairs)), counts)


@settings(max_examples=150)
@given(elements, elements)
def test_arithmetic_matches_complex_numerics(a, b):
    assert abs((a * b).numeric() - a.numeric() * b.numeric()) < 1e-7


def summed(pairs) -> dict[int, int]:
    out: dict[int, int] = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return out


@settings(max_examples=100)
@given(counts, counts, st.integers(min_value=0, max_value=23), st.booleans())
def test_equality_is_canonical(a, b, k, equal):
    # with equal, b is a plus zeta^k (1 + zeta_3 + zeta_3^2), another way of
    # writing a.  A nonzero difference d of two such sums has |N(d)| >= 1
    # and conjugates of modulus at most 63, so |d| >= 63**-3 > 1e-7
    if equal:
        b = a + [(k, 1), ((k + 8) % 24, 1), ((k + 16) % 24, 1)]
    x, y = CycInt.from_exponent_counts(24, summed(a)), CycInt.from_exponent_counts(24, summed(b))
    z = cmath.exp(2j * cmath.pi / 24)
    values = [sum(c * z**e for e, c in pairs) for pairs in (a, b)]
    assert (x == y) == (abs(values[0] - values[1]) < 1e-7)
    assert x == y or not equal


def test_polynomial_matches_division_oracle_to_600():
    for n in range(1, 601):
        assert cyclotomic_polynomial(n) == phi_division_oracle(n), n


@pytest.mark.parametrize("n", REACHED_LEVELS)
def test_polynomial_matches_division_oracle_at_reached_levels(n):
    assert cyclotomic_polynomial(n) == phi_division_oracle(n)


@st.composite
def vectors_at_levels(draw):
    """(coefficient vector of length up to 2n, n) for a squareful level n;
    at most 40 entries are nonzero, which keeps the dense oracle fast at
    n = 2**14 without limiting how far the reduction carries."""
    n = draw(st.sampled_from(SQUAREFUL_LEVELS))
    length = draw(st.integers(min_value=0, max_value=2 * n))
    vec = [0] * length
    if length:
        entries = st.tuples(st.integers(0, length - 1), st.integers(-(10**6), 10**6))
        for i, c in draw(st.lists(entries, max_size=40)):
            vec[i] = c
    return vec, n


@settings(max_examples=200, deadline=None)
@given(vectors_at_levels())
def test_sparse_reduce_matches_dense_oracle(case):
    vec, n = case
    assert _reduce(vec, n) == dense_reduce_oracle(vec, n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((8 * 3 * 5 * 7, 72, 360, 1000)), st.randoms(use_true_random=False), st.data())
def test_sparse_reduce_matches_dense_oracle_on_dense_vectors(n, rng, data):
    # every entry drawn, at a length past deg(Phi_n) so that reduction happens
    length = data.draw(st.integers(min_value=n, max_value=2 * n))
    vec = [rng.randint(-50, 50) for _ in range(length)]
    assert _reduce(vec, n) == dense_reduce_oracle(vec, n)


@pytest.mark.parametrize("n", (2**16, 8 * 3**8))
def test_polynomial_divides_only_for_squarefree_divisors_of_the_radical(monkeypatch, n):
    calls = []
    divide = cyclotomic._divide_exact

    def counted(num, den):
        calls.append(den)
        return divide(num, den)

    monkeypatch.setattr(cyclotomic, "_divide_exact", counted)
    cyclotomic_polynomial.cache_clear()
    try:
        poly = cyclotomic_polynomial(n)
    finally:
        cyclotomic_polynomial.cache_clear()
    radical = prod(factorize(n))
    # building Phi_d for each d | rad(n) divides once per proper divisor of d
    assert len(calls) == sum(len(divisors(d)) - 1 for d in divisors(radical))
    assert set(calls) <= {phi_division_oracle(d) for d in divisors(radical) if d < radical}
    inner = phi_division_oracle(radical)
    assert poly[:: n // radical] == inner
    assert sum(map(bool, poly)) == sum(map(bool, inner))
