from math import isqrt

import pytest
from conftest import factorize_oracle, is_prime, is_square_free, smallest_factor_sieve_oracle
from hypothesis import given, strategies as st

from fusionwitt import arith
from fusionwitt.arith import (
    FACTOR_LIMIT,
    cayley_invariants,
    divisors,
    factorize,
    factorize_with_sieve,
    group_name,
    invariants_from_element_orders,
    p_adic_valuation,
    prime_power_base,
    smallest_factor_sieve,
)


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(27225) == {3: 2, 5: 2, 11: 2}
    assert factorize(999983) == {999983: 1}


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(10**7 + 1)


@given(st.integers(min_value=1, max_value=100_000))
def test_factorize_recomposes(n):
    prod = 1
    for p, e in factorize_oracle(n).items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n
    assert factorize(n) == factorize_oracle(n)


def assert_matches_oracle(n):
    got = factorize(n)
    assert got == factorize_oracle(n)
    assert list(got) == sorted(got)


@given(st.integers(min_value=1, max_value=FACTOR_LIMIT))
def test_factorize_matches_the_trial_division_oracle(n):
    assert_matches_oracle(n)


def block_edge_cases():
    """p^2 and p q for p, q the first and last prime of every block, so
    each block's gcd test, its divisions and the early stop all run."""
    edges = sorted({p for _, _, block in arith._BLOCKS for p in (block[0], block[-1])})
    return sorted({p * q for p in edges for q in edges if p <= q and p * q <= FACTOR_LIMIT})


def test_factorize_at_the_block_edges():
    primes = [p for _, _, block in arith._BLOCKS for p in block]
    assert primes == [p for p in range(isqrt(FACTOR_LIMIT) + 1) if is_prime(p)]
    assert len(primes) == 446 and primes[-1] == 3137
    assert 9840769 == 3137**2 in block_edge_cases()
    for n in [1, 2, FACTOR_LIMIT, 9999991, 3163 * 3109, 2 * 4999999] + block_edge_cases():
        assert_matches_oracle(n)
    # a prime cofactor above isqrt(FACTOR_LIMIT) = 3162
    assert factorize(2 * 4999999) == {2: 1, 4999999: 1}
    assert factorize(9999991) == {9999991: 1}


def test_is_square_free():
    assert [n for n in range(1, 20) if not is_square_free(n)] == [4, 8, 9, 12, 16, 18]


def test_prime_power_base():
    assert prime_power_base(8) == 2
    assert prime_power_base(27) == 3
    assert prime_power_base(7) == 7
    assert prime_power_base(12) is None
    assert prime_power_base(1) is None


def test_sieve_matches_trial_division():
    sieve = smallest_factor_sieve(5000)
    for n in range(2, 5000):
        assert factorize_with_sieve(n, sieve) == factorize(n)


def assert_sieve_matches_oracle(limit):
    """The sieve is the oracle's, with 0 where the oracle holds n itself
    (a prime, or 0 and 1)."""
    want = [0 if s == n else s for n, s in enumerate(smallest_factor_sieve_oracle(limit))]
    assert smallest_factor_sieve(limit).tolist() == want


@given(st.integers(min_value=2, max_value=5000))
def test_sieve_matches_the_one_entry_at_a_time_oracle(limit):
    assert_sieve_matches_oracle(limit)


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 9, 10, 25, 26, 65536, 65537, 70000])
def test_sieve_matches_the_oracle_at_squares_and_the_16_bit_edge(limit):
    assert_sieve_matches_oracle(limit)


def test_sieve_entries_are_small_and_hold_the_factor_limit():
    sieve = smallest_factor_sieve(FACTOR_LIMIT)
    assert sieve.typecode == "H" and sieve.itemsize == 2
    assert isqrt(FACTOR_LIMIT - 1) < 2**16
    # 3137 is the largest prime whose square lies below 10^7
    assert max(sieve) == sieve[3137**2] == 3137
    # every prime below the limit reads 0, and nothing else does but 0
    # and 1: pi(10^7) = 664579
    assert sieve.count(0) == 664579 + 2
    assert all(sieve[p] == 0 for p in range(2, 3163) if is_prime(p))
    assert sieve[9999991] == sieve[4999999] == 0


def test_divisors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)


def test_p_adic_valuation():
    assert p_adic_valuation(48, 2) == 4
    assert p_adic_valuation(48, 3) == 1
    assert p_adic_valuation(48, 5) == 0


def order_multiset(invariants):
    """Element orders of Z_{d_1} x ... x Z_{d_k}, brute force."""
    from itertools import product
    from math import gcd, lcm

    orders = []
    for x in product(*(range(d) for d in invariants)):
        orders.append(lcm(*(d // gcd(d, a) for a, d in zip(x, invariants))) if x else 1)
    return orders


INVARIANTS = [(), (2,), (3,), (2, 2), (2, 4), (6,), (2, 6), (12,), (2, 2, 2), (3, 9), (2, 4, 8)]


@pytest.mark.parametrize("invariants", INVARIANTS)
def test_invariants_round_trip(invariants):
    orders = order_multiset(invariants) if invariants else [1]
    assert invariants_from_element_orders(orders) == tuple(invariants)


@pytest.mark.parametrize("invariants", INVARIANTS)
def test_cayley_invariants_under_relabelling(invariants):
    """Cayley table of Z_{d_1} x ... x Z_{d_k} with shuffled indices, so
    the identity sits at an arbitrary index."""
    import random
    from itertools import product

    elements = list(product(*(range(d) for d in invariants)))
    random.Random(len(elements)).shuffle(elements)
    index = {x: i for i, x in enumerate(elements)}
    table = [
        [index[tuple((a + b) % d for a, b, d in zip(x, y, invariants))] for y in elements] for x in elements
    ]
    assert cayley_invariants(table, index[(0,) * len(invariants)]) == tuple(invariants)


def test_invariants_rejects_empty():
    with pytest.raises(ValueError):
        invariants_from_element_orders([])


def test_group_name():
    assert group_name(()) == "trivial"
    assert group_name((2, 8)) == "Z2 x Z8"
