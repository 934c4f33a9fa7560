import pytest
from hypothesis import given, strategies as st

from fusionwitt.arith import (
    cayley_invariants,
    divisors,
    factorize,
    factorize_with_sieve,
    group_name,
    invariants_from_element_orders,
    is_prime,
    is_square_free,
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
    for p, e in factorize(n).items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


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
