"""Small exact number-theory helpers shared across the package.

Everything here works with plain Python integers and is deterministic.
Factorization is plain trial division, which is fine for the intended
input range (n up to about 10**7).
"""

from __future__ import annotations

from array import array
from functools import cache
from math import isqrt

FACTOR_LIMIT = 10**7


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    >>> factorize(1)
    {}
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    if n > FACTOR_LIMIT:
        raise ValueError(f"n = {n} exceeds the factorization limit {FACTOR_LIMIT}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # remaining prime factors are of the form 6k +- 1
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def is_square_free(n: int) -> bool:
    """True when no prime square divides n.

    >>> [m for m in range(1, 20) if not is_square_free(m)]
    [4, 8, 9, 12, 16, 18]
    """
    return all(e == 1 for e in factorize(n).values())


def prime_power_base(n: int) -> int | None:
    """The prime p with n = p**k (k >= 1), or None if n is not a prime power."""
    f = factorize(n)
    if len(f) == 1:
        return next(iter(f))
    return None


def smallest_factor_sieve(limit: int) -> array:
    """Array s with s[n] = smallest prime factor of n, for 0 <= n < limit."""
    s = array("l", range(limit))
    for p in range(2, isqrt(limit - 1) + 1):
        if s[p] == p:
            for m in range(p * p, limit, p):
                if s[m] == m:
                    s[m] = p
    return s


def factorize_with_sieve(n: int, sieve: array) -> dict[int, int]:
    """Same output as factorize, using a precomputed smallest-factor sieve."""
    out: dict[int, int] = {}
    while n > 1:
        p = sieve[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def p_adic_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def invariants_from_element_orders(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its element orders.

    The multiset of element orders determines the group: for each prime p,
    the counts #{x : p**j x = 0} determine the multiset of cyclic p-power
    summands (conjugate partition of the count increments), and matching
    the per-prime exponent lists largest-to-largest rebuilds the chain
    d_1 | d_2 | ... | d_k.

    >>> invariants_from_element_orders([1, 2, 2, 2, 4, 4, 4, 4])
    (2, 4)
    >>> invariants_from_element_orders([1, 6, 3, 2, 3, 6])
    (6,)
    >>> invariants_from_element_orders([1])
    ()
    """
    size = len(orders)
    if size == 0:
        raise ValueError("empty order list")
    if size == 1:
        return ()
    per_prime: dict[int, list[int]] = {}
    for p in factorize(size):
        # killed[j] = #{x : order(x) divides p**j}; the increments of
        # log_p(killed) count cyclic p-summands of order >= p**j.
        sylow = sum(1 for o in orders if set(factorize(o)) <= {p})
        killed = []
        j = 0
        while True:
            pj = p**j
            killed.append(sum(1 for o in orders if pj % o == 0))
            if killed[-1] == sylow:
                break
            j += 1
        logs = [p_adic_valuation(k, p) for k in killed]
        heights = [logs[j] - logs[j - 1] for j in range(1, len(logs))]
        exps: list[int] = []
        for j in range(len(heights), 0, -1):
            while len(exps) < heights[j - 1]:
                exps.append(j)
        per_prime[p] = sorted(exps, reverse=True)
    width = max(len(v) for v in per_prime.values())
    factors = []
    for i in range(width):
        f = 1
        for p, exps in per_prime.items():
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    return tuple(sorted(factors))


def cayley_invariants(table, identity: int) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its Cayley table,
    where table[a][b] is the index of a * b and identity is the index of
    the identity.

    >>> cayley_invariants([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    (3,)
    >>> cayley_invariants([[1, 0], [0, 1]], 1)
    (2,)
    """
    orders = []
    for a in range(len(table)):
        n, acc = 1, a
        while acc != identity:
            acc = table[acc][a]
            n += 1
        orders.append(n)
    return invariants_from_element_orders(orders)


def group_name(invariant_factors: tuple[int, ...]) -> str:
    """Readable name 'Z2 x Z4' for an invariant-factor tuple, 'trivial' for ()."""
    if not invariant_factors:
        return "trivial"
    return " x ".join(f"Z{d}" for d in invariant_factors)
