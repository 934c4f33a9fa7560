"""Small exact number-theory helpers shared across the package.

Everything here works with plain Python integers and is deterministic.
Factorization is trial division by the primes up to isqrt(FACTOR_LIMIT),
taken in blocks: one gcd with a block's product skips every block that
holds no factor of n.  Scans factorize every n below a limit from a
smallest-factor sieve instead: 2 bytes per n, 0 where n has no factor
below itself, built by one slice assignment per prime up to the square
root of the limit.
"""

from __future__ import annotations

from array import array
from functools import cache
from math import gcd, isqrt, prod

from .errors import ConsistencyError

FACTOR_LIMIT = 10**7
# primes per block: the 446 primes up to isqrt(FACTOR_LIMIT) make 19 blocks
PRIME_BLOCK = 24


def smallest_factor_sieve(limit: int) -> array:
    """Array s, for 0 <= n < limit, with s[n] the smallest prime factor of
    a composite n and s[n] = 0 when n is prime, 0 or 1.

    Entries are unsigned shorts, 2 bytes each: a composite n < limit has
    a prime factor of at most isqrt(limit - 1), which is 3162 at
    FACTOR_LIMIT and below 2**16 for every limit up to 2**32; array
    raises OverflowError rather than wrap.  The primes up to that root
    come from a small bytearray sieve; each, largest first, then fills
    its multiples from p*p on in one slice assignment, so a smaller
    prime overwrites a larger one and every composite ends on its
    smallest."""
    s = array("H", [0]) * limit
    top = isqrt(limit - 1)
    prime = bytearray([1]) * (top + 1)
    for p in range(2, isqrt(top) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, top + 1, p)))
    for p in range(top, 1, -1):
        if prime[p]:
            s[p * p::p] = array("H", [p]) * len(range(p * p, limit, p))
    return s


def _prime_blocks(limit: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(square of the first prime, product, primes) per block of
    PRIME_BLOCK consecutive primes up to isqrt(limit), ascending."""
    top = isqrt(limit)
    sieve = smallest_factor_sieve(top + 1)
    primes = [p for p in range(2, top + 1) if not sieve[p]]
    blocks = (tuple(primes[i:i + PRIME_BLOCK]) for i in range(0, len(primes), PRIME_BLOCK))
    return tuple((block[0] * block[0], prod(block), block) for block in blocks)


_BLOCKS = _prime_blocks(FACTOR_LIMIT)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending.

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
    for first_squared, product, block in _BLOCKS:
        # what is left of n has no prime factor below this block, so it
        # is 1 or a prime once the block's first prime squared exceeds it
        if first_squared > n:
            break
        if gcd(n, product) > 1:
            for p in block:
                if n % p == 0:
                    n //= p
                    e = 1
                    while n % p == 0:
                        n //= p
                        e += 1
                    out[p] = e
    if n > 1:
        out[n] = 1
    return out


def prime_power_base(n: int) -> int | None:
    """The prime p with n = p**k (k >= 1), or None if n is not a prime power."""
    f = factorize(n)
    if len(f) == 1:
        return next(iter(f))
    return None


def factorize_with_sieve(n: int, sieve: array) -> dict[int, int]:
    """Same output as factorize, using smallest_factor_sieve(limit) for
    some limit > n: an entry of 0 marks what is left of n as prime."""
    out: dict[int, int] = {}
    while n > 1:
        p = sieve[n] or n
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


def cayley_invariants(table, identity: int, names=None) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its Cayley table,
    where table[a][b] is the index of a * b and identity is the index of
    the identity.  An element whose first len(table) powers miss the
    identity raises ConsistencyError, named by names[a] if given.

    >>> cayley_invariants([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    (3,)
    >>> cayley_invariants([[1, 0], [0, 1]], 1)
    (2,)
    """
    orders = []
    for a in range(len(table)):
        acc = a
        for n in range(1, len(table) + 1):
            if acc == identity:
                break
            acc = table[acc][a]
        else:
            raise ConsistencyError(f"powers of {a if names is None else names[a]} never reach the unit")
        orders.append(n)
    return invariants_from_element_orders(orders)


def group_name(invariant_factors: tuple[int, ...]) -> str:
    """Readable name 'Z2 x Z4' for an invariant-factor tuple, 'trivial' for ()."""
    if not invariant_factors:
        return "trivial"
    return " x ".join(f"Z{d}" for d in invariant_factors)
