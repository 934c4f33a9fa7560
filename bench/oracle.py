"""Expected answers worked out without the package under test.

Nothing here imports fusionwitt.  Factorization is trial division,
group structure comes from prime-power decompositions, Gauss sums come
from closed-form values on orthogonal blocks, and Witt data comes from
the invariant (v_p(|A_p|) mod 2, Gauss argument of A_p) per prime.

Gauss sums of the blocks used by the generator (e(t) = exp(2 pi i t)):

* odd p, Z_{p^k} with q(x) = u x^2 / p^k, p not dividing u:
  p^{k/2} for even k; (u/p) eps_p p^{k/2} for odd k, where eps_p is 1
  for p = 1 mod 4 and i for p = 3 mod 4.
* odd p, hyperbolic Z_{p^k}^2 with q(x, y) = x y / p^k: p^k.
* Z_{2^k} with q(x) = u x^2 / 2^{k+1}, u odd: half the classical sum
  over Z/2^{k+1}, that is 2^{k/2} e(+-1/8) (+ for u = 1 mod 4) times
  the Jacobi symbol (2/u)^{k+1}.
* U_k, Z_{2^k}^2 with q(x, y) = x y / 2^k: 2^k.
* V_k, Z_{2^k}^2 with q(x, y) = (x^2 + x y + y^2) / 2^k: (-1)^k 2^k.

(Wall, Quadratic forms on finite groups, Topology 2, 1963;
Kawauchi-Kojima, Math. Ann. 253, 1980.)  bench/test_bench.py checks
every formula against a floating-point sum on small groups.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

FACTOR_LIMIT = 10**7
BOUND_ANY_PARITY, ACKNOWLEDGED_ANY_PARITY = 1800, (900,)
BOUND_ODD, ACKNOWLEDGED_ODD = 33075, (11025,)


# ------------------------------------------------------------- arithmetic


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def lcm(*xs: int) -> int:
    out = 1
    for x in xs:
        out = out * x // gcd(out, x)
    return out


def invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of a product of cyclic groups."""
    per_prime: dict[int, list[int]] = {}
    for d in cyclic_orders:
        for p, e in factorize(d).items():
            per_prime.setdefault(p, []).append(p**e)
    width = max((len(v) for v in per_prime.values()), default=0)
    factors = [1] * width
    for powers in per_prime.values():
        for i, pe in enumerate(sorted(powers, reverse=True)):
            factors[i] *= pe
    return tuple(sorted(factors))


def group_name(inv: tuple[int, ...]) -> str:
    return " x ".join(f"Z{d}" for d in inv) if inv else "trivial"


def prime_power_base(n: int) -> int | None:
    f = factorize(n)
    return next(iter(f)) if len(f) == 1 else None


def legendre(u: int, p: int) -> int:
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


# ------------------------------------------------------- dimension verdicts


def pac_witness(n: int):
    """(p, a, c) for n = p^a c with c square-free, or None."""
    squared = sorted(p for p, e in factorize(n).items() if e >= 2)
    if len(squared) > 1:
        return None
    if not squared:
        return (None, 0, n)
    p = squared[0]
    a = factorize(n)[p]
    return (p, a, n // p**a)


def dimension_verdict(n: int) -> tuple[str, tuple]:
    """(verdict kind, (p, a, q, b, c)) following the documented criteria:
    one squared prime, then two, then the two acknowledged bounds."""
    f = factorize(n)
    squared = sorted(p for p, e in f.items() if e >= 2)
    none = (None, None, None, None, None)
    if len(squared) <= 1:
        p, a, c = pac_witness(n)
        return "SolvableSinglePrime", (p, a, None, 0, c)
    if len(squared) == 2:
        p, q = squared
        return "WGTTwoPrimes", (p, f[p], q, f[q], n // (p ** f[p] * q ** f[q]))
    if n < BOUND_ANY_PARITY:
        return ("WGTBelow1800" if n in ACKNOWLEDGED_ANY_PARITY else "Unknown"), none
    if n % 2 == 1 and n < BOUND_ODD:
        return ("SolvableOddBelow33075" if n in ACKNOWLEDGED_ODD else "Unknown"), none
    return "Unknown", none


def scan_expectation(limit: int, odd: bool) -> dict[str, tuple]:
    """Dimensions below limit with three or more distinct squared primes,
    found as multiples of (p q r)^2 rather than by factorizing each n."""
    primes = [p for p in range(2, isqrt(limit) + 2) if all(p % d for d in range(2, isqrt(p) + 1))]
    hits: set[int] = set()

    def extend(start: int, square: int, depth: int) -> None:
        if depth >= 3:
            hits.update(range(square, limit, square))
        for i in range(start, len(primes)):
            nxt = square * primes[i] ** 2
            if nxt >= limit:
                break
            extend(i + 1, nxt, depth + 1)

    extend(0, 1, 0)
    exceptions = tuple(sorted(n for n in hits if not odd or n % 2))
    bound, known = (BOUND_ODD, ACKNOWLEDGED_ODD) if odd else (BOUND_ANY_PARITY, ACKNOWLEDGED_ANY_PARITY)
    acknowledged = tuple(k for k in known if k < limit)
    divergent = tuple(n for n in exceptions if n < bound and n not in known)
    flagged = 27225 if odd else 1764
    if limit > flagged and flagged not in divergent:
        raise AssertionError(f"scan oracle lost the documented divergence {flagged}")
    return {"exceptions": exceptions, "acknowledged": acknowledged, "divergent": divergent}


# ------------------------------------------------------------ Gauss sums


def block_argument(block: tuple) -> Fraction:
    """Gauss argument, in turns mod 1, of one orthogonal block."""
    kind, p, k = block[:3]
    if kind in ("H", "U"):
        return Fraction(0)
    if kind == "V":
        return Fraction(k % 2, 2)
    u = block[3]
    if p == 2:
        eighth = Fraction(1, 8) if u % 4 == 1 else Fraction(7, 8)
        jacobi = 1 if u % 8 in (1, 7) else -1
        return (eighth + (Fraction(1, 2) if jacobi ** (k + 1) == -1 else 0)) % 1
    if k % 2 == 0:
        return Fraction(0)
    base = Fraction(0) if p % 4 == 1 else Fraction(1, 4)
    return (base + (Fraction(1, 2) if legendre(u, p) == -1 else 0)) % 1


def block_orders(block: tuple) -> tuple[int, ...]:
    kind, p, k = block[:3]
    return (p**k,) if kind == "cyc" else (p**k, p**k)


def block_form(block: tuple) -> tuple[list[Fraction], dict]:
    """Values on the block's own generators: (q list, {(i, j): b})."""
    kind, p, k = block[:3]
    if kind == "cyc":
        u = block[3]
        return [Fraction(u, 2 ** (k + 1) if p == 2 else p**k)], {}
    if kind in ("H", "U"):
        return [Fraction(0), Fraction(0)], {(0, 1): Fraction(1, p**k)}
    return [Fraction(1, 2**k), Fraction(1, 2**k)], {(0, 1): Fraction(1, 2**k)}


def witt_key(p: int, blocks) -> tuple[int, Fraction]:
    """(v_p(|A_p|) mod 2, Gauss argument of A_p) for a p-primary form."""
    v = sum(len(block_orders(b)) * b[2] for b in blocks)
    arg = sum((block_argument(b) for b in blocks), Fraction(0)) % 1
    return v % 2, arg


def key_order(key: tuple[int, Fraction]) -> int:
    return lcm(2 if key[0] else 1, key[1].denominator)


def key_subgroup(keys) -> tuple[int, tuple[int, ...]]:
    """(order, invariant factors) of the subgroup of Z2 x Q/Z that the
    keys generate; it lies in Z2 x Z8, so it has rank at most two."""
    elems = {(0, Fraction(0))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for v, a in frontier:
            for kv, ka in keys:
                s = ((v + kv) % 2, (a + ka) % 1)
                if s not in elems:
                    elems.add(s)
                    nxt.append(s)
        frontier = nxt
    order = len(elems)
    exponent = max(key_order(e) for e in elems)
    if order == 1:
        return 1, ()
    return order, ((exponent,) if order == exponent else (order // exponent, exponent))


def anisotropic_odd_orders(p: int, key: tuple[int, Fraction]) -> tuple[int, ...]:
    """Orders of the anisotropic representative at an odd prime."""
    if key[0]:
        return (p,)
    return (p, p) if key[1] else ()
