"""Witt classes of metric groups by anisotropic reduction.

The class of a nondegenerate metric group is represented by its
completely anisotropic Sylow parts: reduce_once quotients x-perp by the
first isotropic x in element order, reading x-perp and the quotient off
integer lattices rather than the group's elements.  Class equality is
equality of class_key, per prime the parity of v_p(|rep|) and the Gauss
argument of rep, which separates the classes of W_pt(p); metric_iso,
the exact isomorphism search on representatives, is kept for the tests
that check this and for the benchmark's tracer.  Only pointed classes
are represented; the tests check the relation 2[Ising] = [Z4, x^2/8]
that joins them to the Ising classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterator

from .arith import cayley_invariants, group_name, p_adic_valuation
from .caps import CLOSURE_CAP, ELEMENT_CAP, ORDER_CAP
from .errors import ConsistencyError
from .metric_group import (
    MetricGroup,
    direct_sum,
    gauss_sum,
    sylow_decompose,
    _metric_from_generators,
)
from .snf import integer_kernel


def isotropic_elements(mg: MetricGroup) -> Iterator[tuple[int, ...]]:
    """Nonzero x with q(x) = 0, lazily in lexicographic order.

    The element cap is checked on the call; the group is enumerated only
    as far as the caller reads.
    """
    ELEMENT_CAP.check(mg.size, f"group of order {mg.size}")
    return (x for x in mg.elements() if any(x) and mg.value(x) == 0)


def reduce_once(mg: MetricGroup, x: tuple[int, ...]) -> MetricGroup:
    """Quotient x-perp / <x> with the induced form.

    Requires mg nondegenerate and x a nonzero isotropic element.  x-perp
    is the image of the lattice {y : L b(x, y) = 0 mod L}, the kernel of
    the pairing row next to L with the last coordinate dropped, so no
    element is enumerated.  The result has order |A| / ord(x)**2, is
    nondegenerate, and keeps the normalized Gauss sum: same argument,
    and |G|^2 = |A| on both sides.  Both sums are checked; each group
    computes its own once, so along a reduction chain mg's sum is the
    one its producing step computed.
    """
    if not mg.nondegenerate:
        raise ValueError("reduction needs a nondegenerate metric group")
    if not any(x):
        raise ValueError("isotropic element must be nonzero")
    mg._require_element(x)
    if mg.value(x):
        raise ValueError(f"q({x}) = {mg.q(x)} is nonzero")
    orders = mg.orders
    ord_x = lcm(*(d // gcd(d, a) for a, d in zip(x, orders)))
    gens = [tuple(a % d for a, d in zip(z, orders)) for z in integer_kernel([[*mg.pairing_row(x), mg.level]])]

    # relation lattice of the quotient: a is a relation iff
    # sum a_j gens_j lands in <x> modulo the ambient orders
    m = len(orders)
    w = [[g[i] for g in gens] + [x[i]] + [d if r == i else 0 for r in range(m)] for i, d in enumerate(orders)]
    relations = [z[: len(gens)] for z in integer_kernel(w)]
    quotient = _metric_from_generators(mg, gens, relations, mg.size // ord_x**2)

    if quotient.size * ord_x * ord_x != mg.size:
        raise ConsistencyError("reduced group has wrong order")
    if not quotient.nondegenerate:
        raise ConsistencyError("reduction produced a degenerate form")
    before, after = gauss_sum(mg), gauss_sum(quotient)
    if before.argument != after.argument:
        raise ConsistencyError(
            f"Gauss argument changed under reduction: {before.argument} -> {after.argument}"
        )
    return quotient


@dataclass(frozen=True)
class ReductionStep:
    orders_before: tuple[int, ...]
    chosen: tuple[int, ...]
    orders_after: tuple[int, ...]


def anisotropic_reduction(mg: MetricGroup) -> tuple[MetricGroup, tuple[ReductionStep, ...]]:
    """Reduce by the lexicographically first isotropic element until none
    remains, which makes the whole pipeline deterministic.

    The final form does not depend on which isotropic elements are taken
    (anisotropic kernel uniqueness); randomized tests rely on exactly
    that.
    """
    steps = []
    current = mg
    while True:
        x = next(isotropic_elements(current), None)
        if x is None:
            return current, tuple(steps)
        reduced = reduce_once(current, x)
        steps.append(
            ReductionStep(
                orders_before=current.orders,
                chosen=x,
                orders_after=reduced.orders,
            )
        )
        current = reduced


@dataclass(frozen=True)
class PointedWittClass:
    """Completely anisotropic Sylow representatives, keyed by prime.

    Note that dataclass equality compares stored presentations; use
    class_eq for equality of Witt classes.
    """

    parts: tuple[tuple[int, MetricGroup], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.parts)

    def part(self, p: int) -> MetricGroup | None:
        return dict(self.parts).get(p)

    def is_identity(self) -> bool:
        return not self.parts


IDENTITY_CLASS = PointedWittClass(parts=())


def reduce_sylow_part(p: int, part: MetricGroup) -> tuple[MetricGroup, tuple[ReductionStep, ...]]:
    """anisotropic_reduction of the Sylow p-part, with its check: for odd
    p the representative must have order 1, p, or p**2; anything else is
    reported as an inconsistency."""
    rep, steps = anisotropic_reduction(part)
    if p != 2 and rep.size not in (1, p, p * p):
        raise ConsistencyError(
            f"anisotropic {p}-part has order {rep.size}, outside the expected {{1, {p}, {p*p}}}"
        )
    return rep, steps


def pointed_witt_class(mg: MetricGroup) -> PointedWittClass:
    """Witt class of a nondegenerate metric group.

    Sylow-decomposes, reduces every part to its anisotropic kernel by
    reduce_sylow_part, so the representatives are deterministic, and
    drops trivial parts.
    """
    if not mg.nondegenerate:
        raise ValueError("Witt class needs a nondegenerate metric group")
    parts = []
    for p, part in sorted(sylow_decompose(mg).items()):
        rep, _ = reduce_sylow_part(p, part)
        if rep.size > 1:
            parts.append((p, rep))
    return PointedWittClass(parts=tuple(parts))


def metric_iso(a: MetricGroup, b: MetricGroup) -> list[tuple[int, ...]] | None:
    """Isomorphism preserving q, as images of a's generators in b.

    Exhaustive backtracking over generator images, pruned by order,
    q value, and pairwise cross terms; None when no isomorphism exists.
    tries[i] walks the elements of b as candidate images of generator i,
    the images of the generators before it being fixed, and rows holds
    their pairing rows in b.
    """
    if a.orders != b.orders:
        return None
    # the level is the lcm of all q-value denominators, so equal levels and
    # equal sorted L q values are equal sorted q values
    if a.level != b.level or sorted(map(a.value, a.elements())) != sorted(map(b.value, b.elements())):
        return None
    if not a.orders:
        return []
    belems = list(b.elements())
    images, rows, tries = [], [], [iter(belems)]
    while tries:
        i = len(images)
        # the levels are equal, so values and pairings compare in units of 1/L
        want, L, n = a.gram[i], a.level, a.orders[i]
        # the image of a generator of order n has order dividing n
        y = next((y for y in tries[-1] if not any(n * c % d for c, d in zip(y, b.orders))
                  and b.value(y) == want[i] // 2
                  and all(sum(map(mul, rows[j], y)) % L == want[j] for j in range(i))), None)
        if y is None:
            tries.pop()
            if images:
                images.pop()
                rows.pop()
        elif i + 1 < len(a.orders):
            images.append(y)
            rows.append(b.pairing_row(y))
            tries.append(iter(belems))
        else:
            # the images generate b when their combinations reach every element
            cols = list(zip(*images, y))
            seen = {tuple(sum(map(mul, coeffs, col)) % d for col, d in zip(cols, b.orders)) for coeffs in a.elements()}
            if len(seen) == b.size:
                return images + [y]
    return None


def class_key(c: PointedWittClass) -> tuple[tuple[int, int, Fraction], ...]:
    """Per part, (p, v_p(|rep|) mod 2, Gauss argument of rep); the
    identity class has the empty key.

    Both entries are Witt invariants, since a reduction step divides |A|
    by a square and keeps the argument, and isometric parts share them.
    The key also separates the classes of W_pt(p), which is Z8 + Z2 at
    p = 2, Z4 for p = 3 mod 4 and Z2 + Z2 for p = 1 mod 4
    (Davydov-Mueger-Nikshych-Ostrik, arXiv:1009.2117), so two classes
    are equal exactly when their keys are: class_eq and
    generated_subgroup rest on this.
    """
    return tuple((p, p_adic_valuation(rep.size, p) % 2, gauss_sum(rep).argument) for p, rep in c.parts)


def class_eq(c1: PointedWittClass, c2: PointedWittClass) -> bool:
    """Equality of Witt classes: equality of their class_key."""
    return class_key(c1) == class_key(c2)


def class_multiply(c1: PointedWittClass, c2: PointedWittClass) -> PointedWittClass:
    """Product in the Witt group: per-prime orthogonal sum, re-reduced."""
    parts = []
    for p in sorted(set(c1.primes) | set(c2.primes)):
        r1, r2 = c1.part(p), c2.part(p)
        if r1 is None or r2 is None:
            rep = r1 if r2 is None else r2
        else:
            rep, _ = anisotropic_reduction(direct_sum(r1, r2))
        if rep.size > 1:
            parts.append((p, rep))
    return PointedWittClass(parts=tuple(parts))


def class_order(c: PointedWittClass) -> int:
    """Smallest n >= 1 with c**n the identity class."""
    n, acc = 1, c
    while not acc.is_identity():
        n += 1
        ORDER_CAP.check(n, "class order")
        acc = class_multiply(acc, c)
    return n


@dataclass(frozen=True)
class WittSubgroup:
    """Finite subgroup generated by a family of classes.

    elements[0] is the identity; table[i][j] indexes the product."""

    elements: tuple[PointedWittClass, ...]
    table: tuple[tuple[int, ...], ...]
    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def name(self) -> str:
        return group_name(self.invariant_factors)


def generated_subgroup(generators) -> WittSubgroup:
    """Closure of the generators under class multiplication.

    A new class takes the slot of its class_key, so two presentations of
    one class share a slot.  Each unordered pair of non-identity slots is
    multiplied once, its product recorded under (min, max), since the
    Witt group is abelian; a product with the identity, slot 0, is the
    other slot.  A closure of order n thus costs (n - 1) n / 2
    class_multiply calls.  Raises CapExceededError when the closure grows
    past the closure cap.
    """
    elements: list[PointedWittClass] = [IDENTITY_CLASS]
    by_key: dict[tuple, int] = {class_key(IDENTITY_CLASS): 0}
    products: dict[tuple[int, int], int] = {}

    def admit(c: PointedWittClass) -> int:
        """The index of c's class, appended to elements if it is new."""
        key = class_key(c)
        if key not in by_key:
            elements.append(c)
            CLOSURE_CAP.check(len(elements), f"closure of {len(elements)} classes")
            by_key[key] = len(elements) - 1
        return by_key[key]

    for g in generators:
        admit(g)
    changed = True
    while changed:
        changed = False
        for i in range(1, len(elements)):
            for j in range(i, len(elements)):
                if (i, j) not in products:
                    before = len(elements)
                    products[i, j] = admit(class_multiply(elements[i], elements[j]))
                    changed |= len(elements) > before
    n = len(elements)
    table = tuple(tuple(products[min(i, j), max(i, j)] if i and j else i + j for j in range(n)) for i in range(n))
    return WittSubgroup(elements=tuple(elements), table=table, invariant_factors=cayley_invariants(table, 0))
