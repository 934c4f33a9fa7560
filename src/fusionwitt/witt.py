"""Witt classes of metric groups by anisotropic reduction.

The class of a nondegenerate metric group is represented by its
completely anisotropic Sylow parts: reduce_once quotients x-perp by an
isotropic x, and uniqueness of the anisotropic kernel makes class
equality decidable by exact isomorphism search on the representatives.

Words combine a pointed class with a formal exponent on the Ising
generator; word equality is a formal direct-product equality, which is
sufficient but not necessary for equality of the underlying classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import cayley_invariants, group_name
from .caps import CLOSURE_CAP, ELEMENT_CAP, ORDER_CAP
from .errors import ConsistencyError
from .metric_group import (
    MetricGroup,
    direct_sum,
    gauss_sum,
    inverse_form,
    metric_group,
    sylow_decompose,
    _metric_from_generators,
)
from .snf import integer_kernel


def isotropic_elements(mg: MetricGroup, cap: int | None = None) -> list[tuple[int, ...]]:
    """Nonzero x with q(x) = 0, in lexicographic order."""
    ELEMENT_CAP.check(mg.size, f"group of order {mg.size}", cap)
    return [x for x in mg.group.elements() if any(x) and mg.q(x) == 0]


def reduce_once(mg: MetricGroup, x: tuple[int, ...], cap: int | None = None) -> MetricGroup:
    """Quotient x-perp / <x> with the induced form.

    Requires mg nondegenerate and x a nonzero isotropic element.  The
    result has order |A| / ord(x)**2, is nondegenerate, and keeps the
    normalized Gauss sum: same argument, and |G|^2 = |A| on both sides.
    """
    if not mg.nondegenerate:
        raise ValueError("reduction needs a nondegenerate metric group")
    if not any(x):
        raise ValueError("isotropic element must be nonzero")
    if mg.q(x) != 0:
        raise ValueError(f"q({x}) = {mg.q(x)} is nonzero")
    group = mg.group
    ord_x = group.element_order(x)
    perp = [y for y in group.elements() if mg.b(x, y) == 0]
    if len(perp) * ord_x != mg.size:
        raise ConsistencyError("perp subgroup has unexpected order; degenerate pairing?")

    # greedy spanning set of perp, deterministic in element order
    span = {group.zero()}
    gens: list[tuple[int, ...]] = []
    for y in perp:
        if y not in span:
            gens.append(y)
            reach = set(span)
            for s in span:
                acc = s
                for _ in range(group.element_order(y)):
                    acc = group.add(acc, y)
                    reach.add(acc)
            span = reach
    if len(span) != len(perp):
        raise ConsistencyError("spanning of perp failed")

    # relation lattice of the quotient: a is a relation iff
    # sum a_j gens_j lands in <x> modulo the ambient orders
    m = len(group.orders)
    t = len(gens)
    if t == 0:
        quotient = metric_group((), ())
    else:
        cols: list[list[int]] = [list(g) for g in gens] + [list(x)] + [
            [group.orders[i] if r == i else 0 for r in range(m)] for i in range(m)
        ]
        w = [[cols[j][i] for j in range(len(cols))] for i in range(m)]
        relations = [z[:t] for z in integer_kernel(w)]
        quotient = _metric_from_generators(mg, gens, relations, len(perp) // ord_x, cap=cap)

    if quotient.size * ord_x * ord_x != mg.size:
        raise ConsistencyError("reduced group has wrong order")
    if not quotient.nondegenerate:
        raise ConsistencyError("reduction produced a degenerate form")
    before, after = gauss_sum(mg, cap=cap), gauss_sum(quotient, cap=cap)
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
    argument: Fraction | None


def anisotropic_reduction(mg: MetricGroup, choose=None, cap: int | None = None) -> tuple[MetricGroup, tuple[ReductionStep, ...]]:
    """Reduce until no isotropic element remains.

    choose picks the isotropic element from the nonempty candidate list;
    the default takes the lexicographically smallest, which makes the
    whole pipeline deterministic.  The final form does not depend on the
    choices (anisotropic kernel uniqueness); randomized tests rely on
    exactly that.
    """
    choose = choose or (lambda candidates: candidates[0])
    steps = []
    current = mg
    while True:
        candidates = isotropic_elements(current, cap=cap)
        if not candidates:
            return current, tuple(steps)
        x = choose(candidates)
        reduced = reduce_once(current, x, cap=cap)
        steps.append(
            ReductionStep(
                orders_before=current.orders,
                chosen=tuple(x),
                orders_after=reduced.orders,
                argument=gauss_sum(reduced, cap=cap).argument,
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


def pointed_witt_class(mg: MetricGroup, choose=None, cap: int | None = None) -> PointedWittClass:
    """Witt class of a nondegenerate metric group.

    Sylow-decomposes, reduces every part to its anisotropic kernel, and
    drops trivial parts.  For odd p the representative must have order
    1, p, or p**2; anything else is reported as an inconsistency.
    """
    if not mg.nondegenerate:
        raise ValueError("Witt class needs a nondegenerate metric group")
    parts = []
    for p, part in sorted(sylow_decompose(mg, cap=cap).items()):
        rep, _ = anisotropic_reduction(part, choose=choose, cap=cap)
        if rep.size == 1:
            continue
        if p != 2 and rep.size not in (p, p * p):
            raise ConsistencyError(
                f"anisotropic {p}-part has order {rep.size}, outside the expected {{1, {p}, {p*p}}}"
            )
        parts.append((p, rep))
    return PointedWittClass(parts=tuple(parts))


def metric_iso(a: MetricGroup, b: MetricGroup) -> list[tuple[int, ...]] | None:
    """Isomorphism preserving q, as images of a's generators in b.

    Exhaustive backtracking over generator images, pruned by order,
    q value, and pairwise cross terms; None when no isomorphism exists.
    """
    if a.orders != b.orders:
        return None
    if sorted(a.q(x) for x in a.group.elements()) != sorted(b.q(y) for y in b.group.elements()):
        return None
    k = len(a.orders)
    if k == 0:
        return []
    belems = list(b.group.elements())

    def extend(images: list[tuple[int, ...]]):
        i = len(images)
        if i == k:
            seen = set()
            for coeffs in a.group.elements():
                acc = b.group.zero()
                for c, y in zip(coeffs, images):
                    acc = b.group.add(acc, b.group.scale(c, y))
                seen.add(acc)
            return list(images) if len(seen) == b.size else None
        for y in belems:
            if b.group.scale(a.orders[i], y) != b.group.zero():
                continue
            if b.q(y) != a.form.diag[i]:
                continue
            if any(b.b(images[j], y) != a.form.cross[j][i] for j in range(i)):
                continue
            found = extend(images + [y])
            if found is not None:
                return found
        return None

    return extend([])


def class_eq(c1: PointedWittClass, c2: PointedWittClass) -> bool:
    """Equality of Witt classes via isomorphism of anisotropic parts."""
    if c1.primes != c2.primes:
        return False
    return all(metric_iso(r1, r2) is not None for (_, r1), (_, r2) in zip(c1.parts, c2.parts))


def class_multiply(c1: PointedWittClass, c2: PointedWittClass, cap: int | None = None) -> PointedWittClass:
    """Product in the Witt group: per-prime orthogonal sum, re-reduced."""
    parts = []
    for p in sorted(set(c1.primes) | set(c2.primes)):
        r1, r2 = c1.part(p), c2.part(p)
        if r1 is None or r2 is None:
            rep = r1 if r2 is None else r2
        else:
            rep, _ = anisotropic_reduction(direct_sum(r1, r2, cap=cap), cap=cap)
        if rep.size > 1:
            parts.append((p, rep))
    return PointedWittClass(parts=tuple(parts))


def class_inverse(c: PointedWittClass, cap: int | None = None) -> PointedWittClass:
    """Negate every representative form; anisotropy is preserved."""
    return PointedWittClass(parts=tuple((p, inverse_form(r, cap=cap)) for p, r in c.parts))


def class_order(c: PointedWittClass, cap: int | None = None) -> int:
    """Smallest n >= 1 with c**n the identity class."""
    n, acc = 1, c
    while not acc.is_identity():
        n += 1
        ORDER_CAP.check(n, "class order", cap)
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


def generated_subgroup(generators, cap: int | None = None, element_budget: int | None = None) -> WittSubgroup:
    """Closure of the generators under class multiplication.

    Equality inside the closure is decided by class_eq, so two different
    presentations of one class occupy one slot.  Raises CapExceededError
    when the closure grows past the cap.
    """
    elements: list[PointedWittClass] = [IDENTITY_CLASS]

    def index_of(c: PointedWittClass) -> int | None:
        for i, e in enumerate(elements):
            if class_eq(e, c):
                return i
        return None

    def admit(c: PointedWittClass) -> bool:
        if index_of(c) is not None:
            return False
        elements.append(c)
        CLOSURE_CAP.check(len(elements), f"closure of {len(elements)} classes", cap)
        return True

    for g in generators:
        admit(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(elements)):
            for j in range(len(elements)):
                changed |= admit(class_multiply(elements[i], elements[j], cap=element_budget))
    table = tuple(
        tuple(index_of(class_multiply(a, b, cap=element_budget)) for b in elements) for a in elements
    )
    return WittSubgroup(elements=tuple(elements), table=table, invariant_factors=cayley_invariants(table, 0))


# ------------------------------------------------------------------- words


@dataclass(frozen=True)
class WittWord:
    """Formal product of a pointed class and an Ising-generator power.

    The exponent lives mod 16.  Equality of words (same pointed class,
    same exponent) is sufficient for equality of the underlying classes
    but not necessary, hence the FORMAL tag in reports.
    """

    pointed: PointedWittClass
    ising_exponent: int

    def __post_init__(self):
        object.__setattr__(self, "ising_exponent", self.ising_exponent % 16)


IDENTITY_WORD = WittWord(pointed=IDENTITY_CLASS, ising_exponent=0)
ISING_GENERATOR_WORD = WittWord(pointed=IDENTITY_CLASS, ising_exponent=1)


def from_ising_category(exponent: int) -> WittWord:
    """Word of an Ising braided category: its exponent is odd, 1..15."""
    if exponent % 2 == 0 or not 1 <= exponent <= 15:
        raise ValueError(f"Ising categories carry odd exponents in 1..15, got {exponent}")
    return WittWord(pointed=IDENTITY_CLASS, ising_exponent=exponent)


def word_compose(w1: WittWord, w2: WittWord, cap: int | None = None) -> WittWord:
    return WittWord(
        pointed=class_multiply(w1.pointed, w2.pointed, cap=cap),
        ising_exponent=(w1.ising_exponent + w2.ising_exponent) % 16,
    )


def word_inverse(w: WittWord, cap: int | None = None) -> WittWord:
    return WittWord(pointed=class_inverse(w.pointed, cap=cap), ising_exponent=(-w.ising_exponent) % 16)


def word_eq(w1: WittWord, w2: WittWord) -> bool:
    """Formal equality: componentwise, no mixing between the factors."""
    return w1.ising_exponent == w2.ising_exponent and class_eq(w1.pointed, w2.pointed)


def word_is_identity(w: WittWord) -> bool:
    return w.ising_exponent == 0 and w.pointed.is_identity()


def word_order(w: WittWord, cap: int | None = None) -> int:
    """Smallest n >= 1 with w**n the identity word."""
    n, acc = 1, w
    while not word_is_identity(acc):
        n += 1
        ORDER_CAP.check(n, "word order", cap)
        acc = word_compose(acc, w)
    return n
