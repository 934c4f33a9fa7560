"""Finite abelian groups with quadratic forms into Q/Z, all exact.

A metric group is its integer data: the invariant factors
d_1 | d_2 | ... | d_k of its group, its level L, the lcm of the
denominators of the values q(e_i) and b(e_i, e_j), and the Gram matrix
G_ij = L b(e_i, e_j) with the diagonal kept as 2 L q(e_i).  Every
constructor ends in one integer constructor, which checks the chain and
the congruences as integer congruences mod L and decides nondegeneracy
from the Gram matrix, without enumerating the group.  Fractions appear
only at the edges: metric_group() and validate_metric() read Fraction
input, and q hands a value back out.  The Gauss sum is computed once
per (immutable) object: a direct sum multiplies its summands' sums, and
every other group enumerates its own.  Degenerate forms are
representable (the radical can be nontrivial) and nondegeneracy is
recorded on the object, but only a nondegenerate form has a Gauss sum.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .arith import factorize
from .caps import ELEMENT_CAP
from .cyclotomic import CycInt
from .errors import ConsistencyError, ValidationError, Violation
from .snf import lattice_index, mat_mul, pivot_order, rebase_presentation


@dataclass(frozen=True)
class MetricGroup:
    """A quadratic form into Q/Z on Z_d1 x ... x Z_dk, held in integers.

    orders d_1 | d_2 | ... | d_k are the group: its elements are the
    integer tuples x with 0 <= x_i < d_i, and the empty tuple of orders
    is the trivial group with single element ().  level L is the lcm of
    the denominators of q(e_i) and b(e_i, e_j); gram holds
    G_ij = L b(e_i, e_j) in [0, L), with the diagonal kept as 2 L q(e_i)
    in [0, 2 L), so that x^T G x = 2 L q(x) exactly.  summands, set only
    by direct_sum, holds the two groups whose orthogonal sum this is; it
    takes no part in equality or repr.
    """

    orders: tuple[int, ...]
    level: int
    gram: tuple[tuple[int, ...], ...]
    nondegenerate: bool
    summands: tuple[MetricGroup, MetricGroup] | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return prod(self.orders)

    def elements(self):
        """Every element of the group, in lexicographic order."""
        return product(*(range(d) for d in self.orders))

    def value(self, x) -> int:
        """L q(x) mod L for an integer tuple x, unchecked: half of x^T G x."""
        total = 0
        for a, row in zip(x, self.gram):
            if a:
                total += a * sum(map(mul, row, x))
        return total // 2 % self.level

    def pairing_row(self, x) -> tuple[int, ...]:
        """L b(x, e_j) mod L for every generator e_j, unchecked: G x mod L."""
        return tuple([sum(map(mul, row, x)) % self.level for row in self.gram])

    @cached_property
    def gauss(self) -> GaussSum:
        """Sum of exp(2 pi i q(x)) over the group, computed exactly, once.

        Only a nondegenerate form has one here; a degenerate form raises
        ValueError.  The sum over an orthogonal sum A + B is the product
        of the two sums, so a group built by direct_sum multiplies its
        summands' sums (|G|^2 multiply, arguments add mod 1) and
        enumerates nothing; reduce_once's argument check on the
        quotients catches a direct sum that built the wrong form.

        Every other group is enumerated.  By Milgram's formula
        G = sqrt|A| exp(2 pi i k / 8), so G**2 = |A| i**m for exactly
        one m in 0..3.  That one exact comparison fixes the argument mod
        1/2 of a turn and is the whole Milgram check, since
        |G|**4 = |A|**2 follows from it; a miss raises ConsistencyError.
        The remaining sign is separated numerically with error orders of
        magnitude below the gap of 2|G| >= 2.  Unchecked against the
        element cap: read it through gauss_sum.
        """
        if not self.nondegenerate:
            raise ValueError("Gauss sum needs a nondegenerate metric group")
        if self.summands is not None:
            a, b = (s.gauss for s in self.summands)
            return GaussSum(a.magnitude_squared * b.magnitude_squared, (a.argument + b.argument) % 1)
        level = lcm(8, self.level)
        step = level // self.level
        counts = Counter(map(self.value, self.elements()))
        g = CycInt.from_exponent_counts(level, {v * step: c for v, c in counts.items()})
        g2 = g * g
        quarter = next(
            (m for m in range(4) if g2 == CycInt.from_exponent_counts(level, {m * level // 4: self.size})),
            None,
        )
        if quarter is None:
            raise ConsistencyError(f"Milgram check failed: G**2 is not {self.size} times a fourth root of unity")
        # argument is quarter/8 or quarter/8 + 1/2 of a turn; the numeric
        # value of G rotated back is +-|G|, and |G| >= 1 dwarfs float error
        rotated = g.numeric() * cmath.exp(-2j * cmath.pi * quarter / 8)
        eighths = quarter if rotated.real > 0 else quarter + 4
        return GaussSum(magnitude_squared=self.size, argument=Fraction(eighths, 8) % 1)

    def _require_element(self, x) -> None:
        orders = self.orders
        if len(x) != len(orders) or any(not 0 <= a < d for a, d in zip(x, orders)):
            raise ValueError(f"{x} is not an element of the group with orders {orders}")

    def q(self, x) -> Fraction:
        """q(x) = sum x_i^2 q(e_i) + sum_{i<j} x_i x_j b(e_i, e_j) mod 1."""
        self._require_element(x)
        return Fraction(self.value(x), self.level)


def _integer_data(orders, diag, cross):
    """(orders, L, gram) of Fraction input: L is the lcm of the value
    denominators, G_ii = 2 L q(e_i) and G_ij = L b(e_i, e_j).  Raises
    ValidationError on a shape violation.
    """
    orders = tuple(int(d) for d in orders)
    k = len(orders)
    diag = [Fraction(v) % 1 for v in diag]
    if len(diag) != k:
        raise ValidationError(_violations(orders) + [Violation("shape", (), f"{len(diag)} generator values for {k} generators")])
    entries = {}
    for (i, j), v in dict(cross).items():
        if not 0 <= i < j < k:
            raise ValidationError(_violations(orders) + [Violation("shape", (i, j), "cross index out of range or not i < j")])
        entries[i, j] = Fraction(v) % 1
    L = lcm(*(v.denominator for v in (*diag, *entries.values())))
    gram = [[0] * k for _ in range(k)]
    for i, v in enumerate(diag):
        gram[i][i] = 2 * v.numerator * (L // v.denominator)
    for (i, j), v in entries.items():
        gram[i][j] = gram[j][i] = v.numerator * (L // v.denominator)
    return orders, L, gram


def _violations(orders, level: int = 1, gram=()) -> list[Violation]:
    """The invariant-factor chain, then the congruences of q_i =
    G_ii / 2 level and b_ij = G_ij / level, decided in integers."""
    out: list[Violation] = []
    for d in orders:
        if d < 2:
            out.append(Violation("orders", (d,), "cyclic orders must be at least 2"))
    for a, b in zip(orders, orders[1:]):
        if a < 2 or b % a != 0:
            out.append(Violation("orders", (a, b), f"invariant factors must divide in order, {a} does not divide {b}"))
    for i, (d, row) in enumerate(zip(orders, gram)):
        v = row[i] // 2
        if 2 * d * v % level:
            out.append(Violation("congruence", (i,), f"2 * {d} * q({i}) = {Fraction(2 * d * v, level)} is not an integer"))
        # for even d, d^2 q = (d / 2)(2 d q) follows from the line above
        if d % 2 and d * d * v % level:
            out.append(Violation("congruence", (i,), f"{d}^2 * q({i}) = {Fraction(d * d * v, level)} is not an integer"))
    for i, row in enumerate(gram):
        for j in range(i + 1, len(gram)):
            g = gcd(orders[i], orders[j])
            if g * row[j] % level:
                out.append(Violation("congruence", (i, j), f"gcd {g} times cross term {Fraction(row[j], level)} is not an integer"))
    return out


def validate_metric(orders, diag, cross=()) -> list[Violation]:
    """Report every violated well-definedness condition.

    Checks: invariant-factor chain, congruences 2 d_i q_i in Z and, for
    odd d_i, d_i**2 q_i in Z, and gcd(d_i, d_j) b_ij in Z.  Degeneracy
    is not a violation; it is recorded on the constructed object instead.
    """
    try:
        return _violations(*_integer_data(orders, diag, cross))
    except ValidationError as err:
        return err.violations


def _metric(orders, level: int, gram) -> MetricGroup:
    """The integer constructor: q(e_i) = G_ii / 2 level and, for i != j,
    b(e_i, e_j) = G_ij / level, for an integer matrix G with even
    diagonal.  The level is divided down to the lcm of the value
    denominators; raises ValidationError on a violated chain or
    congruence.
    """
    k = len(orders)
    g = gcd(level, *(c // 2 if i == j else c for i, row in enumerate(gram) for j, c in enumerate(row)))
    L = level // g
    gram = tuple(tuple(2 * (c // 2 // g % L) if i == j else c // g % L for j, c in enumerate(row)) for i, row in enumerate(gram))
    violations = _violations(orders, L, gram)
    if violations:
        raise ValidationError(violations)
    size = prod(orders)
    ELEMENT_CAP.check(size, f"group of order {size}")
    # the radical is the kernel of x -> G x mod L on A, whose image in
    # (Z/L)^k has order L^k / [Z^k : G Z^k + L Z^k]
    nondegenerate = L**k == size * lattice_index(gram, L)
    return MetricGroup(orders=tuple(orders), level=L, gram=gram, nondegenerate=nondegenerate)


def metric_group(orders, diag, cross=()) -> MetricGroup:
    """Validated constructor; raises ValidationError on bad data.

    cross: mapping or iterable of ((i, j), value) with 0-based i < j.
    """
    return _metric(*_integer_data(orders, diag, cross))


# -------------------------------------------------------------- gauss sums


@dataclass(frozen=True)
class GaussSum:
    """Exact Gauss sum data of a nondegenerate form: |G|^2 = |A| and the
    argument as a fraction of a full turn, a multiple of 1/8."""

    magnitude_squared: int
    argument: Fraction


def gauss_sum(mg: MetricGroup) -> GaussSum:
    """mg.gauss, computed once per group; the element cap is checked on
    every call, and a degenerate form raises ValueError."""
    ELEMENT_CAP.check(mg.size, f"group of order {mg.size}")
    return mg.gauss


# ------------------------------------------------- rebasing and direct sums


def _restricted(ambient: MetricGroup, orders, gens) -> MetricGroup:
    """The form of ambient read off gens, taken as generators of these
    orders: the Gram matrix H G H^T of the rows h of gens, whose entries
    _metric reduces mod the level."""
    return _metric(orders, ambient.level, mat_mul(mat_mul(gens, ambient.gram), list(zip(*gens))))


def _metric_from_generators(ambient: MetricGroup, gens: list[tuple[int, ...]], relations: list[list[int]], expected_size: int) -> MetricGroup:
    """Metric group presented by elements of an ambient group.

    relations must span the full relation lattice of gens (including any
    quotient identifications already encoded by the caller).  The Smith
    rebasing produces an invariant-factor generator tuple; q and b are
    read off the representatives.
    """
    if not gens:
        if expected_size != 1:
            raise ConsistencyError("no generators for a nontrivial group")
        return _metric((), 1, ())
    orders, combos = rebase_presentation(relations, len(gens))
    new_gens = [tuple(a % d for a, d in zip(h, ambient.orders)) for h in mat_mul(combos, gens)]
    kept = [(o, h) for o, h in zip(orders, new_gens) if o > 1]
    size = prod(o for o, _ in kept) if kept else 1
    if size != expected_size:
        raise ConsistencyError(f"rebased presentation has order {size}, expected {expected_size}")
    return _restricted(ambient, [o for o, _ in kept], [h for _, h in kept])


def direct_sum(a: MetricGroup, b: MetricGroup) -> MetricGroup:
    """Orthogonal direct sum, re-expressed in invariant-factor form.

    The block group has the orders of a, then of b, and no cross terms
    between the blocks.  If those orders permute into a divisor chain, as
    two p-groups' do, the sum is the block form with its generators in
    snf.pivot_order, the Smith form's own choice, and no Smith form is
    made; otherwise the block group is rebased through the Smith normal
    form of its relations, so e.g. Z_2 + Z_3 comes out as Z_6.  The
    result keeps a and b as its summands, so its Gauss sum, when asked
    for, is the product of theirs and no element of the sum is
    enumerated for it.
    """
    orders = a.orders + b.orders
    k = len(orders)
    ka = len(a.orders)
    L = lcm(a.level, b.level)
    sa, sb = L // a.level, L // b.level
    gram = tuple(tuple(sa * c for c in row) + (0,) * (k - ka) for row in a.gram)
    gram += tuple((0,) * ka + tuple(sb * c for c in row) for row in b.gram)
    perm = pivot_order(orders)
    chain = [orders[i] for i in perm]
    if all(d1 % d0 == 0 for d0, d1 in zip(chain, chain[1:])):
        out = _metric(chain, L, [[gram[i][j] for j in perm] for i in perm])
    else:
        # block object used only as an evaluation ambient; orders need not chain
        ambient = MetricGroup(orders, L, gram, a.nondegenerate and b.nondegenerate)
        gens = [(0,) * t + (1,) + (0,) * (k - 1 - t) for t in range(k)]
        relations = [[d * x for x in h] for d, h in zip(orders, gens)]
        out = _metric_from_generators(ambient, gens, relations, a.size * b.size)
    if out.nondegenerate != (a.nondegenerate and b.nondegenerate):
        raise ConsistencyError("degeneracy not preserved by direct sum")
    return replace(out, summands=(a, b))


def sylow_decompose(mg: MetricGroup) -> dict[int, MetricGroup]:
    """Orthogonal splitting into p-primary metric groups.

    The p-part of Z_d is generated by (d / p^v) e where p^v is the
    p-part of d; cross terms between different primes vanish because the
    pairing values lie in (1/gcd)Z = Z.
    """
    if not mg.nondegenerate:
        raise ValueError("sylow decomposition expects a nondegenerate metric group")
    primes = factorize(mg.size)
    if len(primes) == 1:
        # a p-group is its own Sylow part
        return {p: mg for p in primes}
    parts: dict[int, MetricGroup] = {}
    for p in primes:
        orders = []
        gens = []
        for i, d in enumerate(mg.orders):
            pv = 1
            while d % (pv * p) == 0:
                pv *= p
            if pv > 1:
                m = d // pv
                orders.append(pv)
                gens.append(tuple(m if t == i else 0 for t in range(len(mg.orders))))
        part = _restricted(mg, orders, gens)
        if not part.nondegenerate:
            raise ConsistencyError(f"Sylow {p}-part of a nondegenerate group is degenerate")
        parts[p] = part
    return parts


def inverse_form(mg: MetricGroup) -> MetricGroup:
    """Same group with q replaced by -q; Gauss sum conjugates."""
    return _metric(mg.orders, mg.level, [[-c for c in row] for row in mg.gram])
