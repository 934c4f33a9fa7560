"""Finite abelian groups with quadratic forms into Q/Z, all exact.

A metric group is stored in invariant-factor form d_1 | d_2 | ... | d_k
with the form given by its values on the generators plus the bilinear
cross terms.  Values are Fractions reduced mod 1.  Degenerate forms are
representable (the radical can be nontrivial); nondegeneracy is decided
by exhaustive radical enumeration and recorded on the object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .arith import factorize
from .caps import ELEMENT_CAP
from .cyclotomic import CycInt
from .errors import ConsistencyError, ValidationError
from .fusion_ring import Violation


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_d1 x ... x Z_dk, d_1 | d_2 | ... | d_k.

    Elements are integer tuples with 0 <= x_i < d_i.  The empty tuple of
    orders is the trivial group with single element ().
    """

    orders: tuple[int, ...]

    @property
    def size(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    def elements(self):
        return product(*(range(d) for d in self.orders))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def scale(self, n: int, x) -> tuple[int, ...]:
        return tuple((n * a) % d for a, d in zip(x, self.orders))

    def element_order(self, x) -> int:
        return lcm(*(d // gcd(d, a) for a, d in zip(x, self.orders))) if self.orders else 1


@dataclass(frozen=True)
class QuadraticForm:
    """q on generators (diag) and the pairing b on generator pairs (cross).

    cross is a full symmetric matrix with zero diagonal; q(e_i) = diag[i]
    and b(e_i, e_j) = cross[i][j] for i != j.  All entries live in Q/Z.
    """

    diag: tuple[Fraction, ...]
    cross: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class MetricGroup:
    group: FiniteAbelianGroup
    form: QuadraticForm
    nondegenerate: bool

    @property
    def orders(self) -> tuple[int, ...]:
        return self.group.orders

    @property
    def size(self) -> int:
        return self.group.size

    def q(self, x) -> Fraction:
        return evaluate(self, x)

    def b(self, x, y) -> Fraction:
        """Polarization b(x, y) = q(x + y) - q(x) - q(y) mod 1."""
        g = self.group
        return (evaluate(self, g.add(x, y)) - evaluate(self, x) - evaluate(self, y)) % 1


def _mod1(value) -> Fraction:
    return Fraction(value) % 1


def _cross_matrix(k: int, entries) -> tuple[tuple[Fraction, ...], ...]:
    """Build the symmetric cross matrix from {(i, j): value} with i < j."""
    mat = [[Fraction(0)] * k for _ in range(k)]
    for (i, j), v in dict(entries).items():
        if not 0 <= i < j < k:
            raise ValidationError([Violation("shape", (i, j), "cross index out of range or not i < j")])
        mat[i][j] = mat[j][i] = _mod1(v)
    return tuple(tuple(row) for row in mat)


def validate_metric(orders, diag, cross=()) -> list[Violation]:
    """Report every violated well-definedness condition.

    Checks: invariant-factor chain, congruences 2 d_i q_i in Z and
    d_i**2 q_i in Z, and gcd(d_i, d_j) b_ij in Z.  Degeneracy is not a
    violation; it is recorded on the constructed object instead.
    """
    out: list[Violation] = []
    orders = tuple(int(d) for d in orders)
    diag = tuple(_mod1(v) for v in diag)
    k = len(orders)
    for d in orders:
        if d < 2:
            out.append(Violation("orders", (d,), "cyclic orders must be at least 2"))
    for a, b in zip(orders, orders[1:]):
        if a < 2 or b % a != 0:
            out.append(Violation("orders", (a, b), f"invariant factors must divide in order, {a} does not divide {b}"))
    if len(diag) != k:
        out.append(Violation("shape", (), f"{len(diag)} generator values for {k} generators"))
        return out
    try:
        mat = _cross_matrix(k, cross)
    except ValidationError as err:
        return out + err.violations
    for i, (d, qv) in enumerate(zip(orders, diag)):
        if (2 * d * qv) % 1 != 0:
            out.append(Violation("congruence", (i,), f"2 * {d} * q({i}) = {2 * d * qv} is not an integer"))
        if (d * d * qv) % 1 != 0:
            out.append(Violation("congruence", (i,), f"{d}^2 * q({i}) = {d * d * qv} is not an integer"))
    for i in range(k):
        for j in range(i + 1, k):
            g = gcd(orders[i], orders[j])
            if (g * mat[i][j]) % 1 != 0:
                out.append(Violation("congruence", (i, j), f"gcd {g} times cross term {mat[i][j]} is not an integer"))
    return out


def metric_group(orders, diag, cross=(), cap: int | None = None) -> MetricGroup:
    """Validated constructor; raises ValidationError on bad data.

    cross: mapping or iterable of ((i, j), value) with 0-based i < j.
    """
    violations = validate_metric(orders, diag, cross)
    if violations:
        raise ValidationError(violations)
    orders = tuple(int(d) for d in orders)
    group = FiniteAbelianGroup(orders)
    form = QuadraticForm(
        diag=tuple(_mod1(v) for v in diag),
        cross=_cross_matrix(len(orders), cross),
    )
    mg = MetricGroup(group=group, form=form, nondegenerate=True)
    nondeg = not any(any(x) for x in _radical_scan(mg, cap))
    return MetricGroup(group=group, form=form, nondegenerate=nondeg)


def evaluate(mg: MetricGroup, x) -> Fraction:
    """q(x) = sum x_i^2 q_i + sum_{i<j} x_i x_j b_ij mod 1."""
    orders = mg.group.orders
    if len(x) != len(orders) or any(not 0 <= a < d for a, d in zip(x, orders)):
        raise ValueError(f"{x} is not an element of the group with orders {orders}")
    total = Fraction(0)
    diag, cross = mg.form.diag, mg.form.cross
    for i, a in enumerate(x):
        if a:
            total += a * a * diag[i]
            for j in range(i + 1, len(x)):
                if x[j]:
                    total += a * x[j] * cross[i][j]
    return total % 1


def _gen_pairing(mg: MetricGroup, x, i: int) -> Fraction:
    """b(x, e_i) from the stored generator data, no polarization needed."""
    total = 2 * x[i] * mg.form.diag[i]
    for j, a in enumerate(x):
        if j != i and a:
            total += a * mg.form.cross[i][j]
    return total % 1


def _radical_scan(mg: MetricGroup, cap: int | None):
    """Lazily yield the radical in element order, zero first, so the
    nondegeneracy check stops at the first nonzero radical element."""
    ELEMENT_CAP.check(mg.size, f"group of order {mg.size}", cap)
    k = len(mg.orders)
    for x in mg.group.elements():
        if all(_gen_pairing(mg, x, i) == 0 for i in range(k)):
            yield x


def radical(mg: MetricGroup, cap: int | None = None) -> list[tuple[int, ...]]:
    """All x with b(x, -) identically zero; [zero] iff nondegenerate."""
    return list(_radical_scan(mg, cap))


# -------------------------------------------------------------- gauss sums


@dataclass(frozen=True)
class GaussSum:
    """Exact Gauss sum data: |G|^2 as an integer and the argument as a
    fraction of a full turn (multiples of 1/8 whenever G != 0).

    argument None means the sum is zero.  exact records that both fields
    were decided in cyclotomic integer arithmetic.
    """

    magnitude_squared: int
    argument: Fraction | None
    exact: bool = True


def gauss_sum(mg: MetricGroup, cap: int | None = None) -> GaussSum:
    """Sum of exp(2 pi i q(x)) over the group, computed exactly.

    The argument is pinned down in two exact steps: G * conj(G) gives
    |G|^2, and comparing G**2 against |G|^2 * i**m fixes the argument
    mod pi; the remaining sign is separated numerically with error
    orders of magnitude below the gap of 2|G| >= 2.

    For a nondegenerate form the Milgram relation |G|^2 = |A| and
    argument in (1/8)Z is enforced as a postcondition.
    """
    ELEMENT_CAP.check(mg.size, f"group of order {mg.size}", cap)
    denoms = [v.denominator for v in mg.form.diag]
    denoms += [v.denominator for row in mg.form.cross for v in row]
    level = lcm(8, *denoms) if denoms else 8
    diag_scaled = [int(v * level) for v in mg.form.diag]
    cross_scaled = [[int(v * level) for v in row] for row in mg.form.cross]
    counts: dict[int, int] = {}
    k = len(mg.orders)
    for x in mg.group.elements():
        e = 0
        for i in range(k):
            a = x[i]
            if a:
                e += a * a * diag_scaled[i]
                for j in range(i + 1, k):
                    if x[j]:
                        e += a * x[j] * cross_scaled[i][j]
        e %= level
        counts[e] = counts.get(e, 0) + 1
    g = CycInt.from_exponent_counts(level, counts)
    mag2 = (g * g.conjugate()).as_integer()
    if mag2 is None:
        raise ConsistencyError("G * conj(G) is not a rational integer")
    if mag2 == 0:
        result = GaussSum(magnitude_squared=0, argument=None)
    else:
        g2 = g * g
        quarter = next(
            (m for m in range(4) if g2 == CycInt.root_of_unity(level, m * level // 4).scaled(mag2)),
            None,
        )
        if quarter is None:
            raise ConsistencyError("G**2 is not |G|^2 times a fourth root of unity")
        # argument is quarter/8 or quarter/8 + 1/2 of a turn; the numeric
        # value of G rotated back is +-|G|, and |G| >= 1 dwarfs float error
        import cmath

        rotated = g.numeric() * cmath.exp(-2j * cmath.pi * quarter / 8)
        eighths = quarter if rotated.real > 0 else quarter + 4
        result = GaussSum(magnitude_squared=mag2, argument=Fraction(eighths, 8) % 1)
    if mg.nondegenerate:
        if result.magnitude_squared != mg.size or result.argument is None:
            raise ConsistencyError(
                f"Milgram check failed: |G|^2 = {result.magnitude_squared} on a nondegenerate group of order {mg.size}"
            )
    return result


# ------------------------------------------------- rebasing and direct sums


def _metric_from_generators(ambient: MetricGroup, gens: list[tuple[int, ...]], relations: list[list[int]], expected_size: int, cap: int | None = None) -> MetricGroup:
    """Metric group presented by elements of an ambient group.

    relations must span the full relation lattice of gens (including any
    quotient identifications already encoded by the caller).  The Smith
    rebasing produces an invariant-factor generator tuple; q and b are
    read off the representatives.
    """
    from .snf import rebase_presentation

    if not gens:
        if expected_size != 1:
            raise ConsistencyError("no generators for a nontrivial group")
        return metric_group((), ())
    orders, combos = rebase_presentation(relations, len(gens))
    new_gens = []
    for combo in combos:
        acc = ambient.group.zero()
        for c, h in zip(combo, gens):
            acc = ambient.group.add(acc, ambient.group.scale(c, h))
        new_gens.append(acc)
    kept = [(o, h) for o, h in zip(orders, new_gens) if o > 1]
    size = prod(o for o, _ in kept) if kept else 1
    if size != expected_size:
        raise ConsistencyError(f"rebased presentation has order {size}, expected {expected_size}")
    diag = [ambient.q(h) for _, h in kept]
    cross = {}
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            cross[(i, j)] = ambient.b(kept[i][1], kept[j][1])
    return metric_group([o for o, _ in kept], diag, cross, cap=cap)


def direct_sum(a: MetricGroup, b: MetricGroup, cap: int | None = None) -> MetricGroup:
    """Orthogonal direct sum, re-expressed in invariant-factor form.

    The block group (orders of a, then of b, cross terms zero between
    blocks) is rebased through the Smith normal form of its relation
    matrix, so e.g. Z_2 + Z_3 comes out as Z_6 with the form carried to
    the new generator.
    """
    orders = a.orders + b.orders
    k = len(orders)
    ka = len(a.orders)
    diag = a.form.diag + b.form.diag
    cross = {}
    for i in range(ka):
        for j in range(i + 1, ka):
            cross[(i, j)] = a.form.cross[i][j]
    for i in range(len(b.orders)):
        for j in range(i + 1, len(b.orders)):
            cross[(ka + i, ka + j)] = b.form.cross[i][j]
    # block object used only as an evaluation ambient; orders need not chain
    ambient = MetricGroup(
        group=FiniteAbelianGroup(orders),
        form=QuadraticForm(diag=tuple(diag), cross=_cross_matrix(k, cross)),
        nondegenerate=a.nondegenerate and b.nondegenerate,
    )
    gens = [tuple(int(i == t) for i in range(k)) for t in range(k)]
    relations = [[orders[t] if i == t else 0 for i in range(k)] for t in range(k)]
    out = _metric_from_generators(ambient, gens, relations, a.size * b.size, cap=cap)
    if out.nondegenerate != (a.nondegenerate and b.nondegenerate):
        raise ConsistencyError("degeneracy not preserved by direct sum")
    return out


def sylow_decompose(mg: MetricGroup, cap: int | None = None) -> dict[int, MetricGroup]:
    """Orthogonal splitting into p-primary metric groups.

    The p-part of Z_d is generated by (d / p^v) e where p^v is the
    p-part of d; cross terms between different primes vanish because the
    pairing values lie in (1/gcd)Z = Z.
    """
    if not mg.nondegenerate:
        raise ValueError("sylow decomposition expects a nondegenerate metric group")
    parts: dict[int, MetricGroup] = {}
    for p in factorize(mg.size):
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
        diag = [mg.q(g) for g in gens]
        cross = {}
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                cross[(i, j)] = mg.b(gens[i], gens[j])
        part = metric_group(orders, diag, cross, cap=cap)
        if not part.nondegenerate:
            raise ConsistencyError(f"Sylow {p}-part of a nondegenerate group is degenerate")
        parts[p] = part
    return parts


def inverse_form(mg: MetricGroup, cap: int | None = None) -> MetricGroup:
    """Same group with q replaced by -q; Gauss sum conjugates."""
    cross = {}
    k = len(mg.orders)
    for i in range(k):
        for j in range(i + 1, k):
            cross[(i, j)] = -mg.form.cross[i][j]
    return metric_group(mg.orders, [-v for v in mg.form.diag], cross, cap=cap)
