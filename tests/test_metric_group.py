import cmath
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bilinear, direct_sum_by_rebase, element_order, group_add, load_metric
from fusionwitt import cli, corpus, metric_group as metric_group_module, snf, witt
from fusionwitt.arith import factorize
from fusionwitt.caps import ELEMENT_CAP
from fusionwitt.errors import CapExceededError, ValidationError
from fusionwitt.fusion_ring import Violation
from fusionwitt.metric_group import (
    MetricGroup,
    _metric_from_generators,
    direct_sum,
    gauss_sum,
    inverse_form,
    metric_group,
    sylow_decompose,
    validate_metric,
)
from fusionwitt.snf import integer_kernel, rebase_presentation
from fusionwitt.witt import class_multiply, isotropic_elements, metric_iso, pointed_witt_class, reduce_once

F = Fraction


def violation_kinds(orders, diag, cross=()):
    return sorted({v.kind for v in validate_metric(orders, diag, cross)})


# ----------------------------------------------------------- validation


def test_valid_forms_pass():
    assert validate_metric((2,), [F(1, 4)]) == []
    assert validate_metric((2,), [F(1, 2)]) == []
    assert validate_metric((2, 4), [F(1, 4), F(1, 8)], {(0, 1): F(1, 2)}) == []
    assert validate_metric((), []) == []


def test_fraction_of_wrong_denominator_rejected():
    # q = 1/3 on Z2 fails 2 * 2 * q in Z, which covers 2^2 * q in Z
    assert violation_kinds((2,), [F(1, 3)]) == ["congruence"]


def test_half_integer_needs_even_order():
    # q = 1/4 on Z3: 2 * 3 * 1/4 is not an integer
    assert violation_kinds((3,), [F(1, 4)]) == ["congruence"]


def test_orders_must_chain():
    assert violation_kinds((4, 2), [F(1, 8), F(1, 4)]) == ["orders"]
    assert violation_kinds((1,), [F(0)]) == ["orders"]


def test_diag_length_mismatch():
    assert violation_kinds((2, 2), [F(1, 4)]) == ["shape"]


def test_cross_index_out_of_range():
    assert violation_kinds((2, 2), [F(1, 4), F(1, 4)], {(0, 2): F(1, 2)}) == ["shape"]
    assert violation_kinds((2, 2), [F(1, 4), F(1, 4)], {(1, 0): F(1, 2)}) == ["shape"]


def test_cross_congruence():
    # gcd(2, 4) * 1/4 is not an integer
    assert violation_kinds((2, 4), [F(1, 4), F(1, 8)], {(0, 1): F(1, 4)}) == ["congruence"]


def test_constructor_raises_on_violations():
    with pytest.raises(ValidationError):
        metric_group((2,), [F(1, 3)])


def test_cap_respected():
    with ELEMENT_CAP.limit(10), pytest.raises(CapExceededError):
        metric_group((17,), [F(1, 17)])


# --------------------------------------------------- evaluation and radical


def test_evaluation_on_generators(semion, hyperbolic3):
    assert semion.q((1,)) == F(1, 4)
    assert hyperbolic3.q((1, 0)) == 0
    assert hyperbolic3.q((1, 1)) == F(1, 3)
    assert hyperbolic3.q((1, 2)) == F(2, 3)


def test_evaluation_range_check(semion):
    with pytest.raises(ValueError):
        semion.q((2,))
    with pytest.raises(ValueError):
        semion.q((0, 0))


def test_polarization_identity(hyperbolic3):
    elements = list(hyperbolic3.elements())
    for x in elements:
        for y in elements:
            expected = (hyperbolic3.q(group_add(hyperbolic3.orders, x, y)) - hyperbolic3.q(x) - hyperbolic3.q(y)) % 1
            assert bilinear(hyperbolic3, x, y) == expected
    assert bilinear(hyperbolic3, (1, 0), (0, 1)) == F(1, 3)


def radical_oracle(mg):
    """Every x with b(x, -) identically zero, found element by element:
    the scan that the lattice index in metric_group() replaces."""
    return [x for x in mg.elements() if not any(mg.pairing_row(x))]


def test_radical_detects_degeneracy():
    fermion = load_metric("z2_fermion_degenerate.mg")
    assert not fermion.nondegenerate
    assert radical_oracle(fermion) == [(0,), (1,)]
    zero_form = metric_group((2,), [F(0)])
    assert not zero_form.nondegenerate


def test_radical_trivial_when_nondegenerate(semion, hyperbolic3):
    assert semion.nondegenerate
    assert radical_oracle(semion) == [(0,)]
    assert radical_oracle(hyperbolic3) == [(0, 0)]


def test_building_a_metric_group_enumerates_nothing(monkeypatch, semion, z3_third):
    names = corpus.names(".mg")
    forms = [cli.parse_metric_file(corpus.path(name)) for name in names]
    forms.append(((3, 3**9), [F(1, 3), F(1, 3**9)], {}))
    enumerations = []
    original = MetricGroup.elements
    monkeypatch.setattr(MetricGroup, "elements", lambda mg: enumerations.append(mg) or original(mg))
    built = [metric_group(*form) for form in forms]
    assert [mg.nondegenerate for mg in built] == [name != "z2_fermion_degenerate.mg" for name in names] + [True]
    sylow_decompose(built[-1])
    sylow_decompose(direct_sum(semion, z3_third))
    assert enumerations == []


# ------------------------------------------------------------- gauss sums


GAUSS_TABLE = [
    ("semion.mg", 2, F(1, 8)),
    ("semion_bar.mg", 2, F(7, 8)),
    ("z4_eighth.mg", 4, F(1, 8)),
    ("z8_sixteenth.mg", 8, F(1, 8)),
    ("z3_third.mg", 3, F(1, 4)),
    ("z3_two_thirds.mg", 3, F(3, 4)),
    ("z5_fifth.mg", 5, F(0)),
    ("z5_two_fifths.mg", 5, F(1, 2)),
    ("hyperbolic3.mg", 9, F(0)),
    ("z2z2_diag.mg", 4, F(1, 4)),
    ("z2z2_hyperbolic.mg", 4, F(0)),
    ("z2z2_fermion.mg", 4, F(1, 2)),
]


@pytest.mark.parametrize("name,mag2,argument", GAUSS_TABLE)
def test_gauss_sum_table(name, mag2, argument):
    gs = gauss_sum(load_metric(name))
    assert gs.magnitude_squared == mag2
    assert gs.argument == argument


def numeric_gauss(mg):
    return sum(cmath.exp(2j * cmath.pi * mg.q(x)) for x in mg.elements())


def circular_close(a: float, b: float, eps: float = 1e-9) -> bool:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d) < eps


@pytest.mark.parametrize("name,mag2,argument", GAUSS_TABLE)
def test_gauss_sum_numeric_oracle(name, mag2, argument):
    mg = load_metric(name)
    g = numeric_gauss(mg)
    assert abs(abs(g) ** 2 - mag2) < 1e-8
    assert circular_close(cmath.phase(g) / (2 * cmath.pi), float(argument))


def test_gauss_sum_of_degenerate_forms():
    # only nondegenerate forms have a Gauss sum: the fermion's sum is 0,
    # and q = 0 on Z2 sums to 2
    for mg in (load_metric("z2_fermion_degenerate.mg"), metric_group((2,), [F(0)])):
        assert not mg.nondegenerate
        with pytest.raises(ValueError, match="nondegenerate"):
            gauss_sum(mg)


def test_gauss_argument_conjugates_under_inverse(semion, semion_bar):
    inv = inverse_form(semion)
    gs = gauss_sum(inv)
    assert gs.argument == F(7, 8)
    assert gs.magnitude_squared == 2
    assert gauss_sum(semion_bar).argument == F(7, 8)


def test_gauss_sum_multiplicative_over_direct_sum(semion, z3_third):
    total = direct_sum(semion, z3_third)
    gs = gauss_sum(total)
    a = gauss_sum(semion)
    b = gauss_sum(z3_third)
    assert gs.magnitude_squared == a.magnitude_squared * b.magnitude_squared
    assert gs.argument == (a.argument + b.argument) % 1


# ----------------------------------------------- direct sums and sylow parts


def test_direct_sum_rebases_to_invariant_factors(monkeypatch, semion, z3_third):
    calls = []
    smith_normal_form = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda mat: calls.append(mat) or smith_normal_form(mat))
    total = direct_sum(semion, z3_third)
    # the orders 2, 3 are no divisor chain, so the sum is rebased
    assert calls == [[[2, 0], [0, 3]]]
    assert total == direct_sum_by_rebase(semion, z3_third)
    assert total.orders == (6,)
    assert total.size == 6
    # the order-6 generator is e1 + b e2 with b coprime to 3, and both
    # choices of b give q = 1/4 + 1/3
    assert total.q((1,)) == F(7, 12)
    assert total.nondegenerate


def test_direct_sum_with_trivial_group(semion):
    trivial = metric_group((), [])
    assert direct_sum(semion, trivial).orders == (2,)
    assert direct_sum(trivial, trivial).orders == ()


def test_sylow_round_trip(semion, z3_third):
    total = direct_sum(semion, z3_third)
    parts = sylow_decompose(total)
    assert sorted(parts) == [2, 3]
    assert parts[2].orders == (2,)
    assert parts[2].q((1,)) == F(1, 4)
    assert parts[3].orders == (3,)
    assert parts[3].q((1,)) == F(1, 3)


def test_sylow_of_prime_power_group(hyperbolic3):
    parts = sylow_decompose(hyperbolic3)
    assert list(parts) == [3]
    assert parts[3].orders == (3, 3)


def test_sylow_rejects_degenerate():
    fermion = load_metric("z2_fermion_degenerate.mg")
    with pytest.raises(ValueError):
        sylow_decompose(fermion)


# -------------------------------------------------------- random diagonals


def diagonal_form(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    if d % 2 == 0:
        a = draw(st.integers(min_value=0, max_value=2 * d - 1))
        return (d,), [F(a, 2 * d)]
    a = draw(st.integers(min_value=0, max_value=d - 1))
    return (d,), [F(a, d)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_diagonal_forms_validate_and_satisfy_milgram(data):
    orders, diag = diagonal_form(data.draw)
    assert validate_metric(orders, diag) == []
    mg = metric_group(orders, diag)
    if not mg.nondegenerate:
        with pytest.raises(ValueError):
            gauss_sum(mg)
        return
    gs = gauss_sum(mg)  # the exact G**2 test is the Milgram check
    assert gs.magnitude_squared == mg.size
    assert 8 * gs.argument % 1 == 0
    g = numeric_gauss(mg)
    assert abs(abs(g) ** 2 - gs.magnitude_squared) < 1e-8
    assert circular_close(cmath.phase(g) / (2 * cmath.pi), float(gs.argument))


# ------------------------------------- integer evaluator against Fractions


class Form(NamedTuple):
    """Generator values mod 1: q(e_i) = diag[i], and b(e_i, e_j) =
    cross[i][j] for i != j in a full symmetric matrix with zero diagonal."""

    diag: tuple[Fraction, ...]
    cross: tuple[tuple[Fraction, ...], ...]


def fraction_form(mg) -> Form:
    """The generator values of a metric group, read off its Gram matrix."""
    L = mg.level
    return Form(tuple(F(row[i] // 2, L) for i, row in enumerate(mg.gram)),
                tuple(tuple(F(0 if i == j else c, L) for j, c in enumerate(row)) for i, row in enumerate(mg.gram)))


def oracle_q(form, x) -> Fraction:
    """q(x) = sum x_i^2 q_i + sum_{i<j} x_i x_j b_ij mod 1 in Fractions,
    straight from the generator values of a Form, without a level."""
    total = Fraction(0)
    diag, cross = form.diag, form.cross
    for i, a in enumerate(x):
        total += a * a * diag[i]
        for j in range(i + 1, len(x)):
            total += a * x[j] * cross[i][j]
    return total % 1


@st.composite
def forms_with_cross_terms(draw, max_size=64):
    """Orders d_1 | ... | d_k, k <= 4, over p = 2, 3, 5, 7 or mixed primes,
    of order at most max_size (the trivial group when max_size < 2), with
    random values: q_i = u/2d for even d (u/2^(k+1) on Z_2^k), u/d for
    odd d, and b_ij = v/gcd(d_i, d_j)."""
    primes = draw(st.sampled_from([(2,), (3,), (5,), (7,), (2, 3), (2, 5), (3, 7), (2, 3, 5)]))
    orders, d = [], 1
    for _ in range(draw(st.integers(1, 4))):
        d *= prod(p ** draw(st.integers(0, 2)) for p in primes)
        if prod(orders) * d > max_size:
            break
        if d > 1:
            orders.append(d)
    diag = [F(draw(st.integers(0, 2 * d - 1)), 2 * d) if d % 2 == 0 else F(draw(st.integers(0, d - 1)), d)
            for d in orders]
    cross = {}
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            g = gcd(orders[i], orders[j])
            cross[(i, j)] = F(draw(st.integers(0, g - 1)), g)
    return orders, diag, cross


@settings(max_examples=150, deadline=None)
@given(forms_with_cross_terms())
def test_integer_evaluator_matches_fraction_oracle(form):
    mg = metric_group(*form)
    drawn = fraction_ambient(*form)
    assert (mg.orders, mg.level, mg.gram) == integer_data(drawn)
    elements = list(mg.elements())
    q = {x: oracle_q(drawn.form, x) for x in elements}
    assert all(mg.q(x) == q[x] for x in elements)
    pairing = {(x, y): (q[group_add(mg.orders, x, y)] - q[x] - q[y]) % 1 for x in elements for y in elements}
    assert all(bilinear(mg, x, y) == pairing[x, y] for x in elements for y in elements)
    rad = [x for x in elements if all(pairing[x, y] == 0 for y in elements)]
    assert radical_oracle(mg) == rad
    assert mg.nondegenerate == (rad == [(0,) * len(mg.orders)])
    isotropic = [x for x in elements if any(x) and q[x] == 0]
    assert list(isotropic_elements(mg)) == isotropic
    if not mg.nondegenerate:
        with pytest.raises(ValueError):
            gauss_sum(mg)
        return
    numeric = sum(cmath.exp(2j * cmath.pi * v) for v in q.values())
    gs = gauss_sum(mg)
    assert abs(abs(numeric) ** 2 - gs.magnitude_squared) < 1e-8
    assert circular_close(cmath.phase(numeric) / (2 * cmath.pi), float(gs.argument))
    for x in isotropic[:1] + isotropic[-1:]:
        # x-perp / <x>: q is constant on the cosets of <x> inside x-perp, so
        # the quotient's values, each counted ord(x) times, are q on x-perp
        perp = [y for y in elements if pairing[x, y] == 0]
        rep = reduce_once(mg, x)
        ord_x = element_order(mg.orders, x)
        assert len(perp) == rep.size * ord_x
        values = Counter(oracle_q(fraction_form(rep), z) for z in rep.elements())
        assert Counter({v: c * ord_x for v, c in values.items()}) == Counter(q[y] for y in perp)


# ------------------------------------------- Gauss sums of direct sums


def plane(k: int, odd: bool) -> MetricGroup:
    """On Z_{2^k}^2: U_k, q(x, y) = xy / 2^k, or V_k, q = (x^2 + xy + y^2) / 2^k,
    the 2-adic blocks that no cyclic form splits off."""
    d = 2**k
    q = F(int(odd), d)
    return metric_group((d, d), (q, q), {(0, 1): F(1, d)})


# nondegenerate forms of order at most 16: random values with cross
# terms over p = 2, 3, 5, 7 or mixed primes, and the planes U_k, V_k
small_nondegenerate = st.one_of(
    st.builds(plane, st.integers(1, 2), st.booleans()),
    forms_with_cross_terms(max_size=16).map(lambda form: metric_group(*form)).filter(lambda mg: mg.nondegenerate),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_nondegenerate, min_size=2, max_size=3), st.booleans())
def test_a_direct_sums_gauss_sum_is_its_enumerated_sum(pieces, nest_right):
    # the product of the summands' sums against the enumerated sum of a
    # group with the same orders, level and gram but no summands; three
    # pieces nest as (a + b) + c or a + (b + c)
    if nest_right and len(pieces) == 3:
        total = direct_sum(pieces[0], direct_sum(pieces[1], pieces[2]))
    else:
        total = pieces[0]
        for piece in pieces[1:]:
            total = direct_sum(total, piece)
    plain = MetricGroup(total.orders, total.level, total.gram, total.nondegenerate)
    assert total.summands is not None and plain.summands is None
    assert plain == total
    assert gauss_sum(total) == gauss_sum(plain)


def hyperbolic(p: int, k: int) -> MetricGroup:
    """H_k on Z_{p^k}^2, q(x, y) = xy / p^k; at p = 2 this is U_k."""
    d = p**k
    return metric_group((d, d), (0, 0), {(0, 1): F(1, d)})


@st.composite
def same_prime_pairs(draw):
    """Two forms on p-groups for one p in 2, 3, 5, 7, each of order at
    most 256 and possibly degenerate: U_k and V_k at p = 2, H_k at odd p,
    or random values with cross terms on one to three cyclic groups,
    each order dividing the next.  The cyclic orders start at p or p^2,
    so that equal orders, which the pivot order does not keep in place,
    are common."""
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def piece():
        kind = draw(st.sampled_from(("values", "U", "V") if p == 2 else ("values", "H")))
        if kind != "values":
            # the plane on Z_{p^k}^2 has order p^(2k) <= 256
            k = draw(st.integers(1, 4 if p == 2 else 2 if p == 3 else 1))
            return plane(k, kind == "V") if p == 2 else hyperbolic(p, k)
        orders = [p ** draw(st.integers(1, 2))]
        for _ in range(draw(st.integers(0, 2))):
            d = orders[-1] * p ** draw(st.integers(0, 1))
            if prod(orders) * d > 256:
                break
            orders.append(d)
        diag = [F(draw(st.integers(0, 2 * d - 1)), 2 * d) if p == 2 else F(draw(st.integers(0, d - 1)), d)
                for d in orders]
        # orders[i] divides orders[j], so it is their gcd
        cross = {(i, j): F(draw(st.integers(0, orders[i] - 1)), orders[i])
                 for i in range(len(orders)) for j in range(i + 1, len(orders))}
        return metric_group(orders, diag, cross)

    return piece(), piece()


@settings(max_examples=300, deadline=None)
@given(same_prime_pairs())
def test_a_same_prime_direct_sum_is_the_rebased_block_form(pair):
    # the permuted block form against the Smith rebase of the block group
    a, b = pair
    new, old = direct_sum(a, b), direct_sum_by_rebase(a, b)
    assert (new.orders, new.level, new.gram, new.nondegenerate) == (old.orders, old.level, old.gram, old.nondegenerate)
    assert new.summands == (a, b)


def test_a_same_prime_direct_sum_makes_no_smith_form(monkeypatch, semion):
    # the orders (4, 4) + (2,) are taken as entries 2, 1, 0, the order the
    # elimination pivots in, not the stable sort's 2, 0, 1
    a = metric_group((4, 4), (F(1, 8), F(3, 8)), {(0, 1): F(1, 4)})
    rebased = direct_sum_by_rebase(a, semion)
    calls = []
    monkeypatch.setattr(snf, "smith_normal_form", calls.append)
    total = direct_sum(a, semion)
    assert calls == []
    assert total == rebased
    assert (total.orders, total.gram) == ((2, 4, 4), ((4, 0, 0), (0, 6, 2), (0, 2, 2)))


# ------------------------------- integer constructors against the Fraction path


@dataclass(frozen=True)
class FractionAmbient:
    """Fraction generator values mod 1, evaluated by oracle_q: drawn input,
    the results of the oracles below, and the block ambient direct_sum
    built before it held its forms in integers.  The orders need not
    chain."""

    orders: tuple[int, ...]
    form: Form

    def q(self, x) -> Fraction:
        return oracle_q(self.form, x)

    def b(self, x, y) -> Fraction:
        return (oracle_q(self.form, [s + t for s, t in zip(x, y)]) - self.q(x) - self.q(y)) % 1


def fraction_ambient(orders, diag, cross=()) -> FractionAmbient:
    """metric_group() input as given, reduced mod 1, with the cross terms
    as a full symmetric matrix."""
    k = len(orders)
    mat = [[F(0)] * k for _ in range(k)]
    for (i, j), v in dict(cross).items():
        mat[i][j] = mat[j][i] = F(v) % 1
    return FractionAmbient(tuple(orders), Form(tuple(F(v) % 1 for v in diag), tuple(map(tuple, mat))))


def integer_data(ambient) -> tuple:
    """(orders, level, gram) that the Fraction values of ambient define."""
    diag, cross = ambient.form
    level = lcm(*(v.denominator for row in (diag, *cross) for v in row))
    gram = tuple(tuple(int(2 * diag[i] * level) if i == j else int(v * level) for j, v in enumerate(row))
                 for i, row in enumerate(cross))
    return ambient.orders, level, gram


def restricted_oracle(ambient, orders, gens):
    """The form of ambient read off gens through q and b."""
    cross = {(i, j): ambient.b(gens[i], gens[j]) for i in range(len(gens)) for j in range(i + 1, len(gens))}
    return fraction_ambient(orders, [ambient.q(h) for h in gens], cross)


def from_generators_oracle(ambient, gens, relations, expected_size):
    """_metric_from_generators with the new generators summed by scale and add."""
    if not gens:
        return fraction_ambient((), ())
    orders, combos = rebase_presentation(relations, len(gens))
    new_gens = []
    for combo in combos:
        acc = (0,) * len(ambient.orders)
        for c, h in zip(combo, gens):
            acc = group_add(ambient.orders, acc, tuple(c * a for a in h))
        new_gens.append(acc)
    kept = [(o, h) for o, h in zip(orders, new_gens) if o > 1]
    assert prod(o for o, _ in kept) == expected_size
    return restricted_oracle(ambient, [o for o, _ in kept], [h for _, h in kept])


def direct_sum_oracle(a, b):
    k, ka = len(a.orders) + len(b.orders), len(a.orders)
    cross = [[F(0)] * k for _ in range(k)]
    for off, mg in ((0, a), (ka, b)):
        for i, row in enumerate(mg.form.cross):
            cross[off + i][off:off + len(row)] = row
    ambient = FractionAmbient(a.orders + b.orders, Form(a.form.diag + b.form.diag, tuple(map(tuple, cross))))
    gens = [tuple(int(i == t) for i in range(k)) for t in range(k)]
    relations = [[ambient.orders[t] if i == t else 0 for i in range(k)] for t in range(k)]
    return from_generators_oracle(ambient, gens, relations, prod(ambient.orders))


def sylow_oracle(mg):
    primes = factorize(prod(mg.orders))
    if len(primes) == 1:
        return {p: mg for p in primes}
    parts = {}
    for p in primes:
        orders, gens = [], []
        for i, d in enumerate(mg.orders):
            pv = p ** next(v for v in range(d) if d % p ** (v + 1))
            if pv > 1:
                orders.append(pv)
                gens.append(tuple(d // pv if t == i else 0 for t in range(len(mg.orders))))
        parts[p] = restricted_oracle(mg, orders, gens)
    return parts


def inverse_oracle(mg):
    return FractionAmbient(mg.orders, Form(
        tuple(-v % 1 for v in mg.form.diag), tuple(tuple(-v % 1 for v in row) for row in mg.form.cross)))


def assert_same_metric(new, old):
    """new is the object metric_group() builds from the Fraction values of
    old, with the orders, level and gram that those values define."""
    k = len(old.orders)
    diag, cross = old.form
    assert new == metric_group(old.orders, diag, {(i, j): cross[i][j] for i in range(k) for j in range(i + 1, k)})
    assert (new.orders, new.level, new.gram) == integer_data(old)
    assert new.nondegenerate == (radical_oracle(new) == [(0,) * k])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_constructors_match_fraction_oracle(data):
    form_a = data.draw(forms_with_cross_terms(max_size=4096))
    a, a_in = metric_group(*form_a), fraction_ambient(*form_a)
    form_b = data.draw(forms_with_cross_terms(max_size=4096 // a.size))
    b, b_in = metric_group(*form_b), fraction_ambient(*form_b)
    assert_same_metric(a, a_in)
    assert_same_metric(direct_sum(a, b), direct_sum_oracle(a_in, b_in))
    assert_same_metric(inverse_form(a), inverse_oracle(a_in))
    if a.nondegenerate:
        new, old = sylow_decompose(a), sylow_oracle(a_in)
        assert list(new) == list(old)
        for p in new:
            assert_same_metric(new[p], old[p])
    gens = [tuple(data.draw(st.integers(0, d - 1)) for d in a.orders) for _ in range(data.draw(st.integers(0, 3)))]
    gens = gens if a.orders else []
    # relations of gens: sum z_j gens_j = 0 modulo the orders
    w = [[g[i] for g in gens] + [d if r == i else 0 for r in range(len(a.orders))] for i, d in enumerate(a.orders)]
    relations = [z[: len(gens)] for z in integer_kernel(w)] if gens else []
    size = prod(rebase_presentation(relations, len(gens))[0]) if gens else 1
    assert_same_metric(_metric_from_generators(a, gens, relations, size), from_generators_oracle(a_in, gens, relations, size))


def fraction_validate_oracle(orders, diag, cross=()):
    """validate_metric as it was decided in Fractions mod 1."""
    out = []
    orders = tuple(int(d) for d in orders)
    diag = tuple(Fraction(v) % 1 for v in diag)
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
    mat = [[Fraction(0)] * k for _ in range(k)]
    for (i, j), v in dict(cross).items():
        if not 0 <= i < j < k:
            return out + [Violation("shape", (i, j), "cross index out of range or not i < j")]
        mat[i][j] = mat[j][i] = Fraction(v) % 1
    for i, (d, qv) in enumerate(zip(orders, diag)):
        if (2 * d * qv) % 1 != 0:
            out.append(Violation("congruence", (i,), f"2 * {d} * q({i}) = {2 * d * qv} is not an integer"))
        if d % 2 and (d * d * qv) % 1 != 0:
            out.append(Violation("congruence", (i,), f"{d}^2 * q({i}) = {d * d * qv} is not an integer"))
    for i in range(k):
        for j in range(i + 1, k):
            g = gcd(orders[i], orders[j])
            if (g * mat[i][j]) % 1 != 0:
                out.append(Violation("congruence", (i, j), f"gcd {g} times cross term {mat[i][j]} is not an integer"))
    return out


@st.composite
def metric_input(draw):
    """Valid forms, and forms broken in the chain, in an order below 2, in a
    congruence (random denominators), in a cross index or in shape."""
    orders, diag, cross = draw(forms_with_cross_terms(max_size=4096))
    fraction = st.builds(F, st.integers(-40, 40), st.integers(1, 36))
    breakage = draw(st.sampled_from(["none", "chain", "small", "congruence", "index", "shape"]))
    if breakage == "chain":
        orders = draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), min_size=len(orders), max_size=len(orders)))
    elif breakage == "small" and orders:
        orders[draw(st.integers(0, len(orders) - 1))] = draw(st.integers(-2, 1))
    elif breakage == "congruence":
        diag = [draw(fraction) if draw(st.booleans()) else v for v in diag]
        cross = {key: draw(fraction) if draw(st.booleans()) else v for key, v in cross.items()}
    elif breakage == "index":
        k = len(orders)
        cross = dict(cross)
        cross[draw(st.integers(-1, k)), draw(st.integers(-1, k))] = draw(fraction)
    elif breakage == "shape":
        diag = diag + [draw(fraction)] if draw(st.booleans()) or not diag else diag[:-1]
    return orders, diag, cross


@settings(max_examples=400, deadline=None)
@given(metric_input())
def test_integer_validation_matches_fraction_checker(form):
    want = fraction_validate_oracle(*form)
    assert validate_metric(*form) == want
    if want:
        with pytest.raises(ValidationError) as err:
            metric_group(*form)
        assert err.value.violations == want
    else:
        # a valid form constructs; the "chain" breakage can draw a valid
        # form above 4096 elements (orders 9, 9, 9, 9, the zero form)
        with ELEMENT_CAP.limit(max(4096, prod(form[0]))):
            metric_group(*form)


def test_integer_paths_construct_no_fraction(monkeypatch):
    """direct_sum, reduce_once, class_multiply and metric_iso stay in
    integers, apart from the Gauss argument that reduce_once compares."""
    forms = [load_metric(name) for name in corpus.names(".mg")]
    forms = [mg for mg in forms if mg.nondegenerate]
    classes = [pointed_witt_class(mg) for mg in forms]
    constructed = []

    def counted(*args):
        # the argument of a Gauss sum, computed once per object, is a Fraction
        if sys._getframe(1).f_code.co_name != "gauss":
            constructed.append(args)
        return Fraction(*args)

    for module in (metric_group_module, witt):
        monkeypatch.setattr(module, "Fraction", counted)
    for a in forms:
        x = next(isotropic_elements(a), None)
        if x is not None:
            reduce_once(a, x)
        for b in forms:
            direct_sum(a, b)
            metric_iso(a, b)
    for c1 in classes:
        for c2 in classes:
            class_multiply(c1, c2)
    assert constructed == []
