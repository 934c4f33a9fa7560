import cmath
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_metric
from fusionwitt import cli, corpus
from fusionwitt.errors import CapExceededError, ValidationError
from fusionwitt.metric_group import (
    FiniteAbelianGroup,
    direct_sum,
    gauss_sum,
    inverse_form,
    metric_group,
    sylow_decompose,
    validate_metric,
)
from fusionwitt.witt import isotropic_elements, reduce_once

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
    # q = 1/3 on Z2 fails both congruences
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
    with pytest.raises(CapExceededError):
        metric_group((17,), [F(1, 17)], cap=10)


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
    g = hyperbolic3.group
    for x in g.elements():
        for y in g.elements():
            expected = (hyperbolic3.q(g.add(x, y)) - hyperbolic3.q(x) - hyperbolic3.q(y)) % 1
            assert hyperbolic3.b(x, y) == expected
    assert hyperbolic3.b((1, 0), (0, 1)) == F(1, 3)


def radical_oracle(mg):
    """Every x with b(x, -) identically zero, found element by element:
    the scan that the lattice index in metric_group() replaces."""
    return [x for x in mg.group.elements() if not any(mg.pairing_row(x))]


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
    original = FiniteAbelianGroup.elements
    monkeypatch.setattr(FiniteAbelianGroup, "elements", lambda g: enumerations.append(g) or original(g))
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
    assert gs.exact


def numeric_gauss(mg):
    return sum(cmath.exp(2j * cmath.pi * mg.q(x)) for x in mg.group.elements())


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
    fermion = load_metric("z2_fermion_degenerate.mg")
    gs = gauss_sum(fermion)
    assert gs.magnitude_squared == 0
    assert gs.argument is None
    zero_form = metric_group((2,), [F(0)])
    gs0 = gauss_sum(zero_form)
    assert gs0.magnitude_squared == 4
    assert gs0.argument == 0


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


def test_direct_sum_rebases_to_invariant_factors(semion, z3_third):
    total = direct_sum(semion, z3_third)
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
    gs = gauss_sum(mg)  # enforces Milgram internally when nondegenerate
    if mg.nondegenerate:
        assert gs.magnitude_squared == mg.size
        assert gs.argument is not None and 8 * gs.argument % 1 == 0
    g = numeric_gauss(mg)
    assert abs(abs(g) ** 2 - gs.magnitude_squared) < 1e-8


# ------------------------------------- integer evaluator against Fractions


def oracle_q(mg, x) -> Fraction:
    """q(x) = sum x_i^2 q_i + sum_{i<j} x_i x_j b_ij mod 1 in Fractions,
    straight from the stored generator values, without the level."""
    total = Fraction(0)
    diag, cross = mg.form.diag, mg.form.cross
    for i, a in enumerate(x):
        total += a * a * diag[i]
        for j in range(i + 1, len(x)):
            total += a * x[j] * cross[i][j]
    return total % 1


@st.composite
def forms_with_cross_terms(draw, max_size=64):
    """Orders d_1 | d_2 | d_3 (2-groups, odd p and mixed primes) with random
    values: q_i = u/2d for even d (u/2^(k+1) on Z_2^k), u/d for odd d, and
    b_ij = v/gcd(d_i, d_j)."""
    orders = [draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12, 16]))]
    for _ in range(draw(st.integers(0, 2))):
        d = orders[-1] * draw(st.sampled_from([1, 2, 3]))
        if prod(orders) * d > max_size:
            break
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
    g = mg.group
    elements = list(g.elements())
    q = {x: oracle_q(mg, x) for x in elements}
    assert all(mg.q(x) == q[x] for x in elements)
    pairing = {(x, y): (q[g.add(x, y)] - q[x] - q[y]) % 1 for x in elements for y in elements}
    assert all(mg.b(x, y) == pairing[x, y] for x in elements for y in elements)
    rad = [x for x in elements if all(pairing[x, y] == 0 for y in elements)]
    assert radical_oracle(mg) == rad
    assert mg.nondegenerate == (rad == [g.zero()])
    isotropic = [x for x in elements if any(x) and q[x] == 0]
    assert list(isotropic_elements(mg)) == isotropic
    numeric = sum(cmath.exp(2j * cmath.pi * v) for v in q.values())
    gs = gauss_sum(mg)
    assert abs(abs(numeric) ** 2 - gs.magnitude_squared) < 1e-8
    if gs.argument is not None:
        assert circular_close(cmath.phase(numeric) / (2 * cmath.pi), float(gs.argument))
    if not mg.nondegenerate:
        return
    for x in isotropic[:1] + isotropic[-1:]:
        # x-perp / <x>: q is constant on the cosets of <x> inside x-perp, so
        # the quotient's values, each counted ord(x) times, are q on x-perp
        perp = [y for y in elements if pairing[x, y] == 0]
        rep = reduce_once(mg, x)
        ord_x = g.element_order(x)
        assert len(perp) == rep.size * ord_x
        values = Counter(oracle_q(rep, z) for z in rep.group.elements())
        assert Counter({v: c * ord_x for v, c in values.items()}) == Counter(q[y] for y in perp)
