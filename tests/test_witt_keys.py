"""Witt classes decided by invariant keys, checked against the package.

For each prime p, A ↦ (v_p(|A_p|) mod 2, Gauss argument of A_p) is a
homomorphism on W_pt(p) that separates its classes: W_pt(2) is Z8 ⊕ Z2,
and W_pt(p) is Z4 for p ≡ 3 mod 4 and Z2 ⊕ Z2 for p ≡ 1 mod 4
(Drinfeld–Gelaki–Nikshych–Ostrik, arXiv:1009.2117).  These tests pin
that the package's class_key agrees with the isomorphism search of
class_eq and with the products of generated_subgroup, so equality and
orders can be read off the key, and that the relation 2[Ising] =
[Z4, x^2/8] of the Ising words holds on the keys.
"""

from fractions import Fraction
from functools import cache
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import load_metric
from fusionwitt.metric_group import metric_group
from fusionwitt.witt import IDENTITY_CLASS, class_eq, class_key, class_multiply, generated_subgroup, pointed_witt_class
from witt_words import WittWord, ising_square, word_is_identity

F = Fraction


def witt_key(cls) -> dict[int, tuple[int, Fraction]]:
    """class_key by prime: (v_p(|rep|) mod 2, the Gauss argument of rep).
    The identity class has no parts, so its key is empty."""
    return {p: (parity, argument) for p, parity, argument in class_key(cls)}


def key_sum(k1, k2) -> dict[int, tuple[int, Fraction]]:
    """The key of a product: parities add mod 2 and arguments mod 1 of a
    turn, and a prime whose entry sums to (0, 0) drops out."""
    out = {}
    for p in k1.keys() | k2.keys():
        (a1, g1), (a2, g2) = k1.get(p, (0, 0)), k2.get(p, (0, 0))
        entry = ((a1 + a2) % 2, (g1 + g2) % 1)
        if entry != (0, 0):
            out[p] = entry
    return out


# by prime p: corpus forms whose classes generate all of W_pt(p), and
# the order and invariant factors of W_pt(p)
GENERATORS = {
    2: (("semion.mg", "z4_eighth.mg", "z8_sixteenth.mg"), 16, (2, 8)),
    3: (("z3_third.mg", "z3_two_thirds.mg"), 4, (4,)),
    5: (("z5_fifth.mg", "z5_two_fifths.mg"), 4, (2, 2)),
}


@cache
def whole_group(p: int):
    return generated_subgroup([pointed_witt_class(load_metric(name)) for name in GENERATORS[p][0]])


@pytest.mark.parametrize("p", sorted(GENERATORS))
def test_keys_separate_every_class_and_add_under_products(p):
    sub = whole_group(p)
    _, order, factors = GENERATORS[p]
    assert (sub.order, sub.invariant_factors) == (order, factors)
    keys = [witt_key(c) for c in sub.elements]
    assert len({tuple(sorted(k.items())) for k in keys}) == order
    assert keys[0] == {}
    for i, row in enumerate(sub.table):
        for j, product in enumerate(row):
            assert keys[product] == key_sum(keys[i], keys[j]), (i, j)


@st.composite
def p_group_forms(draw, p, max_size=32):
    """A nondegenerate form on 1-3 cyclic p-groups, each order dividing the
    next, with random cross terms and |A| <= max_size.  At p = 2 three
    plain draws in five are degenerate; they are drawn again, up to 8
    times, before the example is discarded."""
    for _ in range(8):
        orders = [p ** draw(st.integers(1, 2))]
        for _ in range(draw(st.integers(0, 2))):
            d = orders[-1] * p ** draw(st.integers(0, 1))
            if prod(orders) * d > max_size:
                break
            orders.append(d)
        diag = [F(draw(st.integers(0, 2 * d - 1)), 2 * d) if p == 2 else F(draw(st.integers(0, d - 1)), d)
                for d in orders]
        # orders[i] divides orders[j], so it is their gcd
        cross = {(i, j): F(draw(st.integers(0, orders[i] - 1)), orders[i])
                 for i in range(len(orders)) for j in range(i + 1, len(orders))}
        mg = metric_group(orders, diag, cross)
        if mg.nondegenerate:
            break
    assume(mg.nondegenerate)
    return mg


same_prime_pairs = st.sampled_from(sorted(GENERATORS)).flatmap(
    lambda p: st.tuples(st.just(p), p_group_forms(p), p_group_forms(p)))


@settings(max_examples=150, deadline=None)
@given(same_prime_pairs)
def test_key_equality_agrees_with_class_eq(case):
    # a is compared with b and with every class of W_pt(p), exactly one of
    # which it equals
    p, a, b = case
    a, b = pointed_witt_class(a), pointed_witt_class(b)
    classes = whole_group(p).elements
    assert sum(class_eq(a, c) for c in classes) == 1
    for c in (b, *classes):
        assert (witt_key(a) == witt_key(c)) == class_eq(a, c)


def test_ising_relation_holds_on_the_keys():
    # 2[Ising] = [Z4, x^2/8]: a word (c, e) is the identity exactly when e
    # is even and the key of c + (e/2)[Z4, x^2/8], summed on the keys, is
    # empty; c runs over the eight powers of the semion class
    z4 = pointed_witt_class(load_metric("z4_eighth.mg"))
    assert class_key(ising_square()) == class_key(z4)
    semion, c, square = pointed_witt_class(load_metric("semion.mg")), IDENTITY_CLASS, witt_key(z4)
    for _ in range(8):
        for e in range(16):
            key = witt_key(c)
            for _ in range(e // 2):
                key = key_sum(key, square)
            assert word_is_identity(WittWord(pointed=c, ising_exponent=e)) == (e % 2 == 0 and key == {}), e
        c = class_multiply(c, semion)
    assert c.is_identity()
