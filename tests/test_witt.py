import importlib.util
import random
import re
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import element_order, group_add, load_metric, random_reduction
from fusionwitt import cli, corpus, witt
from fusionwitt.arith import cayley_invariants
from fusionwitt.caps import CLOSURE_CAP, ELEMENT_CAP, ORDER_CAP
from fusionwitt.cyclotomic import CycInt
from fusionwitt.errors import CapExceededError, ConsistencyError
from fusionwitt.metric_group import (
    MetricGroup,
    _metric_from_generators,
    direct_sum,
    gauss_sum,
    metric_group,
    sylow_decompose,
)
from fusionwitt.snf import integer_kernel
from fusionwitt.witt import (
    IDENTITY_CLASS,
    PointedWittClass,
    WittSubgroup,
    anisotropic_reduction,
    class_eq,
    class_multiply,
    class_order,
    generated_subgroup,
    isotropic_elements,
    metric_iso,
    pointed_witt_class,
    reduce_once,
)
from witt_words import (
    IDENTITY_WORD,
    ISING_GENERATOR_WORD,
    WittWord,
    class_inverse,
    from_ising_category,
    ising_square,
    word_compose,
    word_eq,
    word_inverse,
    word_is_identity,
    word_order,
)

F = Fraction


# ------------------------------------------------------------ reductions


def test_isotropic_elements_listing(semion, hyperbolic3):
    assert list(isotropic_elements(semion)) == []
    iso = list(isotropic_elements(hyperbolic3))
    assert (1, 0) in iso and (0, 1) in iso
    assert all(hyperbolic3.q(x) == 0 and any(x) for x in iso)


def test_reduce_once_z8():
    z8 = load_metric("z8_sixteenth.mg")
    reduced = reduce_once(z8, (4,))
    assert reduced.orders == (2,)
    assert reduced.q((1,)) == F(1, 4)


def test_reduce_once_hyperbolic_kills_everything(hyperbolic3):
    reduced = reduce_once(hyperbolic3, (1, 0))
    assert reduced.size == 1
    assert gauss_sum(reduced).argument == gauss_sum(hyperbolic3).argument == 0


def test_reduce_once_rejects_bad_input(semion, hyperbolic3):
    with pytest.raises(ValueError):
        reduce_once(hyperbolic3, (0, 0))
    with pytest.raises(ValueError):
        reduce_once(hyperbolic3, (1, 1))  # q = 1/3, not isotropic
    degenerate = load_metric("z2_fermion_degenerate.mg")
    with pytest.raises(ValueError):
        reduce_once(degenerate, (1,))


def test_anisotropic_reduction_fixes_anisotropic(semion):
    rep, steps = anisotropic_reduction(semion)
    assert rep is semion
    assert steps == ()


def reduce_once_oracle(mg, x):
    """x-perp / <x> by scanning: x-perp is found by testing every element,
    spanned greedily in element order, and quotiented by its relation
    lattice with x adjoined."""
    orders = mg.orders
    ord_x = element_order(orders, x)
    row, level = mg.pairing_row(x), mg.level
    perp = [y for y in mg.elements() if sum(a * b for a, b in zip(row, y)) % level == 0]
    if len(perp) * ord_x != mg.size:
        raise ConsistencyError("perp subgroup has unexpected order; degenerate pairing?")
    span = {(0,) * len(orders)}
    gens = []
    for y in perp:
        if y not in span:
            gens.append(y)
            reach = set(span)
            for s in span:
                acc = s
                for _ in range(element_order(orders, y)):
                    acc = group_add(orders, acc, y)
                    reach.add(acc)
            span = reach
    if len(span) != len(perp):
        raise ConsistencyError("spanning of perp failed")
    m, t = len(orders), len(gens)
    if t == 0:
        return metric_group((), ())
    cols = [list(g) for g in gens] + [list(x)]
    cols += [[orders[i] if r == i else 0 for r in range(m)] for i in range(m)]
    w = [[cols[j][i] for j in range(len(cols))] for i in range(m)]
    relations = [z[:t] for z in integer_kernel(w)]
    return _metric_from_generators(mg, gens, relations, len(perp) // ord_x)


@st.composite
def random_forms(draw, max_size):
    """A form on 1-3 generators with random cross terms, over p = 2, 3, 5,
    7 or mixed primes, |A| <= max_size; it may be degenerate."""
    primes = draw(st.sampled_from([(2,), (3,), (5,), (7,), (2, 3), (2, 5), (3, 7), (2, 3, 5)]))
    orders = []
    for _ in range(draw(st.integers(1, 3))):
        d = (orders[-1] if orders else 1) * prod(p ** draw(st.integers(0, 2)) for p in primes)
        if d == 1:
            d = primes[0]
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
    return metric_group(orders, diag, cross)


@st.composite
def isotropic_forms(draw, max_size=4096):
    """A nondegenerate random_forms form and a random nonzero isotropic
    element of it.

    About two plain draws in three are degenerate or anisotropic.  They
    are drawn again here, up to 8 times, rather than discarded by the
    test, which the filter health check would refuse; the accepted forms
    are distributed as before."""
    for _ in range(8):
        mg = draw(random_forms(max_size))
        isotropic = mg.nondegenerate and list(isotropic_elements(mg))
        if isotropic:
            break
    assume(isotropic)
    return mg, draw(st.sampled_from(isotropic))


@settings(max_examples=300, deadline=None)
@given(isotropic_forms())
def test_reduce_once_matches_scan_oracle(case):
    mg, x = case
    new, old = reduce_once(mg, x), reduce_once_oracle(mg, x)
    assert new.orders == old.orders
    assert gauss_sum(new).argument == gauss_sum(old).argument
    assert metric_iso(new, old) is not None


def test_reduce_once_representative_may_differ_from_the_scan():
    # the kernel generators of x-perp rebase to another, isometric
    # representative than the greedily spanned ones
    mg = metric_group((5, 5, 5), (F(3, 5), F(3, 5), F(4, 5)), {(0, 1): F(1, 5), (0, 2): F(4, 5)})
    x = next(isotropic_elements(mg))
    new, old = reduce_once(mg, x), reduce_once_oracle(mg, x)
    # q = 3/5 and 2/5 at level 5, with G_11 = 2 * 5 * q
    assert (new.orders, new.level, new.gram) == ((5,), 5, ((6,),))
    assert (old.orders, old.level, old.gram) == ((5,), 5, ((4,),))
    assert metric_iso(new, old) is not None


def test_anisotropic_reduction_of_z8():
    z8 = load_metric("z8_sixteenth.mg")
    rep, steps = anisotropic_reduction(z8)
    assert rep.orders == (2,)
    assert rep.q((1,)) == F(1, 4)
    assert len(steps) == 1
    assert steps[0].orders_before == (8,)
    assert steps[0].chosen == (4,)
    assert steps[0].argument == F(1, 8)


def test_gauss_argument_constant_along_reduction():
    tower = direct_sum(load_metric("z4_eighth.mg"), load_metric("z2z2_hyperbolic.mg"))
    argument = gauss_sum(tower).argument
    rep, steps = anisotropic_reduction(tower)
    assert steps  # something reduced
    for step in steps:
        assert step.argument == argument
    assert gauss_sum(rep).argument == argument


# ---------------------------------------------------------- witt classes


def test_class_of_hyperbolic_is_identity(hyperbolic3):
    cls = pointed_witt_class(hyperbolic3)
    assert cls.is_identity()
    assert class_eq(cls, IDENTITY_CLASS)


def test_class_splits_by_prime(semion, z3_third):
    cls = pointed_witt_class(direct_sum(semion, z3_third))
    assert cls.primes == (2, 3)
    assert cls.part(2).orders == (2,)
    assert cls.part(3).orders == (3,)
    assert cls.part(5) is None


def test_odd_parts_have_small_representatives():
    for name in ("z3_third.mg", "z3_two_thirds.mg", "z5_fifth.mg", "z5_two_fifths.mg", "hyperbolic3.mg"):
        cls = pointed_witt_class(load_metric(name))
        for p, rep in cls.parts:
            assert rep.size in (p, p * p)


def test_class_rejects_degenerate():
    with pytest.raises(ValueError):
        pointed_witt_class(load_metric("z2_fermion_degenerate.mg"))


# ------------------------------------------------------------- metric_iso


def test_metric_iso_reflexive(semion, hyperbolic3):
    assert metric_iso(semion, semion) is not None
    assert metric_iso(hyperbolic3, hyperbolic3) is not None


def test_metric_iso_distinguishes_conjugates(semion, semion_bar):
    assert metric_iso(semion, semion_bar) is None


def test_metric_iso_nontrivial_generator_image():
    a = load_metric("z5_fifth.mg")
    b = metric_group((5,), [F(4, 5)])
    images = metric_iso(a, b)
    assert images is not None
    assert b.q(images[0]) == F(1, 5)
    assert metric_iso(a, load_metric("z5_two_fifths.mg")) is None


def test_metric_iso_respects_cross_terms():
    hyper = load_metric("z2z2_hyperbolic.mg")
    diag = load_metric("z2z2_diag.mg")
    assert metric_iso(hyper, diag) is None


# --------------------------------------------------------- group structure


def test_class_multiply_cancels_conjugates(z3_third, z3_two_thirds):
    c1 = pointed_witt_class(z3_third)
    c2 = pointed_witt_class(z3_two_thirds)
    assert class_eq(class_multiply(c1, c2), IDENTITY_CLASS)


def test_class_inverse(semion):
    c = pointed_witt_class(semion)
    assert class_eq(class_multiply(c, class_inverse(c)), IDENTITY_CLASS)


def test_class_orders(semion, z3_third, hyperbolic3):
    assert class_order(pointed_witt_class(semion)) == 8
    assert class_order(pointed_witt_class(z3_third)) == 4
    assert class_order(pointed_witt_class(load_metric("z5_fifth.mg"))) == 2
    assert class_order(pointed_witt_class(hyperbolic3)) == 1


def test_class_order_cap(semion):
    c = pointed_witt_class(semion)
    with ORDER_CAP.limit(3), pytest.raises(CapExceededError):
        class_order(c)


def test_order_searches_apply_the_element_budget(semion):
    # semion's powers reach a group of order 16 before they reduce to the
    # identity; the word's identity test adds [Z4, x^2/8] to them and
    # reaches a group of order 32
    c = pointed_witt_class(semion)
    w = WittWord(pointed=c, ising_exponent=2)
    for order, x, largest, expected in ((class_order, c, 16, 8), (word_order, w, 32, 4)):
        with ELEMENT_CAP.limit(largest - 1), pytest.raises(
            CapExceededError, match=f"group of order {largest} exceeds the element cap {largest - 1}"
        ):
            order(x)
        with ELEMENT_CAP.limit(largest):
            assert order(x) == expected


def test_generated_subgroup_z4(z3_third, z3_two_thirds):
    sub = generated_subgroup([pointed_witt_class(z3_third), pointed_witt_class(z3_two_thirds)])
    assert sub.order == 4
    assert sub.invariant_factors == (4,)
    assert sub.name() == "Z4"
    assert sub.elements[0].is_identity()
    for j in range(sub.order):
        assert sub.table[0][j] == j


def test_generated_subgroup_closure_cap(z3_third):
    c = pointed_witt_class(z3_third)
    with CLOSURE_CAP.limit(3), pytest.raises(CapExceededError):
        generated_subgroup([c])


def closure_oracle(generators) -> WittSubgroup:
    """Reference closure: every pass multiplies every ordered pair again,
    and the table multiplies all n**2 pairs once more."""
    elements = [IDENTITY_CLASS]

    def index_of(c):
        for i, e in enumerate(elements):
            if class_eq(e, c):
                return i
        return None

    def admit(c):
        if index_of(c) is not None:
            return False
        elements.append(c)
        CLOSURE_CAP.check(len(elements), f"closure of {len(elements)} classes")
        return True

    for g in generators:
        admit(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(elements)):
            for j in range(len(elements)):
                changed |= admit(class_multiply(elements[i], elements[j]))
    table = tuple(tuple(index_of(class_multiply(a, b)) for b in elements) for a in elements)
    return WittSubgroup(elements=tuple(elements), table=table, invariant_factors=cayley_invariants(table, 0))


@st.composite
def cyclic_forms(draw, p, k):
    """A nondegenerate form on Z_{p^k}: the unit u = p q + r, 0 < r < p,
    is drawn as the pair (q, r), with no filter."""
    den = 2 * p**k if p == 2 else p**k
    u = p * draw(st.integers(0, den // p - 1)) + draw(st.integers(1, p - 1))
    return metric_group((p**k,), (F(u, den),))


@st.composite
def plane_forms(draw, p, a, b):
    """A nondegenerate form on Z_{p^a} x Z_{p^b}, a <= b, with a nonzero
    cross term.  At p = 2 three plain draws in five are degenerate; they
    are drawn again, up to 8 times, before the example is discarded."""
    orders = (p**a, p**b)
    for _ in range(8):
        diag = tuple(F(draw(st.integers(0, den - 1)), den) for den in (2 * d if p == 2 else d for d in orders))
        mg = metric_group(orders, diag, {(0, 1): F(draw(st.integers(1, p**a - 1)), p**a)})
        if mg.nondegenerate:
            break
    assume(mg.nondegenerate)
    return mg


@st.composite
def two_group_planes(draw):
    """A plane on Z_{2^a} x Z_{2^b} with a <= 2 and a <= b <= 3."""
    a = draw(st.integers(1, 2))
    return draw(plane_forms(2, a, draw(st.integers(a, 3))))


@st.composite
def small_forms(draw, p):
    """A form on Z_{p^k} (k <= 3 at p = 2, else k <= 2), or a plane: on
    Z_p x Z_p at odd p, on a two_group_planes group at p = 2."""
    if draw(st.booleans()):
        return draw(cyclic_forms(p, draw(st.integers(1, 3 if p == 2 else 2))))
    return draw(two_group_planes() if p == 2 else plane_forms(p, 1, 1))


# up to four small forms at one prime, or a 2-group plane next to a form on
# Z2, Z4 or Z8, whose closures have order 8 or 16 and copy mirrored pairs
# in a later pass than the one that multiplied them
closure_generators = st.one_of(
    st.sampled_from((2, 3, 5, 7)).flatmap(lambda p: st.lists(small_forms(p), min_size=1, max_size=4)),
    st.tuples(two_group_planes(), st.integers(1, 3).flatmap(lambda k: cyclic_forms(2, k))).map(list),
)


@settings(max_examples=30, deadline=None)
@given(closure_generators)
def test_closure_matches_recompute_oracle(forms):
    classes = [pointed_witt_class(mg) for mg in forms]
    for cap in (3, None):
        with CLOSURE_CAP.limit(cap):
            try:
                expected = closure_oracle(classes)
            except CapExceededError as err:
                with pytest.raises(CapExceededError, match=re.escape(str(err))):
                    generated_subgroup(classes)
                continue
            sub = generated_subgroup(classes)
        assert sub.elements == expected.elements
        assert sub.table == expected.table
        assert sub.invariant_factors == expected.invariant_factors


def test_randomized_choices_reach_the_same_class():
    tower = direct_sum(load_metric("z4_eighth.mg"), load_metric("z2z2_hyperbolic.mg"))
    baseline = pointed_witt_class(tower)
    for seed in range(5):
        rng = random.Random(seed)
        parts = [(p, random_reduction(part, rng)) for p, part in sorted(sylow_decompose(tower).items())]
        cls = PointedWittClass(parts=tuple((p, rep) for p, rep in parts if rep.size > 1))
        assert class_eq(cls, baseline)


# ------------------------------------------------------ operation counts


POOL_OUTPUTS = Path(__file__).resolve().parents[1] / "scripts" / "pool_outputs.py"


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call to owner.name from here on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def gauss_computations(monkeypatch):
    """The list records each Gauss sum computed: each call of the function
    behind the cached property MetricGroup.gauss."""
    return count_calls(monkeypatch, MetricGroup.gauss, "func")


def enumerated(sums):
    """The groups of the recorded Gauss sums that enumerated their
    elements: all but the direct sums, which multiply their summands'."""
    return [mg for mg, in sums if mg.summands is None]


def test_each_gauss_sum_makes_one_cyclotomic_product(monkeypatch, capsys):
    # G**2 is the only product in Z[zeta] an enumerated sum takes, and a
    # direct sum's product of two sums takes none; the seed-1 witt_reduce
    # benchmark pool, run as scripts/pool_outputs.py runs it, enumerates
    # 284 sums
    spec = importlib.util.spec_from_file_location("pool_outputs", POOL_OUTPUTS)
    pool_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pool_outputs)
    sums = gauss_computations(monkeypatch)
    products = count_calls(monkeypatch, CycInt, "__mul__")
    assert pool_outputs.main(["--workload", "witt_reduce", "--seed", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "part 0"
    assert [line.split()[2] for line in lines] == ["status=0"] * 60
    assert len(products) == len(enumerated(sums)) == 284


CORPUS_2_GROUPS = (
    "semion.mg", "semion_bar.mg", "z2z2_diag.mg", "z2z2_fermion.mg",
    "z2z2_hyperbolic.mg", "z4_eighth.mg", "z8_sixteenth.mg",
)


@pytest.mark.parametrize(
    "names,order,calls",
    [
        (("semion.mg",), 8, 28),
        (("z3_third.mg", "z3_two_thirds.mg"), 4, 6),
        (("z5_fifth.mg", "z5_two_fifths.mg"), 4, 6),
        (CORPUS_2_GROUPS, 16, 120),
    ],
    ids=["semion", "z3_pair", "z5_pair", "corpus_2_groups"],
)
def test_closure_multiplies_each_unordered_pair_once(monkeypatch, names, order, calls):
    """Products with the identity are read off and a mirrored pair is
    copied, so a closure of order n multiplies (n - 1) * n / 2 pairs."""
    classes = [pointed_witt_class(load_metric(name)) for name in names]
    products = count_calls(monkeypatch, witt, "class_multiply")
    sub = generated_subgroup(classes)
    assert sub.order == order
    assert len(products) == calls == (order - 1) * order // 2
    assert all(not a.is_identity() and not b.is_identity() for a, b in products)


@pytest.mark.parametrize(
    "build",
    [
        lambda: load_metric("z8_sixteenth.mg"),
        lambda: load_metric("hyperbolic3.mg"),
        lambda: direct_sum(load_metric("z4_eighth.mg"), load_metric("z2z2_hyperbolic.mg")),
    ],
    ids=["z8_sixteenth", "hyperbolic3", "z4_eighth+z2z2_hyperbolic"],
)
def test_reduction_chain_computes_one_gauss_sum_per_group(monkeypatch, build):
    # each group of the chain computes its sum once; a chain on a direct
    # sum enumerates its quotients and the two summands, not the sum
    mg = build()
    summands = mg.summands or ()
    sums = gauss_computations(monkeypatch)
    _, steps = anisotropic_reduction(mg)
    assert steps
    assert len(sums) == len(steps) + 1 + len(summands)
    assert sum(g is mg for g in enumerated(sums)) == (0 if summands else 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: load_metric("z8_sixteenth.mg"),
        lambda: load_metric("hyperbolic3.mg"),
        lambda: direct_sum(load_metric("z4_eighth.mg"), load_metric("z2z2_hyperbolic.mg")),
        lambda: metric_group((3, 729), (F(1, 3), F(1, 729))),
    ],
    ids=["z8_sixteenth", "hyperbolic3", "z4_eighth+z2z2_hyperbolic", "z3_z729"],
)
def test_reduce_once_does_not_enumerate_its_input(monkeypatch, build):
    mg = build()
    x = next(isotropic_elements(mg))
    gauss_sum(mg)
    enumerations = count_calls(monkeypatch, MetricGroup, "elements")
    reduce_once(mg, x)
    assert enumerations  # the quotient's Gauss sum enumerates the quotient
    assert not any(group is mg for group, in enumerations)


@pytest.mark.parametrize(
    "name, text, budget",
    [("z32768.mg", "orders 32768\nq 1/65536\n", 34000), ("z3_z19683.mg", "orders 3 19683\nq 1/3 1/19683\n", 60000)],
)
def test_witt_class_value_calls_within_budget(monkeypatch, tmp_path, name, text, budget):
    # the Gauss sum of the input takes one value per element; the first
    # isotropic element lies early in element order, and x-perp is read
    # off a lattice, so little else is evaluated
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    values = count_calls(monkeypatch, MetricGroup, "value")
    assert cli.main(["witt-class", "--format", "machine", str(path)]) == 0
    assert len(values) <= budget


def test_witt_class_computes_each_gauss_sum_once(monkeypatch, capsys):
    sums = gauss_computations(monkeypatch)
    assert cli.main(["witt-class", corpus.path("z8_sixteenth.mg")]) == 0
    assert "reduce by (4,)" in capsys.readouterr().out
    # the input Z8, which is its own Sylow 2-part, and the Z2 after one
    # step; the step's argument and the part's argument are read back, not
    # computed again
    assert len(sums) == 2


# ------------------------------------------------------------------ words


def test_identity_word():
    assert word_is_identity(IDENTITY_WORD)
    assert word_order(IDENTITY_WORD) == 1


def test_ising_generator_has_order_sixteen():
    assert word_order(ISING_GENERATOR_WORD) == 16


def test_ising_categories_carry_odd_exponents():
    for e in range(1, 16, 2):
        w = from_ising_category(e)
        assert w.ising_exponent == e
    for e in (0, 2, 8, 16, -1):
        with pytest.raises(ValueError):
            from_ising_category(e)


def test_word_composition_wraps_mod_sixteen():
    w = word_compose(from_ising_category(9), from_ising_category(7))
    assert w.ising_exponent == 0
    assert word_is_identity(w)


def test_twice_the_ising_generator_is_pointed(semion):
    z4 = pointed_witt_class(load_metric("z4_eighth.mg"))
    assert class_eq(ising_square(), z4)
    assert class_order(z4) == 8
    assert word_eq(WittWord(pointed=z4, ising_exponent=0), WittWord(pointed=IDENTITY_CLASS, ising_exponent=2))
    assert not word_eq(WittWord(pointed=z4, ising_exponent=0), ISING_GENERATOR_WORD)
    # (s, 2k) and (s + k [Z4, x^2/8], 0) are one class, for every k
    s, acc = pointed_witt_class(semion), pointed_witt_class(semion)
    for k in range(8):
        assert word_eq(WittWord(pointed=s, ising_exponent=2 * k), WittWord(pointed=acc, ising_exponent=0))
        assert not word_eq(WittWord(pointed=s, ising_exponent=2 * k + 1), WittWord(pointed=acc, ising_exponent=0))
        acc = class_multiply(acc, z4)


def test_word_order_is_the_order_of_the_class(semion, z3_third):
    s = pointed_witt_class(semion)
    z4 = pointed_witt_class(load_metric("z4_eighth.mg"))
    w = WittWord(pointed=s, ising_exponent=2)
    assert word_order(w) == class_order(class_multiply(s, z4)) == 4
    assert word_eq(w, w)
    assert not word_eq(w, ISING_GENERATOR_WORD)
    assert word_is_identity(word_compose(w, word_inverse(w)))
    # an odd exponent is never pointed; an odd prime's part has its own order
    assert not word_is_identity(WittWord(pointed=s, ising_exponent=7))
    assert word_order(WittWord(pointed=pointed_witt_class(z3_third), ising_exponent=2)) == 8
    for e in range(16):
        assert word_order(WittWord(pointed=IDENTITY_CLASS, ising_exponent=e)) == 16 // gcd(e, 16)


def test_words_with_different_pointed_parts_differ(semion):
    # same exponent, pointed parts of different classes
    w1 = WittWord(pointed=pointed_witt_class(semion), ising_exponent=3)
    w2 = WittWord(pointed=IDENTITY_CLASS, ising_exponent=3)
    assert not word_eq(w1, w2)
