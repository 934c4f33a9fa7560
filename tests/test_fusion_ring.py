from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    as_ring,
    grading_components_oracle,
    load_ring,
    make_ring,
    mutate,
    permuted,
    pointed_ring,
    tensor_ring,
    validate_ring_oracle,
)
from fusionwitt import cli, corpus, fusion_ring
from fusionwitt.errors import ConsistencyError, ValidationError
from fusionwitt.fusion_ring import (
    adjoint_subring,
    invertibles,
    nilpotency,
    stabilizer,
    subring_generated,
    tensor_square_check,
    universal_grading,
    validate_ring,
)


def violation_kinds(ring):
    return sorted({v.kind for v in validate_ring(ring)})


# ----------------------------------------------------------- validation


def test_corpus_rings_are_valid(ising_ring, fibonacci_ring, rep_s3_ring, z6_ring):
    for ring in (ising_ring, fibonacci_ring, rep_s3_ring, z6_ring):
        assert validate_ring(ring) == []


def test_make_ring_raises_with_full_report(ising_ring):
    broken = mutate(ising_ring, 2, 2, 0, 0)
    with pytest.raises(ValidationError) as err:
        make_ring(broken.labels, broken.dual, broken.coeff)
    assert any(v.kind == "rigidity" for v in err.value.violations)


def test_shape_violations_short_circuit():
    ring = as_ring(("1", "x"), (0, 1), [[[1, 0], [0, 1]]])
    assert violation_kinds(ring) == ["shape"]


def test_dual_not_a_permutation():
    z2 = pointed_ring((2,))
    ring = as_ring(z2.labels, (0, 0), z2.coeff)
    assert violation_kinds(ring) == ["duality"]


def test_dual_not_an_involution():
    z4 = pointed_ring((4,))
    ring = as_ring(z4.labels, (0, 2, 3, 1), z4.coeff)
    assert "duality" in violation_kinds(ring)


def test_unit_must_be_self_dual():
    z4 = pointed_ring((4,))
    ring = as_ring(z4.labels, (1, 0, 2, 3), z4.coeff)
    assert "duality" in violation_kinds(ring)


def test_negative_coefficient(ising_ring):
    assert violation_kinds(mutate(ising_ring, 2, 2, 1, -1)) == ["integrality"]


def test_bool_coefficient_is_not_an_integer():
    # bool is a subclass of int, so True would otherwise pass as 1
    with pytest.raises(ValidationError) as err:
        make_ring(["1"], [0], [[[True]]])
    assert [v.kind for v in err.value.violations] == ["integrality"]


def test_broken_unit_row(ising_ring):
    assert "unit" in violation_kinds(mutate(ising_ring, 0, 1, 1, 0))


def test_broken_rigidity(ising_ring):
    assert "rigidity" in violation_kinds(mutate(ising_ring, 2, 2, 0, 0))


def test_broken_commutativity(ising_ring):
    assert "commutativity" in violation_kinds(mutate(ising_ring, 1, 2, 2, 2))


def test_ising_without_eps_constituent(ising_ring):
    # sigma sigma = 1 keeps unit, rigidity and commutativity but breaks
    # the Frobenius identities and associativity
    assert violation_kinds(mutate(ising_ring, 2, 2, 1, 0)) == ["associativity", "frobenius"]


def test_doubled_multiplicity(ising_ring):
    assert violation_kinds(mutate(ising_ring, 2, 2, 1, 2)) == ["associativity", "frobenius"]


# the rings the oracle comparison draws from: pointed rings, the corpus
# rings and the products of two of them, up to a rank that keeps the
# O(r^5) oracle quick
ORACLE_RANK = 9
CORPUS_RINGS = [load_ring(name) for name in corpus.names(".fr")]
PRODUCT_RINGS = [
    tensor_ring(a, b)
    for a, b in combinations_with_replacement(CORPUS_RINGS, 2)
    if a.rank > 1 and b.rank > 1 and a.rank * b.rank <= ORACLE_RANK
]


def s3_ring():
    """The group ring of S3 on the permutations of 0, 1, 2, unit first,
    unvalidated: associative, with dual the inverse, but not commutative."""
    perms = sorted(permutations(range(3)))
    index = {p: t for t, p in enumerate(perms)}
    coeff = [[[int(index[tuple(p[x] for x in q)] == k) for k in range(6)] for q in perms] for p in perms]
    inverse = [index[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]
    return as_ring(["1"] + ["".join(map(str, p)) for p in perms[1:]], inverse, coeff)


# every other base ring is commutative, where N[i][m][l] = N[m][i][l]
# hides a transposed read in the associativity check
S3 = s3_ring()


@st.composite
def oracle_rings(draw):
    """A drawn ring with its non-unit basis permuted, and maybe one
    coefficient raised by 1 or one positive coefficient lowered by 1."""
    ring = draw(st.one_of(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2).map(lambda o: pointed_ring(tuple(o))),
        st.sampled_from(CORPUS_RINGS + PRODUCT_RINGS + [S3]),
    ))
    r = ring.rank
    ring = permuted(ring, [0] + draw(st.permutations(range(1, r))))
    edit = draw(st.sampled_from(("none", "raise", "lower")))
    if edit == "raise":
        i, j, k = draw(st.tuples(*[st.integers(min_value=0, max_value=r - 1)] * 3))
        ring = mutate(ring, i, j, k, ring.coeff[i][j][k] + 1)
    elif edit == "lower":
        positive = [(i, j, k) for i in range(r) for j in range(r) for k in range(r) if ring.coeff[i][j][k] > 0]
        i, j, k = draw(st.sampled_from(positive))
        ring = mutate(ring, i, j, k, ring.coeff[i][j][k] - 1)
    return ring


@settings(max_examples=100, deadline=None)
@given(oracle_rings())
def test_validate_ring_matches_the_oracle(ring):
    assert validate_ring(ring) == validate_ring_oracle(ring)


ISING = load_ring("ising.fr")
Z4 = pointed_ring((4,))
# one broken axiom each, so the oracle comparison never depends on a draw
# to reach it
BROKEN = {
    "unit": mutate(ISING, 0, 1, 1, 0),
    "rigidity": mutate(ISING, 2, 2, 0, 0),
    "commutativity": mutate(ISING, 1, 2, 2, 2),
    "frobenius": mutate(ISING, 2, 2, 1, 0),
    "associativity": mutate(ISING, 1, 1, 1, 1),
    "duality": as_ring(Z4.labels, (0, 2, 3, 1), Z4.coeff),
}


@pytest.mark.parametrize("kind", sorted(BROKEN))
def test_validate_ring_matches_the_oracle_on_each_broken_axiom(kind):
    violations = validate_ring(BROKEN[kind])
    assert kind in {v.kind for v in violations}
    assert violations == validate_ring_oracle(BROKEN[kind])


def test_s3_group_ring_breaks_only_commutativity():
    # 18 of the 36 ordered pairs of S3 do not commute, and each such g, h
    # breaks N[g][h][k] = N[h][g][k] at k = gh and at k = hg
    violations = validate_ring(S3)
    assert [v.kind for v in violations] == ["commutativity"] * 36
    assert violations == validate_ring_oracle(S3)


def test_validate_ring_matches_the_oracle_on_a_changed_s3_coefficient():
    # X1 and X2 are transpositions that do not commute; drop X1 X2 to zero
    assert S3.constituents(1, 2) != S3.constituents(2, 1)
    (k,) = S3.constituents(1, 2)
    broken = mutate(S3, 1, 2, k, 0)
    violations = validate_ring(broken)
    assert {v.kind for v in violations} == {"commutativity", "frobenius", "associativity"}
    assert violations == validate_ring_oracle(broken)


def orbit(ring, i, j, k):
    """(i, j, k) and its images under (i, j, k) -> (j, i, k), (i*, k, j)
    and (k, j*, i): the triples whose coefficients commutativity and the
    two Frobenius checks set equal to N[i][j][k]."""
    dual = ring.dual
    seen, todo = set(), [(i, j, k)]
    while todo:
        t = todo.pop()
        if t not in seen:
            seen.add(t)
            a, b, c = t
            todo += [(b, a, c), (dual[a], c, b), (c, dual[b], a)]
    return seen


def orbit_raised(ring, i, j, k):
    """ring with N[i][j][k] and the rest of its orbit raised by 1,
    unvalidated."""
    coeff = [[list(row) for row in plane] for plane in ring.coeff]
    for a, b, c in orbit(ring, i, j, k):
        coeff[a][b][c] += 1
    return as_ring(ring.labels, ring.dual, coeff)


@st.composite
def orbit_mutants(draw):
    """A valid ring of rank at least 2, its non-unit basis permuted, with
    one N[i][j][k] (i, j, k >= 1) raised by 1 together with its whole
    orbit.  The unit, rigidity, commutativity and Frobenius checks still
    pass, so validate_ring checks associativity on the non-unit
    quadruples only, and only associativity can fail."""
    ring = draw(st.one_of(
        st.lists(st.integers(min_value=2, max_value=3), min_size=1, max_size=2).map(lambda o: pointed_ring(tuple(o))),
        st.sampled_from([ring for ring in CORPUS_RINGS + PRODUCT_RINGS if ring.rank > 1]),
    ))
    r = ring.rank
    ring = permuted(ring, [0] + draw(st.permutations(range(1, r))))
    i, j, k = draw(st.tuples(*[st.integers(min_value=1, max_value=r - 1)] * 3))
    return orbit_raised(ring, i, j, k)


def unequal_unit_quadruples(ring):
    """Every (i, j, k, l) with a unit index at which (X_i X_j) X_k and
    X_i (X_j X_k) differ at X_l."""
    N, R = ring.coeff, range(ring.rank)
    return [
        (i, j, k, l)
        for i, j, k, l in product(R, repeat=4)
        if 0 in (i, j, k, l)
        and sum(N[i][j][m] * N[m][k][l] for m in R) != sum(N[j][k][m] * N[i][m][l] for m in R)
    ]


@settings(max_examples=100, deadline=None)
@given(orbit_mutants())
def test_orbit_mutants_fail_associativity_off_the_unit_only(ring):
    violations = validate_ring(ring)
    assert violations == validate_ring_oracle(ring)
    assert {v.kind for v in violations} <= {"associativity"}
    assert unequal_unit_quadruples(ring) == []


def test_an_orbit_mutant_of_ising_fails_associativity_only():
    # psi sigma = sigma psi = 2 sigma and sigma sigma = 1 + 2 psi; raising
    # (2, 2, 2) alone would give sigma sigma = 1 + psi + sigma, the valid
    # table of Rep(S3)
    assert orbit(ISING, 1, 2, 2) == {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
    broken = orbit_raised(ISING, 1, 2, 2)
    violations = validate_ring(broken)
    assert violations and {v.kind for v in violations} == {"associativity"}
    assert violations == validate_ring_oracle(broken)
    assert unequal_unit_quadruples(broken) == []


def quadruples_evaluated(monkeypatch, ring):
    """How many (i, j, k, l) validate_ring's associativity loop evaluates,
    counted through a sum set into fusion_ring's globals: two sums each."""
    sums = []

    def counting_sum(terms):
        sums.append(None)
        return sum(terms)

    monkeypatch.setattr(fusion_ring, "sum", counting_sum, raising=False)
    validate_ring(ring)
    assert len(sums) % 2 == 0
    return len(sums) // 2


# (r-1)^4 quadruples when every check before associativity passes, r^4
# after an earlier violation
WORK = {
    "ising": (ISING, 2**4),
    "ising x rep_s3": (tensor_ring(ISING, load_ring("rep_s3.fr")), 8**4),
    "z4": (Z4, 3**4),
    "ising, psi psi = 1 + psi": (BROKEN["associativity"], 2**4),
    "ising, commutativity broken": (BROKEN["commutativity"], 3**4),
    "ising, frobenius broken": (BROKEN["frobenius"], 3**4),
    "s3": (S3, 6**4),
}


@pytest.mark.parametrize("ring, quadruples", WORK.values(), ids=WORK)
def test_associativity_skips_the_unit_only_on_rings_that_pass_the_earlier_checks(monkeypatch, ring, quadruples):
    assert quadruples_evaluated(monkeypatch, ring) == quadruples


def test_tensor_products_of_valid_rings_validate():
    assert PRODUCT_RINGS
    for ring in PRODUCT_RINGS:
        assert validate_ring(ring) == []


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2))
def test_pointed_rings_always_validate(orders):
    from math import prod

    ring = pointed_ring(tuple(orders))
    assert validate_ring(ring) == []
    assert ring.rank == prod(orders)


# ---------------------------------------------------------- invertibles


def test_invertibles_of_pointed_ring():
    ring = pointed_ring((2, 2))
    inv = invertibles(ring)
    assert inv.members == (0, 1, 2, 3)
    assert inv.name() == "Z2 x Z2"


def test_invertibles_of_ising(ising_ring):
    inv = invertibles(ising_ring)
    assert inv.members == (0, 1)
    assert inv.order == 2
    assert inv.name() == "Z2"
    assert inv.multiply(1, 1) == 0


def test_invertibles_of_fibonacci(fibonacci_ring):
    assert invertibles(fibonacci_ring).members == (0,)


def test_stabilizer_of_sigma(ising_ring):
    assert stabilizer(ising_ring, 0) == (0,)
    assert stabilizer(ising_ring, 1) == (0,)
    assert stabilizer(ising_ring, 2) == (0, 1)


def test_stabilizer_in_rep_s3(rep_s3_ring):
    assert stabilizer(rep_s3_ring, 2) == (0, 1)


def test_tensor_square_of_sigma(ising_ring):
    ts = tensor_square_check(ising_ring, 2)
    assert ts.invertible_part == ((0, 1), (1, 1))
    assert ts.other_part == ()


def test_tensor_square_of_std(rep_s3_ring):
    ts = tensor_square_check(rep_s3_ring, 2)
    assert ts.invertible_part == ((0, 1), (1, 1))
    assert ts.other_part == ((2, 1),)


def test_tensor_square_takes_the_invertible_group(rep_s3_ring):
    inv = invertibles(rep_s3_ring)
    for x in range(rep_s3_ring.rank):
        assert tensor_square_check(rep_s3_ring, x, inv) == tensor_square_check(rep_s3_ring, x)


def test_analyze_builds_the_invertible_group_once(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(fusion_ring, "invertibles", lambda ring: calls.append(ring) or invertibles(ring))
    assert cli.main(["analyze", corpus.path("rep_s3.fr")]) == 0
    assert len(calls) == 1


def test_tensor_square_flags_impossible_multiplicity(ising_ring):
    # sigma sigma = 2 + eps cannot happen in a fusion ring; the check
    # refuses it even though it is only reachable on unvalidated input
    broken = mutate(ising_ring, 2, 2, 0, 2)
    with pytest.raises(ConsistencyError):
        tensor_square_check(broken, 2)


# ------------------------------------------------------------- subrings


def test_subring_generated_unit_only(ising_ring):
    assert subring_generated(ising_ring, ()) == (0,)


def test_subring_generated_by_eps(ising_ring):
    assert subring_generated(ising_ring, (1,)) == (0, 1)


def test_subring_generated_by_sigma(ising_ring):
    assert subring_generated(ising_ring, (2,)) == (0, 1, 2)


def test_adjoint_subring(ising_ring, rep_s3_ring, fibonacci_ring):
    assert adjoint_subring(ising_ring) == (0, 1)
    assert adjoint_subring(rep_s3_ring) == (0, 1, 2)
    assert adjoint_subring(fibonacci_ring) == (0, 1)
    assert adjoint_subring(pointed_ring((4,))) == (0,)
    assert adjoint_subring(ising_ring, (0, 1)) == (0,)


# -------------------------------------------------------------- grading


def test_grading_of_ising(ising_ring):
    grading = universal_grading(ising_ring)
    assert grading.components == ((0, 1), (2,))
    assert grading.neutral == 0
    assert grading.table == ((0, 1), (1, 0))
    assert grading.group_name == "Z2"


def test_grading_of_pointed_ring():
    grading = universal_grading(pointed_ring((2, 2)))
    assert len(grading.components) == 4
    assert grading.group_name == "Z2 x Z2"


def test_grading_of_rep_s3_is_trivial(rep_s3_ring):
    grading = universal_grading(rep_s3_ring)
    assert grading.components == ((0, 1, 2),)
    assert grading.group_name == "trivial"


def test_grading_of_fibonacci_is_trivial(fibonacci_ring):
    assert universal_grading(fibonacci_ring).group_name == "trivial"


GRADING_FACTORS = CORPUS_RINGS + [pointed_ring(orders) for orders in ((2,), (3,), (4,), (2, 2), (6,))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GRADING_FACTORS), st.sampled_from(GRADING_FACTORS), st.data())
def test_grading_matches_the_union_find_oracle(a, b, data):
    ring = tensor_ring(a, b)
    ring = permuted(ring, [0] + data.draw(st.permutations(range(1, ring.rank))))
    grading = universal_grading(ring)
    assert (grading.components, grading.neutral, grading.table) == grading_components_oracle(ring)


def test_grading_refuses_a_coset_that_meets_an_earlier_one():
    # X1 X1 = 1 + X1 and X2 X2 = 1 make the adjoint subring {1, X1};
    # X2 X1 = X1 puts X1 in the coset of X2 as well as in the unit's
    ring = as_ring("abc", (0, 1, 2), [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 1, 0], [0, 1, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    ])
    assert adjoint_subring(ring) == (0, 1)
    with pytest.raises(ConsistencyError, match="coset of basis 2 meets an earlier component"):
        universal_grading(ring)


# ----------------------------------------------------------- nilpotency


def test_ising_nilpotency_tower(ising_ring):
    data = nilpotency(ising_ring)
    assert data.tower == ((0, 1, 2), (0, 1), (0,))
    assert data.nilpotent
    assert data.depth == 2


def test_pointed_ring_nilpotency():
    data = nilpotency(pointed_ring((6,)))
    assert data.nilpotent
    assert data.depth == 1


def test_tower_that_does_not_settle_stops_after_rank_steps(monkeypatch, ising_ring):
    # adjoint_subring only shrinks a tower, even on a ring forced past its
    # violations; one that keeps changing is refused after rank steps
    calls = []

    def unsettled(ring, members):
        calls.append(members)
        return members[:-1] or tuple(range(ring.rank))

    monkeypatch.setattr(fusion_ring, "adjoint_subring", unsettled)
    with pytest.raises(ConsistencyError, match="did not stabilize within 3 steps"):
        nilpotency(ising_ring)
    assert len(calls) == ising_ring.rank


def test_rep_s3_not_nilpotent(rep_s3_ring):
    data = nilpotency(rep_s3_ring)
    assert data.tower == ((0, 1, 2),)
    assert not data.nilpotent
    assert data.depth == 0


def test_fibonacci_not_nilpotent(fibonacci_ring):
    assert not nilpotency(fibonacci_ring).nilpotent


def test_trivial_ring_nilpotent():
    data = nilpotency(pointed_ring((1,)))
    assert data.nilpotent
    assert data.depth == 0
