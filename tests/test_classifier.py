from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import check_factorization, factorizes_oracle, is_square_free, pointed_ring, recompose
from fusionwitt.arith import factorize, factorize_with_sieve, smallest_factor_sieve
from fusionwitt.caps import Cap
from fusionwitt.classifier import (
    BoundCriterion,
    DimensionVerdict,
    Factorization,
    ScanReport,
    VerdictKind,
    factor_pac,
    factor_paqbc,
    scan_exceptions,
    verdict_dimension,
    verdict_ring,
)
from fusionwitt.errors import Violation
from fusionwitt.fpdim import fp_dim_data, simple_dims_prime_power


def as_tuple(f):
    return None if f is None else (f.p, f.a, f.q, f.b, f.c)


# -------------------------------------------------------- factorizations


def test_factor_pac_examples():
    assert as_tuple(factor_pac(12)) == (2, 2, None, 0, 3)
    assert as_tuple(factor_pac(1)) == (None, 0, None, 0, 1)
    assert as_tuple(factor_pac(6)) == (None, 0, None, 0, 6)
    assert as_tuple(factor_pac(8)) == (2, 3, None, 0, 1)
    assert factor_pac(900) is None          # 2^2 3^2 5^2
    assert factor_pac(36) is None


def pair_search(n, factors):
    """factor_paqbc as a search: the factor_pac witness if there is one,
    else the first prime pair, in lexicographic order, whose cofactor is
    square-free."""
    single = factor_pac(n, factors)
    if single is not None:
        return single
    primes = sorted(factors)
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            a, b = factors[p], factors[q]
            c = n // (p**a * q**b)
            if is_square_free(c):
                return Factorization(n=n, p=p, a=a, q=q, b=b, c=c)
    return None


def test_factor_paqbc_witness_matches_pair_search():
    limit = 100_000
    sieve = smallest_factor_sieve(limit)
    for n in range(1, limit):
        factors = factorize_with_sieve(n, sieve)
        assert factor_paqbc(n, factors) == pair_search(n, factors), n


def test_factor_paqbc_examples():
    # exact witnesses are fixed behavior, not just any valid answer
    assert as_tuple(factor_paqbc(60)) == (2, 2, None, 0, 15)
    assert as_tuple(factor_paqbc(36)) == (2, 2, 3, 2, 1)
    assert as_tuple(factor_paqbc(72)) == (2, 3, 3, 2, 1)
    assert as_tuple(factor_paqbc(30)) == (None, 0, None, 0, 30)
    assert factor_paqbc(900) is None        # 2^2 3^2 5^2
    assert factor_paqbc(1764) is None       # 2^2 3^2 7^2
    assert factor_paqbc(11025) is None      # 3^2 5^2 7^2
    assert factor_paqbc(27225) is None      # 3^2 5^2 11^2
    assert factor_paqbc(44100) is None      # 2^2 3^2 5^2 7^2


def test_rejects_nonpositive():
    for fn in (factor_pac, factor_paqbc, verdict_dimension):
        with pytest.raises(ValueError):
            fn(0)


def test_check_validates_witnesses():
    check_factorization(factor_paqbc(360))
    check_factorization(factor_pac(7))
    with pytest.raises(AssertionError):
        check_factorization(Factorization(n=12, p=2, a=1, q=None, b=0, c=3))   # recomposes to 6
    with pytest.raises(AssertionError):
        check_factorization(Factorization(n=24, p=2, a=1, q=None, b=0, c=12))  # cofactor not square-free
    with pytest.raises(AssertionError):
        check_factorization(Factorization(n=36, p=3, a=2, q=2, b=2, c=1))      # primes out of order


def factor_pac_oracle(n, factors=None):
    """factor_pac as it read before both witnesses shared one reader:
    sort the factorization, then filter the squared primes."""
    if n < 1:
        raise ValueError(f"expected a positive dimension, got {n}")
    factors = factors if factors is not None else factorize(n)
    squared = [p for p, e in sorted(factors.items()) if e >= 2]
    if len(squared) > 1:
        return None
    if not squared:
        return Factorization(n=n, p=None, a=0, q=None, b=0, c=n)
    p = squared[0]
    a = factors[p]
    return Factorization(n=n, p=p, a=a, q=None, b=0, c=n // p**a)


def factor_paqbc_oracle(n, factors=None):
    """factor_paqbc as it read before, sorting and filtering a second
    time in factor_pac_oracle."""
    if n < 1:
        raise ValueError(f"expected a positive dimension, got {n}")
    factors = factors if factors is not None else factorize(n)
    squared = [p for p, e in sorted(factors.items()) if e >= 2]
    if len(squared) <= 1:
        return factor_pac_oracle(n, factors)
    if len(squared) > 2:
        return None
    p, q = squared
    a, b = factors[p], factors[q]
    return Factorization(n=n, p=p, a=a, q=q, b=b, c=n // (p**a * q**b))


# dimensions below 10^7: uniform ones (mostly square-free or one squared
# prime), and products of small primes (often two or more squared primes)
DIMENSIONS = st.one_of(
    st.integers(min_value=1, max_value=10**7 - 1),
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=12).map(prod).filter(lambda n: n < 10**7),
)


@settings(max_examples=400, deadline=None)
@given(DIMENSIONS, st.randoms(use_true_random=False))
def test_witness_reader_matches_the_old_witnesses(n, rng):
    factors = factorize(n)
    shuffled = dict(rng.sample(sorted(factors.items()), len(factors)))
    for new, old in ((factor_pac, factor_pac_oracle), (factor_paqbc, factor_paqbc_oracle)):
        expected = old(n)
        for given_factors in (None, factors, shuffled):
            got = new(n, given_factors)
            assert got == expected == old(n, given_factors), (n, given_factors)
            assert got is None or type(got) is Factorization


# each record type, its field names in order, and one value per field
RECORDS = [
    (Factorization, dict(n=12, p=2, a=2, q=None, b=0, c=3)),
    (DimensionVerdict, dict(kind=VerdictKind.UNKNOWN, witness=None, notes="no criterion applies to 44100")),
    (BoundCriterion, dict(limit=1800, odd_only=False, acknowledged=(900,), kind=VerdictKind.WGT_BELOW_1800)),
    (ScanReport, dict(limit=1800, odd_only=False, exceptions=(900, 1764), acknowledged=(900,), divergent=(1764,))),
    (Violation, dict(kind="unit", where=(0, 1, 1), detail="N[0][1][1] = 0, expected 1")),
    (Cap, dict(name="order cap", default=32, env="FUSIONWITT_ORDER_CAP", flag="--order-cap")),
]


@pytest.mark.parametrize("record,fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_records_keep_keywords_field_names_and_immutability(record, fields):
    value = record(**fields)
    assert record._fields == tuple(fields)
    assert value == record(*fields.values())
    assert {name: getattr(value, name) for name in fields} == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_witness_text_leaves_out_absent_primes():
    assert [str(factor_paqbc(n)) for n in (30, 60, 72)] == ["30 = 30", "60 = 2^2 * 15", "72 = 2^3 * 3^2 * 1"]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=200_000))
def test_witness_search_matches_oracle(n):
    witness = factor_paqbc(n)
    assert (witness is not None) == factorizes_oracle(n)
    if witness is not None:
        check_factorization(witness)
        assert recompose(witness) == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=200_000))
def test_single_prime_witness_is_consistent(n):
    witness = factor_pac(n)
    if witness is not None:
        check_factorization(witness)
        assert witness.q is None and witness.b == 0
        assert recompose(witness) == n


# --------------------------------------------------------------- verdicts


def test_verdict_single_prime():
    v = verdict_dimension(12)
    assert v.kind == VerdictKind.SOLVABLE_SINGLE_PRIME
    assert as_tuple(v.witness) == (2, 2, None, 0, 3)


def test_verdict_square_free():
    v = verdict_dimension(30)
    assert v.kind == VerdictKind.SOLVABLE_SINGLE_PRIME
    assert as_tuple(v.witness) == (None, 0, None, 0, 30)


def test_verdict_two_primes():
    v = verdict_dimension(36)
    assert v.kind == VerdictKind.WGT_TWO_PRIMES
    assert as_tuple(v.witness) == (2, 2, 3, 2, 1)


def test_verdict_900_is_acknowledged_special_case():
    v = verdict_dimension(900)
    assert v.kind == VerdictKind.WGT_BELOW_1800
    assert v.witness is None
    assert "900" in v.notes and "acknowledged" in v.notes


def test_verdict_1764_diverges_and_is_withheld():
    v = verdict_dimension(1764)
    assert v.kind == VerdictKind.UNKNOWN
    assert "divergence" in v.notes
    assert "1764" in v.notes


def test_verdict_11025_is_acknowledged_special_case():
    v = verdict_dimension(11025)
    assert v.kind == VerdictKind.SOLVABLE_ODD_BELOW_33075
    assert v.witness is None


def test_verdict_27225_diverges_and_is_withheld():
    v = verdict_dimension(27225)
    assert v.kind == VerdictKind.UNKNOWN
    assert "divergence" in v.notes
    assert "27225" in v.notes


# the exact notes of the verdict branches that no golden output pins
PINNED_NOTES = {
    36: "two-prime criterion: 36 = 2^2 * 3^2 * 1 with square-free cofactor; applies to weakly integral"
        " nondegenerate braided categories",
    900: "below-1800 criterion: no two-prime factorization, but 900 is its acknowledged special case; applies to"
         " weakly integral nondegenerate braided categories",
    1800: "no criterion applies to 1800",
    11025: "odd-below-33075 criterion: no two-prime factorization, but 11025 is its acknowledged special case;"
           " applies to weakly integral nondegenerate braided categories",
    33075: "no criterion applies to 33075",
}


@pytest.mark.parametrize("n", sorted(PINNED_NOTES))
def test_verdict_notes_are_pinned(n):
    assert verdict_dimension(n).notes == PINNED_NOTES[n]


def test_verdict_large_without_criterion():
    # 44100 = 2^2 3^2 5^2 7^2 is even and above the any-parity bound
    v = verdict_dimension(44100)
    assert v.kind == VerdictKind.UNKNOWN
    assert "no criterion" in v.notes


# ----------------------------------------------------------- ring verdicts


def ring_verdict(ring):
    data = fp_dim_data(ring)
    return verdict_ring(data, simple_dims_prime_power(data) if data.weakly_integral else None)


def test_ring_verdict_ising(ising_ring):
    v = ring_verdict(ising_ring)
    assert v.kind == VerdictKind.SOLVABLE_SINGLE_PRIME
    assert "power of 2" in v.notes


def test_ring_verdict_fibonacci(fibonacci_ring):
    v = ring_verdict(fibonacci_ring)
    assert v.kind == VerdictKind.UNKNOWN
    assert "weakly integral" in v.notes


def test_ring_verdict_rep_s3(rep_s3_ring):
    v = ring_verdict(rep_s3_ring)
    assert v.kind == VerdictKind.SOLVABLE_SINGLE_PRIME


def test_ring_verdict_pointed_z6(z6_ring):
    v = ring_verdict(z6_ring)
    assert v.kind == VerdictKind.SOLVABLE_SINGLE_PRIME
    assert "pointed" in v.notes


def test_ring_verdict_pointed_z30():
    ring = pointed_ring((30,))
    v = ring_verdict(ring)
    assert v.kind == VerdictKind.SOLVABLE_SINGLE_PRIME


# ------------------------------------------------------------------ scans


def test_scan_below_1800():
    report = scan_exceptions(1800)
    assert report.exceptions == (900, 1764)
    assert report.acknowledged == (900,)
    assert report.divergent == (1764,)


def test_scan_odd_below_33075():
    report = scan_exceptions(33075, odd_only=True)
    assert report.exceptions == (11025, 27225)
    assert report.acknowledged == (11025,)
    assert report.divergent == (27225,)


def test_scan_small_range_is_clean():
    report = scan_exceptions(900)
    assert report.exceptions == ()
    assert report.divergent == ()
    assert report.acknowledged == ()


def test_scan_odd_skips_even_exceptions():
    report = scan_exceptions(1800, odd_only=True)
    assert report.exceptions == ()


def test_scan_limit_validation():
    with pytest.raises(ValueError):
        scan_exceptions(1)
    with pytest.raises(ValueError):
        scan_exceptions(10**7 + 1)
