"""End-to-end checks of the headline guarantees, one printed line each.

Each test reports [PASS]/[FAIL] with its runtime straight to the terminal
(bypassing capture), so a run shows one summary line per guarantee.  Bounds
on runtime are asserted where a guarantee includes one.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from conftest import factorizes_oracle, load_metric, load_ring, random_reduction
from fusionwitt import classifier, corpus, fpdim, witt
from fusionwitt.arith import factorize
from fusionwitt.classifier import VerdictKind
from fusionwitt.fusion_ring import invertibles, stabilizer, tensor_square_check
from fusionwitt.metric_group import direct_sum, gauss_sum
from witt_words import ISING_GENERATOR_WORD, from_ising_category, word_order

F = Fraction

_RESULTS: dict[str, str] = {}


def criterion(label, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                _RESULTS[fn.__name__] = f"[FAIL] {label} ({elapsed:.2f}s)"
                raise
            elapsed = time.perf_counter() - start
            _RESULTS[fn.__name__] = f"[PASS] {label} ({elapsed:.2f}s)"
            assert budget is None or elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget}s"
        return wrapper
    return deco


@pytest.fixture(autouse=True)
def _announce(request, capfd):
    yield
    line = _RESULTS.pop(request.node.name, None)
    if line is not None:
        with capfd.disabled():
            print(line, flush=True)


def nondegenerate_corpus():
    out = []
    for name in corpus.names(".mg"):
        mg = load_metric(name)
        if mg.nondegenerate:
            out.append((name, mg))
    return out


@criterion("witt subgroup for odd primes: Z4 at p=3, Z2 x Z2 at p=5", budget=5.0)
def test_witt_subgroup_odd_primes():
    third = witt.pointed_witt_class(load_metric("z3_third.mg"))
    two_thirds = witt.pointed_witt_class(load_metric("z3_two_thirds.mg"))
    sub3 = witt.generated_subgroup([third, two_thirds])
    assert sub3.order == 4
    assert sub3.invariant_factors == (4,)

    fifth = witt.pointed_witt_class(load_metric("z5_fifth.mg"))
    two_fifths = witt.pointed_witt_class(load_metric("z5_two_fifths.mg"))
    sub5 = witt.generated_subgroup([fifth, two_fifths])
    assert sub5.order == 4
    assert sub5.invariant_factors == (2, 2)


@criterion("witt subgroup of 2-groups up to order 8: order 16, factors (2, 8)", budget=60.0)
def test_witt_subgroup_two_groups():
    gens = [
        witt.pointed_witt_class(mg)
        for _, mg in nondegenerate_corpus()
        if mg.size <= 8 and set(factorize(mg.size)) == {2}
    ]
    assert len(gens) >= 6
    sub = witt.generated_subgroup(gens)
    assert sub.order == 16
    assert sub.invariant_factors == (2, 8)


@criterion("word group: generator order 16, odd exponents only")
def test_word_group_structure():
    assert word_order(ISING_GENERATOR_WORD) == 16
    for e in range(16):
        if e % 2 == 1:
            assert from_ising_category(e).ising_exponent == e
        else:
            try:
                from_ising_category(e)
            except ValueError:
                continue
            raise AssertionError(f"even exponent {e} accepted")


@criterion("gauss sums: Milgram, invariance under reduction, multiplicativity")
def test_gauss_sum_invariants():
    groups = nondegenerate_corpus()
    for _, mg in groups:
        gs = gauss_sum(mg)
        assert gs.magnitude_squared == mg.size
        assert gs.argument is not None and (8 * gs.argument) % 1 == 0
        rep, steps = witt.anisotropic_reduction(mg)
        for step in steps:
            assert step.argument == gs.argument
        final = gauss_sum(rep)
        assert final.argument == gs.argument
        assert final.magnitude_squared == rep.size
    for i in range(len(groups)):
        for j in range(i, len(groups)):
            a, b = groups[i][1], groups[j][1]
            total = gauss_sum(direct_sum(a, b))
            ga, gb = gauss_sum(a), gauss_sum(b)
            assert total.magnitude_squared == ga.magnitude_squared * gb.magnitude_squared
            assert total.argument == (ga.argument + gb.argument) % 1


@criterion("dimension certificates: (1, 1, sqrt 2) with squares (1, 1, 2); irrational ring uncertified")
def test_dimension_certificates():
    data = fpdim.fp_dim_data(load_ring("ising.fr"), tolerance=1e-9)
    assert abs(data.dims[0] - 1) < 1e-9
    assert abs(data.dims[1] - 1) < 1e-9
    assert abs(data.dims[2] - 2**0.5) < 1e-9
    assert data.exact_square == (1, 1, 2)
    assert data.total_exact == 4
    assert data.weakly_integral and not data.integral

    fib = fpdim.fp_dim_data(load_ring("fibonacci.fr"), tolerance=1e-9)
    assert fib.exact_square[1] is None
    assert not fib.weakly_integral


@criterion("tensor squares: invertible part is exactly the stabilizer, all multiplicities 1")
def test_tensor_square_property():
    for name in corpus.names(".fr"):
        ring = load_ring(name)
        inv = invertibles(ring)
        for x in range(ring.rank):
            ts = tensor_square_check(ring, x)
            stab = stabilizer(ring, x, inv)
            assert tuple(g for g, _ in ts.invertible_part) == stab
            assert all(m == 1 for _, m in ts.invertible_part)


@criterion("prime-power verdicts: two rank-3 rings at p=2, pointed Z6 solvable")
def test_prime_power_verdicts():
    for name in ("ising.fr", "rep_s3.fr"):
        ring = load_ring(name)
        data = fpdim.fp_dim_data(ring)
        pp = fpdim.simple_dims_prime_power(data)
        assert pp.prime == 2
        verdict = classifier.verdict_ring(data, pp)
        assert verdict.kind == VerdictKind.SOLVABLE_SINGLE_PRIME
    z6 = load_ring("z6.fr")
    data = fpdim.fp_dim_data(z6)
    verdict = classifier.verdict_ring(data, fpdim.simple_dims_prime_power(data))
    assert verdict.kind in (VerdictKind.SOLVABLE_SINGLE_PRIME, VerdictKind.SOLVABLE_ODD_BELOW_33075)


@criterion("scans: exceptions {900, 1764} and {11025, 27225} flagged, oracle agreement to 100000", budget=60.0)
def test_scan_reproduction_and_oracle():
    report = classifier.scan_exceptions(1800)
    assert report.exceptions == (900, 1764)
    assert report.acknowledged == (900,)
    assert report.divergent == (1764,)
    assert classifier.verdict_dimension(1764).kind == VerdictKind.UNKNOWN
    assert "divergence" in classifier.verdict_dimension(1764).notes

    odd = classifier.scan_exceptions(33075, odd_only=True)
    assert odd.exceptions == (11025, 27225)
    assert odd.acknowledged == (11025,)
    assert odd.divergent == (27225,)
    assert classifier.verdict_dimension(27225).kind == VerdictKind.UNKNOWN
    assert "divergence" in classifier.verdict_dimension(27225).notes

    for n in range(1, 100_001):
        assert (classifier.factor_paqbc(n) is not None) == factorizes_oracle(n)


@criterion("anisotropic representative independent of choices across 20 seeds")
def test_reduction_well_defined():
    for name, mg in nondegenerate_corpus():
        baseline, _ = witt.anisotropic_reduction(mg)
        for seed in range(20):
            rng = random.Random(seed)
            rep = random_reduction(mg, rng)
            assert witt.metric_iso(baseline, rep) is not None, (name, seed)
