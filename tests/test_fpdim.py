import random
import re
from fractions import Fraction
from itertools import product
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    as_ring,
    bareiss_det_oracle,
    load_ring,
    mutate,
    permuted,
    pointed_ring,
    sqrt_is_eigenvalue_oracle,
    tensor_ring,
)
from fusionwitt import cli, corpus, fpdim
from fusionwitt.errors import CertificationError, ConvergenceError
from fusionwitt.fpdim import FPDimData, certify_squares, charpoly, fp_dim_data, perron_root, simple_dims_prime_power
from fusionwitt.fusion_ring import FusionRing

BENCH = Path(__file__).resolve().parents[1] / "bench"


# ---------------------------------------------------- oracle for charpoly


def det_fraction(mat):
    """Exact determinant by Gaussian elimination over Fractions."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def charpoly_oracle(mat):
    """det(xI - A) by evaluation at r + 1 points and Lagrange interpolation."""
    n = len(mat)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[Fraction(x) * (i == j) - mat[i][j] for j in range(n)] for i in range(n)]
        ys.append(det_fraction(shifted))
    # interpolate the degree-n polynomial through the n + 1 points
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            basis = [0] + basis
            basis = [basis[k] - xj * (basis[k + 1] if k + 1 < len(basis) else 0) for k in range(len(basis))]
        scale = ys[i] / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    out = []
    for c in coeffs:
        assert c.denominator == 1
        out.append(int(c))
    return out


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_charpoly_matches_interpolation_oracle(mat):
    assert charpoly(mat) == charpoly_oracle(mat)


def test_charpoly_known_values():
    assert charpoly([[0, 1], [1, 1]]) == [-1, -1, 1]      # x^2 - x - 1
    assert charpoly([[2]]) == [-2, 1]
    assert charpoly([[0, 0], [0, 0]]) == [0, 0, 1]


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def shares_sqrt_root(coeffs, s):
    """Does sqrt(s) solve the polynomial, decided in integer arithmetic?

    Applied to charpoly(M), the oracle for sqrt_is_eigenvalue_oracle(M, s).
    Perfect square s: evaluate at isqrt(s).  Otherwise x**2 - s is
    irreducible, so sqrt(s) is a root iff x**2 - s divides the
    polynomial; reduce modulo x**2 - s by substituting x**2 -> s.
    """
    t = isqrt(s)
    if t * t == s:
        return poly_eval(coeffs, t) == 0
    even = sum(c * s ** (i // 2) for i, c in enumerate(coeffs) if i % 2 == 0)
    odd = sum(c * s ** (i // 2) for i, c in enumerate(coeffs) if i % 2 == 1)
    return even == 0 and odd == 0


def test_poly_eval():
    assert poly_eval([-1, -1, 1], 2) == 1
    assert poly_eval([0, 0, 1], 5) == 25


# ------------------------------------------- Bareiss determinant and roots


matrices_to_8 = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=200, deadline=None)
@given(matrices_to_8)
def test_bareiss_det_matches_fraction_elimination(mat):
    assert bareiss_det_oracle(mat) == det_fraction(mat)


def test_bareiss_det_known_values():
    assert bareiss_det_oracle([]) == 1
    assert bareiss_det_oracle([[0, 1], [1, 0]]) == -1     # needs a row swap
    assert bareiss_det_oracle([[2, 4], [1, 2]]) == 0
    assert bareiss_det_oracle([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6


def planted(s, rest, coupling, moves):
    """A matrix with sqrt(s) among its eigenvalues, disguised.

    Block upper triangular: [t] for s = t**2, else the companion matrix
    of x**2 - s; then the random block rest, the random coupling above
    it, and a conjugation by elementary integer moves (a, b, c):
    row b += c row a, then column a -= c column b.
    """
    t = isqrt(s)
    head = [[t]] if t * t == s else [[0, s], [1, 0]]
    h, n = len(head), len(head) + len(rest)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < h and j < h:
                mat[i][j] = head[i][j]
            elif i < h:
                mat[i][j] = coupling[i][j - h]
            elif j >= h:
                mat[i][j] = rest[i - h][j - h]
    for a, b, c in moves:
        a, b = a % n, b % n
        if a != b:
            mat[b] = [x + c * y for x, y in zip(mat[b], mat[a])]
            for row in mat:
                row[a] -= c * row[b]
    return mat


@st.composite
def matrix_and_s(draw):
    """Half the draws plant sqrt(s) as an eigenvalue, half are random;
    s is a perfect square half the time."""
    if draw(st.booleans()):
        s = draw(st.integers(min_value=1, max_value=6)) ** 2
    else:
        s = draw(st.integers(min_value=2, max_value=40).filter(lambda v: isqrt(v) ** 2 != v))
    if not draw(st.booleans()):
        return draw(matrices_to_8), s
    small = st.integers(min_value=-3, max_value=3)
    h = 1 if isqrt(s) ** 2 == s else 2
    m = draw(st.integers(min_value=0, max_value=8 - h))
    rest = draw(st.lists(st.lists(small, min_size=m, max_size=m), min_size=m, max_size=m))
    coupling = draw(st.lists(st.lists(small, min_size=m, max_size=m), min_size=h, max_size=h))
    moves = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-2, 2)), max_size=6))
    return planted(s, rest, coupling, moves), s


def test_planted_matrices_have_the_planted_root():
    rng = random.Random(5)
    for s in (1, 4, 9, 2, 3, 8):
        for m in range(4):
            rest = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
            coupling = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(2)]
            moves = [(rng.randrange(8), rng.randrange(8), rng.randint(-2, 2)) for _ in range(6)]
            assert shares_sqrt_root(charpoly(planted(s, rest, coupling, moves)), s)


@settings(max_examples=300, deadline=None)
@given(matrix_and_s())
def test_sqrt_is_eigenvalue_matches_the_charpoly_root_test(case):
    mat, s = case
    assert sqrt_is_eigenvalue_oracle(mat, s) == shares_sqrt_root(charpoly(mat), s)


def realization_rings(monkeypatch) -> list[FusionRing]:
    """The ring of each realization the benchmark's rings workload draws."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    rings = []
    for specs in workloads.REALIZATIONS.values():
        for spec in specs:
            ring = workloads.build_ring(spec)
            r = range(len(ring.labels))
            rings.append(as_ring(ring.labels, ring.dual, [[[ring.coeff.get((i, j, k), 0) for k in r] for j in r] for i in r]))
    return rings


def ring_left_matrices(monkeypatch):
    """Every distinct left matrix of the corpus rings and of the rings
    the benchmark's rings workload realizes."""
    rings = [load_ring(name) for name in corpus.names(".fr")] + realization_rings(monkeypatch)
    return sorted({tuple(map(tuple, ring.left_matrix(i))) for ring in rings for i in range(ring.rank)})


def test_sqrt_is_eigenvalue_matches_charpoly_on_every_ring_matrix(monkeypatch):
    mats = ring_left_matrices(monkeypatch)
    found = 0
    for mat in mats:
        poly = charpoly(mat)
        for s in range(1, 17):
            expect = shares_sqrt_root(poly, s)
            assert sqrt_is_eigenvalue_oracle(mat, s) == expect, (mat, s)
            found += expect
    # both verdicts occur, at 1, 2, 4, 8 and more
    assert len(mats) > 100 and 0 < found < 16 * len(mats)


def test_analyze_on_the_corpus_computes_no_charpoly(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(fpdim, "charpoly", lambda mat: calls.append(mat))
    for name in corpus.names(".fr"):
        assert cli.main(["analyze", "--format", "machine", corpus.path(name)]) == 0
    assert "exact_square_0=1" in capsys.readouterr().out
    assert calls == []


# ------------------------------------------------------------ perron root


def test_perron_root_of_known_matrices(ising_ring, fibonacci_ring):
    sigma = ising_ring.left_matrix(2)
    assert abs(perron_root(sigma, 1e-12) - 2**0.5) < 1e-9
    tau = fibonacci_ring.left_matrix(1)
    golden = (1 + 5**0.5) / 2
    assert abs(perron_root(tau, 1e-12) - golden) < 1e-9


def test_perron_root_budget_is_scaled_to_the_rank():
    # a nilpotent Jordan block: after the shift no eigenvalue dominates,
    # and the Rayleigh quotients creep toward 1 without settling
    with pytest.raises(ConvergenceError, match="did not converge in 3000 steps"):
        perron_root([[0, 1], [0, 0]], 1e-12)
    with pytest.raises(ConvergenceError, match="did not converge in 6000 steps"):
        perron_root([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], 1e-12)


@pytest.mark.parametrize("matrix, bracket", [
    ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], "[0.0, 0.75]"),
    ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], "[0.0, 0.33333333333333326]"),
])
def test_perron_root_refuses_a_quotient_its_bracket_does_not_pin(matrix, bracket):
    # the spectral radius is 0, yet two successive Rayleigh quotients of
    # the shifted block agree (at 2/3 and 1/3); the Collatz-Wielandt
    # bracket of the iterate shows the value is no eigenvalue estimate
    with pytest.raises(ConvergenceError, match=re.escape(f"only known to lie in {bracket}")):
        perron_root(matrix, 1e-12)


def test_collatz_wielandt_bounds():
    # Ising's sigma with the dimension vector: both ends are sqrt(2)
    low, high = fpdim.collatz_wielandt([[0, 0, 1], [0, 0, 1], [1, 1, 0]], [2**-0.5, 2**-0.5, 1.0], 1e-2)
    assert abs(low - 2**0.5) < 1e-12 and abs(high - 2**0.5) < 1e-12
    # block diagonal golden ratio and 1: the small entry on the weaker
    # block is dropped from the low end, which climbs to the high end
    phi = (1 + 5**0.5) / 2
    low, high = fpdim.collatz_wielandt([[0, 1, 0], [1, 1, 0], [0, 0, 1]], [1 / phi, 1.0, 1e-6], 1e-2)
    assert abs(low - phi) < 1e-12 and abs(high - phi) < 1e-12
    # an entry lost to underflow leaves no upper end
    assert fpdim.collatz_wielandt([[2, 0], [0, 1]], [1.0, 0.0], 1e-2) == (2.0, float("inf"))


@pytest.mark.parametrize("tolerance", [1e-6, 1e-12])
def test_perron_root_brackets_every_corpus_left_matrix(tolerance):
    # the accepted bracket width has a wide margin on valid rings, down
    # to the loosest tolerance fp_dim_data allows
    for name in corpus.names(".fr"):
        ring = cli.parse_ring_file(corpus.path(name))
        for i in range(ring.rank):
            perron_root(ring.left_matrix(i), tolerance)


def test_perron_root_handles_periodic_matrix():
    # plain power iteration oscillates on a permutation matrix; the
    # shift by the identity restores convergence
    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert abs(perron_root(cycle, 1e-12) - 1.0) < 1e-9


# ------------------------------------------------------------ fp_dim_data


def test_ising_dims(ising_ring):
    data = fp_dim_data(ising_ring)
    assert data.exact_square == (1, 1, 2)
    assert data.total_exact == 4
    assert not data.integral
    assert data.weakly_integral
    assert abs(data.dims[2] - 2**0.5) < 1e-9
    assert abs(data.total - 4) < 1e-9


def test_fibonacci_dims_have_no_certificate(fibonacci_ring):
    data = fp_dim_data(fibonacci_ring)
    assert data.exact_square == (1, None)
    assert data.total_exact is None
    assert not data.integral
    assert not data.weakly_integral


def test_rep_s3_dims(rep_s3_ring):
    data = fp_dim_data(rep_s3_ring)
    assert data.exact_square == (1, 1, 4)
    assert data.total_exact == 6
    assert data.integral
    assert data.weakly_integral


def test_dims_invariant_under_duality(ising_ring, rep_s3_ring, z6_ring):
    for ring in (ising_ring, rep_s3_ring, z6_ring):
        data = fp_dim_data(ring)
        for i in range(ring.rank):
            assert abs(data.dims[i] - data.dims[ring.dual[i]]) < 1e-9


def test_unit_dimension_is_one(ising_ring):
    data = fp_dim_data(ising_ring)
    assert data.exact_square[0] == 1
    assert abs(data.dims[0] - 1.0) < 1e-12


def test_tolerance_must_be_in_range(ising_ring):
    with pytest.raises(ValueError):
        fp_dim_data(ising_ring, tolerance=0.0)
    with pytest.raises(ValueError):
        fp_dim_data(ising_ring, tolerance=1e-3)


def test_loose_tolerance_still_certified(ising_ring):
    data = fp_dim_data(ising_ring, tolerance=1e-7)
    assert data.exact_square == (1, 1, 2)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2))
def test_pointed_dims_are_all_one(orders):
    data = fp_dim_data(pointed_ring(tuple(orders)))
    assert all(s == 1 for s in data.exact_square)
    assert data.integral


# ------------------------------------------------- the subring certificate


def assert_certified_as_the_oracle(ring):
    """fp_dim_data certifies a simple exactly when the Bareiss oracle
    proves its candidate, sqrt(round(dim**2)), an eigenvalue of the
    simple's left matrix."""
    data = fp_dim_data(ring)
    for i, d in enumerate(data.dims):
        s = round(d * d)
        want = s if sqrt_is_eigenvalue_oracle(ring.left_matrix(i), s) else None
        assert data.exact_square[i] == want, (ring.labels[i], s)


def test_certificates_match_the_oracle_on_every_bundled_ring(monkeypatch):
    # the corpus (D(S3) included), the benchmark's realizations and the
    # pointed Z_20, Z_24, Z_30, Z_2 x Z_3 x Z_5 and Z_60, each a tensor
    # product of coprime cyclic factors, which skips the O(r^5)
    # validation at its full rank
    rings = [load_ring(name) for name in corpus.names(".fr")] + realization_rings(monkeypatch)
    for orders in ((4, 5), (8, 3), (6, 5), (2, 3, 5), (4, 15)):
        ring = pointed_ring((orders[0],))
        for n in orders[1:]:
            ring = tensor_ring(ring, pointed_ring((n,)))
        rings.append(ring)
    for ring in rings:
        assert_certified_as_the_oracle(ring)


PRODUCT_FACTORS = [load_ring(name) for name in ("fibonacci.fr", "ising.fr", "rep_s3.fr")]
PRODUCT_FACTORS += [pointed_ring((n,)) for n in range(2, 6)]


@st.composite
def product_rings(draw):
    """A tensor product of one to three of F, I, R and Z_2 .. Z_5, up to
    rank 24, with its non-unit basis permuted."""
    ring = draw(st.sampled_from(PRODUCT_FACTORS))
    for factor in draw(st.lists(st.sampled_from(PRODUCT_FACTORS), max_size=2)):
        if ring.rank * factor.rank <= 24:
            ring = tensor_ring(ring, factor)
    return permuted(ring, [0] + draw(st.permutations(range(1, ring.rank))))


@settings(max_examples=80, deadline=None)
@given(product_rings())
def test_certificates_match_the_oracle_on_random_tensor_products(ring):
    assert_certified_as_the_oracle(ring)


@pytest.mark.parametrize("name", ["ising.fr", "rep_s3.fr", "z2z2.fr", "d_s3.fr"])
def test_one_changed_product_coefficient_fails_the_check(name):
    # the product rule of X_i X_j moves by sqrt(s_k s_i s_j) != 0
    ring = load_ring(name)
    squares = dict(enumerate(fp_dim_data(ring).exact_square))
    certify_squares(ring, squares)
    for i, j, k in product(range(ring.rank), repeat=3):
        for value in (ring.coeff[i][j][k] - 1, ring.coeff[i][j][k] + 1):
            if value >= 0:
                with pytest.raises(CertificationError):
                    certify_squares(mutate(ring, i, j, k, value), squares)


def test_certificate_failures_name_the_simples(ising_ring, fibonacci_ring):
    with pytest.raises(CertificationError, match="^eps has no integral dim\\^2, yet lies in the subring generated"):
        certify_squares(ising_ring, {0: 1, 2: 2})
    with pytest.raises(CertificationError, match=re.escape(
        "candidate dims sqrt(2) of sigma and sqrt(2) of sigma: their product differs from the dimension of sigma sigma"
    )):
        certify_squares(mutate(ising_ring, 2, 2, 1, 2), {0: 1, 1: 1, 2: 2})
    # tau tau = 1 + tau with the false candidate dim tau = sqrt(2): the
    # rounded-down roots give isqrt(4) + isqrt(8) = 4 = t, but sqrt(8) is
    # no integer, and sqrt(2) sqrt(2) = 2 differs from 1 + sqrt(2)
    with pytest.raises(CertificationError, match=re.escape("sqrt(2) of tau and sqrt(2) of tau")):
        certify_squares(fibonacci_ring, {0: 1, 1: 2})


# ---------------------------------------------------------- prime powers


def test_prime_power_of_ising(ising_ring):
    pp = simple_dims_prime_power(fp_dim_data(ising_ring))
    assert pp.prime == 2 and not pp.pointed


def test_prime_power_of_rep_s3(rep_s3_ring):
    pp = simple_dims_prime_power(fp_dim_data(rep_s3_ring))
    assert pp.prime == 2 and not pp.pointed


def test_prime_power_of_pointed(z6_ring):
    pp = simple_dims_prime_power(fp_dim_data(z6_ring))
    assert pp.prime is None and pp.pointed


def test_prime_power_needs_certificates(fibonacci_ring):
    with pytest.raises(CertificationError):
        simple_dims_prime_power(fp_dim_data(fibonacci_ring))


def test_prime_power_mixed_primes_returns_none():
    data = FPDimData(
        dims=(1.0, 2.0, 3.0),
        exact_square=(1, 4, 9),
        total=14.0,
        total_exact=14,
        integral=True,
        weakly_integral=True,
    )
    assert simple_dims_prime_power(data) is None
