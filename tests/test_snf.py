import contextlib
import io
from dataclasses import replace
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from fusionwitt import cli, corpus, snf
from fusionwitt.snf import SmithForm, _verify, integer_kernel, lattice_index, mat_mul, rebase_presentation, smith_normal_form

matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_diagonal_example():
    form = smith_normal_form([[2, 0], [0, 3]])
    assert form.diagonal == (1, 6)


def test_zero_matrix():
    form = smith_normal_form([[0, 0], [0, 0]])
    assert form.diagonal == (0, 0)


@settings(max_examples=200)
@given(matrices)
def test_transforms_and_divisibility(mat):
    # smith_normal_form verifies U M V = diag, V Vinv = I and the
    # divisibility chain internally on every call
    form = smith_normal_form(mat)
    nonzero = [d for d in form.diagonal if d]
    assert all(d > 0 for d in nonzero)
    for d0, d1 in zip(nonzero, nonzero[1:]):
        assert d1 % d0 == 0


def smith_normal_form_oracle(mat: list[list[int]]) -> SmithForm:
    """The elimination smith_normal_form ran before it worked on augmented
    matrices: each operation updates M, U, V and V**-1 in its own loop.
    Same pivot rule and operation order, so the same four fields."""
    r = len(mat)
    c = len(mat[0]) if r else 0
    a = [list(row) for row in mat]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]
    vinv = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def add_row(i, j, t):
        for k in range(c):
            a[j][k] += t * a[i][k]
        for k in range(r):
            u[j][k] += t * u[i][k]

    def neg_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_col(i, j, t):
        for row in a:
            row[j] += t * row[i]
        for row in v:
            row[j] += t * row[i]
        for k in range(c):
            vinv[i][k] -= t * vinv[j][k]

    def min_entry(t):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(r, c):
        pos = min_entry(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            dirty = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                pos = min_entry(t)
                continue
            if a[t][t] < 0:
                neg_row(t)
            fix = next(((i, j) for i in range(t + 1, r) for j in range(t + 1, c) if a[i][j] % a[t][t] != 0), None)
            if fix is None:
                break
            add_row(fix[0], t, 1)
            pos = min_entry(t)
        t += 1
    return SmithForm(diagonal=tuple(a[i][i] for i in range(min(r, c))), u=tuple(map(tuple, u)),
                     v=tuple(map(tuple, v)), v_inv=tuple(map(tuple, vinv)))


# half the entries zero, the rest signed prime powers up to 7**3
PRIME_POWERS = sorted({s * p**k for p in (2, 3, 5, 7) for k in range(4) for s in (1, -1)})
sparse_matrices = st.tuples(st.integers(0, 5), st.integers(0, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(st.one_of(st.just(0), st.sampled_from(PRIME_POWERS)), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(max_examples=500)
@given(sparse_matrices)
def test_transforms_match_the_oracle(mat):
    assert smith_normal_form(mat) == smith_normal_form_oracle(mat)


@st.composite
def smith_form_inputs(draw):
    """An r x c matrix, r and c in 0..4, already in Smith form: a divisor
    chain on the diagonal, equal entries and a zero tail included, and
    zero elsewhere, extra rows or columns too."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    diagonal, d = [], 1
    for _ in range(min(r, c)):
        # a factor 0 makes every later entry 0
        d *= draw(st.sampled_from([0, 1, 1, 2, 3, 5]))
        diagonal.append(d)
    return [[diagonal[i] if i == j else 0 for j in range(c)] for i in range(r)]


@settings(max_examples=300)
@given(smith_form_inputs())
def test_an_input_in_smith_form_matches_the_oracle(mat):
    # the elimination finds every pivot in place and leaves the
    # transforms at the identity
    form = smith_normal_form(mat)
    assert form == smith_normal_form_oracle(mat)
    assert (form.u, form.v) == tuple(tuple(map(tuple, snf._identity(n))) for n in (len(mat), len(form.v)))


@pytest.mark.parametrize("mat", [
    [[-2]], [[0, 0], [0, 1]], [[2, 0], [0, -4]], [[1, 1], [0, 1]], [[1, 0], [0, 2], [0, 1]], [[4, 0], [0, 6]],
], ids=["negative", "zero_first", "negative_later", "off_diagonal", "below_diagonal", "no_chain"])
def test_an_input_nearly_in_smith_form_is_eliminated(mat):
    # zero_first permutes into a chain by a swap; the rest need row or
    # column operations too
    assert smith_normal_form(mat) == smith_normal_form_oracle(mat)


@st.composite
def diagonal_inputs(draw):
    """A square diagonal matrix, n in 0..5: a divisor chain with equal
    entries and zeros, in any order (e.g. (4, 4, 2) or (0, 2)), and in
    half the draws one entry negated or replaced so that the entries no
    longer permute into a chain (e.g. (4, 6) or (2, 3))."""
    n = draw(st.integers(0, 5))
    chain, d = [], 1
    for _ in range(n):
        d *= draw(st.sampled_from([0, 1, 1, 2, 2, 3]))
        chain.append(d)
    entries = draw(st.permutations(chain))
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        entries[i] = draw(st.sampled_from([-entries[i], 3, 5, 6]))
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


@settings(max_examples=400)
@given(diagonal_inputs())
def test_a_diagonal_input_matches_the_oracle(mat):
    assert smith_normal_form(mat) == smith_normal_form_oracle(mat)


@pytest.mark.parametrize("entries,eliminated", [
    ((4, 4, 2), False), ((4, 2, 2), False), ((0, 2, 0, 1), False), ((2, 2), False),
    ((4, 6), True), ((2, 3), True), ((2, -4), True), ((-1, 0), True),
])
def test_the_diagonal_shortcut_permutes_a_chain_and_eliminates_the_rest(entries, eliminated):
    # direct_sum's shortcut: on a diagonal whose entries permute into a
    # nonnegative divisor chain the elimination only swaps each entry into
    # place in pivot_order, so U and V**-1 are that permutation P of the
    # identity rows and V = P^T; eliminated marks the diagonals that need
    # more than swaps
    n = len(entries)
    mat = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    form = smith_normal_form(mat)
    assert form == smith_normal_form_oracle(mat)
    perm = tuple(tuple(int(j == p) for j in range(n)) for p in snf.pivot_order(entries))
    assert (form.u == perm and form.v_inv == perm and form.v == tuple(zip(*perm))) != eliminated


def dense_product(a, b):
    """a @ b entry by entry, with as many columns as b has."""
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)] for i in range(len(a))]


def shaped(rows, cols, entries):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=300)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.sampled_from([
    st.just(0), st.sampled_from([0, 0, 0, 1, -1, 2]), st.integers(-9, 9),
])).flatmap(lambda s: st.tuples(shaped(s[0], s[1], s[3]), shaped(s[1], s[2], s[3]))))
def test_mat_mul_matches_a_dense_product(pair):
    # all-zero, mostly-zero and dense entries, zero rows and columns too
    a, b = pair
    assert mat_mul(a, b) == dense_product(a, b)


@pytest.mark.parametrize("a,b,expected", [
    ([], [], []), ([], [[1, 2]], []), ([[]], [], [[]]), ([[], []], [], [[], []]),
    ([[0, 0]], [[1, 2, 3], [4, 5, 6]], [[0, 0, 0]]), ([[1], [2]], [[]], [[], []]),
    ([[1, 2], [3, 4]], [[5, 6], [7, 8]], [[19, 22], [43, 50]]),
], ids=["empty", "no_rows", "one_empty_row", "two_empty_rows", "zero_row", "zero_columns", "dense"])
def test_mat_mul_shapes(a, b, expected):
    out = mat_mul(a, b)
    assert out == expected == dense_product(a, b)
    assert len({id(row) for row in out}) == len(out)  # no row is shared


@pytest.mark.parametrize("mat,expected", [
    ([], SmithForm((), (), (), ())),
    ([[]], SmithForm((), ((1,),), (), ())),
    ([[], []], SmithForm((), ((1, 0), (0, 1)), (), ())),
    # a remainder left by the clearing (the dirty branch), then the pivot
    # 2 fails to divide 3 (the divisibility repair), then a negated row
    ([[2, 0], [0, 3]], SmithForm((1, 6), ((1, 1), (3, 2)), ((-1, 3), (1, -2)), ((2, 3), (1, 1)))),
    ([[4, 6], [6, 9]], SmithForm((1, 0), ((-1, 1), (3, -2)), ((-1, 3), (1, -2)), ((2, 3), (1, 1)))),
    ([[6, 4], [4, 6]], SmithForm((2, 10), ((1, 0), (1, 1)), ((1, -2), (-1, 3)), ((3, 2), (1, 1)))),
    # a column swap to reach the pivot, then a negated row
    ([[0, -2]], SmithForm((2,), ((-1,),), ((0, 1), (1, 0)), ((0, 1), (1, 0)))),
    # swaps only, and not a stable sort: 2 swaps with the first 4, so the
    # pivots come from entries 2, 1, 0
    ([[4, 0, 0], [0, 4, 0], [0, 0, 2]], SmithForm((2, 4, 4), *[((0, 0, 1), (0, 1, 0), (1, 0, 0))] * 3)),
], ids=["no_rows", "no_columns", "two_rows_no_columns", "repair", "dirty", "dirty_6_4", "swap_negate", "equal_entries"])
def test_pinned_transforms(mat, expected):
    assert smith_normal_form_oracle(mat) == expected
    assert smith_normal_form(mat) == expected


def test_witt_verbs_get_the_oracle_transforms_on_every_call(monkeypatch):
    # the goldens see a changed V or V**-1 only through the printed
    # representatives of the pinned inputs; this checks every SNF call
    # made on the corpus, wherever its result goes
    calls, mismatches = [], []
    real = snf.smith_normal_form

    def checked(mat):
        form = real(mat)
        calls.append(mat)
        if form != smith_normal_form_oracle(mat):
            mismatches.append(mat)
        return form

    monkeypatch.setattr(snf, "smith_normal_form", checked)
    metrics = [corpus.path(name) for name in corpus.names(".mg")]
    runs = [["witt-class", path] for path in metrics]
    runs += [["witt-subgroup", *map(corpus.path, names)] for names in (
        ("z3_third.mg", "z3_two_thirds.mg", "hyperbolic3.mg"),
        ("z5_fifth.mg", "z5_two_fifths.mg"),
        ("semion.mg", "semion_bar.mg", "z2z2_diag.mg", "z2z2_hyperbolic.mg", "z4_eighth.mg", "z8_sixteenth.mg"),
    )]
    statuses = []
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            statuses.append(cli.main([*argv, "--format", "machine"]))
    assert mismatches == []
    assert statuses.count(0) == len(runs) - 1  # the degenerate form is refused
    # exact, so that a lost or added call fails: a same-prime direct sum makes none
    assert len(calls) == 471


def corrupt(rows, i, j):
    """rows with entry (i, j) raised by one."""
    return tuple(tuple(x + ((r, c) == (i, j)) for c, x in enumerate(row)) for r, row in enumerate(rows))


MAT = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
FORM = smith_normal_form(MAT)
IDENTITY = ((1, 0), (0, 1))


@pytest.mark.parametrize("mat,form,message", [
    (MAT, replace(FORM, u=corrupt(FORM.u, 0, 0)), "smith normal form verification failed"),
    (MAT, replace(FORM, v=corrupt(FORM.v, 2, 1)), "smith normal form verification failed"),
    (MAT, replace(FORM, v_inv=corrupt(FORM.v_inv, 1, 2)), "column transform inverse verification failed"),
    # U M V = diag(2, 3) and V V^-1 = I hold; only the chain 2 | 3 fails
    ([[2, 0], [0, 3]], SmithForm((2, 3), IDENTITY, IDENTITY, IDENTITY), "diagonal divisibility chain broken"),
], ids=["u", "v", "v_inv", "chain"])
def test_verify_rejects_a_corrupted_decomposition(mat, form, message):
    with pytest.raises(AssertionError, match=message):
        _verify(mat, form)


def test_verify_accepts_the_decomposition_it_corrupts():
    _verify(MAT, FORM)


@settings(max_examples=200)
@given(matrices)
def test_kernel_vectors_annihilate(mat):
    for z in integer_kernel(mat):
        col = [[x] for x in z]
        assert all(v == [0] for v in mat_mul(mat, col))


@settings(max_examples=300)
@given(matrices, st.integers(min_value=1, max_value=72))
def test_lattice_index_matches_smith_diagonal(mat, modulus):
    # [Z^c : rows + m Z^c] is the product of gcd(s_i, m) over the Smith
    # diagonal, zero-padded to the c columns
    cols = len(mat[0])
    diagonal = smith_normal_form(mat).diagonal + (0,) * (cols - min(len(mat), cols))
    assert lattice_index(mat, modulus) == prod(gcd(s, modulus) for s in diagonal)


def test_lattice_index_examples():
    assert lattice_index([[2, 0], [0, 3]], 6) == 6
    assert lattice_index([[0, 0], [0, 0]], 4) == 16
    assert lattice_index([[1, 5], [5, 1]], 8) == 8
    assert lattice_index([], 5) == 1


def test_kernel_of_injective_map_is_trivial():
    assert integer_kernel([[1, 0], [0, 1], [3, 5]]) == []


def test_kernel_dimension_of_rank_one_matrix():
    kernel = integer_kernel([[2, 4, 6]])
    assert len(kernel) == 2


def test_rebase_diagonal_relations():
    orders, combos = rebase_presentation([[2, 0], [0, 3]], 2)
    assert sorted(orders) == [1, 6]
    # the order-6 generator combines both original generators
    h = combos[orders.index(6)]
    assert h[0] % 2 != 0 and h[1] % 3 != 0


def test_rebase_requires_finite_quotient():
    with pytest.raises(ValueError):
        rebase_presentation([[1, 0]], 2)
    with pytest.raises(ValueError):
        rebase_presentation([], 2)


def test_rebase_trivial_group():
    assert rebase_presentation([], 0) == ([], [])
