from dataclasses import replace
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

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
