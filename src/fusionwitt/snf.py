"""Smith normal form over the integers, with transform tracking.

Used to rebase finite abelian group presentations: given a relation
matrix R for generators g_1..g_k, the decomposition S = U R V yields new
generators h_j = sum_i Vinv[j][i] g_i whose only relations are
s_j h_j = 0 with s_1 | s_2 | ... ascending.  lattice_index needs no
transforms: it gives the index of a row lattice plus modulus Z^c, from
which metric groups decide nondegeneracy.  All arithmetic is exact.
mat_mul skips zero coefficients, most entries of the transforms here.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add


def _identity(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def mat_mul(a, b) -> list[list[int]]:
    """a @ b for integer matrices given as sequences of rows: row i is
    the sum of the rows of b weighted by row i of a, and a zero weight
    costs nothing."""
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                scaled = brow if x == 1 else [x * y for y in brow]
                acc = list(scaled) if acc is None else list(map(add, acc, scaled))
        out.append([0] * (len(b[0]) if b else 0) if acc is None else acc)
    return out


@dataclass(frozen=True)
class SmithForm:
    """S = U @ M @ V with S diagonal, U and V unimodular, v_inv = V**-1.

    diagonal holds min(rows, cols) entries s_0 | s_1 | ..., all >= 0.
    """

    diagonal: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    v_inv: tuple[tuple[int, ...], ...]


def smith_normal_form(mat: list[list[int]]) -> SmithForm:
    """Exact Smith normal form with both transforms, by elimination on
    augmented matrices: a row operation acts on a row of [M | U], a
    column operation on the columns of [M ; V] and inversely on the rows
    of V**-1, so U @ mat @ V is the working M throughout.

    >>> f = smith_normal_form([[2, 0], [0, 3]])
    >>> f.diagonal
    (1, 6)
    """
    r = len(mat)
    c = len(mat[0]) if r else 0
    a = [[*row, *e] for row, e in zip(mat, _identity(r))]
    v = _identity(c)
    vinv = _identity(c)
    # the rows of [M ; V]: the same list objects, so rows change in place
    stacked = a + v

    def add_row(i, j, t):
        # row j += t * row i
        a[j][:] = [x + t * y for x, y in zip(a[j], a[i])]

    def add_col(i, j, t):
        # col j += t * col i; inverse op on vinv rows: row i -= t * row j
        for row in stacked:
            if row[i]:
                row[j] += t * row[i]
        vinv[i] = [x - t * y for x, y in zip(vinv[i], vinv[j])]

    def min_entry(t):
        best, least = None, 0
        for i in range(t, r):
            for j, x in enumerate(a[i][t:c], t):
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
        return best

    t = 0
    while t < min(r, c):
        pos = min_entry(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in stacked:
                    row[t], row[j] = row[j], row[t]
                vinv[t], vinv[j] = vinv[j], vinv[t]
            # clear column t below the pivot, then row t to the right;
            # a nonzero remainder becomes the new, strictly smaller pivot
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
                a[t][:] = [-x for x in a[t]]
            # enforce divisibility: pivot must divide every later entry
            fix = next(((i, j) for i in range(t + 1, r) for j in range(t + 1, c) if a[i][j] % a[t][t] != 0), None)
            if fix is None:
                break
            add_row(fix[0], t, 1)
            pos = min_entry(t)
        t += 1

    form = SmithForm(diagonal=tuple(a[i][i] for i in range(min(r, c))), u=tuple(tuple(row[c:]) for row in a),
                     v=tuple(map(tuple, v)), v_inv=tuple(map(tuple, vinv)))
    _verify(mat, form)
    return form


def pivot_order(diagonal) -> list[int]:
    """The order in which the elimination takes the entries of a diagonal
    as pivots: at step t the smallest nonzero |entry| at or past t, the
    first in the current order on ties, is swapped into place, and zeros
    come last.  Not a stable sort: (4, 4, 2) is taken as entries 2, 1, 0.
    """
    perm, keys = list(range(len(diagonal))), [(x == 0, abs(x)) for x in diagonal]
    for t in range(len(keys)):
        i = keys.index(min(keys[t:]), t)
        for seq in (keys, perm):
            seq[t], seq[i] = seq[i], seq[t]
    return perm


def _verify(mat: list[list[int]], form: SmithForm) -> None:
    r = len(mat)
    c = len(mat[0]) if r else 0
    if mat_mul(mat_mul(form.u, mat), form.v) != [[form.diagonal[i] if i == j else 0 for j in range(c)] for i in range(r)]:
        raise AssertionError("smith normal form verification failed")
    if mat_mul(form.v, form.v_inv) != _identity(c):
        raise AssertionError("column transform inverse verification failed")
    for i in range(len(form.diagonal) - 1):
        d0, d1 = form.diagonal[i], form.diagonal[i + 1]
        if d0 and d1 % d0 != 0 or (d0 == 0 and d1 != 0):
            raise AssertionError("diagonal divisibility chain broken")


def lattice_index(mat: list[list[int]], modulus: int) -> int:
    """[Z^c : R + modulus Z^c] for the row lattice R of an r x c matrix.

    Equals the product of gcd(s_i, modulus) over the Smith diagonal of
    mat (s_i = 0 past its end), found by row reduction without
    transforms: the rows modulus * e_i join the rows of mat, each column
    is folded into one pivot row by Euclid's algorithm on whole rows and
    dropped with it, and each row it changes is reduced mod modulus,
    which the untouched rows modulus * e_i of the later columns allow.
    """
    c = len(mat[0]) if mat else 0
    rows = [[x % modulus for x in row] for row in mat]
    rows += [[modulus * (i == j) for j in range(c)] for i in range(c)]
    index = 1
    for j in range(c):
        pivot, rest = None, []
        for row in rows:
            if not row[j]:
                rest.append(row)
            elif pivot is None:
                pivot = row
            else:
                while row[j]:
                    f = pivot[j] // row[j]
                    pivot, row = row, [x - f * y for x, y in zip(pivot, row)]
                rest.append([x % modulus for x in row])
        index *= abs(pivot[j])
        rows = rest
    if modulus**c % index:
        raise AssertionError("lattice index does not divide modulus**columns")
    return index


def integer_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Basis (as column vectors, returned as lists) of {z : mat @ z = 0}."""
    r = len(mat)
    c = len(mat[0]) if r else 0
    if c == 0:
        return []
    form = smith_normal_form(mat)
    free = [j for j in range(c) if j >= len(form.diagonal) or form.diagonal[j] == 0]
    return [[form.v[i][j] for i in range(c)] for j in free]


def rebase_presentation(relations: list[list[int]], num_gens: int) -> tuple[list[int], list[list[int]]]:
    """Turn a relation matrix into cyclic orders plus a generator change.

    relations: rows of integer coefficients a with sum_i a_i g_i = 0,
    spanning the full relation lattice of generators g_1..g_num_gens of a
    finite abelian group.  Returns (orders, combos): combos[j] gives the
    coefficients of the new generator h_j in terms of the old ones, and
    h_j has order orders[j] (orders ascending, possibly containing 1).
    """
    if num_gens == 0:
        return [], []
    if not relations:
        raise ValueError("no relations: quotient would be infinite")
    form = smith_normal_form(relations)
    if len(form.diagonal) < num_gens or any(d == 0 for d in form.diagonal[:num_gens]):
        raise ValueError("relation matrix does not have full column rank")
    orders = [form.diagonal[j] for j in range(num_gens)]
    combos = [list(form.v_inv[j]) for j in range(num_gens)]
    return orders, combos
