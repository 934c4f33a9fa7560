"""Fusion rings: representation, validation, and the structure maps
that only need the integer coefficients.

A fusion ring of rank r has basis X_0..X_{r-1} with X_0 the unit, a
dual involution *, and products X_i X_j = sum_k N[i][j][k] X_k with
nonnegative integer coefficients, read as ring.coeff[i][j][k] with no
accessor method: a method call per coefficient dominated the O(r^5)
associativity check, which also binds each row once per loop level
(N[i], then N[i][j] and N[j], then N[j][k]).  validate_ring checks any
table, commutative or not, and reports commutativity as one axiom
among the others; the analysis layers assume a valid, hence
commutative, ring.  Everything in this module is exact;
Frobenius-Perron data lives in fpdim.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .arith import cayley_invariants, group_name
from .errors import ConsistencyError, Violation


@dataclass(frozen=True)
class FusionRing:
    """Structure constants of a based ring with involution.

    coeff[i][j][k] = multiplicity of X_k in X_i X_j.  Construction does
    not validate; call validate_ring.
    """

    labels: tuple[str, ...]
    dual: tuple[int, ...]
    coeff: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.labels)

    def left_matrix(self, i: int) -> list[list[int]]:
        """Row j, column k holds N[i][j][k]; spectrum is that of left
        multiplication by X_i."""
        return [list(self.coeff[i][j]) for j in range(self.rank)]

    def constituents(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(k for k in range(self.rank) if self.coeff[i][j][k] > 0)


def validate_ring(ring: FusionRing) -> list[Violation]:
    """Check every defining axiom; empty report means valid.

    Violations are collected rather than raised so a report can show all
    problems at once.  Shape problems short-circuit the axiom checks
    because index arithmetic is meaningless on misshapen data.

    Associativity, sum_m N_ij^m N_mk^l = sum_m N_jk^m N_im^l, needs no
    check at a quadruple (i, j, k, l) with a unit index once duality,
    unit, rigidity and Frobenius reciprocity hold.  By the unit axiom
    both sides are N_jk^l at i = 0, N_ik^l at j = 0 and N_ij^l at k = 0.
    At l = 0, rigidity (N_mk^0 = 1 iff m = k*, as * is an involution)
    makes the left side N_ij^{k*} and the right side N_jk^{i*}, and the
    two Frobenius checks give N_jk^{i*} = N_{i*k*}^j = N_ij^{k*}.  So
    when every check before it passes, the loop runs i, j, k, l over
    the non-unit simples 1..r-1, ((r-1)/r)^4 of the quadruples; after
    any earlier violation it runs over all of them, as those axioms may
    not hold.  The sums over m always run over every simple.
    """
    out: list[Violation] = []
    r = ring.rank
    if r < 1:
        return [Violation("shape", (), "rank must be at least 1")]
    if len(ring.dual) != r:
        return [Violation("shape", (), f"dual has length {len(ring.dual)}, expected {r}")]
    if sorted(ring.dual) != list(range(r)):
        return [Violation("duality", (), "dual is not a permutation of the basis")]
    if len(ring.coeff) != r or any(
        len(plane) != r or any(len(row) != r for row in plane) for plane in ring.coeff
    ):
        return [Violation("shape", (), f"coefficient table is not {r}x{r}x{r}")]
    for i, j, k in product(range(r), repeat=3):
        v = ring.coeff[i][j][k]
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            out.append(Violation("integrality", (i, j, k), f"coefficient {v!r} is not a nonnegative integer"))
    if out:
        return out

    N, dual = ring.coeff, ring.dual
    for i in range(r):
        if dual[dual[i]] != i:
            out.append(Violation("duality", (i,), "dual is not an involution"))
    if dual[0] != 0:
        out.append(Violation("duality", (0,), "unit must be self-dual"))
    for i, j in product(range(r), repeat=2):
        if N[0][i][j] != int(i == j):
            out.append(Violation("unit", (0, i, j), f"N[0][{i}][{j}] = {N[0][i][j]}, expected {int(i == j)}"))
        if N[i][0][j] != int(i == j):
            out.append(Violation("unit", (i, 0, j), f"N[{i}][0][{j}] = {N[i][0][j]}, expected {int(i == j)}"))
        want = int(j == dual[i])
        if N[i][j][0] != want:
            out.append(Violation("rigidity", (i, j), f"N[{i}][{j}][0] = {N[i][j][0]}, expected {want}"))
    for i, j, k in product(range(r), repeat=3):
        if N[i][j][k] != N[j][i][k]:
            out.append(Violation("commutativity", (i, j, k), f"N[{i}][{j}][{k}] != N[{j}][{i}][{k}]"))
        if N[i][j][k] != N[dual[i]][k][j]:
            out.append(Violation("frobenius", (i, j, k), f"N[{i}][{j}][{k}] != N[{dual[i]}][{k}][{j}]"))
        if N[i][j][k] != N[k][dual[j]][i]:
            out.append(Violation("frobenius", (i, j, k), f"N[{i}][{j}][{k}] != N[{k}][{dual[j]}][{i}]"))
    R = range(r)
    simples = range(0 if out else 1, r)
    for i in simples:
        Ni = N[i]
        for j in simples:
            Nij, Nj = Ni[j], N[j]
            for k in simples:
                Njk = Nj[k]
                for l in simples:
                    left = sum(Nij[m] * N[m][k][l] for m in R)
                    right = sum(Njk[m] * Ni[m][l] for m in R)
                    if left != right:
                        out.append(Violation("associativity", (i, j, k, l), f"(X{i} X{j}) X{k} vs X{i} (X{j} X{k}) differ at X{l}"))
    return out


# ---------------------------------------------------------------- invertibles


@dataclass(frozen=True)
class InvertibleGroup:
    """The group of basis elements invertible under the product.

    members are simple indices and labels their ring labels;
    table[(g, h)] is the index of g h.
    """

    members: tuple[int, ...]
    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def multiply(self, g: int, h: int) -> int:
        return self.table[self.members.index(g)][self.members.index(h)]

    @property
    def order(self) -> int:
        return len(self.members)

    def invariant_factors(self) -> tuple[int, ...]:
        """Raises ConsistencyError, naming an element by its label, when
        the table is not a group."""
        position = self.members.index
        return cayley_invariants([[position(g) for g in row] for row in self.table], position(0), self.labels)

    def name(self) -> str:
        return group_name(self.invariant_factors())


def invertibles(ring: FusionRing) -> InvertibleGroup:
    """X is invertible iff X X* = 1 on the nose (single constituent)."""
    members = tuple(
        i
        for i in range(ring.rank)
        if ring.coeff[i][ring.dual[i]][0] == 1
        and sum(ring.coeff[i][ring.dual[i]]) == 1
    )
    if 0 not in members:
        raise ConsistencyError(f"the unit {ring.labels[0]} is not invertible, so the invertibles form no group")
    table = []
    for g in members:
        row = []
        for h in members:
            cs = ring.constituents(g, h)
            if len(cs) != 1 or ring.coeff[g][h][cs[0]] != 1 or cs[0] not in members:
                raise ConsistencyError(f"product of invertibles {g}, {h} is not invertible")
            row.append(cs[0])
        table.append(tuple(row))
    return InvertibleGroup(members=members, labels=tuple(ring.labels[g] for g in members), table=tuple(table))


def stabilizer(ring: FusionRing, x: int, inv: InvertibleGroup | None = None) -> tuple[int, ...]:
    """Subgroup of invertibles g with g X = X."""
    inv = inv if inv is not None else invertibles(ring)
    members = tuple(g for g in inv.members if ring.coeff[g][x][x] == 1)
    for g, h in product(members, repeat=2):
        if inv.multiply(g, h) not in members:
            raise ConsistencyError(f"stabilizer of {x} is not closed under the product")
    return members


@dataclass(frozen=True)
class TensorSquare:
    """Decomposition of X X* split into invertible and other constituents."""

    invertible_part: tuple[tuple[int, int], ...]
    other_part: tuple[tuple[int, int], ...]


def tensor_square_check(ring: FusionRing, x: int, inv: InvertibleGroup | None = None) -> TensorSquare:
    """Decompose X X* and verify each invertible occurs with multiplicity
    exactly 1, and exactly when it stabilizes X.

    A failure here means the candidate slipped past validation with an
    impossible multiplicity pattern, so it raises rather than reports.
    """
    inv = inv if inv is not None else invertibles(ring)
    stab = set(stabilizer(ring, x, inv))
    row = ring.coeff[x][ring.dual[x]]
    inv_part, other = [], []
    for k in range(ring.rank):
        if row[k] == 0:
            continue
        if k in inv.members:
            inv_part.append((k, row[k]))
        else:
            other.append((k, row[k]))
    for g, m in inv_part:
        if m != 1 or g not in stab:
            raise ConsistencyError(
                f"invertible {g} appears in X{x} X{x}* with multiplicity {m}, stabilizer membership {g in stab}"
            )
    for g in stab:
        if row[g] != 1:
            raise ConsistencyError(f"stabilizing invertible {g} missing from X{x} X{x}*")
    return TensorSquare(invertible_part=tuple(inv_part), other_part=tuple(other))


# ----------------------------------------------------------------- subrings


def subring_generated(ring: FusionRing, seed) -> tuple[int, ...]:
    """Smallest unital subring basis containing the seed indices, closed
    under product constituents and duals."""
    members = {0} | set(seed)
    while True:
        new = set()
        for i in members:
            new.add(ring.dual[i])
        for i, j in product(sorted(members), repeat=2):
            new.update(ring.constituents(i, j))
        if new <= members:
            return tuple(sorted(members))
        members |= new


def adjoint_subring(ring: FusionRing, members: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Subring generated by all constituents of X X* over every basis X,
    or over the basis X of the subring members when given; that closure
    stays inside members because members is itself closed."""
    seed = set()
    for x in range(ring.rank) if members is None else members:
        seed.update(ring.constituents(x, ring.dual[x]))
    return subring_generated(ring, seed)


# ----------------------------------------------------------------- grading


@dataclass(frozen=True)
class GradingData:
    """Universal grading: basis partition plus the abelian group law on
    the blocks.  components[neutral] is the adjoint subring."""

    components: tuple[tuple[int, ...], ...]
    neutral: int
    table: tuple[tuple[int, ...], ...]
    group_name: str


def universal_grading(ring: FusionRing) -> GradingData:
    """Partition the basis by X ~ Y iff X Y* meets the adjoint subring,
    and read off the group structure on the blocks.

    Well-definedness of the block product is re-checked over every pair
    of representatives; a failure raises ConsistencyError.
    """
    ad = set(adjoint_subring(ring))
    r = ring.rank
    parent = list(range(r))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x, y in product(range(r), repeat=2):
        if any(k in ad for k in ring.constituents(x, ring.dual[y])):
            parent[find(x)] = find(y)

    roots = sorted({find(i) for i in range(r)}, key=lambda root: min(i for i in range(r) if find(i) == root))
    components = tuple(tuple(i for i in range(r) if find(i) == root) for root in roots)
    block_of = {}
    for b, comp in enumerate(components):
        for i in comp:
            block_of[i] = b
    # relation consistency: every related pair must have landed together
    for x, y in product(range(r), repeat=2):
        related = any(k in ad for k in ring.constituents(x, ring.dual[y]))
        if related != (block_of[x] == block_of[y]):
            raise ConsistencyError(f"grading relation is not an equivalence at basis pair ({x}, {y})")

    neutral = block_of[0]
    if set(components[neutral]) != ad:
        raise ConsistencyError("neutral component differs from the adjoint subring")

    table = [[None] * len(components) for _ in components]
    for a, b in product(range(len(components)), repeat=2):
        targets = set()
        for i, j in product(components[a], components[b]):
            targets.update(block_of[k] for k in ring.constituents(i, j))
        if len(targets) != 1:
            raise ConsistencyError(f"product of blocks {a}, {b} is not concentrated in one block")
        table[a][b] = targets.pop()
    for a, b, c in product(range(len(components)), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise ConsistencyError("block table is not associative")
    for a, b in product(range(len(components)), repeat=2):
        if table[a][b] != table[b][a]:
            raise ConsistencyError("block table is not abelian")
    if any(table[neutral][b] != b for b in range(len(components))):
        raise ConsistencyError("neutral block does not act as identity")
    return GradingData(
        components=components,
        neutral=neutral,
        table=tuple(tuple(row) for row in table),
        group_name=group_name(cayley_invariants(table, neutral)),
    )


# --------------------------------------------------------------- nilpotency


@dataclass(frozen=True)
class NilpotencyData:
    """Descending adjoint tower; nilpotent when it reaches the unit.

    depth counts the strict steps before the tower stabilizes, so a ring
    equal to its own adjoint has depth 0 whether or not it is trivial.
    """

    tower: tuple[tuple[int, ...], ...]
    nilpotent: bool
    depth: int


def nilpotency(ring: FusionRing) -> NilpotencyData:
    """Iterate the adjoint construction until it stabilizes.

    adjoint_subring grows with its members, so each level lies inside
    the one before, on any ring: the tower decreases strictly until its
    fixed point and, holding the unit, stabilizes within rank steps.
    """
    tower = [tuple(range(ring.rank))]
    for _ in range(ring.rank):
        nxt = adjoint_subring(ring, tower[-1])
        if nxt == tower[-1]:
            break
        tower.append(nxt)
    else:
        raise ConsistencyError(f"adjoint tower did not stabilize within {ring.rank} steps")
    return NilpotencyData(
        tower=tuple(tower),
        nilpotent=tower[-1] == (0,),
        depth=len(tower) - 1,
    )
