"""Seeded job pools for the four benchmark workloads.

A pool is a list of Jobs, built in rounds.  Every round holds the same
slots (a fixed rank, group family or scan size), so any seed gives the
same mix of job sizes and only the concrete inputs change: which group
or product realizes a rank, the basis order, the quadratic form values,
the automorphism applied to a form, the numbers to classify.  That keeps
medians and tails comparable across seeds.

Every Job carries the answer its machine output must contain, worked
out by bench/oracle.py rather than by the package under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import oracle

WORKLOADS = ("rings", "witt_reduce", "witt_closure", "dims")


@dataclass
class Job:
    """One CLI call: argv names files by key into files; expect maps a
    machine key to its exact rendered value, approx to a float; size
    ranks jobs of one verb so set-up can warm up with the smallest."""

    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    expect: dict[str, str] = field(default_factory=dict)
    approx: dict[str, float] = field(default_factory=dict)
    size: int = 0


def render(v) -> str:
    """The package's machine rendering of a value (cli.fmt_value)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (tuple, list)):
        return ",".join(render(x) for x in v)
    return str(v)


# ------------------------------------------------------------------ rings

SQRT2 = math.sqrt(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass
class RingFactor:
    """A fusion ring with every invariant the analyze report states."""

    labels: list[str]
    dual: list[int]
    coeff: dict[tuple[int, int, int], int]
    dims: list[float]
    squares: list[int | None]
    invertible: list[bool]
    stab: list[tuple[int, ...]]
    inv_cyclic: tuple[int, ...]  # invertible group as a product of cyclics
    grading_cyclic: tuple[int, ...]  # universal grading group, likewise
    nilpotent: bool


def _from_products(labels, dual, products, **meta) -> RingFactor:
    r = len(labels)
    coeff = {}
    for i in range(r):
        coeff[(0, i, i)] = coeff[(i, 0, i)] = 1
    for (i, j), out in products.items():
        for k, m in out.items():
            coeff[(i, j, k)] = coeff[(j, i, k)] = m
    return RingFactor(labels=list(labels), dual=list(dual), coeff=coeff, **meta)


ISING = _from_products(
    ("1", "psi", "sigma"), (0, 1, 2),
    {(1, 1): {0: 1}, (1, 2): {2: 1}, (2, 2): {0: 1, 1: 1}},
    dims=[1.0, 1.0, SQRT2], squares=[1, 1, 2], invertible=[True, True, False],
    stab=[(0,), (0,), (0, 1)], inv_cyclic=(2,), grading_cyclic=(2,), nilpotent=True,
)
FIBONACCI = _from_products(
    ("1", "tau"), (0, 1), {(1, 1): {0: 1, 1: 1}},
    dims=[1.0, PHI], squares=[1, None], invertible=[True, False],
    stab=[(0,), (0,)], inv_cyclic=(), grading_cyclic=(), nilpotent=False,
)
REP_S3 = _from_products(
    ("1", "sgn", "std"), (0, 1, 2),
    {(1, 1): {0: 1}, (1, 2): {2: 1}, (2, 2): {0: 1, 1: 1, 2: 1}},
    dims=[1.0, 1.0, 2.0], squares=[1, 1, 4], invertible=[True, True, False],
    stab=[(0,), (0,), (0, 1)], inv_cyclic=(2,), grading_cyclic=(), nilpotent=False,
)
NAMED = {"I": ISING, "F": FIBONACCI, "R": REP_S3}


def pointed(orders: tuple[int, ...]) -> RingFactor:
    elems = list(product(*(range(d) for d in orders)))
    index = {e: i for i, e in enumerate(elems)}
    coeff = {}
    for x in elems:
        for y in elems:
            coeff[(index[x], index[y], index[tuple((a + b) % d for a, b, d in zip(x, y, orders))])] = 1
    r = len(elems)
    return RingFactor(
        labels=["1" if not any(e) else "g" + "_".join(map(str, e)) for e in elems],
        dual=[index[tuple((-a) % d for a, d in zip(e, orders))] for e in elems],
        coeff=coeff, dims=[1.0] * r, squares=[1] * r, invertible=[True] * r,
        stab=[(0,)] * r, inv_cyclic=tuple(orders), grading_cyclic=tuple(orders), nilpotent=True,
    )


def tensor(a: RingFactor, b: RingFactor) -> RingFactor:
    """Tensor product: dimensions, invertibles, stabilizers and gradings
    all multiply; the unit stays at index 0."""
    rb = len(b.labels)
    idx = lambda i, j: i * rb + j
    coeff = {}
    for (i, j, k), m in a.coeff.items():
        for (s, t, u), n in b.coeff.items():
            coeff[(idx(i, s), idx(j, t), idx(k, u))] = m * n
    pairs = list(product(range(len(a.labels)), range(rb)))
    label = lambda x, y: "1" if x == "1" and y == "1" else f"{x}.{y}"
    sq = lambda s, t: None if s is None or t is None else s * t
    return RingFactor(
        labels=[label(a.labels[i], b.labels[j]) for i, j in pairs],
        dual=[idx(a.dual[i], b.dual[j]) for i, j in pairs],
        coeff=coeff,
        dims=[a.dims[i] * b.dims[j] for i, j in pairs],
        squares=[sq(a.squares[i], b.squares[j]) for i, j in pairs],
        invertible=[a.invertible[i] and b.invertible[j] for i, j in pairs],
        stab=[tuple(idx(g, h) for g in a.stab[i] for h in b.stab[j]) for i, j in pairs],
        inv_cyclic=a.inv_cyclic + b.inv_cyclic,
        grading_cyclic=a.grading_cyclic + b.grading_cyclic,
        nilpotent=a.nilpotent and b.nilpotent,
    )


# rank -> realizations, each a list of factors (names or pointed orders)
REALIZATIONS = {
    4: [[(4,)], [(2, 2)], ["F", "F"], ["F", (2,)]],
    6: [[(6,)], [(2, 3)], ["F", "I"], ["F", "R"], ["I", (2,)], ["R", (2,)], ["F", (3,)]],
    8: [[(8,)], [(2, 4)], [(2, 2, 2)], ["F", (4,)], ["F", "F", (2,)], ["F", (2, 2)]],
    9: [[(9,)], [(3, 3)], ["I", "I"], ["I", "R"], ["R", "R"], ["I", (3,)], ["R", (3,)]],
    10: [[(10,)], [(2, 5)], ["F", (5,)]],
    12: [[(12,)], [(2, 6)], [(3, 4)], ["I", (4,)], ["I", (2, 2)], ["R", (4,)], ["F", "I", (2,)],
         ["F", "R", (2,)], ["F", (6,)], ["F", "F", (3,)], ["I", "F", "F"]],
    16: [[(16,)], [(2, 8)], [(4, 4)], [(2, 2, 4)], ["F", (8,)], ["F", "F", (4,)], ["F", "F", "F", "F"],
         ["F", (2, 4)]],
}
# the median job is rank 9, whose realizations all cost about the same
RING_SLOTS = (4, 6, 9, 9, 9, 12, 16)
RING_ROUNDS = 5


def _ring_text(ring: RingFactor) -> str:
    out = [f"rank {len(ring.labels)}", "labels " + " ".join(ring.labels),
           "dual " + " ".join(map(str, ring.dual))]
    out += [f"N {i} {j} {k} {m}" for (i, j, k), m in sorted(ring.coeff.items()) if m]
    return "\n".join(out) + "\n"


def _permuted(ring: RingFactor, rng: random.Random) -> RingFactor:
    """Same ring with its non-unit basis shuffled."""
    r = len(ring.labels)
    rest = list(range(1, r))
    rng.shuffle(rest)
    new = [0] + rest  # new[old] = new index
    inv = [0] * r
    for old, n in enumerate(new):
        inv[n] = old
    pick = lambda seq: [seq[inv[n]] for n in range(r)]
    return RingFactor(
        labels=pick(ring.labels),
        dual=[new[ring.dual[inv[n]]] for n in range(r)],
        coeff={(new[i], new[j], new[k]): m for (i, j, k), m in ring.coeff.items()},
        dims=pick(ring.dims), squares=pick(ring.squares), invertible=pick(ring.invertible),
        stab=[tuple(sorted(new[g] for g in ring.stab[inv[n]])) for n in range(r)],
        inv_cyclic=ring.inv_cyclic, grading_cyclic=ring.grading_cyclic, nilpotent=ring.nilpotent,
    )


def ring_expectation(ring: RingFactor) -> tuple[dict[str, str], dict[str, float]]:
    r = len(ring.labels)
    squares = ring.squares
    weak = all(s is not None for s in squares)
    total = sum(squares) if weak else None
    integral = weak and all(math.isqrt(s) ** 2 == s for s in squares)
    if not weak:
        prime_desc = "none"
    elif all(s == 1 for s in squares):
        prime_desc = "pointed"
    else:
        bases = {oracle.prime_power_base(s) for s in squares if s != 1}
        prime_desc = str(bases.pop()) if len(bases) == 1 and None not in bases else "none"
    if not weak:
        verdict, witness = "Unknown", (None,) * 5
    elif prime_desc != "none":
        pac = oracle.pac_witness(total) if total <= oracle.FACTOR_LIMIT else None
        verdict = "SolvableSinglePrime"
        witness = (pac[0], pac[1], None, 0, pac[2]) if pac else (None,) * 5
    else:
        verdict, witness = oracle.dimension_verdict(total)
    inv = oracle.invariant_factors(ring.inv_cyclic)
    grading = oracle.invariant_factors(ring.grading_cyclic)
    expect = {
        "rank": r, "valid": True, "total_exact": total, "integral": integral, "weakly_integral": weak,
        "invertible_count": sum(ring.invertible),
        "invertible_members": tuple(i for i in range(r) if ring.invertible[i]),
        "invertible_group": oracle.group_name(inv),
        "grading_order": math.prod(grading), "grading_group": oracle.group_name(grading),
        "nilpotent": ring.nilpotent, "prime_power": prime_desc, "verdict": verdict,
    }
    for i in range(r):
        expect[f"exact_square_{i}"] = squares[i]
        expect[f"stabilizer_{i}"] = ring.stab[i]
    for name, w in zip(("p", "a", "q", "b", "c"), witness):
        expect[f"witness_{name}"] = w
    return {k: render(v) for k, v in expect.items()}, {f"dim_{i}": d for i, d in enumerate(ring.dims)}


def build_ring(spec) -> RingFactor:
    ring = None
    for f in spec:
        part = NAMED[f] if isinstance(f, str) else pointed(f)
        ring = part if ring is None else tensor(ring, part)
    return ring


def rings_pool(rng: random.Random) -> list[Job]:
    offsets = {rank: rng.randrange(len(REALIZATIONS[rank])) for rank in REALIZATIONS}
    used = {rank: 0 for rank in REALIZATIONS}
    jobs = []
    for _ in range(RING_ROUNDS):
        slots = list(RING_SLOTS)
        rng.shuffle(slots)
        for rank in slots:
            options = REALIZATIONS[rank]
            spec = options[(offsets[rank] + used[rank]) % len(options)]
            used[rank] += 1
            ring = _permuted(build_ring(spec), rng)
            expect, approx = ring_expectation(ring)
            jobs.append(Job(argv=["analyze", "--format", "machine", "ring.fr"],
                            files={"ring.fr": _ring_text(ring)}, expect=expect, approx=approx, size=rank))
    return jobs


# ------------------------------------------------------------ metric groups


@dataclass
class Form:
    """A nondegenerate form in invariant-factor presentation, with the
    p-primary blocks it was assembled from (the source of the answers)."""

    orders: list[int]
    diag: list[Fraction]
    cross: dict[tuple[int, int], Fraction]
    parts: dict[int, tuple[list[int], list]]  # p -> (p-orders ascending, blocks)

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def text(self) -> str:
        out = ["orders " + " ".join(map(str, self.orders)), "q " + " ".join(map(str, self.diag))]
        out += [f"b {i + 1} {j + 1} {v}" for (i, j), v in sorted(self.cross.items()) if v]
        return "\n".join(out) + "\n"

    def keys(self) -> dict[int, tuple[int, Fraction]]:
        return {p: oracle.witt_key(p, blocks) for p, (_, blocks) in self.parts.items()}


def _qvalue(diag, cross, x) -> Fraction:
    total = sum((a * a * q for a, q in zip(x, diag)), Fraction(0))
    for (i, j), b in cross.items():
        total += x[i] * x[j] * b
    return total % 1


def _block_sum(blocks):
    """Orthogonal sum of p-primary blocks, generators sorted by order."""
    orders, diag, cross = [], [], {}
    for b in blocks:
        q, c = oracle.block_form(b)
        base = len(orders)
        orders += oracle.block_orders(b)
        diag += q
        cross.update({(base + i, base + j): v for (i, j), v in c.items()})
    perm = sorted(range(len(orders)), key=lambda i: orders[i])
    pos = {old: new for new, old in enumerate(perm)}
    return ([orders[i] for i in perm], [diag[i] for i in perm],
            {tuple(sorted((pos[i], pos[j]))): v for (i, j), v in cross.items()})


def _pgroup(blocks, rng: random.Random | None):
    """_block_sum, then (with rng) a random automorphism: new generator i
    adds any multiple of smaller-order generators and a multiple of
    (o_j / o_i) e_j for larger o_j, so orders are kept and the change of
    basis is unitriangular mod p."""
    orders, diag, cross = _block_sum(blocks)
    if rng is None:
        return orders, diag, cross
    m = len(orders)
    gens = []
    for i in range(m):
        row = [int(i == j) for j in range(m)]
        for j in range(m):
            if j < i:
                row[j] = rng.randrange(orders[j])
            elif orders[j] > orders[i]:
                row[j] = orders[j] // orders[i] * rng.randrange(orders[i])
        gens.append(row)
    new_diag = [_qvalue(diag, cross, g) for g in gens]
    new_cross = {}
    for i in range(m):
        for j in range(i + 1, m):
            s = [a + b for a, b in zip(gens[i], gens[j])]
            new_cross[(i, j)] = (_qvalue(diag, cross, s) - new_diag[i] - new_diag[j]) % 1
    return orders, new_diag, new_cross


def assemble(parts: dict[int, list], rng: random.Random | None) -> Form:
    """Glue p-primary parts into invariant factors (Chinese remainder):
    the i-th largest generators of every prime add up to one generator.
    Without rng no automorphism is applied."""
    built = {p: _pgroup(blocks, rng) for p, blocks in sorted(parts.items())}
    width = max(len(o) for o, _, _ in built.values())
    orders, diag = [1] * width, [Fraction(0)] * width
    cross = {(i, j): Fraction(0) for i in range(width) for j in range(i + 1, width)}
    for o, d, c in built.values():
        shift = width - len(o)
        for i in range(len(o)):
            orders[shift + i] *= o[i]
            diag[shift + i] = (diag[shift + i] + d[i]) % 1
        for (i, j), v in c.items():
            cross[(shift + i, shift + j)] = (cross[(shift + i, shift + j)] + v) % 1
    return Form(orders=orders, diag=diag, cross=cross,
                parts={p: (built[p][0], parts[p]) for p in built})


def _unit(rng: random.Random, p: int, modulus: int) -> int:
    while True:
        u = rng.randrange(1, modulus)
        if u % p:
            return u


def cyc(rng: random.Random, p: int, k: int) -> tuple:
    return ("cyc", p, k, _unit(rng, p, 2 ** (k + 1) if p == 2 else p**k))


def witt_class_expectation(form: Form) -> dict[str, str]:
    keys = form.keys()
    expect = {
        "order": form.size, "gauss_magnitude_squared": form.size,
        "gauss_argument": sum((a for _, a in keys.values()), Fraction(0)) % 1,
        "primes": tuple(sorted(keys)),
        "class_identity": all(k == (0, 0) for k in keys.values()),
    }
    for p, (porders, _) in form.parts.items():
        expect[f"part_{p}_orders"] = tuple(porders)
        expect[f"part_{p}_argument"] = keys[p][1]
        if p != 2:
            expect[f"part_{p}_anisotropic_orders"] = oracle.anisotropic_odd_orders(p, keys[p])
    return {k: render(v) for k, v in expect.items()}


def witt_order_expectation(form: Form) -> dict[str, str]:
    keys = form.keys()
    return {
        "class_identity": render(all(k == (0, 0) for k in keys.values())),
        "witt_order": render(oracle.lcm(*(oracle.key_order(k) for k in keys.values()))),
    }


def _two_gen(rng: random.Random, p: int, a: int, b: int) -> list:
    """Two-generator p-group Z_{p^a} + Z_{p^b}; equal orders may use a
    hyperbolic (U or H) or, at p = 2, a V block."""
    if a == b and rng.random() < 0.5:
        return [(rng.choice(("U", "V")) if p == 2 else "H", p, a)]
    return [cyc(rng, p, a), cyc(rng, p, b)]


# family -> one size option per round, so every pass holds each option once
REDUCE_FAMILIES = {
    "cyc2": [(2, 6), (2, 7), (2, 8), (2, 9), (2, 10)],
    "cycodd": [(3, 4), (3, 5), (5, 3), (7, 3), (13, 2)],
    "two2": [(2, 3, 3), (2, 2, 5), (2, 3, 4), (2, 4, 4), (2, 3, 5)],
    "twoodd": [(3, 2, 2), (3, 1, 4), (3, 2, 3), (5, 1, 2), (7, 1, 2)],
    "mixed": [((2, 2), (3, 1), (5, 1)), ((2, 3), (3, 2), (7, 1)), ((2, 1), (5, 1), (7, 1)),
              ((2, 4), (3, 1), (7, 1)), ((2, 2), (3, 2), (5, 1))],
    "gauss": [(2, 11)] * 5,
    "large": [(2, 6, 6), (2, 6, 6), (2, 4, 8), (2, 5, 7), (2, 6, 6)],
}


def _reduce_family(kind: str, option, rng: random.Random) -> dict[int, list]:
    if kind in ("cyc2", "cycodd", "gauss"):
        p, k = option
        return {p: [cyc(rng, p, k)]}
    if kind in ("two2", "twoodd", "large"):
        p, a, b = option
        return {p: _two_gen(rng, p, a, b)}
    # mixed: a 2-part that may be a U_1 or V_1 plane instead of cyclic
    parts = {p: [cyc(rng, p, k)] for p, k in option}
    if option[0][1] == 1 and rng.random() < 0.5:
        parts[2] = [(rng.choice(("U", "V")), 2, 1)]
    return parts


REDUCE_SLOTS = tuple((family, verb) for family in REDUCE_FAMILIES if family not in ("gauss", "large")
                     for verb in ("witt-class", "witt-order")) + (("gauss", "witt-class"), ("large", "witt-order"))
REDUCE_ROUNDS = 5


def witt_reduce_pool(rng: random.Random) -> list[Job]:
    offsets = {family: rng.randrange(REDUCE_ROUNDS) for family in REDUCE_FAMILIES}
    jobs = []
    for r in range(REDUCE_ROUNDS):
        slots = list(REDUCE_SLOTS)
        rng.shuffle(slots)
        for kind, verb in slots:
            option = REDUCE_FAMILIES[kind][(offsets[kind] + r) % REDUCE_ROUNDS]
            form = assemble(_reduce_family(kind, option, rng), rng)
            expect = witt_class_expectation(form) if verb == "witt-class" else witt_order_expectation(form)
            jobs.append(Job(argv=[verb, "--format", "machine", "form.mg"], files={"form.mg": form.text()},
                            expect=expect, size=form.size))
    return jobs


def _blocks(rng: random.Random, p: int, template: tuple) -> list:
    """Blocks for a template: ("cyc", k), ("cc", a, b) for two cyclic
    blocks, or a plane ("H", k), ("U", k), ("V", k); the seed picks the
    form values."""
    if template[0] == "cyc":
        return [cyc(rng, p, template[1])]
    if template[0] == "cc":
        return [cyc(rng, p, template[1]), cyc(rng, p, template[2])]
    return [(template[0], p, template[1])]


# (prime, subgroup order, generator templates), every |A| <= 64.  The
# order sets the closure's size and the templates its representatives;
# the seed only picks form values and bases, redrawn until the order fits.
# Three cheap and three dear slots flank three slots of about equal,
# seed-independent cost, so the median job is one of those.
CLOSURE_P13 = (13, 2, (("cyc", 1),) * 5)
CLOSURE_P3 = (3, 4, (("cyc", 1), ("H", 1), ("cc", 1, 1), ("cyc", 2)))
CLOSURE_SLOTS = (
    CLOSURE_P13, CLOSURE_P13, (5, 2, (("cyc", 1), ("cyc", 2), ("H", 1))),
    (2, 4, (("cc", 1, 1), ("V", 1), ("U", 1))), CLOSURE_P3, CLOSURE_P3,
    (2, 8, (("cyc", 2), ("V", 1), ("cyc", 4))),
    (2, 8, (("cyc", 1), ("cyc", 1))),
    (7, 2, (("cc", 1, 1), ("H", 1), ("cyc", 2))),
)
CLOSURE_ROUNDS = 3


def witt_closure_pool(rng: random.Random) -> list[Job]:
    jobs = []
    for _ in range(CLOSURE_ROUNDS):
        slots = list(CLOSURE_SLOTS)
        rng.shuffle(slots)
        for p, target, templates in slots:
            while True:
                forms = [assemble({p: _blocks(rng, p, t)}, rng) for t in templates]
                order, inv = oracle.key_subgroup([f.keys()[p] for f in forms])
                if order == target:
                    break
            files = {f"gen{i}.mg": f.text() for i, f in enumerate(forms)}
            expect = {"generator_count": len(forms), "subgroup_order": order,
                      "invariant_factors": inv, "group": oracle.group_name(inv)}
            # size: closure order times p^2, the largest anisotropic representative
            jobs.append(Job(argv=["witt-subgroup", "--format", "machine", *files], files=files,
                            expect={k: render(v) for k, v in expect.items()}, size=order * p * p))
    return jobs


# ------------------------------------------------------------------- dims

CLASSIFY_PER_ROUND = 24
# (scan limit, odd only) per round; each limit gets a seeded jitter of under 1%
SCAN_SLOTS = ((10**4, False), (10**4, True), (3 * 10**4, False), (3 * 10**4, True), (10**5, False),
              (10**5, True), (3 * 10**5, False), (3 * 10**5, True), (10**6, True))


def classify_expectation(n: int) -> dict[str, str]:
    verdict, witness = oracle.dimension_verdict(n)
    expect = {"n": n, "verdict": verdict}
    for name, w in zip(("p", "a", "q", "b", "c"), witness):
        expect[f"witness_{name}"] = w
    return {k: render(v) for k, v in expect.items()}


def scan_job(limit: int, odd: bool) -> Job:
    found = oracle.scan_expectation(limit, odd)
    expect = {"limit": limit, "odd_only": odd, "exception_count": len(found["exceptions"]), **found}
    argv = ["scan", "--format", "machine", str(limit)] + (["--odd"] if odd else [])
    return Job(argv=argv, expect={k: render(v) for k, v in expect.items()}, size=limit)


def dims_pool(rng: random.Random) -> list[Job]:
    jobs = []
    slots = list(SCAN_SLOTS)
    rng.shuffle(slots)
    for base, odd in slots:
        round_jobs = [scan_job(base + rng.randrange(base // 100), odd)]
        for _ in range(CLASSIFY_PER_ROUND):
            n = rng.randrange(2, 10**7)
            round_jobs.append(Job(argv=["classify", "--format", "machine", str(n)],
                                  expect=classify_expectation(n), size=0))
        rng.shuffle(round_jobs)
        jobs += round_jobs
    return jobs


POOLS = {"rings": rings_pool, "witt_reduce": witt_reduce_pool,
         "witt_closure": witt_closure_pool, "dims": dims_pool}


def make_pool(workload: str, seed: int, part: int = 0) -> list[Job]:
    """The seeded pool; part k > 0 gives the k-th further pool of the
    same mix with fresh inputs, for a run that goes on past one pass."""
    return POOLS[workload](random.Random(f"{workload}:{seed}" + (f":{part}" if part else "")))
