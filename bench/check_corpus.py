"""Check the benchmark's expected-answer formulas against the package's
machine output on its bundled corpus.

    python3 bench/check_corpus.py

Each corpus ring and metric group is rebuilt from the generator's own
description (Ising, Fibonacci, Rep(S3), pointed groups; cyclic, U, V
and H blocks), the rebuilt data is compared with the file, and the CLI
output on the file is compared with the formulas.  Prints one line per
check and exits 1 if any disagree; a disagreement is a finding about
the program or the formulas, never a reason to adjust either to fit.
"""

from __future__ import annotations

import importlib
import sys
from fractions import Fraction

import oracle
import run
import workloads as W

RINGS = {
    "fibonacci.fr": ["F"], "ising.fr": ["I"], "rep_s3.fr": ["R"], "trivial.fr": [()],
    "z2.fr": [(2,)], "z2z2.fr": [(2, 2)], "z3.fr": [(3,)], "z4.fr": [(4,)], "z6.fr": [(6,)],
}
FORMS = {
    "semion.mg": {2: [("cyc", 2, 1, 1)]},
    "semion_bar.mg": {2: [("cyc", 2, 1, 3)]},
    "z2z2_diag.mg": {2: [("cyc", 2, 1, 1), ("cyc", 2, 1, 1)]},
    "z2z2_fermion.mg": {2: [("V", 2, 1)]},
    "z2z2_hyperbolic.mg": {2: [("U", 2, 1)]},
    "z4_eighth.mg": {2: [("cyc", 2, 2, 1)]},
    "z8_sixteenth.mg": {2: [("cyc", 2, 3, 1)]},
    "z3_third.mg": {3: [("cyc", 3, 1, 1)]},
    "z3_two_thirds.mg": {3: [("cyc", 3, 1, 2)]},
    "hyperbolic3.mg": {3: [("H", 3, 1)]},
    "z5_fifth.mg": {5: [("cyc", 5, 1, 1)]},
    "z5_two_fifths.mg": {5: [("cyc", 5, 1, 2)]},
}
DEGENERATE = ("z2_fermion_degenerate.mg",)
SUBGROUPS = (
    ("semion.mg", "semion_bar.mg", "z4_eighth.mg", "z8_sixteenth.mg", "z2z2_fermion.mg", "z2z2_hyperbolic.mg"),
    ("semion.mg", "semion_bar.mg"),
    ("z3_third.mg", "hyperbolic3.mg"),
    ("z3_two_thirds.mg",),
    ("z5_fifth.mg", "z5_two_fifths.mg"),
)
DIMENSIONS = (1, 12, 30, 36, 360, 900, 1764, 1800, 11025, 27225, 33075, 44100, 9699690, 9999991)
SCANS = ((1800, False), (33075, True), (10**4, False))


def lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            yield line


def ring_table(text: str):
    rows = list(lines(text))
    dual = [int(x) for x in rows[2][1:]]
    return dual, {tuple(int(x) for x in r[1:4]): int(r[4]) for r in rows[3:]}


def form_data(text: str):
    rows = list(lines(text))
    cross = {(int(r[1]) - 1, int(r[2]) - 1): Fraction(r[3]) % 1 for r in rows[2:]}
    return [int(x) for x in rows[0][1:]], [Fraction(x) % 1 for x in rows[1][1:]], cross


def main() -> int:
    cli = run.load_package()
    corpus = importlib.import_module("fusionwitt.corpus")
    checks = []

    def verify(label: str, argv: list[str], job: W.Job) -> None:
        status, output = run.run_job(cli, argv)
        checks.append((label, run.check(job, status, output)))

    for name, spec in RINGS.items():
        path = corpus.path(name)
        ring = W.build_ring(spec)
        with open(path, encoding="utf-8") as fh:
            dual, coeff = ring_table(fh.read())
        same = dual == ring.dual and coeff == {k: m for k, m in ring.coeff.items() if m}
        checks.append((f"{name} matches its rebuilt ring", None if same else "coefficients differ"))
        expect, approx = W.ring_expectation(ring)
        verify(f"analyze {name}", ["analyze", "--format", "machine", path], W.Job([], expect=expect, approx=approx))

    for name, parts in FORMS.items():
        path = corpus.path(name)
        form = W.assemble(parts, None)
        with open(path, encoding="utf-8") as fh:
            orders, diag, cross = form_data(fh.read())
        same = (orders, diag) == (form.orders, form.diag) and cross == {k: v for k, v in form.cross.items() if v}
        checks.append((f"{name} matches its rebuilt form", None if same else "form data differ"))
        verify(f"witt-class {name}", ["witt-class", "--format", "machine", path],
               W.Job([], expect=W.witt_class_expectation(form)))
        verify(f"witt-order {name}", ["witt-order", "--format", "machine", path],
               W.Job([], expect=W.witt_order_expectation(form)))
    for name in DEGENERATE:
        status, _ = run.run_job(cli, ["witt-class", "--format", "machine", corpus.path(name)])
        checks.append((f"witt-class {name} refuses a degenerate form", None if status == 1 else f"status {status!r}"))

    for names in SUBGROUPS:
        forms = [W.assemble(FORMS[n], None) for n in names]
        p = next(iter(FORMS[names[0]]))
        order, inv = oracle.key_subgroup([f.keys()[p] for f in forms])
        expect = {"generator_count": len(names), "subgroup_order": order, "invariant_factors": inv,
                  "group": oracle.group_name(inv)}
        verify(f"witt-subgroup {' '.join(names)}", ["witt-subgroup", "--format", "machine",
                                                   *(corpus.path(n) for n in names)],
               W.Job([], expect={k: W.render(v) for k, v in expect.items()}))

    for n in DIMENSIONS:
        verify(f"classify {n}", ["classify", "--format", "machine", str(n)], W.Job([], expect=W.classify_expectation(n)))
    for limit, odd in SCANS:
        job = W.scan_job(limit, odd)
        verify(" ".join(job.argv), job.argv, job)

    for label, why in checks:
        print(f"{'ok  ' if why is None else 'FAIL'} {label}" + ("" if why is None else f": {why}"))
    failed = sum(why is not None for _, why in checks)
    print(f"{len(checks) - failed} of {len(checks)} corpus checks agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
