"""Byte-for-byte CLI output on the bundled corpus.

golden.json holds the exit status and stdout of every verb on every
corpus file it applies to, in both formats, run from the corpus
directory so the report titles carry bare file names.  It includes the
witt-subgroup closure of the six corpus 2-groups, the slowest case and
the only one that pins the 2-primary closure with cross terms.  classify
runs on the paper's divergences 1764 and 27225, on its acknowledged
cases 900 (WGTBelow1800) and 11025 (SolvableOddBelow33075), and on the
odd bound 33075 itself, where no criterion applies.

The corpus never goes above order 8, so LARGE_LEVEL_STDOUT also pins
witt-class and witt-order on five forms of order 2^12, 3^7, 2^15 and
3^10, whose Gauss sums live in Z[zeta_N] for N = 8192, 5832, 65536 and
157464.  Their .mg text is
in LARGE_LEVEL_FORMS, written to a temporary directory rather than the
corpus, which other checks enumerate.  VERDICT_STDOUT pins validate's
nondegeneracy verdict the same way on six forms outside the corpus:
degenerate and nondegenerate, with cross terms, mixed primes, and Z_64
with q = u/64 and u/128.

Re-record with `PYTHONPATH=src python3 tests/test_golden.py` only for a
deliberate change of output, and say in CHANGES.md why it changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from fusionwitt import cli, corpus

GOLDEN = Path(__file__).with_name("golden.json")
CORPUS_DIR = os.path.dirname(corpus.path("ising.fr"))


def cases() -> list[str]:
    rings, metrics = corpus.names(".fr"), corpus.names(".mg")
    runs = [["validate", f] for f in rings + metrics]
    runs += [["analyze", f] for f in rings]
    runs += [[verb, f] for verb in ("witt-class", "witt-order") for f in metrics]
    runs += [
        ["witt-subgroup", "z3_third.mg", "z3_two_thirds.mg", "hyperbolic3.mg"],
        ["witt-subgroup", "z5_fifth.mg", "z5_two_fifths.mg"],
        ["witt-subgroup", "semion.mg", "semion_bar.mg", "z2z2_diag.mg", "z2z2_hyperbolic.mg", "z4_eighth.mg",
         "z8_sixteenth.mg"],
    ]
    # 900 and 11025 are the acknowledged cases below each bound; 33075,
    # the odd bound itself, is where no criterion applies
    runs += [["classify", n] for n in ("1764", "27225", "4", "900", "11025", "33075")]
    runs += [["scan", "1800"], ["scan", "33075", "--odd"]]
    return [" ".join(argv + ["--format", fmt]) for argv in runs for fmt in ("text", "machine")]


def run_case(case: str, directory: str = CORPUS_DIR) -> dict:
    """Exit status and stdout of one CLI call run from directory; stderr
    is dropped."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(case.split())
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", cases())
def test_cli_output_matches_golden(golden, case):
    assert run_case(case) == golden[case]


LARGE_LEVEL_FORMS = {
    "z4096.mg": "orders 4096\nq 1/8192\n",
    "z2187.mg": "orders 2187\nq 1/2187\n",
    "z3_z729.mg": "orders 3 729\nq 1/3 1/729\n",
    "z32768.mg": "orders 32768\nq 1/65536\n",
    "z3_z19683.mg": "orders 3 19683\nq 1/3 1/19683\n",
}

# stdout of each case, every one exiting 0
LARGE_LEVEL_STDOUT = {
    "witt-class z4096.mg --format text": """\
witt-class z4096.mg
===================

input
  orders: (4096)  |A| = 4096
  gauss sum: |G|^2 = 4096, argument = 1/8 of a turn

prime 2
  part orders (4096), argument 1/8
  reduce by (128,): (4096) -> (4), argument 1/8
  anisotropic: orders (4) q (1/8)
  gauss argument preserved: true

class
  p=2 orders (4) q (1/8)
""",
    "witt-class z4096.mg --format machine": """\
order=4096
gauss_magnitude_squared=4096
gauss_argument=1/8
primes=2
part_2_orders=4096
part_2_steps=1
part_2_anisotropic_orders=4
part_2_anisotropic_q=1/8
part_2_argument=1/8
class_identity=false
""",
    "witt-order z4096.mg --format text": """\
witt-order z4096.mg
===================

class
  p=2 orders (4) q (1/8)

order
  8
""",
    "witt-order z4096.mg --format machine": """\
class_identity=false
witt_order=8
""",
    "witt-class z2187.mg --format text": """\
witt-class z2187.mg
===================

input
  orders: (2187)  |A| = 2187
  gauss sum: |G|^2 = 2187, argument = 1/4 of a turn

prime 3
  part orders (2187), argument 1/4
  reduce by (81,): (2187) -> (3), argument 1/4
  anisotropic: orders (3) q (1/3)
  gauss argument preserved: true

class
  p=3 orders (3) q (1/3)
""",
    "witt-class z2187.mg --format machine": """\
order=2187
gauss_magnitude_squared=2187
gauss_argument=1/4
primes=3
part_3_orders=2187
part_3_steps=1
part_3_anisotropic_orders=3
part_3_anisotropic_q=1/3
part_3_argument=1/4
class_identity=false
""",
    "witt-order z2187.mg --format text": """\
witt-order z2187.mg
===================

class
  p=3 orders (3) q (1/3)

order
  4
""",
    "witt-order z2187.mg --format machine": """\
class_identity=false
witt_order=4
""",
    "witt-class z3_z729.mg --format text": """\
witt-class z3_z729.mg
=====================

input
  orders: (3,729)  |A| = 2187
  gauss sum: |G|^2 = 2187, argument = 1/4 of a turn

prime 3
  part orders (3,729), argument 1/4
  reduce by (0, 27): (3,729) -> (3), argument 1/4
  anisotropic: orders (3) q (1/3)
  gauss argument preserved: true

class
  p=3 orders (3) q (1/3)
""",
    "witt-class z3_z729.mg --format machine": """\
order=2187
gauss_magnitude_squared=2187
gauss_argument=1/4
primes=3
part_3_orders=3,729
part_3_steps=1
part_3_anisotropic_orders=3
part_3_anisotropic_q=1/3
part_3_argument=1/4
class_identity=false
""",
    "witt-order z3_z729.mg --format text": """\
witt-order z3_z729.mg
=====================

class
  p=3 orders (3) q (1/3)

order
  4
""",
    "witt-order z3_z729.mg --format machine": """\
class_identity=false
witt_order=4
""",
    "witt-class z32768.mg --format text": """\
witt-class z32768.mg
====================

input
  orders: (32768)  |A| = 32768
  gauss sum: |G|^2 = 32768, argument = 1/8 of a turn

prime 2
  part orders (32768), argument 1/8
  reduce by (256,): (32768) -> (2), argument 1/8
  anisotropic: orders (2) q (1/4)
  gauss argument preserved: true

class
  p=2 orders (2) q (1/4)
""",
    "witt-class z32768.mg --format machine": """\
order=32768
gauss_magnitude_squared=32768
gauss_argument=1/8
primes=2
part_2_orders=32768
part_2_steps=1
part_2_anisotropic_orders=2
part_2_anisotropic_q=1/4
part_2_argument=1/8
class_identity=false
""",
    "witt-order z32768.mg --format text": """\
witt-order z32768.mg
====================

class
  p=2 orders (2) q (1/4)

order
  8
""",
    "witt-order z32768.mg --format machine": """\
class_identity=false
witt_order=8
""",
    "witt-class z3_z19683.mg --format text": """\
witt-class z3_z19683.mg
=======================

input
  orders: (3,19683)  |A| = 59049
  gauss sum: |G|^2 = 59049, argument = 1/2 of a turn

prime 3
  part orders (3,19683), argument 1/2
  reduce by (0, 243): (3,19683) -> (3,3), argument 1/2
  anisotropic: orders (3,3) q (1/3 1/3)
  gauss argument preserved: true

class
  p=3 orders (3,3) q (1/3 1/3)
""",
    "witt-class z3_z19683.mg --format machine": """\
order=59049
gauss_magnitude_squared=59049
gauss_argument=1/2
primes=3
part_3_orders=3,19683
part_3_steps=1
part_3_anisotropic_orders=3,3
part_3_anisotropic_q=1/3,1/3
part_3_argument=1/2
class_identity=false
""",
    "witt-order z3_z19683.mg --format text": """\
witt-order z3_z19683.mg
=======================

class
  p=3 orders (3,3) q (1/3 1/3)

order
  2
""",
    "witt-order z3_z19683.mg --format machine": """\
class_identity=false
witt_order=2
""",
}

VERDICT_FORMS = {
    "z64_sixtyfourth.mg": "orders 64\nq 1/64\n",
    "z64_three_128ths.mg": "orders 64\nq 3/128\n",
    "z2_z4_cross.mg": "orders 2 4\nq 1/4 1/8\nb 1 2 1/2\n",
    "z3_z9_cross.mg": "orders 3 9\nq 0 1/9\nb 1 2 1/3\n",
    "z6_z12_cross.mg": "orders 6 12\nq 1/12 1/24\nb 1 2 1/6\n",
    "z2_z6_z12_cross.mg": "orders 2 6 12\nq 1/4 1/12 1/24\nb 1 2 1/2\nb 2 3 1/6\n",
}

# stdout of each case, every one exiting 0
VERDICT_STDOUT = {
    "validate z64_sixtyfourth.mg --format text": "validate z64_sixtyfourth.mg\n===========================\n\nresult\n  valid\n\ndegeneracy\n  degenerate\n",
    "validate z64_sixtyfourth.mg --format machine": "kind=metric\nvalid=true\nviolation_count=0\nnondegenerate=false\n",
    "validate z64_three_128ths.mg --format text": "validate z64_three_128ths.mg\n============================\n\nresult\n  valid\n\ndegeneracy\n  nondegenerate\n",
    "validate z64_three_128ths.mg --format machine": "kind=metric\nvalid=true\nviolation_count=0\nnondegenerate=true\n",
    "validate z2_z4_cross.mg --format text": "validate z2_z4_cross.mg\n=======================\n\nresult\n  valid\n\ndegeneracy\n  nondegenerate\n",
    "validate z2_z4_cross.mg --format machine": "kind=metric\nvalid=true\nviolation_count=0\nnondegenerate=true\n",
    "validate z3_z9_cross.mg --format text": "validate z3_z9_cross.mg\n=======================\n\nresult\n  valid\n\ndegeneracy\n  degenerate\n",
    "validate z3_z9_cross.mg --format machine": "kind=metric\nvalid=true\nviolation_count=0\nnondegenerate=false\n",
    "validate z6_z12_cross.mg --format text": "validate z6_z12_cross.mg\n========================\n\nresult\n  valid\n\ndegeneracy\n  nondegenerate\n",
    "validate z6_z12_cross.mg --format machine": "kind=metric\nvalid=true\nviolation_count=0\nnondegenerate=true\n",
    "validate z2_z6_z12_cross.mg --format text": "validate z2_z6_z12_cross.mg\n===========================\n\nresult\n  valid\n\ndegeneracy\n  degenerate\n",
    "validate z2_z6_z12_cross.mg --format machine": "kind=metric\nvalid=true\nviolation_count=0\nnondegenerate=false\n",
}


@pytest.fixture(scope="module")
def forms_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("forms")
    for name, text in {**LARGE_LEVEL_FORMS, **VERDICT_FORMS}.items():
        (directory / name).write_text(text, encoding="utf-8")
    return str(directory)


@pytest.mark.parametrize("case", LARGE_LEVEL_STDOUT)
def test_large_level_output_matches_golden(forms_dir, case):
    assert run_case(case, forms_dir) == {"code": 0, "stdout": LARGE_LEVEL_STDOUT[case]}


@pytest.mark.parametrize("case", VERDICT_STDOUT)
def test_nondegeneracy_verdict_matches_golden(forms_dir, case):
    assert run_case(case, forms_dir) == {"code": 0, "stdout": VERDICT_STDOUT[case]}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: run_case(c) for c in cases()}, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
