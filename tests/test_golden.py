"""Byte-for-byte CLI output on the bundled corpus.

golden.json holds the exit status and stdout of every verb on every
corpus file it applies to, in both formats, run from the corpus
directory so the report titles carry bare file names.  It includes the
witt-subgroup closure of the six corpus 2-groups, the slowest case and
the only one that pins the 2-primary closure with cross terms.

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
    runs += [["classify", n] for n in ("1764", "27225", "4")]
    runs += [["scan", "1800"], ["scan", "33075", "--odd"]]
    return [" ".join(argv + ["--format", fmt]) for argv in runs for fmt in ("text", "machine")]


def run_case(case: str) -> dict:
    """Exit status and stdout of one CLI call; stderr is dropped."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS_DIR)
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: run_case(c) for c in cases()}, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
