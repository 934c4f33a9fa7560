"""Every function in src/ is entered by a CLI run, or ALLOWLIST says why not.

The runs go through cli.main in a fresh process under sys.setprofile, so
that no cache or import an earlier test made hides a call:

* every case of tests/golden.json and tests/golden_invalid.json;
* one argv per cap flag, so the flag path is reached;
* the smallest job of each verb in each seed-1 bench/workloads.py pool,
  with bench/ imported read-only as tests/test_oracle_pools.py does it.

The functions of src/ are listed with ast, nested ones and methods
included, and matched to the profiler's code objects by file and first
line.  A function that no run enters needs an ALLOWLIST entry with one of
the reasons below; an entry that names no function, or a function some
run now enters, is stale and fails too.  So the allowlist only shrinks:
a deletion from src/ shows up as a line leaving it, and an entry a change
adds is named and explained in CHANGES.md.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import BROKEN_CONGRUENCE, BROKEN_Z2, NILPOTENT_Z3, UNEQUAL_GRADING
from test_golden import CORPUS_DIR
from test_trace_targets import load_tracer

import fusionwitt
from fusionwitt import corpus

PACKAGE_DIR = Path(fusionwitt.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
README = TESTS.parent / "README.md"
SEED = 1

README_API = "README library API"
ERROR_PATH = "error path"
PLUMBING = "import plumbing in __init__.py"
LEAVES_WITH_ITEM_7 = "leaves with ROADMAP item 7"
REASONS = (README_API, ERROR_PATH, PLUMBING, LEAVES_WITH_ITEM_7)

# function -> why no run enters it
ALLOWLIST = {
    "__init__.__dir__": PLUMBING,
    "cli.parse_machine": README_API,
    "cli.parse_machine_value": README_API,
    "corpus.names": README_API,
    "corpus.path": README_API,
    "witt.class_eq": README_API,
    # the benchmark's tracer wraps these three; they move under tests/
    # once the tracer reads package spans instead
    "fpdim.charpoly": LEAVES_WITH_ITEM_7,
    "metric_group.inverse_form": LEAVES_WITH_ITEM_7,
    "witt.metric_iso": LEAVES_WITH_ITEM_7,
    # reduce_once's message for a nonzero q(x)
    "metric_group.MetricGroup.q": ERROR_PATH,
}

# the profiled process: reads [[cwd, argv], ...] on stdin, runs each
# through cli.main and prints the (file, first line, name) of every code
# object under the package directory that it entered
PROFILED = """
import contextlib, io, json, os, sys
package, runs = sys.argv[1], json.load(sys.stdin)
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(package):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from fusionwitt import cli
for cwd, argv in runs:
    os.chdir(cwd)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def src_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> dotted name of every function in src/;
    the first line is the first decorator's, as in co_firstlineno."""
    out = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(PACKAGE_DIR).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" and len(parts) > 1 else parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        out[str(path), first, child.name] = name
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return out


def golden_runs(tmp_path) -> list[tuple[str, list[str]]]:
    invalid = tmp_path / "invalid"
    invalid.mkdir()
    for name, text in (("broken_z2.fr", BROKEN_Z2), ("z3_nilpotent.fr", NILPOTENT_Z3),
                       ("unequal_grading.fr", UNEQUAL_GRADING), ("broken_congruence.mg", BROKEN_CONGRUENCE)):
        (invalid / name).write_text(text, encoding="utf-8")
    with open(corpus.path("ising.fr"), encoding="utf-8") as fh:
        (invalid / "ising_assoc.fr").write_text(fh.read() + "N 1 1 1 1\n", encoding="utf-8")
    runs = [(CORPUS_DIR, case.split()) for case in json.loads((TESTS / "golden.json").read_text(encoding="utf-8"))]
    runs += [(str(invalid), case.split())
             for case in json.loads((TESTS / "golden_invalid.json").read_text(encoding="utf-8"))]
    runs += [(CORPUS_DIR, argv) for argv in (["witt-class", "--element-cap", "64", "semion.mg"],
                                             ["witt-order", "--order-cap", "8", "semion.mg"],
                                             ["witt-subgroup", "--closure-cap", "4", "semion.mg"],
                                             ["analyze", "--rank-cap", "8", "ising.fr"])]
    return runs


def pool_runs(tmp_path) -> list[tuple[str, list[str]]]:
    """The smallest job of each verb in each seed-1 pool, with its files written."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import run
        import workloads

        runs = []
        for workload in workloads.WORKLOADS:
            smallest = {}
            for job in workloads.make_pool(workload, SEED):
                if job.argv[0] not in smallest or job.size < smallest[job.argv[0]].size:
                    smallest[job.argv[0]] = job
            jobs = list(smallest.values())
            runs += [(str(tmp_path), argv) for argv in run.write_inputs(jobs, tmp_path / workload)]
    return runs


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """(every src/ function, the names some run entered)."""
    tmp_path = tmp_path_factory.mktemp("reach")
    runs = golden_runs(tmp_path) + pool_runs(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    for cap in ("FUSIONWITT_ELEMENT_CAP", "FUSIONWITT_ORDER_CAP", "FUSIONWITT_CLOSURE_CAP", "FUSIONWITT_RANK_CAP"):
        env.pop(cap, None)
    done = subprocess.run([sys.executable, "-c", PROFILED, str(PACKAGE_DIR)], input=json.dumps(runs), env=env,
                          capture_output=True, text=True, check=True)
    functions = src_functions()
    entered = {functions[tuple(key)] for key in json.loads(done.stdout) if tuple(key) in functions}
    return set(functions.values()), entered


def test_every_function_is_entered_or_allowlisted(reach):
    functions, entered = reach
    assert sorted(functions - entered - set(ALLOWLIST)) == []


def test_no_allowlist_entry_is_stale(reach):
    functions, entered = reach
    assert sorted(set(ALLOWLIST) - functions) == [], "names no function in src/"
    assert sorted(set(ALLOWLIST) & entered) == [], "entered by a run: drop the entry"


def test_every_allowlist_entry_gives_one_known_reason():
    assert set(ALLOWLIST.values()) <= set(REASONS)
    leaving = [name for name, reason in ALLOWLIST.items() if reason == LEAVES_WITH_ITEM_7]
    assert leaving == ["fpdim.charpoly", "metric_group.inverse_form", "witt.metric_iso"]
    # each is kept only because the tracer wraps it
    traced = {(module, attr) for _, module, attr in load_tracer().TARGETS}
    assert [name for name in leaving if tuple(name.split(".", 1)) not in traced] == []


def test_readme_library_api_names_every_readme_entry():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(?:\w+\.)*(\w+)`", section))
    assert [name for name, reason in ALLOWLIST.items()
            if reason == README_API and name.rsplit(".", 1)[1] not in named] == []
