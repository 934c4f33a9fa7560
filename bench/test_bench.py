"""The benchmark's own checks.

    python3 -m pytest -q bench/test_bench.py

Covers: the generator is deterministic, its Gauss sum formulas agree
with floating-point sums, its answers agree with the package on the
bundled corpus, traced runs repeat every count exactly, and the command
fails without the package source.
"""

from __future__ import annotations

import cmath
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check_corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def pool_bytes(workload: str, seed: int, directory: Path, part: int = 0) -> dict[str, bytes]:
    jobs = workloads.make_pool(workload, seed, part)
    argvs = run.write_inputs(jobs, directory)
    out = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    out["argv+answers"] = json.dumps([[a, j.expect, j.approx] for a, j in zip(argvs, jobs)]).replace(
        str(directory), "DIR").encode()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_byte_identical_per_seed(workload, tmp_path):
    first = pool_bytes(workload, 7, tmp_path / "a")
    assert first == pool_bytes(workload, 7, tmp_path / "b")
    assert first != pool_bytes(workload, 8, tmp_path / "c")
    further = pool_bytes(workload, 7, tmp_path / "d", part=1)
    assert further == pool_bytes(workload, 7, tmp_path / "e", part=1)
    assert further != first


def numeric_gauss(form: workloads.Form) -> complex:
    total = 0j
    for x in product(*(range(d) for d in form.orders)):
        q = sum((a * a * v for a, v in zip(x, form.diag)), Fraction(0))
        q += sum((x[i] * x[j] * v for (i, j), v in form.cross.items()), Fraction(0))
        total += cmath.exp(2j * cmath.pi * float(q % 1))
    return total


def pool_forms():
    for seed in (1, 2):
        rng = workloads.random.Random(seed)
        for kind, options in workloads.REDUCE_FAMILIES.items():
            for option in dict.fromkeys(options):
                form = workloads.assemble(workloads._reduce_family(kind, option, rng), rng)
                if form.size <= 4096:
                    yield form
        for p, _, templates in workloads.CLOSURE_SLOTS:
            for t in templates:
                yield workloads.assemble({p: workloads._blocks(rng, p, t)}, rng)


def test_gauss_formulas_match_float_sums():
    for form in pool_forms():
        g = numeric_gauss(form)
        assert abs(abs(g) ** 2 - form.size) < 1e-6 * form.size, form.text()
        keys = form.keys()
        want = sum((a for _, a in keys.values()), Fraction(0)) % 1
        turns = (cmath.phase(g) / (2 * cmath.pi)) % 1
        assert abs(((turns - float(want)) + 0.5) % 1 - 0.5) < 1e-6, form.text()


def test_key_subgroups_of_the_witt_groups():
    # W_pt(2) = Z2 x Z8, W_pt(p) = Z4 for p = 3 mod 4, Z2 x Z2 for p = 1 mod 4
    assert oracle.key_subgroup([(1, Fraction(1, 8)), (0, Fraction(1, 8))]) == (16, (2, 8))
    assert oracle.key_subgroup([(1, Fraction(1, 4))]) == (4, (4,))
    assert oracle.key_subgroup([(1, Fraction(0)), (1, Fraction(1, 2))]) == (4, (2, 2))


def test_scan_oracle_flags_documented_divergences():
    assert oracle.scan_expectation(1800, False)["divergent"] == (1764,)
    assert oracle.scan_expectation(33075, True)["divergent"] == (27225,)


def test_formulas_agree_with_the_package_on_the_corpus(capsys):
    assert check_corpus.main() == 0, capsys.readouterr().out


def bench(*args, cwd=HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    results = []
    for _ in range(2):
        done = bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"]
        results.append(result["metrics"])
    names = {name for name, _, _ in tracer.metric_names()}
    assert set(results[0]) == names
    counts = [n for n in names if n.endswith((".calls", ".misses", "_ratio")) and n != "trace.overhead_ratio"]
    assert {n: results[0][n]["value"] for n in counts} == {n: results[1][n]["value"] for n in counts}


def test_fails_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "dims", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
