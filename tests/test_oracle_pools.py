"""CLI output on fresh benchmark inputs, checked against bench/oracle.py.

bench/workloads.py builds seeded job pools and works out every job's
answer with bench/oracle.py, which shares no code with the package:
trial division, closed-form Gauss block values, Witt keys, key
subgroups.  Here those pools run through cli.main, as the benchmark
runs them, and bench/run.py's check compares each machine report with
its answer.  The goldens pin fixed inputs; this covers inputs no golden
holds.

The seeds were fixed before the first run and are used by nothing else:
every Witt job of seeds 1000-1003, the rings jobs up to rank 9, and the
classify and scan jobs of seed 1000.  A failure is a package or an
oracle defect, never a reason to change a seed.  classify also runs on
p^2 for every prime p up to isqrt(FACTOR_LIMIT) and on p q for
consecutive such primes, where a factorization that misses a prime is
visible in the witness.  The scans, at limits from 10^4 to 10^6, odd
and not, are checked against the multiples of (p q r)^2, found without
factorizing any n.
"""

from math import isqrt
from pathlib import Path

import pytest
from conftest import is_prime

from fusionwitt import cli
from fusionwitt.arith import FACTOR_LIMIT

BENCH = Path(__file__).resolve().parents[1] / "bench"
WITT_SEEDS = (1000, 1001, 1002, 1003)
RING_SEED, RING_MAX_RANK = 1000, 9
DIMS_SEED = 1000


@pytest.fixture(scope="module")
def bench():
    """bench/run.py and bench/workloads.py, imported read-only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import run
        import workloads

        yield run, workloads


def run_checked(bench, jobs, directory):
    """Every job's failure against its oracle answer, as text."""
    run, _ = bench
    failures = []
    for job, argv in zip(jobs, run.write_inputs(jobs, directory)):
        status, output = run.run_job(cli, argv)
        why = run.check(job, status, output)
        if why is not None:
            failures.append(f"{' '.join(job.argv)}: {why}")
    return failures


@pytest.mark.parametrize("workload, seed", [(w, s) for w in ("witt_reduce", "witt_closure") for s in WITT_SEEDS])
def test_witt_pool_matches_the_oracle(bench, tmp_path, workload, seed):
    jobs = bench[1].make_pool(workload, seed)
    assert run_checked(bench, jobs, tmp_path / "inputs") == []


def test_rings_pool_matches_the_oracle(bench, tmp_path):
    jobs = [job for job in bench[1].make_pool("rings", RING_SEED) if job.size <= RING_MAX_RANK]
    assert len(jobs) == 25
    assert run_checked(bench, jobs, tmp_path / "inputs") == []


@pytest.fixture(scope="module")
def dims_jobs(bench):
    return bench[1].make_pool("dims", DIMS_SEED)


def test_classify_matches_the_oracle(bench, dims_jobs, tmp_path):
    workloads = bench[1]
    jobs = [job for job in dims_jobs if job.argv[0] == "classify"]
    primes = [p for p in range(isqrt(FACTOR_LIMIT) + 1) if is_prime(p)]
    edges = [p * p for p in primes] + [p * q for p, q in zip(primes, primes[1:])]
    jobs += [workloads.Job(argv=["classify", "--format", "machine", str(n)], expect=workloads.classify_expectation(n))
             for n in edges]
    assert run_checked(bench, jobs, tmp_path / "inputs") == []


def test_scan_matches_the_oracle(bench, dims_jobs, tmp_path):
    jobs = [job for job in dims_jobs if job.argv[0] == "scan"]
    assert len(jobs) == len(bench[1].SCAN_SLOTS)
    assert run_checked(bench, jobs, tmp_path / "inputs") == []
