"""Benchmark: seeded fusionwitt jobs through the real CLI, in-process.

    python3 bench/run.py --workload rings --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
src/ next to this directory, never from an installed copy.  Each job
is cli.main([verb, "--format", "machine", ...]) with stdout captured,
so interpreter start is not counted.  The loop is closed: one client,
one job at a time, one process.  It runs the seeded job pool, then
further pools of the same mix with fresh inputs, in whole passes until
--seconds have elapsed, and checks every job's output against the
answer bench/workloads.py worked out independently.

Every time is scaled to one machine speed (class Speed): bursts of a
fixed reference computation between jobs measure how fast the shared
host runs at that moment, and each span of wall time is rescaled by
them; the unscaled figures are printed too.  job_p50_ms is the median
job latency and job_tail_ms the 90th percentile; jobs_per_s is jobs
over the loop's scaled time, the sum of their latencies.  setup_s is
the median of SETUP_REPEATS set-ups, each a fresh import of fusionwitt,
pool generation, file writing and warm-up.  The first runs from the
start of this script, so it alone holds the first imports of the
standard modules the package uses (argparse, fractions and the rest,
which this script imports too); the others are spread over the timed
loop and left out of its times.  Interpreter start-up is in none of
them.

--trace 0 prints the end-to-end metrics; --trace 1 instead runs a cold
traced pass (its counts are reported), then alternates untraced and
traced passes (their median times are reported, and their ratio is
the tracing overhead), and writes the cold pass's spans to
.bench_out/.  The last stdout line is the JSON result; the lines
before it repeat every figure by name for a human reader.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
FLOAT_TOLERANCE = 1e-9
# job_tail_ms is the TAIL_PCT percentile; a run holds at least MIN_JOBS
# jobs, so at least ten are beyond it.  A fixed percentile stays in
# the same part of the job mix however many passes a run makes.
TAIL_PCT = 90
MIN_JOBS = 100
# The speed reference: a fixed piece of pure-Python work, timed in
# bursts between jobs.  REFERENCE_S is its median time on the machine
# bench/baseline.json was recorded on, so scaled times read in that
# machine's seconds.
REFERENCE_S = 0.00024
PROBE_EVERY_S = 0.05
PROBE_REPEATS = 3
PROBE_WINDOW_S = 0.3


class BenchError(Exception):
    """The benchmark cannot run here."""


def package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "fusionwitt" or k.startswith("fusionwitt.")}


def load_package():
    """Import fusionwitt afresh from the checkout's src/ and return its
    cli module; earlier imports are dropped so program caches start cold."""
    if not (SRC / "fusionwitt" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}/fusionwitt")
    for name in package_modules():
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cli = importlib.import_module("fusionwitt.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"fusionwitt imported from {cli.__file__}, not from {SRC}")
    return cli


def write_inputs(jobs, directory: Path) -> list[list[str]]:
    """Write every job's files; return each job's argv with real paths."""
    directory.mkdir(parents=True)
    argvs = []
    for n, job in enumerate(jobs):
        paths = {}
        for key, text in job.files.items():
            path = directory / f"j{n:03d}_{key}"
            path.write_text(text, encoding="utf-8")
            paths[key] = str(path)
        argvs.append([paths.get(a, a) for a in job.argv])
    return argvs


def run_job(cli, argv) -> tuple[object, str]:
    """One CLI call with captured output; any failure becomes the status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as err:
            status = err.code
        except Exception as err:  # a raising job counts as failed, the loop goes on
            status = f"raised {type(err).__name__}: {err}"
    return status, out.getvalue()


def check(job, status, output: str) -> str | None:
    """None when the output matches the expected answer, else why not."""
    if status != 0:
        return f"exit status {status!r}"
    got = dict(line.partition("=")[::2] for line in output.splitlines() if line)
    for key, want in job.expect.items():
        if got.get(key) != want:
            return f"{key}: got {got.get(key)!r}, expected {want!r}"
    for key, want in job.approx.items():
        try:
            value = float(got.get(key, "nan"))
        except ValueError:
            return f"{key}: {got.get(key)!r} is not a number"
        if not abs(value - want) <= FLOAT_TOLERANCE * max(1.0, abs(want)):
            return f"{key}: got {value!r}, expected about {want!r}"
    return None


def setup(workload: str, seed: int, directory: Path, warm: bool):
    """Import fusionwitt afresh, generate the seeded pool, write its files
    and, when warm, run the smallest job of each verb, which fills
    argparse and the code paths.  Returns (cli, jobs, argvs)."""
    cli = load_package()
    jobs = workloads.make_pool(workload, seed)
    argvs = write_inputs(jobs, directory)
    if warm:
        smallest = {}
        for job, argv in zip(jobs, argvs):
            if job.argv[0] not in smallest or job.size < smallest[job.argv[0]][0].size:
                smallest[job.argv[0]] = (job, argv)
        for job, argv in smallest.values():
            run_job(cli, argv)
    return cli, jobs, argvs


def timed_setup(workload: str, seed: int, directory: Path) -> tuple[float, float]:
    """Set up once more and return when it started and ended; then put
    back the package modules in use, so the timed loop goes on with its
    warm caches, and collect the fresh copy's garbage outside the timing."""
    saved = package_modules()
    start = time.perf_counter()
    setup(workload, seed, directory, warm=True)
    end = time.perf_counter()
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    gc.collect()
    return start, end


def reference_work() -> int:
    """The speed reference: dictionary, integer and sorting work of the
    kind the package does, and none of the package's code, so a change to
    the package leaves its time alone."""
    acc = {}
    for i in range(1000):
        key = (i * 7919) % 1009
        acc[key] = acc.get(key, 0) + i * i
    return sum(sorted(acc.values())) % 1000003


class Speed:
    """The machine's speed through a run, from bursts of reference_work.

    The machine is a few cores of a shared host.  Its speed moves by a
    third or more with the other tenants' load, for seconds at a time
    and drifting over minutes, so a wall time measures that load as much
    as the program.  scaled() divides a span of wall time by the
    reference's median time around it and multiplies by REFERENCE_S:
    the time the span would have taken at the recorded machine's speed."""

    def __init__(self):
        self.mids: list[float] = []
        self.costs: list[float] = []
        self.last = -math.inf

    def probe(self) -> float:
        """One burst; returns its wall time, to leave out of the loop's."""
        start = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
            self.mids.append((t0 + t1) / 2)
            self.costs.append(t1 - t0)
        self.last = time.perf_counter()
        return self.last - start

    def due(self, now: float) -> bool:
        return now - self.last >= PROBE_EVERY_S

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the recorded machine's speed; uses the
        bursts within PROBE_WINDOW_S of the span, or else the nearest."""
        lo = bisect.bisect_left(self.mids, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + PROBE_WINDOW_S)
        near = self.costs[lo:hi] or self.costs[max(0, lo - PROBE_REPEATS):hi + PROBE_REPEATS]
        return (t1 - t0) * REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.costs)


def run_pass(cli, jobs, argvs, results, tr=None) -> float:
    """Every job once, in pool order; returns the pass's wall time."""
    start = time.perf_counter()
    for n, (job, argv) in enumerate(zip(jobs, argvs)):
        if tr is not None:
            tr.job = n
        results.append((job, *run_job(cli, argv)))
    return time.perf_counter() - start


def measure(cli, jobs, argvs, seconds: float, resetup, next_pool, speed: Speed):
    """Run passes until `seconds` of loop time have passed and the run
    holds MIN_JOBS jobs, probing the machine's speed between jobs.  The
    first pass runs the set-up pool; pass k > 0 runs next_pool(k), the
    same mix with fresh inputs, so the run averages over more inputs
    than one pool holds.  At even steps of the time, between two jobs,
    resetup(k) runs a further set-up.  Neither probes, set-ups nor pool
    making count in a job's latency or the loop time.  Set-ups spread
    over the run meet the same swings of the machine's speed as the
    jobs do.

    Latencies are scaled to the recorded machine's speed (Speed).  The
    median and tail are over every job run; jobs_per_s is the jobs run
    over the sum of their scaled latencies."""
    results, spans, setups, passes, paused = [], [], [], 0, 0.0
    interval = seconds / SETUP_REPEATS
    speed.probe()
    start = time.perf_counter()
    while passes == 0 or len(spans) < MIN_JOBS or time.perf_counter() - start - paused < seconds:
        if passes:
            t = time.perf_counter()
            jobs, argvs = next_pool(passes)
            paused += time.perf_counter() - t
        for job, argv in zip(jobs, argvs):
            t0 = time.perf_counter()
            results.append((job, *run_job(cli, argv)))
            t1 = time.perf_counter()
            spans.append((t0, t1))
            if len(setups) < SETUP_REPEATS - 1 and t1 - start - paused >= interval * (len(setups) + 1):
                setups.append(resetup(len(setups) + 1))
                speed.probe()
                paused += time.perf_counter() - t1
            elif speed.due(t1):
                paused += speed.probe()
        passes += 1
    wall = time.perf_counter() - start - paused
    raw = sorted(t1 - t0 for t0, t1 in spans)
    latencies = sorted(speed.scaled(t0, t1) for t0, t1 in spans)
    n = len(latencies)
    tail_index = math.ceil(n * TAIL_PCT / 100) - 1
    return results, setups, {
        "passes": passes,
        "jobs": n,
        "job_p50_ms": statistics.median(latencies) * 1000.0,
        "job_tail_ms": latencies[tail_index] * 1000.0,
        "tail_beyond": n - tail_index - 1,
        "jobs_per_s": n / math.fsum(latencies),
        "wall_p50_ms": statistics.median(raw) * 1000.0,
        "wall_tail_ms": raw[tail_index] * 1000.0,
        "wall_jobs_per_s": n / wall,
    }


def measure_traced(cli, jobs, argvs, seconds: float, trace_path: Path):
    """Cold traced pass, then untraced and traced passes in turn."""
    cyclo = sys.modules["fusionwitt.cyclotomic"].cyclotomic_polynomial
    tr = tracer.Tracer()
    results, traced, untraced_walls, traced_walls = [], [], [], []
    start = time.perf_counter()
    misses0 = cyclo.cache_info().misses
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        if len(traced) > len(untraced_walls):
            untraced_walls.append(run_pass(cli, jobs, argvs, results))
            continue
        tr.reset()
        tr.install()
        try:
            traced_walls.append(run_pass(cli, jobs, argvs, results, tr=tr))
        finally:
            tr.uninstall()
        traced.append(tr.aggregate())
        if len(traced) == 1:
            misses = cyclo.cache_info().misses - misses0
            tr.write(trace_path)
    metrics = tracer.combine(traced, misses)
    jobs = len(argvs)
    warm_traced = traced_walls[1:] or traced_walls
    metrics["trace.traced_jobs_per_s"] = jobs / statistics.median(warm_traced)
    metrics["trace.untraced_jobs_per_s"] = jobs / statistics.median(untraced_walls)
    metrics["trace.overhead_ratio"] = metrics["trace.untraced_jobs_per_s"] / metrics["trace.traced_jobs_per_s"]
    return results, metrics, len(traced) + len(untraced_walls)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"inputs-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli, jobs, argvs = setup(args.workload, args.seed, work / "rep0", warm=not args.trace)
        first_setup = (PROCESS_START, time.perf_counter())
        gc.collect()
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            results, metrics, passes = measure_traced(cli, jobs, argvs, args.seconds, spans)
            units = {name: unit for name, unit, _ in tracer.metric_names()}
        else:
            def resetup(k):
                return timed_setup(args.workload, args.seed, work / f"rep{k}")

            def next_pool(k):
                shutil.rmtree(work / f"pass{k - 1}", ignore_errors=True)
                more = workloads.make_pool(args.workload, args.seed, k)
                return more, write_inputs(more, work / f"pass{k}")

            speed = Speed()
            results, setups, stats = measure(cli, jobs, argvs, args.seconds, resetup, next_pool, speed)
            setup_times = [speed.scaled(t0, t1) for t0, t1 in (first_setup, *setups)]
            passes = stats["passes"]
            metrics = {k: stats[k] for k in ("job_p50_ms", "job_tail_ms", "jobs_per_s")}
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = {"job_p50_ms": "ms", "job_tail_ms": "ms", "jobs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = []
    for job, status, output in results:
        why = check(job, status, output)
        if why is not None:
            failures.append((job, why))
    attempted = len(results)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  pool {len(jobs)} jobs  passes {passes}")
    if not args.trace:
        print(f"setup_s is the median of {len(setup_times)} set-ups; the first, from the start of the script, took "
              f"{setup_times[0]:.4f} s scaled, {first_setup[1] - first_setup[0]:.4f} s of wall time")
        print(f"job_tail_ms is p{TAIL_PCT} of {stats['jobs']} jobs ({stats['tail_beyond']} beyond it)")
        print(f"times are scaled to a machine where reference_work takes {REFERENCE_S * 1e3:.4f} ms; here it took "
              f"{speed.median_s() * 1e3:.4f} ms (median of {len(speed.costs)}); unscaled wall times: "
              f"p50 {stats['wall_p50_ms']:.6g} ms, tail {stats['wall_tail_ms']:.6g} ms, "
              f"{stats['wall_jobs_per_s']:.6g} jobs/s")
    print(f"failed_ratio {len(failures) / attempted:.6f} ratio ({len(failures)} of {attempted})")
    for job, why in failures[:5]:
        print(f"  failed job ({' '.join(job.argv)}): {why}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
