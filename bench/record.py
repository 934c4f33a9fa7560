"""Record a baseline: two sets of runs of the benchmark, and their agreement.

    python3 bench/record.py

Each set runs `bench/run.py --trace 0` once per workload and seed 1..RUNS,
each in its own process, round-robin: seed by seed, all workloads in turn,
in reverse order on every other seed, so that a slow stretch of the
machine falls on every workload rather than on one.  The second set
follows the first.  For every end-to-end metric and set it writes the
median, quartiles and spread (quartile distance over median, as
statistics.quantiles gives them) next to the bound from BENCHMARK.json,
and how much worse the second median is than the first, as a share of
the first.  A traced run per workload (seed 1) adds the per-layer
figures.  With the failed ratio and the machine it ran on, all of it
goes to bench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "system": platform.platform()}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1] if not line.startswith(tuple(result["metrics"]))]
    return result


def run_set(names: list[str], seconds: int) -> dict[str, list[dict]]:
    runs = {name: [] for name in names}
    for seed in range(1, RUNS + 1):
        for name in names if seed % 2 else names[::-1]:
            runs[name].append(bench(name, seed, seconds, 0))
            figures = {k: round(v["value"], 4) for k, v in runs[name][-1]["metrics"].items()}
            print(f"{name} seed {seed}: {figures}", flush=True)
    return runs


def summary(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    sets = [run_set(names, spec["run_seconds"]) for _ in range(SETS)]
    out = {"machine": machine_info(), "run_seconds": spec["run_seconds"], "runs": RUNS, "sets": SETS,
           "workloads": {}}
    for w in spec["workloads"]:
        runs = [s[w["name"]] for s in sets]
        e2e = {}
        for m in metrics:
            per_set = [summary([r["metrics"][m["name"]]["value"] for r in rs], m["bound"]) for rs in runs]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            worse = (last - first) / first if m["better"] == "lower" else (first - last) / first
            e2e[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], "sets": per_set,
                              "second_worse_by": worse}
            spreads = "  ".join(f"{s['spread']:.3f}" for s in per_set)
            print(f"{w['name']:13s} {m['name']:12s} medians {first:10.4g} {last:10.4g}  worse by {worse:+.3f}  "
                  f"spreads {spreads}  bound {m['bound']}", flush=True)
        attempted = sum(r["attempted"] for rs in runs for r in rs)
        failed = sum(r["failed"] for rs in runs for r in rs)
        traced = bench(w["name"], 1, spec["run_seconds"], 1)
        out["workloads"][w["name"]] = {
            "why": w["why"],
            "failed_ratio": failed / attempted,
            "attempted": attempted,
            "notes_seed1": runs[0][0]["notes"],
            "end_to_end": e2e,
            "traced_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{w['name']:13s} failed_ratio {failed / attempted} ({failed} of {attempted}); "
              f"tracing overhead {traced['metrics']['trace.overhead_ratio']['value']:.3f}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
