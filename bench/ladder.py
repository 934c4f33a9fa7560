"""Size ladders, reported but not gated.

    python3 bench/ladder.py

Runs single traced CLI jobs of growing size and records, per size, the
wall time and every traced layer's inclusive seconds and calls, so a
change to an algorithm's exponent shows as a change of slope:

* analyze on the pointed ring of Z_r, by rank r;
* witt-class and witt-order on Z_{2^k} and Z_{3^k}, up to the element
  cap (the CLI refuses larger groups);
* witt-subgroup at p = 2 by subgroup order, and on all of W_pt(p) for
  the odd primes of the witt_closure workload plus p = 11;
* scan by limit, both parities, up to 10^6.

A ladder stops after its first case slower than CEILING_S.  Results go
to bench/ladders.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import oracle
import record
import run
import tracer
import workloads as W

ELEMENT_CAP = 2**16
CEILING_S = 10.0


def ring_case(r: int):
    ring = W.pointed((r,))
    expect, approx = W.ring_expectation(ring)
    return W.Job(["analyze", "--format", "machine", "ring.fr"], {"ring.fr": W._ring_text(ring)}, expect, approx, r)


def cyclic_case(verb: str, p: int, k: int):
    form = W.assemble({p: [("cyc", p, k, 1)]}, None)
    expect = W.witt_class_expectation(form) if verb == "witt-class" else W.witt_order_expectation(form)
    if form.size > ELEMENT_CAP:
        expect = {}
    return W.Job([verb, "--format", "machine", "form.mg"], {"form.mg": form.text()}, expect, {}, form.size)


def closure_case(p: int, blocks_list):
    forms = [W.assemble({p: blocks}, None) for blocks in blocks_list]
    order, inv = oracle.key_subgroup([f.keys()[p] for f in forms])
    files = {f"gen{i}.mg": f.text() for i, f in enumerate(forms)}
    expect = {"subgroup_order": str(order), "invariant_factors": W.render(inv)}
    return W.Job(["witt-subgroup", "--format", "machine", *files], files, expect, {}, order)


def ladders():
    yield "analyze_pointed_rank", [ring_case(r) for r in (4, 6, 8, 12, 16, 20, 24, 30, 36, 48)]
    for verb in ("witt-class", "witt-order"):
        yield f"{verb}_z2^k", [cyclic_case(verb, 2, k) for k in range(1, 18)]
        yield f"{verb}_z3^k", [cyclic_case(verb, 3, k) for k in range(1, 12)]
    semion, semion_bar = [("cyc", 2, 1, 1)], [("cyc", 2, 1, 3)]
    yield "witt-subgroup_p2_by_order", [
        closure_case(2, [[("V", 2, 1)]]),
        closure_case(2, [[("cyc", 2, 1, 1), ("cyc", 2, 1, 1)]]),
        closure_case(2, [semion, semion_bar]),
        closure_case(2, [semion, semion_bar, [("cyc", 2, 2, 1)]]),
    ]
    yield "witt-subgroup_odd_full", [
        closure_case(p, [[("cyc", p, 1, 1)], [("cyc", p, 1, next(u for u in range(2, p) if oracle.legendre(u, p) < 0))]])
        for p in (3, 5, 7, 11, 13)
    ]
    for odd in (False, True):
        yield f"scan{'_odd' if odd else ''}_by_limit", [W.scan_job(limit, odd) for limit in (10**4, 10**5, 10**6)]


def run_case(cli, job, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    argv = run.write_inputs([job], work)[0]
    tr = tracer.Tracer()
    tr.install()
    try:
        start = time.perf_counter()
        status, output = run.run_job(cli, argv)
        wall = time.perf_counter() - start
    finally:
        tr.uninstall()
    stats = tr.aggregate()
    layers = {}
    for key, value in stats.items():
        name, _, kind = key.rpartition(".")
        if kind in ("s", "calls") and name in tracer.INCLUSIVE and stats.get(name + ".calls"):
            layers.setdefault(name, {})[kind] = round(value, 6) if kind == "s" else value
    refused = job.argv[0].startswith("witt") and job.size > ELEMENT_CAP
    why = None if refused and status == 1 else run.check(job, status, output)
    return {"size": job.size, "wall_s": round(wall, 6), "refused_at_cap": refused, "ok": why is None,
            "why": why, "layers": layers}


def main() -> int:
    cli = run.load_package()
    work = run.OUT / "ladder-inputs"
    run.OUT.mkdir(exist_ok=True)
    out = {"machine": record.machine_info(), "ceiling_s": CEILING_S, "ladders": {}}
    try:
        for name, cases in ladders():
            rows = out["ladders"][name] = []
            for job in cases:
                row = run_case(cli, job, work)
                rows.append(row)
                print(f"{name} size {row['size']}: {row['wall_s']:.3f} s ok={row['ok']}", flush=True)
                if row["refused_at_cap"] or row["wall_s"] > CEILING_S:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (Path(__file__).resolve().parent / "ladders.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["ok"] for rows in out["ladders"].values() for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
