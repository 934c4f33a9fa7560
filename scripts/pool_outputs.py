#!/usr/bin/env python3
"""Digest the full output of every job in a benchmark pool.

    PYTHONPATH=src python3 scripts/pool_outputs.py --workload witt_closure --seed 1 --part 0 1

For each part K given (default 0), builds the seeded pool of
bench/workloads.py (part K > 0 is the K-th further pool of the same
mix), prints a `part K` line, runs each job through cli.main with
stdout captured, and prints one line per job: its index, verb, exit
status and the sha256 of its whole stdout.  The benchmark's oracle
checks only some keys of each output; two checkouts whose digests agree
printed byte-identical output on every job.  Compare them with diff.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402

from fusionwitt import cli  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    for part in args.part:
        print(f"part {part}")
        jobs = workloads.make_pool(args.workload, args.seed, part)
        with tempfile.TemporaryDirectory() as tmp:
            for n, argv_n in enumerate(run.write_inputs(jobs, Path(tmp) / "inputs")):
                status, output = run.run_job(cli, argv_n)
                digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
                print(f"{n:03d} {argv_n[0]} status={status} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
