#!/usr/bin/env python3
"""Reproduce the dimension exception scans and cross-check the oracle.

Runs the exhaustive p^a q^b c factorization scan below the two standard
bounds (1800 for arbitrary parity, 33075 for odd dimensions), prints
every exception together with whether the written-down case analysis
acknowledges it, and then compares the fast witness search against the
independent brute-force oracle on every integer up to --oracle-limit.
"""

from __future__ import annotations

import argparse
import sys
import time

from fusionwitt import classifier

# (limit, odd dimensions only) of the two standard scans
BOUNDS = ((1800, False), (33075, True))


def run_scans() -> None:
    for limit, odd_only in BOUNDS:
        start = time.perf_counter()
        report = classifier.scan_exceptions(limit, odd_only=odd_only)
        elapsed = time.perf_counter() - start
        parity = "odd dimensions" if odd_only else "all dimensions"
        print(f"=== scan below {limit} ({parity}), {elapsed:.2f}s ===")
        for n in report.exceptions:
            status = "acknowledged" if n in report.acknowledged else "NOT ACKNOWLEDGED"
            print(f"  {n}: no p^a q^b c factorization  [{status}]")
        if report.divergent:
            print(f"  divergence: enumeration finds {report.divergent} beyond the acknowledged cases")
        else:
            print("  enumeration matches the acknowledged case list")
        print()


def run_oracle(oracle_limit: int) -> bool:
    start = time.perf_counter()
    bad = []
    for n in range(1, oracle_limit + 1):
        fast = classifier.factor_paqbc(n) is not None
        slow = classifier.factorizes_oracle(n)
        if fast != slow:
            bad.append(n)
    elapsed = time.perf_counter() - start
    print(f"=== oracle agreement up to {oracle_limit}, {elapsed:.2f}s ===")
    if bad:
        print(f"  DISAGREEMENTS at {bad[:20]}{' ...' if len(bad) > 20 else ''}")
        return False
    print("  witness search and brute-force oracle agree everywhere")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--oracle-limit", type=int, default=100_000)
    parser.add_argument("--skip-oracle", action="store_true")
    args = parser.parse_args(argv)
    run_scans()
    ok = args.skip_oracle or run_oracle(args.oracle_limit)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
