#!/usr/bin/env python3
"""Tabulate the Witt subgroups generated by the bundled p-groups.

For each requested prime this script collects the nondegenerate corpus
metric groups whose order is a power of that prime, closes their pointed
Witt classes under multiplication, and prints the resulting subgroup:
order, invariant factors, one line per class, and the full product
table.  With the bundled corpus the 2-part closes to Z2 x Z8 and the
3-part to Z4.
"""

from __future__ import annotations

import argparse
import sys
import time

from fusionwitt import cli, corpus, witt
from fusionwitt.arith import factorize
from fusionwitt.metric_group import metric_group


def corpus_generators(args: argparse.Namespace, p: int):
    found = []
    for name in corpus.names(".mg") + args.extra:
        path = name if name in args.extra else corpus.path(name)
        orders, diag, cross = cli.parse_metric_file(path)
        mg = metric_group(orders, diag, cross)
        if not mg.nondegenerate or mg.size > args.max_order:
            continue
        if set(factorize(mg.size)) == {p}:
            found.append((name, mg))
    return found


def run(args: argparse.Namespace) -> None:
    for p in args.primes:
        gens = corpus_generators(args, p)
        print(f"=== p = {p}: {len(gens)} generators ===")
        for name, mg in gens:
            print(f"  {name}: orders {mg.orders}")
        if not gens:
            print("  (nothing to do)")
            continue
        start = time.perf_counter()
        classes = [witt.pointed_witt_class(mg) for _, mg in gens]
        subgroup = witt.generated_subgroup(classes, cap=args.closure_cap)
        elapsed = time.perf_counter() - start
        print(f"  subgroup order {subgroup.order}, invariant factors {subgroup.invariant_factors},"
              f" group {subgroup.name()}  ({elapsed:.2f}s)")
        for i, cls in enumerate(subgroup.elements):
            print(f"  [{i:2d}] {cli.describe_class(cls)}")
        if not args.no_table:
            print("  product table:")
            for row in subgroup.table:
                print("   ", " ".join(f"{x:2d}" for x in row))
        print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5])
    parser.add_argument("--max-order", type=int, default=16,
                        help="largest generator group to include")
    parser.add_argument("--closure-cap", type=int, default=None)
    parser.add_argument("--no-table", action="store_true")
    parser.add_argument("--extra", nargs="*", default=[],
                        help="additional metric group files to include as generators")
    run(parser.parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
