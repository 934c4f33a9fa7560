#!/usr/bin/env python3
"""Certify Frobenius-Perron dimensions for every bundled fusion ring.

For each corpus ring this prints the float Perron estimates next to the
exact integer certificates (d^2 = s verified by a Bareiss determinant:
det(L - t I) = 0 for s = t^2, else det(L^2 - s I) = 0), the exact global
dimension when it exists, and the verdict
the dimension criteria assign.  Rings with irrational dimensions, like
the Fibonacci ring, show up with missing certificates rather than
near-miss integers.
"""

from __future__ import annotations

import argparse
import sys

from fusionwitt import classifier, cli, corpus, fpdim


def run(args: argparse.Namespace) -> None:
    for name in args.names or corpus.names(".fr"):
        ring = cli.parse_ring_file(corpus.path(name))
        data = fpdim.fp_dim_data(ring, tolerance=args.tolerance)
        print(f"=== {name} (rank {ring.rank}) ===")
        for label, dim, cert in zip(ring.labels, data.dims, data.exact_square):
            mark = f"d^2 = {cert}" if cert is not None else "no certificate"
            print(f"  {label:8s} d = {dim:.12f}   {mark}")
        total = f"{data.total:.12f}"
        if data.total_exact is not None:
            total += f" = {data.total_exact} exactly"
        print(f"  total {total}")
        print(f"  integral={data.integral} weakly_integral={data.weakly_integral}")
        verdict = classifier.verdict_ring(ring, data)
        print(f"  verdict: {verdict.kind.value} -- {verdict.notes}")
        print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=1e-12)
    parser.add_argument("names", nargs="*", help="corpus ring files, e.g. ising.fr (default: all)")
    run(parser.parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
