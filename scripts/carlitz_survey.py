#!/usr/bin/env python3
"""Survey Frobenius norms of Carlitz-type reductions.

For each base field F_q and every good place up to the requested degree,
reconstruct the Frobenius determinant from two disjoint prime sets and
tabulate the consistency checks.  Writes CSV to stdout or a file.
"""

import argparse
import csv
import sys

from drinfeld import carlitz_family
from drinfeld.reports import FrobeniusReport, family_norm_table, norm_rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--e", type=int, default=1)
    ap.add_argument("--max-prime-degree", type=int, default=2)
    ap.add_argument("--cap", type=int, default=24)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", default=None)
    args = ap.parse_args()

    out = open(args.output, "w", newline="") if args.output else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("p", "e") + FrobeniusReport.CSV_HEADER)
    failures = 0
    for p in args.p:
        family = carlitz_family(p, args.e, args.seed)
        table = family_norm_table(family, args.max_prime_degree,
                                  cap=args.cap, seed=args.seed)
        for ok, _, cells, _ in norm_rows(table):
            writer.writerow([p, args.e] + cells)
            failures += not ok
    if args.output:
        out.close()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
