#!/usr/bin/env python3
"""Time the finite-field layer and the F_{p^e}[t] products built on it.

Prints one JSON object mapping each field name to microseconds per
operation: `mul_us`, `add_us`, `inverse_us` and `p_power_us` (x -> x^p)
over 200 seeded random nonzero elements, and `ff_make_us`, the modulus
search from an empty field cache.  At F_{2^24}, F_{2^36} and F_{3^24},
`kernel_us` times `ore_kernel` of a seeded random operator of tau-degree 8
over the field itself: its columns and the packed Gaussian elimination
over F_p.  The row F_2^8{tau} times the twisted polynomials: `ore_mul_us`,
a product of two operators of tau-degree 19, and `ore_divmod_us`, a left
division of an operator of degree 40 by a monic one of degree 8.  The
polynomial rows F_{p^e}[t] time
`UPoly` arithmetic on the packed kernel: `mul_us`, a product of two
polynomials of degree 8, `rem_us`, such a product mod a monic
polynomial of degree 9, and `powmod_us`, a polynomial of degree 8 raised
to the power |F| mod such a monic, one round of Ben-Or's test, on the
kernel's long division.  The row `sieve_ms` times, in milliseconds,
`irreducibles_of_degree` from an empty cache (so with the lower degrees it
sieves first) at F_2 degrees 12 and 16, F_8 degree 4 and F_3 degree 8.
Each number is the best of --reps repetitions.  These are wall-clock times
on the host that runs the script, so compare them only with numbers from
the same host and session.

    python scripts/field_bench.py --reps 5
"""

import argparse
import json
import random
import sys
import timeit

from drinfeld import (OrePoly, UPoly, finitefield, ff_make, ore_divmod_left,
                      ore_kernel)
from drinfeld.upoly import irreducibles_of_degree, upoly_powmod

# F_4, F_8 and F_9 are the busiest small fields; F_65537 is a prime field
FIELDS = ((2, 2), (2, 3), (3, 2), (2, 12), (2, 24), (2, 36), (2, 40), (3, 24),
          (5, 17), (65537, 1), (65537, 2))
KERNEL_FIELDS = ((2, 24), (2, 36), (3, 24))
KERNEL_DEG = 8
POLY_FIELDS = ((2, 5), (2, 12), (3, 2), (13, 2))
POLY_DEG, MOD_DEG = 8, 9
ORE_FIELD, ORE_MUL_DEG, ORE_DIV_DEGS = (2, 8), 19, (40, 8)
SIEVES = ((2, 1, 12), (2, 1, 16), (2, 3, 4), (3, 1, 8))  # (p, e, degree)
BATCH = 200


def per_op(fn, count, reps):
    return round(min(timeit.repeat(fn, number=1, repeat=reps)) / count * 1e6,
                 2)


def bench(p, n, reps):
    F = ff_make(p, n)
    rng = random.Random(f"{p}^{n}")
    xs = [F.from_encoding(rng.randrange(1, F.size)) for _ in range(BATCH)]
    pairs = list(zip(xs, xs[1:] + xs[:1]))

    def search():
        finitefield._field.cache_clear()
        ff_make(p, n)

    row = {
        "mul_us": per_op(lambda: [a * b for a, b in pairs], BATCH, reps),
        "add_us": per_op(lambda: [a + b for a, b in pairs], BATCH, reps),
        "inverse_us": per_op(lambda: [a.inverse() for a in xs], BATCH, reps),
        "p_power_us": per_op(lambda: [a.p_power(1) for a in xs], BATCH, reps),
        "ff_make_us": per_op(search, 1, reps),
    }
    if (p, n) in KERNEL_FIELDS:
        f = OrePoly(F, xs[:KERNEL_DEG + 1])
        row["kernel_us"] = per_op(lambda: ore_kernel(f, F), 1, reps)
    return row


def bench_poly(p, e, reps):
    F = ff_make(p, e)
    rng = random.Random(f"{p}^{e}[t]")

    def poly(deg, monic=False):
        top = [F.one] if monic else [F.from_encoding(rng.randrange(1, F.size))]
        return UPoly(F, [F.from_encoding(rng.randrange(F.size))
                         for _ in range(deg)] + top)

    count = BATCH // 4
    pairs = [(poly(POLY_DEG), poly(POLY_DEG)) for _ in range(count)]
    prods = [a * b for a, b in pairs]
    mods = [poly(MOD_DEG, monic=True) for _ in range(count)]
    return {
        "mul_us": per_op(lambda: [a * b for a, b in pairs], count, reps),
        "rem_us": per_op(lambda: [c % m for c, m in zip(prods, mods)],
                         count, reps),
        "powmod_us": per_op(lambda: [upoly_powmod(a, F.size, m)
                                     for (a, _), m in zip(pairs, mods)],
                            count, reps),
    }


def bench_ore(reps):
    F = ff_make(*ORE_FIELD)
    rng = random.Random("L{tau}")

    def op(deg, monic=False):
        top = F.one if monic else F.from_encoding(rng.randrange(1, F.size))
        return OrePoly(F, [F.from_encoding(rng.randrange(F.size))
                           for _ in range(deg)] + [top])

    count = 10
    pairs = [(op(ORE_MUL_DEG), op(ORE_MUL_DEG)) for _ in range(count)]
    num, den = ORE_DIV_DEGS
    divs = [(op(num), op(den, monic=True)) for _ in range(count)]
    return {
        "ore_mul_us": per_op(lambda: [a * b for a, b in pairs], count, reps),
        "ore_divmod_us": per_op(lambda: [ore_divmod_left(a, b)
                                         for a, b in divs], count, reps),
    }


def bench_sieve(reps):
    row = {}
    for p, e, d in SIEVES:
        F = ff_make(p, e)

        def sieve():
            irreducibles_of_degree.cache_clear()
            irreducibles_of_degree(F, d)

        best = min(timeit.repeat(sieve, number=1, repeat=reps))
        row[f"F_{p}^{e} degree {d}"] = round(best * 1e3, 2)
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    results = {f"F_{p}^{n}": bench(p, n, args.reps) for p, n in FIELDS}
    p, n = ORE_FIELD
    results[f"F_{p}^{n}{{tau}}"] = bench_ore(args.reps)
    results.update({f"F_{p}^{e}[t]": bench_poly(p, e, args.reps)
                    for p, e in POLY_FIELDS})
    results["sieve_ms"] = bench_sieve(args.reps)
    print(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
