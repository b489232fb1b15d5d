"""Batch report assembly: norm tables over families, residual tables.

Reconstruction prime sets are chosen deterministically, smallest first,
skipping torsion whose splitting extension would exceed the cap, and the
norm is computed from the union so sub-family agreement is meaningful.
"""

from __future__ import annotations

from .dmodule import DrinfeldModule
from .errors import BadReduction, CapExceeded, InsufficientModulus
from .family import DrinfeldFamily, dm_residual_frobenius_check
from .torsion import FrobeniusReport, dm_frobenius_norm, dm_torsion
from .upoly import UPoly, irreducibles_of_degree, monic_irreducibles


def choose_prime_sets(E: DrinfeldModule, cap: int = 12, seed: int = 0,
                      count: int = 2):
    """Disjoint reconstruction sets of (l, n), each of total degree > d.

    Candidates are enumerated by (degree, encoding); an l is skipped when
    its torsion does not split within the cap.  The pool grows by one
    degree until every requested set fills.
    """
    need = E.d + 1
    pool = [ell for ell in monic_irreducibles(E.constants, E.d)
            if ell != E.char_poly]
    for pool_deg in range(E.d + 1, E.d + 5):
        pool += [ell for ell in irreducibles_of_degree(E.constants, pool_deg)
                 if ell != E.char_poly]
        used = set()
        sets = []
        for _ in range(count):
            acc: list = []
            total = 0
            for ell in pool:
                if ell in used:
                    continue
                try:
                    dm_torsion(E, ell, 1, cap=cap, seed=seed)
                except CapExceeded:
                    continue
                acc.append((ell, 1))
                used.add(ell)
                total += ell.deg
                if total >= need:
                    break
            if total < need:
                for idx, (ell, n) in enumerate(acc):
                    if total >= need:
                        break
                    try:
                        dm_torsion(E, ell, 2, cap=cap, seed=seed)
                    except CapExceeded:
                        continue
                    acc[idx] = (ell, 2)
                    total += ell.deg
            if total < need:
                break
            sets.append(acc)
        if len(sets) == count:
            return sets
    raise InsufficientModulus(
        f"cannot assemble {count} reconstruction sets of degree {need} "
        f"within cap {cap}")


def place_report(family: DrinfeldFamily, prime: UPoly, cap: int = 12,
                 seed: int = 0) -> FrobeniusReport:
    """Specialize at the place and reconstruct the Frobenius norm there."""
    module, place = family.specialize(prime, seed)
    set1, set2 = choose_prime_sets(module, cap=cap, seed=seed)
    return dm_frobenius_norm(module, set1 + set2, cap=cap, seed=seed,
                             place=prime)


def family_norm_table(family: DrinfeldFamily, max_prime_degree: int,
                      cap: int = 12, seed: int = 0):
    """Rows (prime, FrobeniusReport | error string) over all good places."""
    rows = []
    for prime in monic_irreducibles(family.constants, max_prime_degree):
        if not family.is_good(prime):
            rows.append((prime, "bad reduction"))
            continue
        try:
            rows.append((prime, place_report(family, prime, cap, seed)))
        except (CapExceeded, InsufficientModulus) as exc:
            rows.append((prime, f"skipped: {exc}"))
    return rows


def residual_table(family: DrinfeldFamily, max_prime_degree: int,
                   seed: int = 0):
    """Rows (prime, k | None | error string) for the residual congruence."""
    rows = []
    for prime in monic_irreducibles(family.constants, max_prime_degree):
        try:
            rows.append((prime, dm_residual_frobenius_check(family, prime,
                                                            seed)))
        except BadReduction:
            rows.append((prime, "bad reduction"))
    return rows
