"""Batch report assembly: norm tables over families, residual tables.

Reconstruction prime sets are chosen deterministically, smallest first,
skipping l whose torsion does not split within the cap.  The norm itself
comes from the determinant motive; each printed per-l determinant is its
residue, and deg s is below the moduli's degree sum, so they lift to s.
"""

from __future__ import annotations

from .dmodule import DrinfeldModule
from .errors import (BadReduction, CapExceeded, InsufficientModulus,
                     InvariantError)
from .family import DrinfeldFamily, dm_residual_frobenius_check
from .motive import (motive_frobenius, motive_frobenius_norm,
                     motive_splitting_degree)
from .torsion import FrobeniusReport, frobenius_report
from .upoly import UPoly, irreducibles_of_degree, monic_irreducibles


def choose_prime_sets(E: DrinfeldModule, cap: int = 12, count: int = 2):
    """Disjoint reconstruction sets of (l, n), each of total degree > d.

    Candidates are enumerated by (degree, encoding); an l is skipped when
    E[l] does not split within the cap, which its splitting degree alone
    decides, read off the motive's Frobenius.  Each pass admits candidates
    of one more degree, from d + 1 to d + 4, until every requested set
    fills.  A degree's candidates are listed only when a pass reaches it,
    and each (l, n) is searched at most once.
    """
    need = E.d + 1
    frob = motive_frobenius(E)
    known: dict = {}

    def candidates(max_deg):
        for k in range(1, max_deg + 1):
            for ell in irreducibles_of_degree(E.constants, k):
                if ell != E.char_poly:
                    yield ell

    def splits(ell, n):
        if (ell, n) not in known:
            try:
                motive_splitting_degree(E, frob, ell, n, cap)
                known[ell, n] = True
            except CapExceeded:
                known[ell, n] = False
        return known[ell, n]

    for pool_deg in range(E.d + 1, E.d + 5):
        used = set()
        sets = []
        for _ in range(count):
            acc: list = []
            total = 0
            for ell in candidates(pool_deg):
                if ell in used or not splits(ell, 1):
                    continue
                acc.append((ell, 1))
                used.add(ell)
                total += ell.deg
                if total >= need:
                    break
            for idx, (ell, n) in enumerate(acc):
                if total >= need:
                    break
                if splits(ell, 2):
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


def norm_report(E: DrinfeldModule, cap: int = 12,
                place: UPoly | None = None) -> FrobeniusReport:
    """The motive norm, reported through its residues on two prime sets."""
    set1, set2 = choose_prime_sets(E, cap=cap)
    s = motive_frobenius_norm(E)
    if s.deg >= sum(n * ell.deg for ell, n in set1 + set2):
        raise InvariantError("CRT lift of the motive residues is not the norm")
    return frobenius_report(E, [(ell, n, None, s % ell ** n)
                                for ell, n in set1 + set2], s, place)


def place_report(family: DrinfeldFamily, prime: UPoly, cap: int = 12,
                 seed: int = 0) -> FrobeniusReport:
    """Specialize at the place and compute the Frobenius norm there."""
    module, _ = family.specialize(prime, seed)
    return norm_report(module, cap=cap, place=prime)


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
