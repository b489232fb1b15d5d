"""Norm reconstruction: the Frobenius norm s by either route, its report,
and every table row.

dm_frobenius_norm lifts Frobenius determinants on torsion by CRT;
norm_report reads s off the determinant motive and reports its residues
mod l^n on two prime sets, chosen smallest first among the l whose torsion
splits within the cap.  Rows are (ok, JSON object, CSV cells, text line).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dmodule import DrinfeldModule
from .errors import BadReduction, CapExceeded, InsufficientModulus
from .family import DrinfeldFamily, dm_residual_frobenius_check
from .motive import motive_frobenius_norm, motive_splitting_degree
from .torsion import _validate_ell, dm_frobenius_det, dm_torsion
from .upoly import (UPoly, irreducibles_of_degree, monic_irreducibles,
                    upoly_crt)

PRIME_SETS = 2  # the disjoint prime sets a norm report is checked on


@dataclass(frozen=True)
class FrobeniusReport:
    """Reconstruction of the Frobenius determinant as an element of F_q[t]."""

    place: UPoly | None
    d: int
    residues: tuple  # of (ell, n, s mod ell^n) entries
    s_exact: UPoly
    s_monic: UPoly
    independence: bool
    degree_ok: bool
    char_divides: bool
    char_power: int | None = field(default=None)

    @property
    def all_ok(self):
        return self.independence and self.degree_ok and self.char_divides

    def to_dict(self):
        return {
            "place": self.place.to_text("x") if self.place is not None else None,
            "d": self.d,
            "primes": [{"ell": ell.to_text(), "n": n,
                        "det": det.to_text()}
                       for ell, n, det in self.residues],
            "s": self.s_exact.to_text(),
            "s_monic": self.s_monic.to_text(),
            "independence": self.independence,
            "degree_ok": self.degree_ok,
            "char_divides": self.char_divides,
            "char_power": self.char_power,
        }

    CSV_HEADER = ("place", "d", "ells", "s", "independence", "deg_check",
                  "char_divides_check")


def _crt_lift(entries, d: int, q: int):
    """Degree-d element from residues; entries are (det, modulus) pairs."""
    total = sum(m.deg for _, m in entries)
    if total < d:
        raise InsufficientModulus(
            f"combined modulus degree {total} < place degree {d}")
    rep = upoly_crt(entries)
    if total == d:
        if q != 2:
            raise InsufficientModulus(
                "degree-d modulus pins the lift only over F_2")
        big = entries[0][1]
        for _, m in entries[1:]:
            big = big * m
        return rep + big
    return rep


def _independent(entries, s: UPoly, d: int) -> bool:
    """Whether every subset of entries with modulus degree above d lifts to s.

    A CRT lift is the unique solution below the product of its moduli, so a
    subset lifts to s exactly when s meets its congruences and deg s is
    below its degree sum; it suffices to check every congruence and the
    least subset-degree sum above d.
    """
    sums = {0}
    for _, m in entries:
        sums |= {t + m.deg for t in sums}
    above = [t for t in sums if t > d]
    if not above:
        return True
    return (s.deg < min(above)
            and all(((s - v) % m).is_zero() for v, m in entries))


def frobenius_report(E: DrinfeldModule, residues, s: UPoly,
                     place: UPoly | None = None) -> FrobeniusReport:
    """The report on s from its residues (l, n, s mod l^n), checking each
    flag: torsion residues (dm_frobenius_norm) can fail any of them."""
    d = E.d
    entries = [(det, ell ** n) for ell, n, det in residues]
    degree_ok = s.deg == d
    char_divides = not E.delta(s)
    independence = _independent(entries, s, d)
    s_monic = s.monic()

    char_power = None
    if degree_ok:
        probe, power = s_monic, 0
        while True:
            quo, rem = divmod(probe, E.char_poly)
            if not rem.is_zero():
                break
            probe, power = quo, power + 1
        if probe.deg == 0 and power > 0:
            char_power = power

    return FrobeniusReport(place=place, d=d, residues=tuple(residues),
                           s_exact=s, s_monic=s_monic,
                           independence=independence, degree_ok=degree_ok,
                           char_divides=char_divides, char_power=char_power)


def dm_frobenius_norm(E: DrinfeldModule, primes, cap: int = 12, seed: int = 0,
                      place: UPoly | None = None) -> FrobeniusReport:
    """Determinants of Frobenius on each E[l^n], CRT-assembled into F_q[t].

    primes: list of (l, n) with distinct monic irreducible l, none equal to
    the characteristic ideal.
    """
    seen = set()
    for ell, n in primes:
        _validate_ell(E, ell)
        if ell in seen:
            raise ValueError("repeated prime in reconstruction set")
        seen.add(ell)
    residues = []
    for ell, n in primes:
        T = dm_torsion(E, ell, n, cap=cap, seed=seed)
        residues.append((ell, n, dm_frobenius_det(T)[1]))
    s = _crt_lift([(det, ell ** n) for ell, n, det in residues], E.d, E.q)
    return frobenius_report(E, residues, s, place)


def choose_prime_sets(E: DrinfeldModule, cap: int = 12):
    """PRIME_SETS disjoint sets of (l, n), each of total degree > d.

    Candidates are enumerated by (degree, encoding); an l is skipped when
    E[l] does not split within the cap, which its splitting degree alone
    decides (`motive_splitting_degree`).  That degree is a multiple of the
    order of the norm s mod l^n in F_q[t], and equal to it in rank 1, so
    rank 1 decides every candidate in F_q[t], and above, a candidate whose
    order leaves the cap or the 2^40 bound costs no work over L; s is
    computed once per module and shared with norm_report.  Each pass
    admits candidates of one more degree, from d + 1 to d + 4, until every
    set fills.  A degree's candidates are listed only when a pass reaches
    it, and each (l, n) is searched at most once.
    """
    need = E.d + 1
    known: dict = {}

    def candidates(max_deg):
        for k in range(1, max_deg + 1):
            for ell in irreducibles_of_degree(E.constants, k):
                if ell != E.char_poly:
                    yield ell

    def splits(ell, n):
        if (ell, n) not in known:
            try:
                motive_splitting_degree(E, ell, n, cap)
                known[ell, n] = True
            except CapExceeded:
                known[ell, n] = False
        return known[ell, n]

    for pool_deg in range(E.d + 1, E.d + 5):
        used = set()
        sets = []
        for _ in range(PRIME_SETS):
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
        if len(sets) == PRIME_SETS:
            return sets
    raise InsufficientModulus(
        f"cannot assemble {PRIME_SETS} reconstruction sets of degree {need} "
        f"within cap {cap}")


def norm_report(E: DrinfeldModule, cap: int = 12,
                place: UPoly | None = None) -> FrobeniusReport:
    """The motive norm s = N(c)*p^(d/deg p) through its residues on the prime
    sets, whose flags hold by construction (deg s = d, p | s, sets above d)."""
    primes = [entry for prime_set in choose_prime_sets(E, cap=cap)
              for entry in prime_set]
    s = motive_frobenius_norm(E)
    residues = tuple((ell, n, s % ell ** n) for ell, n in primes)
    return FrobeniusReport(
        place, E.d, residues, s, s.monic(), independence=True,
        degree_ok=True, char_divides=True, char_power=E.d // E.char_poly.deg)


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


# ---------------------------------------------------------------------------
# table rows: (ok, JSON object, CSV cells, text line)

def report_row(rep: FrobeniusReport):
    """The row of a place's norm report."""
    place = rep.place.to_text("x")
    ells = ";".join(f"{ell.to_text()}^{n}" if n > 1 else ell.to_text()
                    for ell, n, _ in rep.residues)
    s = rep.s_exact.to_text()
    return (rep.all_ok, rep.to_dict(),
            [place, str(rep.d), ells, s, str(rep.independence).lower(),
             str(rep.degree_ok).lower(), str(rep.char_divides).lower()],
            f"{place}: s={s} independence={rep.independence} "
            f"deg={rep.degree_ok} char|s={rep.char_divides}")


def error_row(prime: UPoly, message: str):
    """The row of a place whose norm table entry is an error."""
    place = prime.to_text("x")
    return (False, {"place": place, "error": message},
            [place, "", "", message, "", "", ""], f"{place}: {message}")


def norm_rows(table):
    """The rows of a family_norm_table."""
    return [error_row(prime, rep) if isinstance(rep, str) else report_row(rep)
            for prime, rep in table]


RESIDUAL_CSV_HEADER = ("place", "k", "status")


def residual_rows(table):
    """The rows of a residual_table."""
    rows = []
    for prime, k in table:
        place = prime.to_text("x")
        ok = isinstance(k, int)
        status = "ok" if ok else str(k or "fail")
        k = k if ok else None
        rows.append((ok, {"place": place, "k": k, "status": status},
                     [place, "" if k is None else k, status],
                     f"{place}: k={k} ({status})"))
    return rows
