"""Splitting degrees read off the group exponent of (F_q[t]/l^n)^*, and the
rank-1 prime sets decided a degree at a time, against the walks and the
greedy search they replace."""

import random

import pytest

from drinfeld import (DrinfeldModule, carlitz_family, ff_make,
                      monic_irreducibles, reports)
from drinfeld.errors import CapExceeded, InsufficientModulus, NotFound
from drinfeld.motive import motive_frobenius_norm, motive_splitting_degree
from drinfeld.ore import exponent_order, frobenius_order
from drinfeld.polykernel import poly_kernel
from drinfeld.torsion import splitting_degree
from drinfeld.upoly import UPoly, irreducibles_of_degree

ORDER_CAPS = (1, 5, 24)
SET_CAPS = (5, 12, 24)


def _outcome(search, *args):
    try:
        return search(*args)
    except (CapExceeded, InsufficientModulus) as exc:
        return type(exc).__name__, str(exc)


def _walk_order(E, ell, n, cap):
    """The splitting degree in rank 1 by the order walk s, s^2, ... mod l^n
    in UPoly arithmetic, under splitting_degree's guards."""
    s = motive_frobenius_norm(E)

    def walk(lam):
        return frobenius_order(lambda v: v * s % lam, UPoly.one(lam.base),
                               E.L.size, cap)

    return splitting_degree(E, ell, n, cap, walk)


@pytest.mark.parametrize("size", [3, 7, 31, 256, 3 ** 10, 2 ** 40])
def test_exponent_order_matches_the_walk_in_units_mod_a_prime(size):
    # G_m: x in (Z/l)^* has order dividing l - 1; every x of a few primes l,
    # every cap, and field sizes that make the 2^40 bound bite at m = 1..25
    rng = random.Random(size)
    for ell in (2, 3, 13, 29, 97, 241, 65537):
        for x in rng.sample(range(1, ell), min(ell - 1, 12)):
            for cap in (0, 1, 2, 5, 12, 24, 60):
                expect = _outcome_found(frobenius_order,
                                        lambda v: v * x % ell, 1, size, cap)
                got = _outcome_found(exponent_order,
                                     lambda m: pow(x, m, ell) == 1,
                                     ell - 1, size, cap)
                assert got == expect, (ell, x, cap)


def _outcome_found(search, *args):
    try:
        return search(*args)
    except NotFound:
        return None


def _rank1_modules():
    """Rank-1 modules with constants F_2, F_3, F_4, F_5, F_8 and F_9, over
    the constants and over an extension of degree 2 or 3."""
    rng = random.Random(35)
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)):
        constants = ff_make(p, e, 0)
        for d in (1, 2, 3):
            if (p ** e) ** d > 2 ** 12:
                continue
            L = ff_make(p, e * d, 0)
            theta = L.from_encoding(rng.randrange(1, L.size))
            coeff = L.from_encoding(rng.randrange(1, L.size))
            yield DrinfeldModule(L, theta, [coeff], constants=constants)


def test_divisor_test_matches_the_order_walk():
    # the exact order of s mod l^n, or the same refusal, for l of degree
    # <= 4 (a sample of each degree), n = 1, 2, 3 and caps 1, 5, 24
    rng = random.Random(0)
    found = refused = 0
    for E in _rank1_modules():
        for k in (1, 2, 3, 4):
            ells = [ell for ell in irreducibles_of_degree(E.constants, k)
                    if ell != E.char_poly]
            for ell in rng.sample(ells, min(len(ells), 3)):
                for n in (1, 2, 3):
                    for cap in ORDER_CAPS:
                        expect = _outcome(_walk_order, E, ell, n, cap)
                        got = _outcome(motive_splitting_degree, E, ell, n,
                                       cap)
                        assert got == expect, (E, ell, n, cap)
                        found += isinstance(got, int)
                        refused += not isinstance(got, int)
    assert found > 250 and refused > 250


def _oracle_prime_sets(E, cap, orders):
    """choose_prime_sets as it was before the degree gcd: the greedy over
    every candidate, each decided by the order walk of s mod l^n on packed
    remainders.  The walk runs once per (l, n) at the largest cap, into
    orders, shared by the smaller caps: it finds m within a cap exactly
    when it finds m within the largest and m <= cap."""
    need, top = E.d + 1, max(SET_CAPS)
    known = {}
    s = motive_frobenius_norm(E)

    def walk(lam):
        kernel = poly_kernel(E.constants, 2 * lam.deg)
        div = kernel.divisor(lam.vs)

        def rem(v):
            return kernel.divide(v, div)[1]

        g = rem(kernel.pack(s.vs))
        return frobenius_order(lambda v: rem(v * g), 1, E.L.size, top)

    def order(ell, n):
        if (ell, n) not in orders:
            try:
                orders[ell, n] = splitting_degree(E, ell, n, top, walk)
            except CapExceeded:
                orders[ell, n] = None
        return orders[ell, n]

    def candidates(max_deg):
        for k in range(1, max_deg + 1):
            for ell in irreducibles_of_degree(E.constants, k):
                if ell != E.char_poly:
                    yield ell

    def splits(ell, n):
        if (ell, n) not in known:
            m = order(ell, n)
            known[ell, n] = m is not None and m <= cap
        return known[ell, n]

    for pool_deg in range(E.d + 1, E.d + 5):
        used = set()
        sets = []
        for _ in range(reports.PRIME_SETS):
            acc = []
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
        if len(sets) == reports.PRIME_SETS:
            return sets
    raise InsufficientModulus(
        f"cannot assemble {reports.PRIME_SETS} reconstruction sets of "
        f"degree {need} within cap {cap}")


@pytest.mark.parametrize("p, e, max_deg, step", [
    (2, 1, 7, 1), (3, 1, 3, 1), (2, 2, 3, 1), (5, 1, 3, 1), (7, 1, 2, 1),
    (2, 3, 2, 28)])
def test_prime_sets_match_the_greedy_over_every_candidate(p, e, max_deg,
                                                          step):
    # every Carlitz place of degree <= max_deg over F_(p^e), caps 5, 12, 24:
    # the same sets, or the same error.  Of the top degree, every step-th
    # place: each quadratic place over F_8 fails, and the greedy walks all
    # 43596 sextics for it (3 s a place)
    family = carlitz_family(p, e)
    places = monic_irreducibles(family.constants, max_deg)
    top = [P for P in places if P.deg == max_deg]
    outcomes = []
    for place in [P for P in places if P.deg < max_deg] + top[::step]:
        E = family.specialize(place)[0]
        orders = {}
        for cap in SET_CAPS:
            expect = _outcome(_oracle_prime_sets, E, cap, orders)
            assert _outcome(reports.choose_prime_sets, E, cap) == expect
            outcomes.append(expect)
    assert any(isinstance(got, list) for got in outcomes)


def test_rank1_prime_sets_reach_past_d_plus_1_by_the_degree_gcd(monkeypatch):
    # the Carlitz place x^6+x^5+1 over F_2 (d = 6): the second set needs a
    # prime of degree 8 = d + 2, which the degree gcd admits unsearched
    family = carlitz_family(2)
    place = next(P for P in monic_irreducibles(family.constants, 6)
                 if P.to_text("x") == "x^6+x^5+1")
    E = family.specialize(place)[0]
    searched = []
    search = reports.motive_splitting_degree

    def recording(E, ell, n, cap):
        searched.append(ell.deg)
        return search(E, ell, n, cap)

    monkeypatch.setattr(reports, "motive_splitting_degree", recording)
    sets = reports.choose_prime_sets(E, cap=24)
    assert [[(ell.to_text(), n) for ell, n in acc] for acc in sets] == [
        [("t", 1), ("t+1", 1), ("t^2+t+1", 1), ("t^4+t^3+1", 1)],
        [("t^4+t^3+t^2+t+1", 1), ("t^8+t^6+t^5+t^2+1", 1)]]
    assert searched and max(searched) <= E.d + 1


def test_a_failing_rank1_search_lists_no_degree_the_gcd_rules_out(
        monkeypatch):
    # the rank-1 module over F_64 with F_8 constants (d = 2) fails at cap
    # 24; degrees 5 and 6 (262144 monic sextics) have no splitting prime
    E = DrinfeldModule.from_dict(
        {"field": {"p": 2, "n": 6, "modulus": [1, 1, 0, 0, 0, 0, 1]},
         "theta": [0, 1, 0, 0, 0, 0], "coeffs": [[1, 0, 0, 0, 0, 0]],
         "e": 3})
    listed = []
    listing = reports.irreducibles_of_degree
    monkeypatch.setattr(reports, "irreducibles_of_degree",
                        lambda base, k: listed.append(k) or listing(base, k))
    with pytest.raises(InsufficientModulus,
                       match="sets of degree 3 within cap 24"):
        reports.choose_prime_sets(E, cap=24)
    assert max(listed) == 4
