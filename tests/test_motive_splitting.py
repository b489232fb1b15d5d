"""Splitting degrees of torsion read off the motive's Frobenius, against
the walk in L{tau}, and the Frobenius product they are read from."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (DrinfeldModule, UPoly, carlitz_family, carlitz_module,
                      ff_make, family_norm_table, monic_irreducibles, motive,
                      motive_frobenius_norm, motive_matrix, reports)
from drinfeld.errors import CapExceeded, InsufficientModulus
from drinfeld.motive import motive_frobenius, motive_splitting_degree
from drinfeld.polykernel import poly_kernel
from drinfeld.torsion import splitting_degree
from drinfeld.upoly import irreducibles_of_degree
from test_motive import apply
from test_motive_norm import _benchmark_modules

# the Carlitz tables of the benchmark's carlitz_tables workload: (p, e, deg)
CARLITZ_TABLES = ((2, 1, 5), (3, 1, 2), (5, 1, 2), (2, 2, 2))


def _outcome(search, *args):
    try:
        return search(*args)
    except CapExceeded as exc:
        return str(exc)


def test_motive_frobenius_is_the_d_fold_operator(rank2_f4):
    F64 = ff_make(2, 6, 0)
    rank3 = DrinfeldModule(F64, F64.gen, [F64.one, F64.gen, F64.gen + 1])
    for E in (rank2_f4, rank3):
        M = motive_matrix(E)
        columns = []
        for j in range(E.r):
            v = tuple(UPoly.one(E.L) if i == j else UPoly.zero(E.L)
                      for i in range(E.r))
            for _ in range(E.d):
                v = apply(E, M, v)
            columns.append(v)
        A = motive_frobenius(E)
        assert A == tuple(zip(*columns))
        assert all(x.deg <= E.d for row in A for x in row)


def test_motive_walk_matches_ore_walk_on_benchmark_modules(monkeypatch):
    # every (l, n, cap) the benchmark's norm items ask, and the two rank-2
    # modules over F_8 whose prime-set search fails at cap 24
    outcomes = []
    walk = reports.motive_splitting_degree

    def both(E, ell, n, cap):
        got = _outcome(walk, E, ell, n, cap)
        assert got == _outcome(splitting_degree, E, ell, n, cap)
        outcomes.append(got)
        if isinstance(got, str):
            raise CapExceeded(got)
        return got

    monkeypatch.setattr(reports, "motive_splitting_degree", both)
    for p, e, max_deg in CARLITZ_TABLES:
        rows = family_norm_table(carlitz_family(p, e), max_deg, cap=24)
        assert all(not isinstance(rep, str) for _, rep in rows)
    for E in _benchmark_modules():
        reports.norm_report(E, cap=24)
    F8 = ff_make(2, 3, 0)
    for coeffs in ([F8.one, F8.one], [F8.gen, F8.gen + 1]):
        with pytest.raises(InsufficientModulus):
            reports.choose_prime_sets(DrinfeldModule(F8, F8.gen, coeffs),
                                      cap=24)
    degrees = [m for m in outcomes if isinstance(m, int)]
    assert len(degrees) > 300 and len(outcomes) - len(degrees) > 20


def test_norm_report_flags_match_the_checked_report():
    # norm_report states its flags by construction; frobenius_report checks
    # them from the same residues, on every benchmark place and module
    modules = []
    for p, e, max_deg in CARLITZ_TABLES:
        family = carlitz_family(p, e)
        for prime in monic_irreducibles(family.constants, max_deg):
            modules.append(family.specialize(prime)[0])
    assert len(modules) == 45
    modules += list(_benchmark_modules())
    for E in modules:
        rep = reports.norm_report(E, cap=24)
        assert rep.all_ok and rep.char_power == E.d // E.char_poly.deg
        assert rep == reports.frobenius_report(E, rep.residues, rep.s_exact)


def test_rejected_candidates_build_no_text(monkeypatch):
    # the search discards each CapExceeded, so none formats its polynomial
    F8 = ff_make(2, 3, 0)
    E = DrinfeldModule(F8, F8.gen, [F8.one, F8.one])
    texts = []
    to_text = UPoly.to_text
    monkeypatch.setattr(UPoly, "to_text",
                        lambda f, *args: texts.append(f) or to_text(f, *args))
    with pytest.raises(InsufficientModulus):
        reports.choose_prime_sets(E, cap=24)
    assert not texts
    with pytest.raises(CapExceeded) as info:
        splitting_degree(E, UPoly(E.constants, [1, 1, 1]), 1, 1)
    assert str(info.value) == "splitting degree of E[t^2+t+1] exceeds 1"
    assert len(texts) == 1


def _refuse_motive_frobenius(monkeypatch):
    def refuse(E):
        raise AssertionError("rank 1 reads its splitting degrees off s")

    monkeypatch.setattr(motive, "motive_frobenius", refuse)


def test_rank1_prime_sets_need_no_motive_frobenius(monkeypatch):
    # the 45 places of the carlitz_tables workload: the sets read off
    # ord(s mod l^n) in F_q[t] are the sets of the L{tau} walk
    modules = [family.specialize(place)[0]
               for p, e, max_deg in CARLITZ_TABLES
               for family in [carlitz_family(p, e)]
               for place in monic_irreducibles(family.constants, max_deg)]
    assert len(modules) == 45
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "motive_splitting_degree", splitting_degree)
        expected = [reports.choose_prime_sets(E, cap=24) for E in modules]
    _refuse_motive_frobenius(monkeypatch)
    assert [reports.choose_prime_sets(E, cap=24) for E in modules] == expected


def test_rank1_order_past_the_desk_bound_is_refused(monkeypatch):
    # over F_(2^8) the bound 2^40 allows m <= 5, so a prime whose
    # ord(s mod l) exceeds 5 is refused within cap 24 on both routes
    E = carlitz_module(ff_make(2, 8, 0))
    s = motive_frobenius_norm(E)

    def order(ell):
        x, m = s % ell, 1
        while x != UPoly.one(ell.base):
            x, m = x * s % ell, m + 1
        return m

    ell = next(ell for ell in monic_irreducibles(E.constants, 4)
               if ell != E.char_poly and order(ell) > 5)
    _refuse_motive_frobenius(monkeypatch)
    got = _outcome(motive_splitting_degree, E, ell, 1, 24)
    assert got == _outcome(splitting_degree, E, ell, 1, 24)
    assert "exceeds 24" in got
    with pytest.raises(CapExceeded):
        motive_splitting_degree(E, ell, 1, 24)


@st.composite
def torsion_queries(draw):
    """(E, l, n, cap): ranks 1-3 over F_2, F_3, F_4, F_8 and F_9, and F_4
    and F_9 over themselves with every twist; l of degree <= 3."""
    p, n, e = draw(st.sampled_from([(2, 1, 1), (3, 1, 1), (2, 2, 1),
                                    (2, 3, 1), (3, 2, 1), (2, 2, 2),
                                    (3, 2, 2)]))
    L = ff_make(p, n, 0)
    constants = ff_make(p, e, 0)
    r = draw(st.integers(1, 3))
    theta = L.from_encoding(draw(st.integers(0, L.size - 1)))
    coeffs = [L.from_encoding(draw(st.integers(0, L.size - 1)))
              for _ in range(r - 1)]
    coeffs.append(L.from_encoding(draw(st.integers(1, L.size - 1))))
    E = DrinfeldModule(L, theta, coeffs, constants=constants,
                       twist=draw(st.integers(0, e - 1)))
    ells = [[ell for ell in irreducibles_of_degree(constants, k)
             if ell != E.char_poly] for k in (1, 2, 3)]
    k = draw(st.sampled_from([0, 0, 1, 2]))
    ell = draw(st.sampled_from(ells[k] or ells[0]))
    return E, ell, draw(st.integers(1, 2)), draw(st.integers(1, 24))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(query=torsion_queries())
def test_motive_walk_matches_ore_walk(query):
    E, ell, n, cap = query
    assert (_outcome(motive_splitting_degree, E, ell, n, cap)
            == _outcome(splitting_degree, E, ell, n, cap))


@pytest.mark.parametrize("twist", [0, 1])
def test_motive_walk_maps_l_through_the_twisted_constants(F4, twist):
    # constants act on L as c -> c^(p^twist), so l^n enters L[t] that way
    F16 = ff_make(2, 4, 0)
    found = 0
    for coeffs in ([F16.gen, F16.one], [F16.one], [F16.one, F16.gen]):
        E = DrinfeldModule(F16, F16.gen + 1, coeffs, constants=F4,
                           twist=twist)
        ells = irreducibles_of_degree(F4, 1) + irreducibles_of_degree(F4, 2)
        for ell in (ell for ell in ells if ell != E.char_poly):
            for n in (1, 2):
                got = _outcome(motive_splitting_degree, E, ell, n, 24)
                assert got == _outcome(splitting_degree, E, ell, n, 24)
                found += isinstance(got, int)
    assert found > 10


@pytest.mark.parametrize("p", [5, 7, 13])
def test_motive_walk_matches_ore_walk_on_wide_slots(p):
    # over F_25, F_49 and F_169 the walk's residues mod l^n need slots of
    # two bytes or more once (p - 1) + (r + 1) deg(l^n) 2 (p - 1)^2 >= 2^8:
    # r products and the division's deg(l^n) sums
    L = ff_make(p, 2, 0)
    Fp = ff_make(p, 1, 0)
    rng = random.Random(p)
    widths, found = set(), 0
    for r in (1, 2):
        for _ in range(3):
            theta = L.from_encoding(rng.randrange(p, L.size))
            coeffs = [L.from_encoding(rng.randrange(L.size))
                      for _ in range(r - 1)]
            coeffs.append(L.from_encoding(rng.randrange(1, L.size)))
            E = DrinfeldModule(L, theta, coeffs, constants=Fp)
            ells = [ell for ell in list(irreducibles_of_degree(Fp, 1))
                    + rng.sample(irreducibles_of_degree(Fp, 2), 2)
                    if ell != E.char_poly]
            for ell in ells:
                for n in (1, 2):
                    widths.add(poly_kernel(L, (r + 1) * n * ell.deg).k.w)
                    got = _outcome(motive_splitting_degree, E, ell, n, 24)
                    assert got == _outcome(splitting_degree, E, ell, n, 24)
                    found += isinstance(got, int)
    assert found > 10 and max(widths) > 8
