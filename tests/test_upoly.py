import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (DrinfeldModule, UPoly, ff_make, monic_irreducibles,
                      parse_upoly, upoly_crt, upoly_gcd, upoly_irreducible,
                      upoly_roots, upoly_xgcd)
from drinfeld.errors import (BoundExceeded, FieldMismatch, NonCoprimeModuli,
                             ZeroPolynomial)
from drinfeld.finitefield import FFElem, FField, _pirreducible, ff_embed
from drinfeld.upoly import NEG_INF, irreducibles_of_degree, upoly_powmod
from test_dmodule import _minimal_polynomial_by_solves


def _rand_poly(field, rng, max_deg):
    return UPoly(field, [field.from_encoding(rng.randrange(field.size))
                         for _ in range(rng.randrange(max_deg + 2))])


def test_gcd_example(F2):
    x = UPoly.x(F2)
    assert upoly_gcd(x * x + x, x) == x


def test_irreducible_example(F2):
    t = UPoly.x(F2)
    assert upoly_irreducible(t * t + t + 1)
    assert not upoly_irreducible(t * t + 1)  # (t+1)^2


def test_crt_example(F2):
    t = UPoly.x(F2)
    one = UPoly.one(F2)
    r = upoly_crt([(one, t), (one, t + 1)])
    assert r == one
    # check both congruences explicitly
    assert (r % t) == one % t
    assert (r % (t + 1)) == one % (t + 1)


def test_crt_random_postcondition(F3):
    rng = random.Random(5)
    t = UPoly.x(F3)
    moduli = [t, t + 1, t * t + 1]
    for _ in range(25):
        residues = [(_rand_poly(F3, rng, 1) % m, m) for m in moduli]
        out = upoly_crt(residues)
        assert out.deg < sum(m.deg for m in moduli)
        for v, m in residues:
            assert out % m == v % m


def test_crt_rejects_common_factor(F2):
    t = UPoly.x(F2)
    with pytest.raises(NonCoprimeModuli):
        upoly_crt([(UPoly.one(F2), t), (UPoly.zero(F2), t * t)])


def test_roots_examples(F2, F4):
    x = UPoly.x(F2)
    assert [r.encode() for r in upoly_roots(x * x + x, F2)] == [0, 1]
    assert upoly_roots(x * x + x + 1, F2) == []
    roots = upoly_roots(x * x + x + 1, F4)
    w = F4.gen
    assert set(roots) == {w, w * w}


def test_roots_rejects_zero(F2):
    with pytest.raises(ZeroPolynomial):
        upoly_roots(UPoly.zero(F2), F2)


def test_degree_sentinel(F2):
    assert UPoly.zero(F2).deg == NEG_INF
    assert UPoly.zero(F2).deg < -10 ** 9


@settings(max_examples=60, deadline=None)
@given(fa=st.lists(st.integers(0, 3), max_size=4),
       fb=st.lists(st.integers(0, 3), max_size=4),
       fc=st.lists(st.integers(0, 3), max_size=4))
def test_ring_laws_f4(fa, fb, fc):
    F4 = ff_make(2, 2, 0)
    f = UPoly(F4, [F4.from_encoding(k) for k in fa])
    g = UPoly(F4, [F4.from_encoding(k) for k in fb])
    h = UPoly(F4, [F4.from_encoding(k) for k in fc])
    assert (f + g) * h == f * h + g * h
    if not f.is_zero() and not g.is_zero():
        assert (f * g).deg == f.deg + g.deg


def test_divmod_roundtrip_random(F9):
    rng = random.Random(11)
    for _ in range(60):
        a = _rand_poly(F9, rng, 5)
        b = _rand_poly(F9, rng, 3)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.deg < b.deg


def test_xgcd_bezout(F3):
    rng = random.Random(3)
    for _ in range(40):
        a, b = _rand_poly(F3, rng, 4), _rand_poly(F3, rng, 4)
        if a.is_zero() and b.is_zero():
            continue
        g, s, t = upoly_xgcd(a, b)
        assert s * a + t * b == g
        if not a.is_zero():
            assert (a % g).is_zero()


def test_monic_irreducible_counts(F2, F3):
    # over F_2: 2 linear, 1 quadratic, 2 cubic
    by_deg = {}
    for f in monic_irreducibles(F2, 3):
        by_deg.setdefault(f.deg, []).append(f)
    assert [len(by_deg[d]) for d in (1, 2, 3)] == [2, 1, 2]
    assert len([f for f in monic_irreducibles(F3, 2) if f.deg == 2]) == 3


def _monics(F, d):
    """The monic polynomials of degree d, in encoding order."""
    return [UPoly(F, coeffs[::-1] + (F.one,))
            for coeffs in product(list(F.elements()), repeat=d)]


@pytest.mark.parametrize("p, n, max_deg", [(2, 1, 8), (3, 1, 5), (2, 2, 4),
                                           (5, 1, 4)])
def test_irreducibility_matches_brute_force(p, n, max_deg):
    # oracle: f is reducible iff it is a product of two monic polynomials
    # of positive degree
    F = ff_make(p, n, 0)
    reducible = set()
    for da in range(1, max_deg // 2 + 1):
        for a in _monics(F, da):
            for db in range(da, max_deg - da + 1):
                reducible.update(a * b for b in _monics(F, db))
    for d in range(max_deg + 1):
        for f in _monics(F, d):
            expected = d >= 1 and f not in reducible
            assert upoly_irreducible(f) == expected, f
            if n == 1:
                raw = tuple(c.encode() for c in f.coeffs)
                assert _pirreducible(raw, p) == expected, raw


def _necklace(q, k):
    def mobius(m):
        out, j = 1, 2
        while m > 1:
            if m % j == 0:
                m //= j
                if m % j == 0:
                    return 0
                out = -out
            j += 1
        return out

    return sum(mobius(k // j) * q ** j for j in range(1, k + 1)
               if k % j == 0) // k


@pytest.mark.parametrize("p, n, max_deg", [(2, 1, 8), (3, 1, 6), (2, 2, 5),
                                           (5, 1, 4), (2, 1, 14), (2, 3, 5),
                                           (3, 2, 4)])
def test_irreducible_counts_match_necklace_formula(p, n, max_deg):
    F = ff_make(p, n, 0)
    for k in range(1, max_deg + 1):
        found = list(irreducibles_of_degree(F, k))
        assert len(found) == _necklace(F.size, k)
        assert all(f.deg == k and f.is_monic() for f in found)
        # same degree: encoding order is the order from the top coefficient
        codes = [[c.encode() for c in reversed(f.coeffs)] for f in found]
        assert codes == sorted(codes)


# The minimal polynomial of x over a subfield is the characteristic
# polynomial of any untwisted module with theta = x.

def test_minimal_polynomial_of_w(F2, carlitz_f4):
    t = UPoly.x(F2)
    assert carlitz_f4.char_poly == t * t + t + 1


@pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (3, 4), (5, 3), (2, 8)])
def test_minimal_polynomial_matches_linear_solves(p, n):
    sup = ff_make(p, n, 0)
    for m in (m for m in range(1, n) if n % m == 0):
        sub = ff_make(p, m, 0)
        emb = ff_embed(sub, sup)
        for elem in sup.elements():
            mp = DrinfeldModule(sup, elem, [sup.one], constants=sub).char_poly
            assert mp == _minimal_polynomial_by_solves(elem, sub, emb)
            assert mp.is_monic() and not mp.map_field(emb).eval(elem)


def test_parse_and_text_roundtrip(F3):
    f = parse_upoly("2*t^3+t+1", F3)
    assert f.deg == 3
    assert parse_upoly(f.to_text(), F3) == f


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2),
                                 (7, 2)])
def test_text_parses_back_over_every_field(p, n):
    # over F_(p^n), n > 1, to_text writes coefficients as [c_0,...,c_(n-1)]
    F = ff_make(p, n, 0)
    rng = random.Random(p ** n)
    for _ in range(40):
        f = _rand_poly(F, rng, 5)
        assert parse_upoly(f.to_text(), F) == f
    # terms sum in F, and -(p-1)x = x
    assert parse_upoly("[1]*t+2*t-t", F) == UPoly(F, [0, 2])
    if n > 1:
        assert parse_upoly(f"-[0,{p - 1}]+t^2", F) == UPoly(F, [F.gen, 0, 1])


def test_powmod_matches_repeated_multiplication(F3):
    m = parse_upoly("t^4+2*t+2", F3)
    a = parse_upoly("2*t^5+t^2+1", F3)
    b = parse_upoly("t+2", F3)
    acc, acc_b = UPoly.one(F3), UPoly.one(F3)
    for e in range(71):
        assert upoly_powmod(a, e, m) == acc % m
        assert b ** e == acc_b
        acc, acc_b = (acc * a) % m, acc_b * b


def test_own_field_coefficients_need_no_field_comparison(F4, monkeypatch):
    calls = []
    eq = FField.__eq__
    monkeypatch.setattr(FField, "__eq__",
                        lambda a, b: calls.append(1) or eq(a, b))
    UPoly(F4, [F4.gen, 1, [1, 1], F4.zero, F4.one])
    parse_upoly("t^300+t", F4)
    assert calls == []


@pytest.mark.parametrize("where", [0, 1, 2])
def test_a_foreign_coefficient_raises_wherever_it_sits(F4, where):
    F8 = ff_make(2, 3, 0)
    for foreign in (F8.one, F8.zero):
        coeffs = [F4.one, F4.gen, F4.one]
        coeffs[where] = foreign
        with pytest.raises(FieldMismatch):
            UPoly(F4, coeffs)


@pytest.mark.parametrize("p, n, max_deg", [(2, 1, 10), (3, 1, 6), (2, 2, 5),
                                           (5, 1, 4), (7, 1, 3), (2, 3, 3),
                                           (3, 2, 3)])
def test_sieve_matches_ben_or(p, n, max_deg):
    F = ff_make(p, n, 0)
    for k in range(1, max_deg + 1):
        ben_or = [f for f in _monics(F, k) if upoly_irreducible(f)]
        assert list(irreducibles_of_degree(F, k)) == ben_or


def test_sieve_beyond_the_scan_limit_fails_fast(F2, F3):
    # 2^22 and 3^14 candidates: no table of that size is built
    for F, k in ((F2, 22), (F3, 14)):
        with pytest.raises(BoundExceeded, match="too many to sieve"):
            irreducibles_of_degree(F, k)


def test_dividing_by_a_monic_polynomial_inverts_nothing(F3, F4, monkeypatch):
    calls = []
    inverse = FFElem.inverse
    monkeypatch.setattr(FFElem, "inverse",
                        lambda c: calls.append(c) or inverse(c))
    m = parse_upoly("t^4+2*t+2", F3)
    a = parse_upoly("2*t^9+t^5+t^2+1", F3)
    q, r = divmod(a, m)
    assert q * m + r == a and r.deg < m.deg
    f = UPoly(F4, [F4.gen, F4.one, F4.one])
    assert upoly_powmod(UPoly.x(F4), 4 ** 5, f) == UPoly.x(F4) ** 4 ** 5 % f
    assert calls == []
    q2, r2 = divmod(a, m * 2)
    assert (q2 * 2, r2) == (q, r) and len(calls) == 1


def _routes(F, a, b, rng):
    """(name, polynomial) pairs that all equal a, built in different ways."""
    x = UPoly.x(F)
    c = (_rand_poly(F, rng, 4) + x ** 5) * F.from_encoding(F.size - 1)
    if F.n == 1:  # residue ints, not reduced
        ints = [c.v + F.p * rng.randrange(3) for c in a.coeffs]
    else:
        ints = [c.to_list() for c in a.coeffs]
    return [
        ("elements", UPoly(F, a.coeffs)),
        ("ints", UPoly(F, ints)),
        ("trailing zeros", UPoly(F, a.coeffs + (F.zero, 0, [0]))),
        ("product", a * UPoly.one(F)),
        ("quotient", divmod(a * b, b)[0] if b else a),
        ("remainder", (a + c * b) % c),  # deg a < deg c = 5
        ("powmod", upoly_powmod(a + c, 1, c)),
        ("cancelled sum", (a + c) - c),
        ("cancelled top", (a + x ** 9) - x ** 9),
        ("negation", -(-a)),
    ]


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (3, 2), (13, 2)])
def test_equal_polynomials_compare_and_hash_equal_however_built(p, n):
    F = ff_make(p, n, 0)
    rng = random.Random(f"format {p}^{n}")
    for _ in range(25):
        a, b = _rand_poly(F, rng, 4), _rand_poly(F, rng, 3)
        for name, f in _routes(F, a, b, rng):
            assert f == a and hash(f) == hash(a), name
            assert f.deg == a.deg and type(f) is UPoly, name
            # the stored coefficients are element ints, never FFElems
            assert all(type(v) is int for v in f.vs), name
            assert not f.vs or f.vs[-1], name


def test_coefficients_round_trip(F9):
    rng = random.Random(9)
    for _ in range(30):
        a = _rand_poly(F9, rng, 6)
        assert UPoly(F9, a.coeffs) == a
        assert UPoly(F9, a.coeffs).coeffs == a.coeffs
        assert all(isinstance(c, FFElem) and c.field is F9 for c in a.coeffs)
        assert [a.coeff(i) for i in range(len(a.coeffs))] == list(a.coeffs)
        assert a.coeff(-1) == a.coeff(len(a.coeffs)) == F9.zero
        if a:
            assert (a.leading(), a.constant()) == (a.coeffs[-1], a.coeffs[0])
        assert UPoly(F9, [c.to_list() for c in a.coeffs]).to_lists() == \
            a.to_lists()
