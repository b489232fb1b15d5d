"""Content, exact division, gcd and radical of F_p[X][Y] in bivar.py.

Polynomials are built from known factors, so every expected answer is
known in closed form: a quotient is the factor that was multiplied in, and
a radical is the squarefree factor that was raised to a power.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (BivarPoly, RationalFunction, UPoly, ff_make, frobrec,
                      parse_bivar)
from drinfeld.bivar import (_bivar_exact_div_y, annihilator_resultant,
                            bivar_gcd_y, bivar_radical)
from drinfeld.errors import ZeroPolynomial
from drinfeld.upoly import monic_irreducibles, upoly_gcd

PRIMES = st.sampled_from([2, 3, 5, 7])
RUN = settings(max_examples=60, deadline=None, derandomize=True)
WIDE = settings(max_examples=150, deadline=None, derandomize=True)


def _coeffs(data, p, max_deg):
    """A nonzero coefficient list, low degree first, of degree <= max_deg."""
    deg = data.draw(st.integers(0, max_deg))
    low = data.draw(st.lists(st.integers(0, p - 1), min_size=deg,
                             max_size=deg))
    return low + [data.draw(st.integers(1, p - 1))]


def _in_x(p, coeffs):
    return BivarPoly(p, {(i, 0): c for i, c in enumerate(coeffs)})


def _bivar(data, p, max_x=3, max_y=3):
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(0, max_x), st.integers(0, max_y)),
        st.integers(1, p - 1), max_size=6))
    return BivarPoly(p, terms)


def _squarefree(data, p):
    """A primitive, squarefree R0 with deg_y >= 1: a product of distinct
    factors Y - f(X), or of distinct X - f(Y^p) with f nonconstant, whose
    Y-derivative vanishes and whose radical is taken in X."""
    in_y = data.draw(st.booleans())
    count = data.draw(st.integers(1, 2))
    fs = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=1 if in_y else 2,
                 max_size=3).filter(lambda f: f[-1] != 0),
        min_size=count, max_size=count, unique_by=tuple))
    R0 = BivarPoly.monomial(p, 0, 0)
    for f in fs:
        if in_y:
            factor = BivarPoly(p, {(0, 1): 1, **{(i, 0): -c
                                                 for i, c in enumerate(f)}})
        else:
            factor = BivarPoly(p, {(1, 0): 1, **{(0, p * j): -c
                                                 for j, c in enumerate(f)}})
        R0 = R0 * factor
    return R0


def _power(P, m):
    out = P
    for _ in range(m - 1):
        out = out * P
    return out


def _up_to_unit(P, R0):
    return any(P == R0 * u for u in range(1, R0.p))


@RUN
@given(PRIMES, st.data())
def test_exact_division_returns_the_primitive_quotient(p, data):
    b = _bivar(data, p).divide_content_y()
    q = _bivar(data, p)
    if b.deg_y() < 1 or q.is_zero():
        return
    assert _bivar_exact_div_y(q * b, b) == q.divide_content_y()
    # a nonzero remainder of lower Y-degree makes q*b + r a non-multiple
    r = _bivar(data, p, max_y=b.deg_y() - 1)
    if not r.is_zero():
        try:
            _bivar_exact_div_y(q * b + r, b)
        except ZeroPolynomial as exc:
            assert "not exact" in str(exc)
        else:
            raise AssertionError("a non-multiple divided exactly")


def test_division_stops_at_a_leading_row_that_does_not_divide():
    # X*Y + 1 is primitive, and X does not divide Y's coefficient 1
    with pytest.raises(ZeroPolynomial, match="not exact"):
        _bivar_exact_div_y(parse_bivar("Y", 2), parse_bivar("X*Y+1", 2))


@RUN
@given(PRIMES, st.data())
def test_radical_of_a_power_is_its_squarefree_factor(p, data):
    R0 = _squarefree(data, p)
    m = data.draw(st.sampled_from([k for k in range(1, 5) if k % p] + [p]))
    c = _in_x(p, _coeffs(data, p, 3))
    P = c * _power(R0, m)
    assert _up_to_unit(bivar_radical(P), R0)


@pytest.mark.parametrize("text, p", [("X*Y^2+X^3+Y^2+X^2", 2),
                                     ("X*Y^3+X^4", 3)])
def test_radical_keeps_a_p_th_power_under_a_content(text, p):
    # (X+1)(Y+X)^2 and X(Y+X)^3: c(X) R0^p with c not a p-th power
    assert bivar_radical(parse_bivar(text, p)) == parse_bivar("Y+X", p)


@pytest.mark.parametrize("text, factors", [
    # (Y+1)(X+Y)^2: the square has d/dY = 0 and used to vanish with it
    ("X^2*Y+Y^3+X^2+Y^2", ("Y+1", "X+Y")),
    # (Y^2+X)(Y+1)^2 lies in F_2[X, Y^2]; Y+1 is a unit of F_2(Y)[X]
    ("Y^4+X*Y^2+Y^2+X", ("Y^2+X", "Y+1")),
])
def test_radical_in_characteristic_p(text, factors):
    expected = parse_bivar(factors[0], 2) * parse_bivar(factors[1], 2)
    assert _up_to_unit(_general_radical(parse_bivar(text, 2)), expected)


def _irreducible(data, p, kinds=("X", "Y", "linear in Y", "linear in X")):
    """A monic irreducible of F_p[X, Y]: in X alone, in Y alone, or of
    degree 1 in Y or in X over coprime coefficients, the last possibly in
    F_p[X, Y^p].  Monic: the coefficient of the top term in (Y, X) order
    is 1, so distinct ones are not unit multiples of each other."""
    F = ff_make(p, 1, 0)
    kind = data.draw(st.sampled_from(kinds))
    if kind in ("X", "Y"):
        f = data.draw(st.sampled_from(monic_irreducibles(F, 2)))
        P = _in_x(p, f.vs)
        return P if kind == "X" else P.swap()
    a, b = (UPoly(F, _coeffs(data, p, 2)) for _ in range(2))
    g = upoly_gcd(a, b)
    a, b = a // g, b // g
    if kind == "linear in Y":
        terms = {**{(i, 1): c for i, c in enumerate(a.vs)},
                 **{(i, 0): c for i, c in enumerate(b.vs)}}
        P = BivarPoly(p, terms)
    else:
        step = data.draw(st.sampled_from((1, p)))
        terms = {**{(1, j * step): c for j, c in enumerate(a.vs)},
                 **{(0, j * step): c for j, c in enumerate(b.vs)}}
        P = BivarPoly(p, terms)
    lead = P.terms[max(P.terms, key=lambda ij: (ij[1], ij[0]))]
    return P * pow(lead, -1, p)


@WIDE
@given(st.sampled_from([2, 3, 5]), st.data())
def test_radical_of_a_product_of_powers_is_the_product(p, data):
    factors = {}
    for _ in range(data.draw(st.integers(1, 3))):
        f = _irreducible(data, p)
        factors[tuple(sorted(f.terms.items()))] = f
    P = expected = BivarPoly.monomial(p, 0, 0)
    for f in factors.values():
        P = P * _power(f, data.draw(st.sampled_from([1, 2, p, p + 1])))
        if f.deg_y() > 0:  # factors in X alone are dropped
            expected = expected * f
    assert _up_to_unit(_general_radical(P), expected)


def _general_radical(P):
    """The product of P's irreducible factors that involve Y, each once, up
    to a unit, for any nonzero P: the oracle for bivar_radical, which may
    take P to be c(X)*P0^m.

    After the Y-content and the p-th roots, a squarefree step in Y, or in
    X when P lies in F_p[X, Y^p] (where the factors in Y alone are P's
    content in X), splits off part of the radical, and the coprime rest
    goes round again.
    """
    if P.is_zero():
        raise ZeroPolynomial("radical of zero")
    P = P.divide_content_y()
    while P.is_p_power() and (P.deg_x(), P.deg_y()) != (0, 0):
        P = P.p_root()
    if P.partial_y().is_zero():
        Q = P.swap()
        seen, rest = _separable_split(Q.divide_content_y())
        rest = rest * BivarPoly.from_y_coeffs(P.p, [Q.content_y()])
        seen, rest = seen.swap(), rest.swap()
    else:
        seen, rest = _separable_split(P)
    if (rest.deg_x(), rest.deg_y()) != (0, 0):
        seen = seen * _general_radical(rest)
    return seen.divide_content_y()


def _separable_split(Q):
    """(A, rest) for Q primitive in F_p[X][Y]: A is the product of the
    factors f of Q with d/dY f != 0 and multiplicity prime to p, each once,
    and rest is Q without any power of them, primitive."""
    g = bivar_gcd_y(Q, Q.partial_y())
    if g.deg_y() <= 0:
        return Q, g
    A = _bivar_exact_div_y(Q, g)
    h = bivar_gcd_y(g, A)
    while h.deg_y() > 0:
        g = _bivar_exact_div_y(g, h)
        h = bivar_gcd_y(g, h)
    return A, g


def _at(b, s):
    """b(s) for b and s in F_p(u)."""
    F = b.base
    at_s = [RationalFunction.constant(F, 0)] * 2
    for k, poly in enumerate((b.num, b.den)):
        for c in reversed(poly.vs):  # Horner
            at_s[k] = at_s[k] * s + RationalFunction.constant(F, c)
    return at_s[0] / at_s[1]


def _generator(rng, p):
    """A nonconstant element of F_p(u) in lowest terms: drawn, its p-th
    power, or drawn in F_p(w) with the Artin-Schreier w = u^p - u.  The
    drawn numerator and denominator have degree at most 2 for p = 2 and 1
    above, which keeps the resultants small."""
    F = ff_make(p, 1, 0)
    u = RationalFunction.from_poly(UPoly(F, [0, 1]))

    def drawn_poly():
        deg = rng.randint(0, 2 if p == 2 else 1)
        return UPoly(F, [rng.randrange(p) for _ in range(deg)]
                     + [rng.randrange(1, p)])

    b = RationalFunction(drawn_poly(), drawn_poly())
    if b.is_constant():
        b = b + u
    kind = rng.choice(("drawn", "p-th power", "Artin-Schreier"))
    if kind == "p-th power":
        return b.frobenius_power(1)
    if kind == "drawn":
        return b
    return _at(b, u ** p - u)


def _pair_relations(rng, p):
    """pair_annihilator on a drawn pair, the general radical of the
    resultant it read with its content in X taken out as well, and the
    exponent m of that resultant c(X)*P0^m.

    In a quarter of the pairs both generators are drawn and composed with
    u^k, k = 3 at p = 2 and 2 above, so both lie in F_p(u^k) and m is a
    multiple of k: the pairs on which the gcd in bivar_radical acts.
    """
    b1, b2 = _generator(rng, p), _generator(rng, p)
    if rng.randrange(4) == 0:
        u = RationalFunction.from_poly(UPoly(ff_make(p, 1, 0), [0, 1]))
        u_k = u ** (3 if p == 2 else 2)
        b1, b2 = _at(b1, u_k), _at(b2, u_k)
    resultants = []

    def recorded(*polys):
        resultants.append(annihilator_resultant(*polys))
        return resultants[-1]

    with mock.patch.object(frobrec, "annihilator_resultant", recorded):
        rel = frobrec.pair_annihilator(b1, b2)
    P = resultants[0]
    oracle = _general_radical(P).swap().divide_content_y().swap()
    return rel, oracle, P.divide_content_y().deg_y() // rel.deg_y()


def test_radical_of_an_annihilator_shape_is_unchanged():
    # pair_annihilator takes the radical of Res_u(N1 - X D1, N2 - Y D2),
    # which is c(X)*P0^m: on 1000 seeded pairs its relation, scalar
    # included, is the general radical's with the X-content pass
    rng = random.Random(33)
    prime_to_p = 0
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7))
        rel, oracle, m = _pair_relations(rng, p)
        assert rel.terms == oracle.terms, rel
        prime_to_p += m > 1 and m % p != 0
    # the pairs on which the gcd takes P0 out of P0^m
    assert prime_to_p >= 100


@WIDE
@given(PRIMES, st.data())
def test_radical_of_a_power_of_an_irreducible_is_unchanged(p, data):
    # c(X)*R0^m with R0 irreducible, the other shape a resultant takes
    R0 = _irreducible(data, p, kinds=("linear in Y", "linear in X"))
    m = data.draw(st.integers(1, p + 1))
    P = _in_x(p, _coeffs(data, p, 2)) * _power(R0, m)
    assert bivar_radical(P).terms == _general_radical(P).terms


def test_radical_of_a_constant_is_the_constant():
    # a constant is its own p-th root, so p-th roots must stop there
    c = BivarPoly(3, {(0, 0): 2})
    assert bivar_radical(c) == c


@RUN
@given(PRIMES, st.data())
def test_gcd_with_a_polynomial_free_of_y_is_one(p, data):
    a = _bivar(data, p)
    c = _in_x(p, _coeffs(data, p, 4))
    one = BivarPoly.monomial(p, 0, 0)
    assert bivar_gcd_y(a, c) == one
    assert bivar_gcd_y(c, a) == one


@RUN
@given(PRIMES, st.data())
def test_content_of_a_multiple_is_the_monic_multiplier(p, data):
    R0 = _squarefree(data, p)
    coeffs = _coeffs(data, p, 4)
    c = UPoly(ff_make(p, 1, 0), coeffs)
    for R in (R0, BivarPoly.monomial(p, 0, 2)):
        assert (_in_x(p, coeffs) * R).content_y() == c.monic()
