"""Content, exact division, gcd and radical of F_p[X][Y] in bivar.py.

Polynomials are built from known factors, so every expected answer is
known in closed form: a quotient is the factor that was multiplied in, and
a radical is the squarefree factor that was raised to a power.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import BivarPoly, UPoly, ff_make, parse_bivar
from drinfeld.bivar import _bivar_exact_div_y, bivar_gcd_y, bivar_radical
from drinfeld.errors import ZeroPolynomial

PRIMES = st.sampled_from([2, 3, 5, 7])
RUN = settings(max_examples=60, deadline=None, derandomize=True)


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
