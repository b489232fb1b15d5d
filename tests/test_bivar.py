"""Content and gcd of F_p[X][Y] in bivar.py, and the pair relation of
frobrec.pair_annihilator against a second route.

The second route is the resultant: Res_u(N1 - X D1, N2 - Y D2) by
evaluation and interpolation, which is c(X)*P0^m, then P0 by one gcd.  It
lives here as the oracle, with tests of its own.  Polynomials are built from known factors, so every
expected answer is known in closed form: a quotient is the factor that was
multiplied in, and a radical is the squarefree factor that was raised to a
power.
"""

import functools
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (BivarPoly, RationalFunction, UPoly, ff_embed,
                      ff_generator, ff_make, frobrec, parse_bivar)
from drinfeld.bivar import _primitive, bivar_gcd_y
from drinfeld.errors import InvariantError, ZeroPolynomial
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


# ---------------------------------------------------------------------------
# the oracle: resultant by interpolation, then the radical by one gcd

def _swap(P):
    return BivarPoly(P.p, {(j, i): c for (i, j), c in P.terms.items()})


def _p_root(P):
    """The p-th root of P in F_p[X^p, Y^p]: coefficients of F_p are their
    own p-th powers."""
    return BivarPoly(P.p, {(i // P.p, j // P.p): c
                           for (i, j), c in P.terms.items()})


def _divide_content_y(P):
    """The primitive part in F_p[X][Y]; zero stays zero."""
    return BivarPoly.from_y_coeffs(P.p, _primitive(P.y_coeffs()))


@functools.lru_cache(maxsize=None)
def _field_ops(base):
    """(mul, inv, add, sub) on the element ints of a small field: products
    and inverses by discrete-log tables, sums by the field."""
    order, g = base.size - 1, ff_generator(base)
    exp, x = [], base.one
    for _ in range(order):
        exp.append(x.v)
        x = x * g
    log = {v: i for i, v in enumerate(exp)}

    def mul(a, b):
        return exp[(log[a] + log[b]) % order] if a and b else 0

    def inv(a):
        return exp[-log[a] % order]
    return mul, inv, base._add, base._sub


def _lagrange_interpolator(xs, base):
    """ys -> the coefficients, low to high and len(xs) of them, of the
    polynomial of degree < len(xs) through (x_i, y_i).  Points and values
    are element ints of base.

    The Lagrange basis is built once; each interpolant combines it linearly.
    """
    mul, inv, add, sub = _field_ops(base)
    full = [1]
    for xi in xs:  # full times (x - x_i)
        full = [sub(hi, mul(xi, lo)) for hi, lo in zip([0] + full, full + [0])]
    basis = []
    for xi in xs:
        # the basis numerator prod_{j != i} (x - x_j), by synthetic
        # division, scaled to 1 at x_i
        num = [full[-1]]
        for c in reversed(full[1:-1]):
            num.append(add(c, mul(xi, num[-1])))
        num.reverse()
        at_xi = 0
        for c in reversed(num):
            at_xi = add(c, mul(xi, at_xi))
        scale = inv(at_xi)
        basis.append([mul(c, scale) for c in num])

    def interpolate(ys):
        out = [0] * len(xs)
        for y, row in zip(ys, basis):
            if y:
                out = [add(o, mul(y, c)) for o, c in zip(out, row)]
        return out
    return interpolate


def _upoly_resultant(base, f, g):
    """Resultant of coefficient lists of element ints, low to high, with
    nonzero leading entries, via the Euclidean recurrence: an element int."""
    mul, inv, _, sub = _field_ops(base)
    res = 1
    a, b = list(f), list(g)
    while len(b) > 1:
        r, lead, db = list(a), inv(b[-1]), len(b) - 1
        for s in range(len(r) - 1, db - 1, -1):
            q = mul(r[s], lead)
            if q:
                for t in range(db):
                    r[s - db + t] = sub(r[s - db + t], mul(q, b[t]))
        del r[db:]
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        for _ in range(len(a) - len(r)):
            res = mul(res, b[-1])
        if (len(a) - 1) * db % 2:
            res = base._neg(res)
        a, b = b, r
    for _ in range(len(a) - 1):
        res = mul(res, b[0])
    return res


def _annihilator_resultant(num_x, den_x, num_y, den_y):
    """Res_u(num_x - X den_x, num_y - Y den_y) as a bivariate polynomial.

    Computed by evaluation at enough specialization points (chosen so the
    u-degrees do not drop) followed by two-stage Lagrange interpolation.
    """
    base = num_x.base
    p = base.p
    n1 = max(num_x.deg, den_x.deg)
    n2 = max(num_y.deg, den_y.deg)
    need = max(n1, n2) + 3
    s = 1
    while p ** s < need + 2:
        s += 1
    F = ff_make(p, s, 0)
    emb = ff_embed(base, F)

    def specializations(num, den, degree, count):
        """(v, num - v den) as element ints for the first count points v,
        in encoding order, that keep the degree."""
        num, den = num.map_field(emb), den.map_field(emb)
        points = map(F.from_encoding, range(F.size))
        return list(islice(((v.v, f.vs) for v, f in
                            ((v, num - den * v) for v in points)
                            if f.deg == degree), count))

    xs = specializations(num_x, den_x, n1, n2 + 1)
    ys = specializations(num_y, den_y, n2, n1 + 1)
    # interpolate in Y for each x, then in X coefficientwise
    in_y = _lagrange_interpolator([v for v, _ in ys], F)
    in_x = _lagrange_interpolator([v for v, _ in xs], F)
    y_polys = [in_y([_upoly_resultant(F, fx, gy) for _, gy in ys])
               for _, fx in xs]
    terms = {}
    for j, col in enumerate(zip(*y_polys)):
        for i, c in enumerate(in_x(col)):
            # an element int below p is its residue in the prime field
            if c >= p:
                raise InvariantError(
                    "resultant coefficient fell outside the prime field")
            terms[(i, j)] = c
    return BivarPoly(p, terms)


def _bivar_exact_div_y(a, b):
    """a / b in F_p[X][Y] with its Y-content removed.

    b is primitive (it comes from bivar_gcd_y), so by Gauss's lemma it
    divides a in F_p[X][Y] as soon as it does in F_p(X)[Y]: every quotient
    row is an exact quotient in F_p[X] by b's leading row.
    """
    rem, fb = a.y_coeffs(), b.y_coeffs()
    db = len(fb) - 1
    quot = [None] * max(len(rem) - db, 0)
    for shift in reversed(range(len(quot))):
        q, r = divmod(rem[shift + db], fb[-1])
        if not r.is_zero():
            raise ZeroPolynomial("division was not exact")
        quot[shift] = q
        for k in range(db):
            rem[shift + k] = rem[shift + k] - q * fb[k]
    if any(not c.is_zero() for c in rem[:db]):
        raise ZeroPolynomial("division was not exact")
    return BivarPoly.from_y_coeffs(a.p, _primitive(quot))


def bivar_radical(P):
    """P0, primitive in F_p[X][Y], for P = c(X)*P0^m with P0 irreducible
    and involving Y, the shape of every resultant of a pair: Res_u(N1 -
    X D1, N2 - Y D2) is, up to a factor in X, the norm of b2 - Y from F_p(u)
    to F_p(b1), the m-th power of b2's minimal polynomial.

    After the Y-content and the p-th roots, P is P0^m with p prime to m,
    and P / gcd(P, dP) is P0, with d taken in Y, or in X when P lies in
    F_p[X, Y^p]: P0 is no p-th power, so then d/dX P0 != 0.
    """
    if P.is_zero():
        raise ZeroPolynomial("radical of zero")
    P = _divide_content_y(P)
    while P.is_p_power() and (P.deg_x(), P.deg_y()) != (0, 0):
        P = _p_root(P)
    swap = P.partial_y().is_zero()
    Q = _swap(P) if swap else P
    g = bivar_gcd_y(Q, Q.partial_y())
    if g.deg_y() > 0:
        Q = _bivar_exact_div_y(Q, g)
    # primitive in Y: P is, so is every factor of P, the quotient included
    return _swap(Q) if swap else Q


def _lagrange_interpolate(points, base):
    vs = _lagrange_interpolator([x.v for x, _ in points], base)(
        [y.v for _, y in points])
    return UPoly._of(base, vs)


def test_lagrange_interpolation(F9):
    pts = [(F9.from_encoding(k), F9.from_encoding(k) ** 3 + F9.one)
           for k in range(4)]
    f = _lagrange_interpolate(pts, F9)
    assert all(f.eval(x) == y for x, y in pts)
    assert f.deg <= 3
    rng = random.Random(5)
    for size in range(1, 10):
        pts = [(F9.from_encoding(k), F9.from_encoding(rng.randrange(9)))
               for k in rng.sample(range(9), size)]
        f = _lagrange_interpolate(pts, F9)
        assert all(f.eval(x) == y for x, y in pts)
        assert f.deg < size


def _resultant(f, g):
    return _upoly_resultant(f.base, f.vs, g.vs)


def test_resultant_vanishes_iff_common_root(F4):
    x = UPoly.x(F4)
    w = F4.gen
    f = (x - w) * (x - F4.one)
    g = x - w
    assert not _resultant(f, g)
    h = x - w * w
    assert _resultant(f, h)


def test_resultant_is_the_product_over_roots(F9):
    # Res(f, g) = lc(f)^deg g * prod g(a) over the roots a of f, which
    # F9's elements list when f splits there
    rng = random.Random(9)
    elems = [F9.from_encoding(k) for k in range(9)]
    for _ in range(40):
        roots = [rng.choice(elems) for _ in range(rng.randrange(1, 4))]
        lead = rng.choice(elems[1:])
        f = UPoly(F9, [lead])
        for a in roots:
            f = f * UPoly(F9, [-a, F9.one])
        g = _rand_upoly(F9, rng)
        if g.is_zero():
            continue
        expected = lead ** max(g.deg, 0)
        for a in roots:
            expected = expected * g.eval(a)
        assert _resultant(f, g) == expected.v


def _rand_upoly(F, rng):
    return UPoly(F, [F.from_encoding(rng.randrange(F.size))
                     for _ in range(rng.randrange(1, 5))])


@RUN
@given(PRIMES, st.data())
def test_exact_division_returns_the_primitive_quotient(p, data):
    b = _divide_content_y(_bivar(data, p))
    q = _bivar(data, p)
    if b.deg_y() < 1 or q.is_zero():
        return
    assert _bivar_exact_div_y(q * b, b) == _divide_content_y(q)
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
        return P if kind == "X" else _swap(P)
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
    P = _divide_content_y(P)
    while P.is_p_power() and (P.deg_x(), P.deg_y()) != (0, 0):
        P = _p_root(P)
    if P.partial_y().is_zero():
        Q = _swap(P)
        seen, rest = _separable_split(_divide_content_y(Q))
        rest = rest * BivarPoly.from_y_coeffs(P.p, [Q.content_y()])
        seen, rest = _swap(seen), _swap(rest)
    else:
        seen, rest = _separable_split(P)
    if (rest.deg_x(), rest.deg_y()) != (0, 0):
        seen = seen * _general_radical(rest)
    return _divide_content_y(seen)


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


def _oracle_relation(b1, b2):
    """P0 by the resultant pipeline, scaled monic in its largest (deg_Y,
    deg_X) term, the exponent m of the resultant c(X)*P0^m, and the
    Lueroth degrees (n1, n2) of the pair after its shared p-th roots."""
    while b1.has_p_power_root(1) and b2.has_p_power_root(1):
        b1, b2 = b1.frobenius_power(-1), b2.frobenius_power(-1)
    R = _annihilator_resultant(b1.num, b1.den, b2.num, b2.den)
    P0 = bivar_radical(R)
    top = P0.terms[max(P0.terms, key=lambda ij: (ij[1], ij[0]))]
    m = _divide_content_y(R).deg_y() // P0.deg_y()
    degrees = tuple(max(b.num.deg, b.den.deg) for b in (b1, b2))
    return P0 * pow(top, -1, P0.p), m, degrees


def _drawn_pair(rng, p):
    """Two generators; in a quarter of the pairs both are composed with
    u^k, k = 3 at p = 2 and 2 above, so both lie in F_p(u^k) and m is a
    multiple of k: the pairs on which the radical's gcd acts."""
    b1, b2 = _generator(rng, p), _generator(rng, p)
    if rng.randrange(4) == 0:
        u = RationalFunction.from_poly(UPoly(ff_make(p, 1, 0), [0, 1]))
        u_k = u ** (3 if p == 2 else 2)
        b1, b2 = _at(b1, u_k), _at(b2, u_k)
    return b1, b2


def test_radical_of_an_annihilator_shape_is_unchanged():
    # on 1000 seeded pairs the nullspace relation is the resultant's
    # radical, monic in its largest (deg_Y, deg_X) term, holds for the
    # pair, and has the Lueroth degrees (n2/m, n1/m) in (X, Y)
    rng = random.Random(33)
    prime_to_p = 0
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7))
        b1, b2 = _drawn_pair(rng, p)
        rel = frobrec.pair_annihilator(b1, b2)
        oracle, m, (n1, n2) = _oracle_relation(b1, b2)
        assert rel.terms == oracle.terms, rel
        assert rel.eval_pair(b1, b2) == RationalFunction.constant(b1.base, 0)
        assert (rel.deg_x(), rel.deg_y()) == (n2 // m, n1 // m)
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
