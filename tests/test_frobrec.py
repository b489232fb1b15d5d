import random
import time
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld import (NOT_FROBENIUS, XTOY, YTOX, BivarPoly, RationalFunction,
                      UPoly, classify_frobenius_bivariate, ff_make,
                      frobenius_target, parse_bivar, parse_ratfunc,
                      recover_monomial_exponent, strip_p_powers,
                      theorem_frob_res)
from drinfeld import frobrec, ratfunc
from drinfeld.errors import (NonUnitContent, NotAMorphism, Reducible,
                             ZeroDenominator, ZeroPolynomial)
from drinfeld.finitefield import FField
from drinfeld.frobrec import _algebraic_monomial_test
from drinfeld.upoly import parse_upoly, upoly_gcd


def _verify_witness(P, witness):
    """A witness must be a genuine root outside the Frobenius orbit."""
    field, x, root = witness
    Q, _ = strip_p_powers(P)
    assert not Q.eval_x(x).eval(root)
    orbit = set()
    val = x
    for _ in range(field.n):
        orbit.add(val)
        val = val ** field.p
    assert root not in orbit


# ---------------------------------------------------------------------------
# stripping

def test_strip_examples():
    q, n = strip_p_powers(parse_bivar("Y^4+X", 2))
    assert n == 2 and q == parse_bivar("Y+X", 2)
    assert strip_p_powers(parse_bivar("Y+X^3", 2))[1] == 0
    assert strip_p_powers(parse_bivar("Y^2+X*Y+X", 2))[1] == 0


def test_strip_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        strip_p_powers(BivarPoly(2, {}))


def test_strip_without_y_is_identity():
    P = parse_bivar("X^4+X", 2)
    assert strip_p_powers(P) == (P, 0)


def test_strip_roundtrip_random():
    rng = random.Random(61)
    for _ in range(40):
        p = rng.choice((2, 3))
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            terms[(rng.randrange(5), rng.randrange(1, 9))] = \
                rng.randrange(1, p)
        P = BivarPoly(p, terms)
        if P.is_zero():
            continue
        Q, n = strip_p_powers(P)
        step = p ** n  # Y -> Y^(p^n)
        assert BivarPoly(p, {(i, j * step): c
                             for (i, j), c in Q.terms.items()}) == P
        if Q.deg_y() > 0:
            assert not Q.partial_y().is_zero()


# ---------------------------------------------------------------------------
# monomial recovery

def test_recover_examples(F2):
    x = UPoly.x(F2)
    one = UPoly.one(F2)
    assert recover_monomial_exponent(x ** 3, one) == 3
    assert recover_monomial_exponent(one, x) == -1
    assert recover_monomial_exponent(x * x + x + 1, one) is None


def test_recover_rejects_zero_denominator(F2):
    with pytest.raises(ZeroDenominator):
        recover_monomial_exponent(UPoly.one(F2), UPoly.zero(F2))


def test_recover_requires_coprime(F2):
    x = UPoly.x(F2)
    with pytest.raises(ValueError):
        recover_monomial_exponent(x * x, x)


def test_recover_over_f4(F4):
    x = UPoly.x(F4)
    one = UPoly.one(F4)
    w = UPoly(F4, [F4.gen])
    assert recover_monomial_exponent(x ** 3, one) == 3
    assert recover_monomial_exponent(w * x ** 3, w) == 3
    # w*X^3 is a unit multiple of X^3, not a power of X
    assert recover_monomial_exponent(w * x ** 3, one) is None


def test_recover_builds_no_field(F3, F4, monkeypatch):
    cases = [(UPoly.x(F) ** 5, UPoly.one(F)) for F in (F3, F4)]

    def refuse(*args, **kwargs):
        raise AssertionError("recover_monomial_exponent built a field")

    monkeypatch.setattr(FField, "__init__", refuse)
    assert [recover_monomial_exponent(r1, r2) for r1, r2 in cases] == [5, 5]
    assert recover_monomial_exponent(UPoly.one(F3), UPoly.x(F3) ** 40) == -40


def test_polynomial_over_one_takes_no_gcd_and_no_product(F2, F4,
                                                         monkeypatch):
    # a sparse u^(2^21) passes through RationalFunction on every theorem
    # call; a gcd or a scaling product would rebuild all its coefficients
    def refuse(*args):
        raise AssertionError("RationalFunction took a gcd or a product")

    polys = [parse_upoly("u^2097152", F2, "u"),
             UPoly(F4, [F4.gen, 0, 1]), UPoly(F4, [F4.one, F4.gen])]
    monkeypatch.setattr(ratfunc, "upoly_gcd", refuse)
    monkeypatch.setattr(UPoly, "__mul__", refuse)
    for poly in polys:
        for r in (RationalFunction(poly, UPoly.one(poly.base)),
                  RationalFunction.from_poly(poly)):
            assert r.num is poly and r.den == UPoly.one(poly.base)


def test_algebraic_and_sampling_routes_agree():
    rng = random.Random(67)
    for p in (2, 3, 5):
        base = ff_make(p, 1, 0)
        x = UPoly.x(base)
        one = UPoly.one(base)
        # 50 monomials
        for _ in range(50 // 2):
            n = rng.randrange(-10, 11)
            r1 = x ** max(n, 0)
            r2 = x ** max(-n, 0)
            assert _algebraic_monomial_test(r1, r2) == n
        # 50 non-monomials
        tried = 0
        while tried < 50 // 2:
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(2, 7))]
            r1 = UPoly(base, coeffs)
            if r1.is_zero() or len([c for c in r1.coeffs if c]) < 2:
                continue
            if not r1.constant():
                continue  # keep gcd with denominators trivial
            den = x ** rng.randrange(0, 3)
            if upoly_gcd(r1, den).deg != 0:
                continue
            tried += 1
            assert _algebraic_monomial_test(r1, den) is None


def test_unit_mismatch_is_rejected(F3):
    x = UPoly.x(F3)
    two = UPoly(F3, [2])
    # 2*X^3 is not a plain power of X
    assert recover_monomial_exponent(two * x ** 3, UPoly.one(F3)) is None


# ---------------------------------------------------------------------------
# classification

@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("k", (0, 1, 2, 3, 4))
def test_classification_roundtrip(p, k):
    tx = frobenius_target(p, XTOY, k)
    ty = frobenius_target(p, YTOX, k)
    cx = classify_frobenius_bivariate(tx)
    cy = classify_frobenius_bivariate(ty)
    # over F_2 with k = 0 the two shapes are the same polynomial
    assert (cx.kind, cx.k) == (XTOY, k) or (k == 0 and tx == ty and cx.k == 0)
    assert (cy.kind, cy.k) == (YTOX, k) or (k == 0 and tx == ty and cy.k == 0)


def test_classification_soundness_by_reexpansion():
    rng = random.Random(71)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        k = rng.randrange(0, 4)
        kind = rng.choice((XTOY, YTOX))
        cls = classify_frobenius_bivariate(frobenius_target(p, kind, k))
        assert cls.is_frobenius()
        rebuilt = frobenius_target(p, cls.kind, cls.k) * cls.unit
        assert rebuilt == frobenius_target(p, kind, k)


def test_unit_multiple_classified(F3):
    doubled = frobenius_target(3, XTOY, 2) * 2
    cls = classify_frobenius_bivariate(doubled)
    assert (cls.kind, cls.k, cls.unit) == (XTOY, 2, 2)


def test_unit_order_over_f5():
    # a unit-1 match wins over the candidate order; then XtoY comes first
    for text, expected in (("Y-X", (YTOX, 0, 1)), ("3*Y-3*X", (XTOY, 0, 2)),
                           ("3*X-3*Y", (XTOY, 0, 3))):
        cls = classify_frobenius_bivariate(parse_bivar(text, 5))
        assert (cls.kind, cls.k, cls.unit) == expected


def _match_by_unit_search(P, N):
    """The shape match by trying every unit of F_p: unit 1 on any candidate
    first, then each candidate with the units 2 .. p - 1."""
    p = P.p
    candidates = []
    k = frobrec._digits_len(p, P.deg_x()) - 1
    if N == 0 and P.deg_y() == 1 and P.deg_x() == p ** k:
        candidates.append((XTOY, k))
    if P.deg_x() == 1:
        candidates.append((YTOX, N))
    tries = [(kind, k, 1) for kind, k in candidates]
    tries += [(kind, k, u) for kind, k in candidates for u in range(2, p)]
    for kind, k, u in tries:
        if P == frobenius_target(p, kind, k) * u:
            return (kind, k, u)
    return None


def test_read_unit_matches_a_search_over_fp():
    # every unit multiple of every shape, and near misses, at small p
    for p in (2, 3, 5, 7):
        for kind, k, u, extra in product((XTOY, YTOX), range(3), range(1, p),
                                         ({}, {(0, 0): 1}, {(1, 0): 1})):
            P = frobenius_target(p, kind, k) * u + BivarPoly(p, extra)
            if P.is_zero():
                continue
            N = strip_p_powers(P)[1]
            match = frobrec._match_shape(P, N)
            got = match and (match.kind, match.k, match.unit)
            assert got == _match_by_unit_search(P, N)


def test_cubic_graph_rejected_with_witness():
    P = parse_bivar("Y+X^3", 2)
    cls = classify_frobenius_bivariate(P)
    assert cls.kind == NOT_FROBENIUS
    _verify_witness(P, cls.witness)


def test_linear_shift_rejected_with_witness():
    P = parse_bivar("Y+X+1", 2)
    cls = classify_frobenius_bivariate(P)
    assert cls.kind == NOT_FROBENIUS
    _verify_witness(P, cls.witness)


def test_content_violation_detected():
    with pytest.raises(NonUnitContent):
        classify_frobenius_bivariate(parse_bivar("X*Y+X^2", 2))


def test_p_power_detected_reducible():
    with pytest.raises(Reducible):
        classify_frobenius_bivariate(parse_bivar("Y^2+X^2", 2))


def test_repeated_factor_detected_reducible():
    # (Y + X)^2 * (Y + X^2) has a repeated factor and nonzero d/dY
    P = (parse_bivar("Y+X", 3) * parse_bivar("Y+X", 3)
         * parse_bivar("Y+X^2", 3))
    with pytest.raises(Reducible):
        classify_frobenius_bivariate(P)


# ---------------------------------------------------------------------------
# exponent consistency

def test_consistency_examples(F2, F3):
    u = parse_ratfunc("u", F2)
    u1 = parse_ratfunc("u+1", F2)
    out = theorem_frob_res([u, u1], [u ** 2, u1 ** 2])
    assert out.ok and out.k == 1
    # u -> u^2 wants k = 1 and u -> u^4 wants k = 2: no ring morphism
    with pytest.raises(NotAMorphism):
        theorem_frob_res([u, u], [u ** 2, u ** 4])
    # constants of F_p constrain nothing: with no other generator k = 0
    consts = [RationalFunction.constant(F3, c) for c in (1, 2)]
    out = theorem_frob_res(consts, consts)
    assert out.ok and out.k == 0


# ---------------------------------------------------------------------------
# the full decision

def test_theorem_frobenius_powers(F2, F3):
    u2 = parse_ratfunc("u", F2)
    out = theorem_frob_res([u2], [parse_ratfunc("u^4", F2)])
    assert out.ok and out.k == 2
    u3 = parse_ratfunc("u", F3)
    out3 = theorem_frob_res([u3], [parse_ratfunc("u^3", F3)])
    assert out3.ok and out3.k == 1


def test_theorem_rejects_shift(F2):
    u = parse_ratfunc("u", F2)
    out = theorem_frob_res([u], [parse_ratfunc("u+1", F2)])
    assert not out.ok


def test_theorem_two_generators(F2):
    out = theorem_frob_res(
        [parse_ratfunc("u^2", F2), parse_ratfunc("u^3", F2)],
        [parse_ratfunc("u^4", F2), parse_ratfunc("u^6", F2)])
    assert out.ok and out.k == 1


def test_theorem_negative_exponent(F2):
    out = theorem_frob_res([parse_ratfunc("u^2", F2)],
                           [parse_ratfunc("u", F2)])
    assert out.ok and out.k == -1


def test_theorem_rational_generator(F2):
    b = parse_ratfunc("u", F2) / parse_ratfunc("u+1", F2)
    image = b * b
    out = theorem_frob_res([b], [image])
    assert out.ok and out.k == 1


def test_theorem_morphism_precheck(F2):
    with pytest.raises(NotAMorphism):
        theorem_frob_res(
            [parse_ratfunc("u^2", F2), parse_ratfunc("u^3", F2)],
            [parse_ratfunc("u^4", F2), parse_ratfunc("u^5", F2)])


def test_theorem_exponent_conflict_is_caught_as_relation_break(F2):
    # within F_p(u) any two transcendentals are algebraically dependent, so
    # conflicting per-generator exponents already violate their relation
    with pytest.raises(NotAMorphism):
        theorem_frob_res(
            [parse_ratfunc("u^2", F2), parse_ratfunc("u^3", F2)],
            [parse_ratfunc("u^4", F2), parse_ratfunc("u^12", F2)])


def test_theorem_constant_moved(F2):
    one = RationalFunction.constant(F2, F2.one)
    zero = RationalFunction.constant(F2, F2.zero)
    u = parse_ratfunc("u", F2)
    out = theorem_frob_res([one, u], [zero, parse_ratfunc("u^2", F2)])
    assert not out.ok


# ---------------------------------------------------------------------------
# exact decisions build no sampling field and no annihilator

def _expected_shape_answer(p, kind, k, u):
    """The classification of u*target: k = 0 reads both shapes as X - Y."""
    if k > 0:
        return (kind, k, u)
    v = u if kind == XTOY else (-u) % p  # u*(Y - X) = -u*(X - Y)
    if v == 1:
        return (XTOY, 0, 1)
    if v == p - 1:
        return (YTOX, 0, 1)
    return (XTOY, 0, v)


def test_shapes_classified_without_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an exact shape reached the sampling loop")

    for name in ("ff_make", "ff_generator", "upoly_roots"):
        monkeypatch.setattr(frobrec, name, refuse)
    checked = 0
    for p in (2, 3, 5, 7):
        k = 0
        while p ** k <= 4096:
            for kind in (XTOY, YTOX):
                for u in range(1, p):
                    cls = classify_frobenius_bivariate(
                        frobenius_target(p, kind, k) * u)
                    assert (cls.kind, cls.k, cls.unit) == \
                        _expected_shape_answer(p, kind, k, u)
                    checked += 1
            k += 1
    assert checked == 2 * (13 + 2 * 8 + 4 * 6 + 6 * 5)


def test_shape_test_precedes_content_and_degree_checks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an exact shape was expanded densely")

    monkeypatch.setattr(BivarPoly, "y_coeffs", refuse)
    cls = classify_frobenius_bivariate(frobenius_target(2, XTOY, 41))
    assert (cls.kind, cls.k, cls.unit) == (XTOY, 41, 1)
    cls = classify_frobenius_bivariate(frobenius_target(3, YTOX, 30) * 2)
    assert (cls.kind, cls.k, cls.unit) == (YTOX, 30, 2)


def test_theorem_builds_annihilators_only_before_rejections(F2, F3,
                                                            monkeypatch):
    calls = []
    original = frobrec.pair_annihilator

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frobrec, "pair_annihilator", counting)
    accepted = [
        (F2, ["u^2", "u^3", "(u)/(u+1)", "1"], 2),
        (F2, ["u^4", "u^6"], -1),
        (F3, ["u+2", "u^2"], 1),
        (F3, ["u^2+1"], 3),
    ]
    for base, texts, k in accepted:
        gens = [parse_ratfunc(t, base) for t in texts]
        images = [b.frobenius_power(k) for b in gens]
        calls.clear()
        out = theorem_frob_res(gens, images)
        assert (out.ok, out.k) == (True, k)
        assert calls == []
    # a rejection first checks the one pair relation, which the images break
    calls.clear()
    with pytest.raises(NotAMorphism, match="images break the relation "
                                           "Y\\^2\\+X\\^3"):
        theorem_frob_res([parse_ratfunc("u^2", F2), parse_ratfunc("u^3", F2)],
                         [parse_ratfunc("u^4", F2), parse_ratfunc("u^5", F2)])
    assert len(calls) == 1
    # a single generator has no pair; its one build explains the rejection
    calls.clear()
    out = theorem_frob_res([parse_ratfunc("u", F2)],
                           [parse_ratfunc("u^2+u", F2)])
    assert not out.ok and len(calls) == 1


def _coeffs(data, p, min_deg, max_deg):
    """A coefficient list, low degree first, with nonzero leading term."""
    deg = data.draw(st.integers(min_deg, max_deg))
    low = data.draw(st.lists(st.integers(0, p - 1), min_size=deg,
                             max_size=deg))
    return low + [data.draw(st.integers(1, p - 1))]


def _ratfunc(data, base, max_deg=4):
    """A non-constant num/den over F_p with max(deg num, deg den) <= max_deg."""
    b = RationalFunction(UPoly(base, _coeffs(data, base.p, 1, max_deg)),
                         UPoly(base, _coeffs(data, base.p, 0, max_deg)))
    assume(not b.is_constant())
    return b


POWER_SIDE_DEGREE = 27


@pytest.mark.parametrize("p,k", [
    (p, k) for p in (2, 3, 5, 7) for k in range(-2, 4)
    if p ** abs(k) <= POWER_SIDE_DEGREE])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.integers(2, 3), st.data())
def test_accepted_powers_satisfy_every_pair_relation(p, k, count, data):
    """The accept path skips the morphism check; the relations still hold.

    For k < 0 the drawn functions are the images and the generators are
    their p^|k|-th powers, so both sides stay exact Frobenius powers.  The
    p^|k|-th power side has degree at most POWER_SIDE_DEGREE, which keeps
    its annihilator cheap to build; that leaves out k = +-2 and 3 for
    p = 7, and k = 3 for p = 5."""
    base = ff_make(p, 1, 0)
    max_deg = min(4, POWER_SIDE_DEGREE // p ** abs(k))
    drawn = [_ratfunc(data, base, max_deg) for _ in range(count)]
    if k >= 0:
        gens, images = drawn, [b.frobenius_power(k) for b in drawn]
    else:
        gens, images = [b.frobenius_power(-k) for b in drawn], drawn
    out = theorem_frob_res(gens, images)
    assert (out.ok, out.k) == (True, k)
    zero = RationalFunction.constant(base, 0)
    for i in range(count):
        for j in range(i + 1, count):
            rel = frobrec.pair_annihilator(gens[i], gens[j])
            assert rel.eval_pair(images[i], images[j]) == zero


def test_theorem_rejection_keeps_reason_and_witness(F2):
    out = theorem_frob_res([parse_ratfunc("u", F2)],
                           [parse_ratfunc("u^2+u", F2)])
    assert not out.ok and out.reason == "annihilator is not a Frobenius graph"
    _verify_witness(parse_bivar("X^2+X+Y", 2), out.witness)


@pytest.mark.parametrize("p,pair,roots,text", [
    (2, ("u^4", "u^6"), ("u^2", "u^3"), "Y^2+X^3"),
    (2, ("u^4+u^2", "u^6"), ("u^2+u", "u^3"), "Y^2+X*Y+Y+X^3"),
    (2, ("u^2/(u^4+1)", "u^6"), ("u/(u^2+1)", "u^3"), "X^3*Y^2+X^2*Y+Y+X^3"),
    (3, ("u^3+u^6", "u^9+1"), ("u+u^2", "u^3+1"), "Y^2+2*Y+2*X^3"),
    (7, ("u^98+u^49", "u^147+1"), ("u^2+u", "u^3+1"),
     "Y^2+3*X*Y+6*Y+6*X^3+4*X"),
])
def test_pair_annihilator_takes_out_shared_p_powers(p, pair, roots, text):
    # a relation over F_p holds for a pair exactly when it holds for their
    # p-th roots
    F = ff_make(p, 1)
    rels = [frobrec.pair_annihilator(*(parse_ratfunc(b, F) for b in bs))
            for bs in (pair, roots)]
    assert rels[0] == rels[1] and rels[0].to_text() == text


def test_pair_relation_of_u_degree_14_takes_a_third_of_the_resultant():
    # an Artin-Schreier generator (u^7-u)^2 + 6(u^7-u) + 6 against the 7th
    # power (u^2+4u+1)^7: F_7(u) has degree 1 over the pair, so the box is
    # the largest, 225 columns over 393 rows.  The resultant pipeline took
    # 86-125 ms in-process on such pairs; the nullspace takes a third of
    # that or less, best of five runs
    F = ff_make(7, 1)
    b1, b2 = (parse_ratfunc(t, F)
              for t in ("u^14+4*u^7+1", "u^14+5*u^8+6*u^7+u^2+u+6"))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        rel = frobrec.pair_annihilator(b1, b2)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.125 / 3, times
    assert (rel.deg_x(), rel.deg_y()) == (14, 14)
    assert rel.eval_pair(b1, b2) == RationalFunction.constant(F, 0)
    with pytest.raises(NotAMorphism, match="images break the relation "
                                           "Y\\^14\\+5\\*X\\^7\\*Y\\^7"):
        theorem_frob_res([b1, b2], [parse_ratfunc(t, F) for t in ("u", "u^2")])
