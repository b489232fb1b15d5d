"""Differential tests of the Frobenius decisions against a sampling oracle.

The oracle is the earlier decision logic, kept here verbatim in substance:
`_oracle_classify` reaches every Frobenius verdict through the sampling
loop (a root above a multiplicative generator, then a shape match at the
exponent read from that root), and `_oracle_theorem` classifies the
annihilator of every generator and image before checking the exponent it
reports.  The library decides by exact comparison first; both must give
the same result object, or raise the same exception type and message.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld import (NOT_FROBENIUS, XTOY, YTOX, BivarPoly,
                      FrobClassification, FrobeniusDecision,
                      RationalFunction, UPoly, classify_frobenius_bivariate,
                      ff_generator, ff_make, frobenius_target,
                      recover_monomial_exponent, strip_p_powers,
                      theorem_frob_res)
from drinfeld.errors import (DrinfeldError, InvariantError, NonUnitContent,
                             NotAMorphism, NotFound, Reducible, ZeroPolynomial)
from drinfeld.frobrec import (CLASSIFY_RETRIES, _digits_len, _orbit_map,
                              _partial_reducibility_check, _witness_scan,
                              pair_annihilator)
from drinfeld.upoly import upoly_gcd, upoly_roots

# ---------------------------------------------------------------------------
# the oracle


def _oracle_match_shape(P, N, k1):
    p = P.p
    candidates = []
    if N == 0:
        candidates.append((XTOY, k1))
    if k1 == 0:
        candidates.append((YTOX, N))
    for kind, k in candidates:
        if P == frobenius_target(p, kind, k):
            return FrobClassification(kind=kind, k=k, unit=1)
    for kind, k in candidates:
        target = frobenius_target(p, kind, k)
        for u in range(2, p):
            if P == target * u:
                return FrobClassification(kind=kind, k=k, unit=u)
    return None


def _oracle_classify(P, retries=CLASSIFY_RETRIES, seed=0):
    p = P.p
    if P.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if P.deg_y() < 1:
        raise ValueError("classification needs degree >= 1 in Y")
    if P.content_y().deg > 0:
        raise NonUnitContent("content in Y is not a unit")
    _partial_reducibility_check(P)

    Q, N = strip_p_powers(P)
    d = Q.deg_y()
    y_coeffs = Q.y_coeffs()
    lead, const = y_coeffs[-1], y_coeffs[0]
    if const.is_zero():
        F = ff_make(p, 2, 0)
        return FrobClassification(kind=NOT_FROBENIUS,
                                  witness=(F, ff_generator(F), F.zero))
    r1 = const * const.base.element((-1) ** d)
    g = upoly_gcd(r1, lead)
    n = recover_monomial_exponent(r1 // g, lead // g)
    if n is not None and n >= 1:
        m_start = max(2, d + 1, _digits_len(p, n) + 1)
    else:
        n = None
        m_start = max(2, d + 1)

    consistent_high_degree = 0
    for attempt in range(retries):
        m = m_start + attempt
        F = ff_make(p, m, seed)
        x = ff_generator(F)
        degenerate = not lead.eval(x)
        if not degenerate:
            Qx = Q.eval_x(x)
            degenerate = (Qx.deg != d
                          or upoly_gcd(Qx, Qx.derivative()).deg != 0)
        if not degenerate:
            roots = upoly_roots(Qx, F)
            orbit = _orbit_map(x)
            for root in roots:
                if root not in orbit:
                    return FrobClassification(kind=NOT_FROBENIUS,
                                              witness=(F, x, root))
            if len(roots) == d and n is not None:
                ks = sorted(orbit[root] for root in roots)
                if n == sum(p ** k for k in ks):
                    if d == 1:
                        match = _oracle_match_shape(P, N, ks[0])
                        if match is not None:
                            return match
                    consistent_high_degree += 1
                    if consistent_high_degree >= 3:
                        raise Reducible(
                            "digit decomposition persists without a shape "
                            "match: the input factors")
        witness = _witness_scan(Q, F, skip=(x,))
        if witness is not None:
            return FrobClassification(kind=NOT_FROBENIUS, witness=witness)
    raise NotFound(retries, "classification inconclusive within retry cap")


def _oracle_theorem(gens, images, seed=0):
    base = gens[0].base
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i].is_constant() or gens[j].is_constant():
                continue
            rel = pair_annihilator(gens[i], gens[j])
            value = rel.eval_pair(images[i], images[j])
            if value != RationalFunction.constant(base, 0):
                raise NotAMorphism(
                    f"images break the relation {rel.to_text()}")
    exponents = set()
    for b, fb in zip(gens, images):
        if b.is_constant():
            if fb != b:
                return FrobeniusDecision(ok=False,
                                         reason="a prime-field constant moves")
            continue
        if fb.is_constant():
            return FrobeniusDecision(
                ok=False, reason="a transcendental maps to a constant")
        try:
            cls = _oracle_classify(pair_annihilator(b, fb), seed=seed)
        except Reducible:
            return FrobeniusDecision(ok=False,
                                     reason="annihilator is not primary")
        if not cls.is_frobenius():
            return FrobeniusDecision(ok=False,
                                     reason="annihilator is not a Frobenius "
                                            "graph",
                                     witness=cls.witness)
        k_i = cls.k if cls.kind == XTOY else -cls.k
        expected = (b.frobenius_power(k_i) if k_i >= 0
                    else fb.frobenius_power(-k_i))
        if expected != (fb if k_i >= 0 else b):
            raise InvariantError("classified exponent fails verification")
        exponents.add(k_i)
    # constants constrain nothing: the non-constant generators share k
    if len(exponents) > 1:
        return FrobeniusDecision(ok=False,
                                 reason="per-generator exponents conflict")
    return FrobeniusDecision(ok=True, k=exponents.pop() if exponents else 0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DrinfeldError, ValueError) as exc:
        return type(exc), str(exc)


def _same_classification(P):
    got = _outcome(classify_frobenius_bivariate, P)
    assert got == _outcome(_oracle_classify, P)
    return got


# ---------------------------------------------------------------------------
# strategies

PRIMES = st.sampled_from((2, 3, 5, 7))


@st.composite
def shapes(draw, max_power=729):
    p = draw(PRIMES)
    k = draw(st.integers(0, _digits_len(p, max_power) - 1))
    kind = draw(st.sampled_from((XTOY, YTOX)))
    return frobenius_target(p, kind, k) * draw(st.integers(1, p - 1))


@st.composite
def bivariates(draw, p, max_deg):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)),
        st.integers(1, p - 1), min_size=1, max_size=5))
    return BivarPoly(p, terms)


@st.composite
def ratfuncs(draw, base, max_deg=2):
    def poly():
        return UPoly(base, draw(st.lists(st.integers(0, base.p - 1),
                                         min_size=1, max_size=max_deg + 1)))

    num, den = poly(), poly()
    assume(not den.is_zero())
    b = RationalFunction(num, den)
    assume(not b.is_constant())
    return b


# ---------------------------------------------------------------------------
# classification


@settings(max_examples=40, deadline=None, derandomize=True)
@given(P=shapes())
def test_unit_multiples_of_shapes_match_the_oracle(P):
    assert _same_classification(P).is_frobenius()


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_shapes_at_exponent_zero_match_the_oracle(p):
    for kind in (XTOY, YTOX):
        for u in range(1, p):
            _same_classification(frobenius_target(p, kind, 0) * u)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), P=shapes(max_power=27))
def test_perturbed_shapes_match_the_oracle(data, P):
    # a Y-term below Y^(p^k) would leave degree p^k in Y after stripping,
    # and both routes would scan F_(p^(p^k + 1)) for its roots
    i = data.draw(st.integers(0, 3))
    j = data.draw(st.sampled_from((0, 1, 2) if P.deg_y() == 1
                                  else (0, P.deg_y())))
    c = data.draw(st.integers(1, P.p - 1))
    Q = P + BivarPoly.monomial(P.p, i, j, c)
    assume(not Q.is_zero())
    _same_classification(Q)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), p=st.sampled_from((2, 3)))
def test_random_bivariates_match_the_oracle(data, p):
    P = data.draw(bivariates(p, 4))
    assume(P.deg_y() >= 1 and P.content_y().deg == 0)
    _same_classification(P)


# ---------------------------------------------------------------------------
# the full decision


def _same_decision(gens, images):
    got = _outcome(theorem_frob_res, gens, images)
    assert got == _outcome(_oracle_theorem, gens, images)
    return got


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), p=st.sampled_from((2, 3, 5)),
       k=st.integers(0, 2), inverse=st.booleans())
def test_frobenius_images_match_the_oracle(data, p, k, inverse):
    assume(p ** k <= 9)
    base = ff_make(p, 1, 0)
    b = data.draw(ratfuncs(base))
    fb = b.frobenius_power(k)
    gens, images = ([fb], [b]) if inverse else ([b], [fb])
    if data.draw(st.booleans()):
        c = RationalFunction.constant(base, data.draw(st.integers(0, p - 1)))
        gens, images = gens + [c], images + [c]
    out = _same_decision(gens, images)
    assert out.ok and out.k == (-k if inverse else k)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), p=st.sampled_from((2, 3, 5)), k=st.integers(0, 2))
def test_perturbed_images_match_the_oracle(data, p, k):
    assume(p ** k <= 9)
    base = ff_make(p, 1, 0)
    b = data.draw(ratfuncs(base))
    shift = data.draw(ratfuncs(base, max_deg=1)
                      | st.integers(1, p - 1).map(
                          lambda c: RationalFunction.constant(base, c)))
    _same_decision([b], [b.frobenius_power(k) + shift])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(p=st.sampled_from((2, 3, 5)), c=st.integers(0, 4), e=st.integers(0, 4))
def test_constant_generators_match_the_oracle(p, c, e):
    base = ff_make(p, 1, 0)
    u = RationalFunction.from_poly(UPoly.x(base))
    const = RationalFunction.constant(base, c % p)
    image = RationalFunction.constant(base, e % p)
    for gens, images in (([const], [image]), ([const, u], [image, u ** p]),
                         ([u], [image])):
        _same_decision(gens, images)
