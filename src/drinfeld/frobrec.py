"""Deciding whether algebraic data comes from a power of Frobenius.

Three layers: the pure monomial exponent of a rational function, the two
Frobenius graph shapes of a bivariate annihilator, and one global power:
the exponent every non-constant generator shares.  Every Frobenius verdict
is an exact comparison.  The morphism check builds one annihilator per pair
of non-constant generators, and only before a rejection: an accepted
Frobenius power satisfies every relation.  Sampling fields and the
annihilator of a generator and its image only explain a rejection, with a
witness root outside a Frobenius orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bivar import BivarPoly, bivar_gcd_y
from .errors import (InvariantError, NonUnitContent, NotAMorphism, NotFound,
                     Reducible, ZeroDenominator, ZeroPolynomial)
from .finitefield import _eliminate, _slots, _width, ff_generator, ff_make
from .ratfunc import RationalFunction
from .upoly import UPoly, upoly_gcd, upoly_roots

XTOY = "XtoY"
YTOX = "YtoX"
NOT_FROBENIUS = "NotFrobenius"

CLASSIFY_RETRIES = 8


def _witness_dict(witness):
    field, x, root = witness
    return {"field": field.to_dict(), "x": x.to_list(), "root": root.to_list()}


@dataclass(frozen=True)
class FrobClassification:
    """Outcome of graph classification.

    XtoY(k) means the polynomial is a unit multiple of X^(p^k) - Y, i.e. the
    second coordinate is the p^k-th power of the first; YtoX(k) is the
    transpose.  NotFrobenius carries a witness (field, x, root) with the
    root provably outside the Frobenius orbit of x.
    """

    kind: str
    k: int | None = None
    unit: int = 1
    witness: tuple | None = None

    def is_frobenius(self):
        return self.kind in (XTOY, YTOX)

    def to_dict(self):
        out = {"variant": self.kind}
        if self.k is not None:
            out["k"] = self.k
        if self.unit != 1:
            out["unit"] = self.unit
        if self.witness is not None:
            out["witness"] = _witness_dict(self.witness)
        return out


def frobenius_target(p: int, kind: str, k: int) -> BivarPoly:
    """The literal polynomial X^(p^k) - Y or Y^(p^k) - X."""
    if kind == XTOY:
        return BivarPoly(p, {(p ** k, 0): 1, (0, 1): -1})
    if kind == YTOX:
        return BivarPoly(p, {(0, p ** k): 1, (1, 0): -1})
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# layer stripping

def strip_p_powers(P: BivarPoly):
    """(Q, N) with P(X, Y) = Q(X, Y^(p^N)), N maximal."""
    if P.is_zero():
        raise ZeroPolynomial("cannot strip the zero polynomial")
    p = P.p
    y_exps = [j for _, j in P.terms if j > 0]
    if not y_exps:
        return P, 0
    N = 0
    while all(j % p ** (N + 1) == 0 for j in y_exps):
        N += 1
    step = p ** N
    return BivarPoly(p, {(i, j // step): c
                         for (i, j), c in P.terms.items()}), N


# ---------------------------------------------------------------------------
# monomial-exponent recovery

def _algebraic_monomial_test(r1: UPoly, r2: UPoly):
    def single_term(poly):
        nz = [(i, c) for i, c in enumerate(poly.vs) if c]
        return nz[0] if len(nz) == 1 else None

    t1, t2 = single_term(r1), single_term(r2)
    if t1 is None or t2 is None:
        return None
    if t1[1] != t2[1]:
        return None
    return t1[0] - t2[0]


def recover_monomial_exponent(r1: UPoly, r2: UPoly):
    """The integer n with r1/r2 = X^n, or None.

    For coprime r1 and r2, r1 = gamma X^delta r2 forces the one of lower
    degree to be a constant, so the single-term test with gamma = 1 is the
    whole criterion.
    """
    if r2.is_zero():
        raise ZeroDenominator("zero denominator")
    if r1.is_zero():
        return None
    if upoly_gcd(r1, r2).deg != 0:
        raise ValueError("inputs must be coprime")
    return _algebraic_monomial_test(r1, r2)


# ---------------------------------------------------------------------------
# bivariate classification

def _digits_len(p: int, n: int) -> int:
    k = 0
    while p ** k <= n:
        k += 1
    return k


def _partial_reducibility_check(P: BivarPoly):
    """Best-effort detection; a clean pass is not a proof of irreducibility."""
    if P.is_p_power():
        raise Reducible("the polynomial is a p-th power")
    dy = P.partial_y()
    if not dy.is_zero():
        g = bivar_gcd_y(P, dy)
        if g.deg_y() > 0:
            raise Reducible("repeated factor detected in Y")


def _orbit_map(x):
    """Each Frobenius conjugate of x, mapped to its index k in x^(p^k)."""
    return {c: k for k, c in enumerate(x.conjugates())}


def _witness_scan(Q, F, skip=()):
    """Look for a root of Q(x, .) outside the Frobenius orbit of x.

    Any x works for this purpose: for the two graph shapes every root above
    every point is a Frobenius power of it.
    """
    budget = min(F.size, 8)
    for code in range(budget):
        x = F.from_encoding(code)
        if x in skip:
            continue
        Qx = Q.eval_x(x)
        if Qx.is_zero():  # pragma: no cover - unit content forbids this
            continue
        orbit = _orbit_map(x)
        for root in upoly_roots(Qx, F):
            if root not in orbit:
                return (F, x, root)
    return None


def _match_shape(P: BivarPoly, N: int):
    """Exact (or unit-scaled) match against the shapes the degrees allow.

    A shape's unit is P's coefficient at the top term of its target, so one
    comparison decides each candidate.  A unit-1 match wins; after that the
    candidates keep their order.
    """
    p = P.p
    candidates = []
    k = _digits_len(p, P.deg_x()) - 1
    if N == 0 and P.deg_y() == 1 and P.deg_x() == p ** k:
        candidates.append((XTOY, k, (p ** k, 0)))
    if P.deg_x() == 1:
        candidates.append((YTOX, N, (0, p ** N)))
    matches = []
    for kind, k, top in candidates:
        u = P.terms.get(top, 0)
        if P == frobenius_target(p, kind, k) * u:
            matches.append(FrobClassification(kind=kind, k=k, unit=u))
    return min(matches, key=lambda match: match.unit != 1, default=None)


def classify_frobenius_bivariate(P: BivarPoly,
                                 seed: int = 0) -> FrobClassification:
    """Decide whether an irreducible annihilator is a Frobenius graph.

    A Frobenius verdict is an exact match of the sparse terms with a graph
    shape, before any other check.  Sampling fields only explain a
    rejection: a root above a multiplicative generator outside its
    Frobenius orbit is the witness, and a base-p digit decomposition of the
    constant-term exponent that persists across fields proves a factor.
    """
    p = P.p
    if P.is_zero():
        raise ZeroPolynomial("zero polynomial")
    Q, N = strip_p_powers(P)
    match = _match_shape(P, N)
    if match is not None:
        return match
    if P.deg_y() < 1:
        raise ValueError("classification needs degree >= 1 in Y")
    if P.content_y().deg > 0:
        raise NonUnitContent("content in Y is not a unit")
    _partial_reducibility_check(P)

    d = Q.deg_y()
    y_coeffs = Q.y_coeffs()
    lead = y_coeffs[-1]
    const = y_coeffs[0]

    if const.is_zero():
        # Y divides Q; content 1 forces Q = unit * Y, never a graph shape
        F = ff_make(p, 2, 0)
        x = ff_generator(F)
        return FrobClassification(kind=NOT_FROBENIUS,
                                  witness=(F, x, F.zero))

    sign = (-1) ** d
    r1 = const * const.base.element(sign)
    g = upoly_gcd(r1, lead)
    r1, r2 = r1 // g, lead // g
    n = recover_monomial_exponent(r1, r2)

    if n is not None and n >= 1:
        m_start = max(2, d + 1, _digits_len(p, n) + 1)
    else:
        n = None
        m_start = max(2, d + 1)

    consistent_high_degree = 0
    for attempt in range(CLASSIFY_RETRIES):
        m = m_start + attempt
        F = ff_make(p, m, seed)
        x = ff_generator(F)
        degenerate = (not lead.eval(x))
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
                    # irreducible polynomials cannot sustain a full digit
                    # decomposition with d >= 2 or a mismatched shape
                    consistent_high_degree += 1
                    if consistent_high_degree >= 3:
                        raise Reducible(
                            "digit decomposition persists without a shape "
                            "match: the input factors")
        witness = _witness_scan(Q, F, skip=(x,))
        if witness is not None:
            return FrobClassification(kind=NOT_FROBENIUS, witness=witness)
    raise NotFound(CLASSIFY_RETRIES,
                   "classification inconclusive within retry cap")


# ---------------------------------------------------------------------------
# the full decision procedure

@dataclass(frozen=True)
class FrobeniusDecision:
    ok: bool
    k: int | None = None
    reason: str = ""
    witness: tuple | None = None

    def to_dict(self):
        out = {"ok": self.ok}
        if self.k is not None:
            out["k"] = self.k
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = _witness_dict(self.witness)
        return out


def pair_annihilator(b1: RationalFunction, b2: RationalFunction) -> BivarPoly:
    """The irreducible relation P0(b1, b2) = 0 over F_p of b1 = N1/D1 and
    b2 = N2/D2 in F_p(u), monic in its largest (deg_Y, deg_X) term.

    By Lueroth, F_p(u) has degree n_i = max(deg N_i, deg D_i) over
    F_p(b_i), and a degree D dividing gcd(n1, n2) over F_p(b1, b2), so P0
    has degrees (a, b) = (n2/D, n1/D) in (X, Y) and every relation is a
    multiple of it.  So for D over the divisors, largest first (a box of
    larger D is too short in Y), the first nonzero kernel of the F_p-linear
    map X^i Y^j -> N1^i D1^(a-i) N2^j D2^(b-j) on u-coefficients is the
    line of P0 (implicitization by linear algebra: Sederberg, Anderson and
    Goldman, "Implicit representation of parametric curves and surfaces",
    1984).  The columns run in (deg_Y, deg_X) order, and `_eliminate`'s
    kernel vector is 1 on its own column, the last it names.  Slots with
    2^w > rows p^2, rows = a n1 + b n2 + 1, bound the elimination and
    each product.  When b1 and b2 are polynomials, P0 has degree
    n1 n2 / D = a n1 with X of weight n1 and Y of weight n2, so only the
    columns of weight i n1 + j n2 <= a n1 and a n1 + 1 rows are needed.

    R(b1, b2) = R(b1^(1/p), b2^(1/p))^p for R over F_p, so while both lie in
    F_p(u^p) the pair is replaced by its p-th roots first.
    """
    while (not (b1.is_constant() and b2.is_constant())
           and b1.has_p_power_root(1) and b2.has_p_power_root(1)):
        b1, b2 = b1.frobenius_power(-1), b2.frobenius_power(-1)
    n1, n2 = (max(b.num.deg, b.den.deg) for b in (b1, b2))
    if n1 < 1 or n2 < 1:
        raise ZeroPolynomial("a constant has no relation with its pair")
    p, g = b1.base.p, gcd(n1, n2)
    polys = b1.den.deg == b2.den.deg == 0
    for D in (D for D in range(g, 0, -1) if g % D == 0):
        a, b = n2 // D, n1 // D
        top = a * n1 if polys else a * n1 + b * n2
        box = [(i, j) for j in range(b + 1) for i in range(a + 1)
               if i * n1 + j * n2 <= top]
        k = _slots(p, _width(p, top + 1))
        xs, ys = _homogeneous_powers(b1, a, k), _homogeneous_powers(b2, b, k)
        kernel = _eliminate([k.norm(xs[i] * ys[j]) for i, j in box], k)[1]
        if kernel:
            return BivarPoly(p, dict(zip(box, k.unpack(kernel[0], len(box)))))
    # the box of D = 1 holds the resultant Res_u(N1 - X D1, N2 - Y D2)
    raise InvariantError(  # pragma: no cover
        "the pair satisfies no relation in any box")


def _homogeneous_powers(f: RationalFunction, a: int, k):
    """N^i D^(a-i) for i = 0..a, f = N/D over F_p, as packed ints."""
    num, den = k.pack(f.num.vs), k.pack(f.den.vs)
    nums, dens = [1], [1]
    for _ in range(a):
        nums.append(k.norm(nums[-1] * num))
        dens.append(k.norm(dens[-1] * den))
    return [k.norm(x * y) for x, y in zip(nums, reversed(dens))]


def _frobenius_exponent(b: RationalFunction, fb: RationalFunction):
    """k with fb = b^(p^k), -k with b = fb^(p^k), or None.  A p^k-th power
    multiplies max(deg num, deg den) by p^k, so the degree ratio fixes k."""
    d_b, d_fb = (max(f.num.deg, f.den.deg) for f in (b, fb))
    small, big, sign = (b, fb, 1) if d_b <= d_fb else (fb, b, -1)
    k = _digits_len(b.base.p, max(d_b, d_fb) // min(d_b, d_fb)) - 1
    return sign * k if small.frobenius_power(k) == big else None


def theorem_frob_res(gens, images, seed: int = 0) -> FrobeniusDecision:
    """Decide whether generator images define a global Frobenius power.

    gens/images: parallel lists of rational functions over F_p(u).  Each
    image is compared exactly with the one Frobenius power its degree
    allows; annihilators are classified only to explain a rejection.  The
    assignment must extend to a ring morphism: before any rejection the
    pairwise annihilator relations are checked, and a violation raises
    NotAMorphism.  An acceptance needs no such check.  There fb_i =
    b_i^(p^k) for one common k (or b_i = fb_i^(p^|k|) when k < 0) and
    constants are fixed, so the assignment is a Frobenius power on
    F_p(gens), or its inverse, and fixes F_p.  For every relation R over
    F_p, R(fb_i, fb_j) = R(b_i, b_j)^(p^k) = 0, and for k < 0
    R(fb_i, fb_j)^(p^|k|) = 0 in the reduced ring F_p(u).

    Constants of F_p are fixed by every power, so they constrain nothing:
    k is the exponent k_i that every non-constant generator shares, and 0
    when there is no such generator.
    """
    if len(gens) != len(images) or not gens:
        raise ValueError("need matching nonempty generator/image lists")
    base = gens[0].base
    if base.n != 1:
        raise ValueError("the ambient field is F_p(u): prime constants only")
    for b in list(gens) + list(images):
        if b.base != base:
            raise ValueError("all entries must share one base field")

    def check_morphism():
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
            if fb != b:  # constants of F_p are fixed by every Frobenius power
                check_morphism()
                return FrobeniusDecision(ok=False,
                                         reason="a prime-field constant moves")
            continue
        if fb.is_constant():
            check_morphism()
            return FrobeniusDecision(
                ok=False, reason="a transcendental maps to a constant")
        k_i = _frobenius_exponent(b, fb)
        if k_i is None:
            check_morphism()
            try:
                cls = classify_frobenius_bivariate(pair_annihilator(b, fb),
                                                   seed=seed)
            except Reducible:
                return FrobeniusDecision(ok=False,
                                         reason="annihilator is not primary")
            if cls.is_frobenius():  # pragma: no cover - the graph is exact
                raise InvariantError("classification contradicts the check")
            return FrobeniusDecision(ok=False,
                                     reason="annihilator is not a Frobenius "
                                            "graph",
                                     witness=cls.witness)
        exponents.add(k_i)

    if len(exponents) > 1:
        check_morphism()
        return FrobeniusDecision(ok=False,
                                 reason="per-generator exponents conflict")
    return FrobeniusDecision(ok=True, k=exponents.pop() if exponents else 0)
