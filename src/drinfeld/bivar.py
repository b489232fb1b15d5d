"""Sparse bivariate polynomials over a prime field F_p.

Supports the graph-annihilator pipeline: resultant elimination by
evaluation/interpolation, content and p-power normalization, and the
irreducible P0 of a resultant c(X)*P0^m by one gcd.  Coefficients are plain
ints mod p.  Content, gcd and division work on the Y-rows, the
coefficients of Y^j in F_p[X], without fractions of F_p(X).
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import (BoundExceeded, InvariantError, ParseError,
                     ZeroPolynomial, clip)
from .finitefield import SCAN_LIMIT, ff_embed, ff_make
from .upoly import UPoly, lagrange_interpolator, upoly_gcd, upoly_resultant


class BivarPoly:
    """Map (i, j) -> nonzero coefficient of X^i Y^j over F_p."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms):
        clean = {}
        for (i, j), c in dict(terms).items():
            c %= p
            if c:
                clean[(i, j)] = c
        self.p = p
        self.terms = clean

    @classmethod
    def zero(cls, p):
        return cls(p, {})

    @classmethod
    def monomial(cls, p, i, j, c=1):
        return cls(p, {(i, j): c})

    def is_zero(self):
        return not self.terms

    def deg_x(self):
        return max((i for i, _ in self.terms), default=-1)

    def deg_y(self):
        return max((j for _, j in self.terms), default=-1)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = (out.get(key, 0) + c) % self.p
        return BivarPoly(self.p, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = (out.get(key, 0) - c) % self.p
        return BivarPoly(self.p, out)

    def __neg__(self):
        return BivarPoly(self.p, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return BivarPoly(self.p,
                             {k: c * other for k, c in self.terms.items()})
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = (out.get(key, 0) + c1 * c2) % self.p
        return BivarPoly(self.p, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, BivarPoly) and other.p == self.p
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.p, tuple(sorted(self.terms.items()))))

    # -- views ------------------------------------------------------------------

    def y_coeffs(self):
        """Coefficients of Y^j as UPoly in X; length deg_y + 1."""
        if max(self.deg_x(), self.deg_y()) > SCAN_LIMIT:
            raise BoundExceeded(f"a degree is above {SCAN_LIMIT}")
        base = ff_make(self.p, 1, 0)
        dy = self.deg_y()
        rows = [dict() for _ in range(dy + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
        out = []
        for row in rows:
            vs = [0] * (max(row) + 1 if row else 0)
            for i, c in row.items():
                vs[i] = c
            out.append(UPoly._of(base, vs))
        return out

    @classmethod
    def from_y_coeffs(cls, p, polys):
        terms = {}
        for j, poly in enumerate(polys):
            for i, c in enumerate(poly.vs):
                if c:
                    terms[(i, j)] = c
        return cls(p, terms)

    def swap(self):
        return BivarPoly(self.p, {(j, i): c for (i, j), c in self.terms.items()})

    def eval_x(self, x):
        """Univariate in Y after substituting X = x (an FFElem)."""
        field = x.field
        mul, add = field._mul, field._add
        vs = [0] * (self.deg_y() + 1)
        xpow = {0: 1}
        for (i, j), c in sorted(self.terms.items()):
            if i not in xpow:
                xpow[i] = (x ** i).v
            vs[j] = add(vs[j], mul(xpow[i], c))
        return UPoly._of(field, vs)

    def eval_pair(self, x, y):
        """Full evaluation; x and y may be field elements or ring elements."""
        acc = None
        for (i, j), c in sorted(self.terms.items()):
            term = (x ** i) * (y ** j) * c
            acc = term if acc is None else acc + term
        if acc is None:
            return 0
        return acc

    # -- normalization ------------------------------------------------------------

    def content_y(self) -> UPoly:
        """Monic gcd in F_p[X] of the Y-coefficients."""
        g = _content(self.y_coeffs())
        if g is None:
            raise ZeroPolynomial("content of zero")
        return g

    def divide_content_y(self):
        """The primitive part in F_p[X][Y]; zero stays zero."""
        rows = self.y_coeffs()
        prim = _primitive(rows)
        return self if prim is rows else BivarPoly.from_y_coeffs(self.p, prim)

    def is_p_power(self) -> bool:
        return (not self.is_zero()
                and all(i % self.p == 0 and j % self.p == 0
                        for i, j in self.terms))

    def p_root(self):
        """p-th root when every exponent pair is divisible by p."""
        # over F_p coefficients are already p-th powers of themselves
        return BivarPoly(self.p, {(i // self.p, j // self.p): c
                                  for (i, j), c in self.terms.items()})

    def partial_y(self):
        return BivarPoly(self.p, {(i, j - 1): c * j
                                  for (i, j), c in self.terms.items() if j})

    # -- text --------------------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items(),
                                key=lambda kv: (-kv[0][1], -kv[0][0])):
            bits = []
            if c != 1 or (i == 0 and j == 0):
                bits.append(str(c))
            if i:
                bits.append("X" + (f"^{i}" if i > 1 else ""))
            if j:
                bits.append("Y" + (f"^{j}" if j > 1 else ""))
            parts.append("*".join(bits))
        return "+".join(parts)

    def __repr__(self):
        return f"BivarPoly({self.to_text()})"


_BIVAR_TERM = re.compile(
    r"^(?:(\d+)\*?)?(?:X(?:\^(\d+))?)?\*?(?:Y(?:\^(\d+))?)?$")


def parse_bivar(text: str, p: int) -> BivarPoly:
    """Parse sparse text like "Y^2+X*Y+3*X^4" over F_p."""
    s = text.replace(" ", "").replace("-", "+-")
    terms: dict = {}
    seen_any = False
    for raw in s.split("+"):
        if not raw:
            continue
        neg = raw.startswith("-")
        if neg:
            raw = raw[1:]
        m = _BIVAR_TERM.match(raw)
        if not m or not raw:
            raise ParseError(f"bad term {clip(raw)!r} in {clip(text)!r}")
        if m.group(1) is None and "X" not in raw and "Y" not in raw:
            raise ParseError(f"bad term {clip(raw)!r} in {clip(text)!r}")
        c = int(m.group(1)) if m.group(1) else 1
        i = (int(m.group(2)) if m.group(2) else 1) if "X" in raw else 0
        j = (int(m.group(3)) if m.group(3) else 1) if "Y" in raw else 0
        if neg:
            c = -c
        key = (i, j)
        terms[key] = terms.get(key, 0) + c
        seen_any = True
    if not seen_any:
        raise ParseError(f"empty polynomial {clip(text)!r}")
    return BivarPoly(p, terms)


# ---------------------------------------------------------------------------
# resultant elimination

def annihilator_resultant(num_x: UPoly, den_x: UPoly, num_y: UPoly,
                          den_y: UPoly) -> BivarPoly:
    """Res_u(num_x - X den_x, num_y - Y den_y) as a bivariate polynomial.

    Computed by evaluation at enough specialization points (chosen so the
    u-degrees do not drop) followed by two-stage Lagrange interpolation.
    """
    base = num_x.base
    p = base.p
    n1 = max(num_x.deg, den_x.deg)
    n2 = max(num_y.deg, den_y.deg)
    if n1 < 1 or n2 < 1:
        raise ZeroPolynomial("constant parametrization has no resultant")
    need = max(n1, n2) + 3
    s = 1
    while p ** s < need + 2:
        s += 1
    F = ff_make(p, s, 0)
    emb = ff_embed(base, F)
    nx, dx = num_x.map_field(emb), den_x.map_field(emb)
    ny, dy = num_y.map_field(emb), den_y.map_field(emb)

    def specialize(num, den, v):
        return num - den * v

    def good_points(num, den, degree, count):
        """The first count points, in encoding order, keeping the degree."""
        points = map(F.from_encoding, range(F.size))
        return list(islice((v for v in points
                            if specialize(num, den, v).deg == degree), count))

    xs = good_points(nx, dx, n1, n2 + 1)
    ys = good_points(ny, dy, n2, n1 + 1)
    if len(xs) < n2 + 1 or len(ys) < n1 + 1:  # pragma: no cover
        raise InvariantError("not enough good interpolation points")

    # interpolate in Y for each x, then in X coefficientwise
    in_y, in_x = lagrange_interpolator(ys, F), lagrange_interpolator(xs, F)
    y_polys = []
    for x0 in xs:
        fx = specialize(nx, dx, x0)
        y_polys.append(in_y([upoly_resultant(fx, specialize(ny, dy, y0))
                             for y0 in ys]))
    max_dy = max((poly.deg if poly.deg >= 0 else 0) for poly in y_polys)
    cols = [in_x([poly.coeff(j) for poly in y_polys])
            for j in range(max_dy + 1)]

    terms = {}
    for j, col in enumerate(cols):
        for i, c in enumerate(col.vs):
            # an element int below p is its residue in the prime field
            if c >= p:
                raise InvariantError(
                    "resultant coefficient fell outside the prime field")
            terms[(i, j)] = c
    return BivarPoly(p, terms)


def _content(rows):
    """Monic gcd in F_p[X] of the nonzero rows, or None if every row is 0."""
    g = None
    for c in rows:
        if not c.is_zero():
            g = c if g is None else upoly_gcd(g, c)
    return None if g is None else g.monic()


def _primitive(rows):
    """The rows divided by their content; the same list if that is 1."""
    g = _content(rows)
    if g is None or g.deg == 0:
        return rows
    return [c // g for c in rows]


def _pseudo_rem(f, g):
    """Pseudo-remainder of Y-rows f by Y-rows g, without trailing zero rows."""
    dg = len(g) - 1
    lead_g = g[-1]
    while len(f) - 1 >= dg:
        shift = len(f) - 1 - dg
        lead_f = f[-1]
        f = [c * lead_g for c in f]
        for k in range(dg + 1):
            f[shift + k] = f[shift + k] - lead_f * g[k]
        while f and f[-1].is_zero():
            f.pop()
    return f


def bivar_gcd_y(a: BivarPoly, b: BivarPoly) -> BivarPoly:
    """gcd as polynomials in Y over F_p(X), returned primitive in F_p[X][Y]."""
    if a.deg_y() == 0 or b.deg_y() == 0:
        # a nonzero polynomial free of Y is a unit of F_p(X)[Y]
        return BivarPoly.monomial(a.p, 0, 0)
    fa, fb = _primitive(a.y_coeffs()), _primitive(b.y_coeffs())
    while fb:
        fa, fb = fb, _primitive(_pseudo_rem(fa, fb))
    return BivarPoly.from_y_coeffs(a.p, fa)


def bivar_radical(P: BivarPoly) -> BivarPoly:
    """P0, primitive in F_p[X][Y], for P = c(X)*P0^m with P0 irreducible
    and involving Y, the shape of every resultant pair_annihilator passes:
    Res_u(N1 - X D1, N2 - Y D2) is, up to a factor in X, the norm of b2 - Y
    from F_p(u) to F_p(b1), the m-th power of b2's minimal polynomial.

    After the Y-content and the p-th roots, P is P0^m with p prime to m,
    and P / gcd(P, dP) is P0, with d taken in Y, or in X when P lies in
    F_p[X, Y^p]: P0 is no p-th power, so then d/dX P0 != 0.
    """
    if P.is_zero():
        raise ZeroPolynomial("radical of zero")
    P = P.divide_content_y()
    while P.is_p_power() and (P.deg_x(), P.deg_y()) != (0, 0):
        P = P.p_root()
    swap = P.partial_y().is_zero()
    Q = P.swap() if swap else P
    g = bivar_gcd_y(Q, Q.partial_y())
    if g.deg_y() > 0:
        Q = _bivar_exact_div_y(Q, g)
    # primitive in Y: P is, so is every factor of P, the quotient included
    return Q.swap() if swap else Q


def _bivar_exact_div_y(a: BivarPoly, b: BivarPoly) -> BivarPoly:
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
