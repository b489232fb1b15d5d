"""Sparse bivariate polynomials over a prime field F_p.

Supports the graph-annihilator pipeline: resultant elimination by
evaluation/interpolation, content and p-power normalization, and a
squarefree radical.  Coefficients are plain ints mod p.
"""

from __future__ import annotations

import re

from .errors import BoundExceeded, InvariantError, ParseError, ZeroPolynomial
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
            size = max(row) + 1 if row else 0
            vec = [0] * size
            for i, c in row.items():
                vec[i] = c
            out.append(UPoly(base, vec))
        return out

    @classmethod
    def from_y_coeffs(cls, p, polys):
        terms = {}
        for j, poly in enumerate(polys):
            for i, c in enumerate(poly.coeffs):
                if c:
                    terms[(i, j)] = c.encode()
        return cls(p, terms)

    def swap(self):
        return BivarPoly(self.p, {(j, i): c for (i, j), c in self.terms.items()})

    def eval_x(self, x):
        """Univariate in Y after substituting X = x (an FFElem)."""
        field = x.field
        dy = self.deg_y()
        vec = [field.zero] * (dy + 1)
        xpow = {0: field.one}
        for (i, j), c in sorted(self.terms.items()):
            if i not in xpow:
                xpow[i] = x ** i
            vec[j] = vec[j] + xpow[i] * c
        return UPoly(field, vec)

    def eval_pair(self, x, y):
        """Full evaluation; x and y may be field elements or ring elements."""
        acc = None
        for (i, j), c in sorted(self.terms.items()):
            term = (x ** i) * (y ** j) * c
            acc = term if acc is None else acc + term
        if acc is None:
            return 0
        return acc

    def substitute_y_power(self, k: int):
        """Y -> Y^(p^k)."""
        step = self.p ** k
        return BivarPoly(self.p,
                         {(i, j * step): c for (i, j), c in self.terms.items()})

    # -- normalization ------------------------------------------------------------

    def content_y(self) -> UPoly:
        """gcd in F_p[X] of the Y-coefficients."""
        polys = [c for c in self.y_coeffs() if not c.is_zero()]
        if not polys:
            raise ZeroPolynomial("content of zero")
        g = polys[0]
        for h in polys[1:]:
            g = upoly_gcd(g, h)
        return g.monic()

    def divide_content_y(self):
        g = self.content_y()
        if g.deg <= 0:
            return self
        return BivarPoly.from_y_coeffs(self.p,
                                       [c // g for c in self.y_coeffs()])

    def is_p_power(self) -> bool:
        return (not self.is_zero()
                and all(i % self.p == 0 and j % self.p == 0
                        for i, j in self.terms))

    def p_root(self):
        """p-th root when every exponent pair is divisible by p."""
        # over F_p coefficients are already p-th powers of themselves
        return BivarPoly(self.p, {(i // self.p, j // self.p): c
                                  for (i, j), c in self.terms.items()})

    def partial_x(self):
        return BivarPoly(self.p, {(i - 1, j): c * i
                                  for (i, j), c in self.terms.items() if i})

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
            raise ParseError(f"bad term {raw!r} in {text!r}")
        if m.group(1) is None and "X" not in raw and "Y" not in raw:
            raise ParseError(f"bad term {raw!r} in {text!r}")
        c = int(m.group(1)) if m.group(1) else 1
        i = (int(m.group(2)) if m.group(2) else 1) if "X" in raw else 0
        j = (int(m.group(3)) if m.group(3) else 1) if "Y" in raw else 0
        if neg:
            c = -c
        key = (i, j)
        terms[key] = terms.get(key, 0) + c
        seen_any = True
    if not seen_any:
        raise ParseError(f"empty polynomial {text!r}")
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

    def lead_ok(num, den, v, degree):
        poly = specialize(num, den, v)
        return poly.deg == degree

    xs = [x for x in F.elements() if lead_ok(nx, dx, x, n1)][: n2 + 1]
    ys = [y for y in F.elements() if lead_ok(ny, dy, y, n2)][: n1 + 1]
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
        for i, c in enumerate(col.coeffs):
            if c:
                if any(c.coeffs[1:]):
                    raise InvariantError(
                        "resultant coefficient fell outside the prime field")
                terms[(i, j)] = c.coeffs[0]
    return BivarPoly(p, terms)


def bivar_gcd_y(a: BivarPoly, b: BivarPoly) -> BivarPoly:
    """gcd as polynomials in Y over F_p(X), returned primitive in F_p[X][Y]."""
    fa, fb = a.y_coeffs(), b.y_coeffs()

    def pseudo_rem(f, g):
        # f, g: lists of UPoly (Y-coefficients); returns pseudo remainder
        f = list(f)
        dg = len(g) - 1
        lead_g = g[-1]
        while len(f) - 1 >= dg and any(not c.is_zero() for c in f):
            while f and f[-1].is_zero():
                f.pop()
            if len(f) - 1 < dg:
                break
            shift = len(f) - 1 - dg
            lead_f = f[-1]
            f = [c * lead_g for c in f]
            for k in range(dg + 1):
                f[shift + k] = f[shift + k] - lead_f * g[k]
            while f and f[-1].is_zero():
                f.pop()
        return f

    def primitive(f):
        nz = [c for c in f if not c.is_zero()]
        if not nz:
            return f
        g = nz[0]
        for h in nz[1:]:
            g = upoly_gcd(g, h)
        return [c // g for c in f]

    fa, fb = primitive(fa), primitive(fb)
    while any(not c.is_zero() for c in fb):
        fa, fb = fb, primitive(pseudo_rem(fa, fb))
    if not any(not c.is_zero() for c in fa):
        return BivarPoly.zero(a.p)
    return BivarPoly.from_y_coeffs(a.p, primitive(fa))


def bivar_radical(P: BivarPoly) -> BivarPoly:
    """Squarefree, p-power-free part; for prime powers c*P0^m returns P0."""
    if P.is_zero():
        raise ZeroPolynomial("radical of zero")
    while P.is_p_power():
        P = P.p_root()
    dy = P.partial_y()
    if not dy.is_zero():
        g = bivar_gcd_y(P, dy)
        if g.deg_y() > 0 or g.deg_x() > 0:
            P = _bivar_exact_div_y(P, g)
    else:
        dx = P.partial_x()
        if not dx.is_zero():
            sw = P.swap()
            g = bivar_gcd_y(sw, sw.partial_y())
            if g.deg_y() > 0 or g.deg_x() > 0:
                sw = _bivar_exact_div_y(sw, g)
            P = sw.swap()
    return P.divide_content_y()


def _bivar_exact_div_y(a: BivarPoly, b: BivarPoly) -> BivarPoly:
    """Exact division in F_p(X)[Y], result cleared back into F_p[X][Y]."""
    fa, fb = a.y_coeffs(), b.y_coeffs()
    base = ff_make(a.p, 1, 0)
    # long division with rational bookkeeping: multiply through by lead_b powers
    quot: list = []
    rem = [(c, UPoly.one(base)) for c in fa]  # (num, den) pairs
    lead_num = fb[-1]
    db = len(fb) - 1
    while len(rem) - 1 >= db:
        while rem and rem[-1][0].is_zero():
            rem.pop()
        if len(rem) - 1 < db:
            break
        top_num, top_den = rem[-1]
        qn, qd = top_num, top_den * lead_num
        g = upoly_gcd(qn, qd)
        if g.deg > 0:
            qn, qd = qn // g, qd // g
        shift = len(rem) - 1 - db
        quot.insert(0, (shift, qn, qd))
        for k in range(db + 1):
            rn, rd = rem[shift + k]
            # rem -= q * b
            num = rn * qd - qn * fb[k] * rd
            den = rd * qd
            g2 = upoly_gcd(num, den)
            if g2.deg > 0:
                num, den = num // g2, den // g2
            rem[shift + k] = (num, den)
        rem.pop()
    if any(not rn.is_zero() for rn, _ in rem):
        raise ZeroPolynomial("division was not exact")
    # clear denominators
    common = UPoly.one(base)
    for _, _, qd in quot:
        common = common * (qd // upoly_gcd(common, qd))
    size = max(s for s, _, _ in quot) + 1
    out = [UPoly.zero(base)] * size
    for s, qn, qd in quot:
        out[s] = qn * (common // qd)
    result = BivarPoly.from_y_coeffs(a.p, out)
    return result.divide_content_y()
