"""Univariate polynomials over a finite field.

UPoly doubles as the coefficient ring F_q[t] and as F_q[theta]; deg of the
zero polynomial is the -infinity sentinel so Euclidean contracts read
uniformly.  A polynomial stores its coefficients as element ints
(`FFElem.v`), low to high; `coeffs` and `coeff` hand out FFElem views.
Sums run on those ints, and products, division and powers mod a
polynomial hand them to the packed F_q[t] kernel of `polykernel`.
"""

from __future__ import annotations

import functools
import operator
import re
from itertools import compress, product, repeat

from .errors import (BoundExceeded, DivisionByZero, FieldMismatch,
                     NonCoprimeModuli, ParseError, ZeroPolynomial, clip)
from .finitefield import (SCAN_LIMIT, FFElem, FField, FieldEmbedding,
                          _pirreducible, ff_embed)
from .intutil import _power
from .polykernel import poly_kernel

NEG_INF = float("-inf")


class DensePoly:
    """Coefficients low-to-high as element ints vs, trailing zeros stripped.

    Everything that does not depend on the product lives here; subclasses
    supply it.  NOUN names the elements in error messages.
    """

    __slots__ = ("base", "vs")
    NOUN = "polynomial"

    def __init__(self, base: FField, coeffs):
        vs = []
        for c in coeffs:
            if not isinstance(c, FFElem):
                c = base.element(c)
            elif c.field is not base and c.field != base:
                raise FieldMismatch("coefficient outside the base field")
            vs.append(c.v)
        while vs and not vs[-1]:
            vs.pop()
        self.base = base
        self.vs = tuple(vs)

    @classmethod
    def _of(cls, base, vs):
        """The polynomial of element ints of base, unchecked."""
        vs = list(vs)
        while vs and not vs[-1]:
            vs.pop()
        poly = object.__new__(cls)
        poly.base = base
        poly.vs = tuple(vs)
        return poly

    @classmethod
    def zero(cls, base):
        return cls._of(base, ())

    @classmethod
    def one(cls, base):
        return cls._of(base, (1,))

    @property
    def coeffs(self):
        """The coefficients as FFElems, low to high."""
        return tuple(map(FFElem, repeat(self.base), self.vs))

    @property
    def deg(self):
        return len(self.vs) - 1 if self.vs else NEG_INF

    def is_zero(self):
        return not self.vs

    def leading(self) -> FFElem:
        if not self.vs:
            raise ZeroPolynomial(f"zero {self.NOUN} has no leading coefficient")
        return FFElem(self.base, self.vs[-1])

    def constant(self) -> FFElem:
        return self.coeff(0)

    def coeff(self, i: int) -> FFElem:
        return FFElem(self.base, self.vs[i] if 0 <= i < len(self.vs) else 0)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.base != self.base:
                raise FieldMismatch(f"{self.NOUN}s over different fields")
            return other
        return type(self)(self.base, (other,))

    def __add__(self, other):
        a, b = self.vs, self._coerce(other).vs
        if len(a) < len(b):
            a, b = b, a
        add = self.base._add
        return self._of(self.base, list(map(add, a, b)) + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self.vs, self._coerce(other).vs
        field, n = self.base, min(len(a), len(b))
        return self._of(field, list(map(field._sub, a, b)) + list(a[n:])
                        + list(map(field._neg, b[n:])))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._of(self.base, map(self.base._neg, self.vs))

    def __pow__(self, e: int):
        return _power(self, e, self.one(self.base), operator.mul)

    def frobenius(self, i: int):
        """sigma^i coefficientwise, sigma the p-power of the base field."""
        field = self.base
        i %= field.n
        if not i:
            return self
        return self._of(field, [field._frobenius(v, i) if v else 0
                                for v in self.vs])

    def map_field(self, emb: FieldEmbedding):
        if emb.sub != self.base:
            raise FieldMismatch("embedding does not start at the base field")
        return self._of(emb.sup, map(emb._image, self.vs))

    def __eq__(self, other):
        if isinstance(other, (int, FFElem)):
            try:
                other = self._coerce(other)
            except FieldMismatch:
                return False
        return (isinstance(other, type(self)) and other.base == self.base
                and other.vs == self.vs)

    def __hash__(self):
        return hash((self.base, self.vs))

    def __bool__(self):
        return bool(self.vs)


class UPoly(DensePoly):
    """Polynomial in F[x]: the commutative product, division and evaluation."""

    __slots__ = ()

    @classmethod
    def x(cls, base):
        return cls._of(base, (0, 1))

    def is_monic(self):
        return bool(self.vs) and self.vs[-1] == 1

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        inv, mul = self.leading().inverse().v, self.base._mul
        return UPoly._of(self.base, [mul(v, inv) for v in self.vs])

    # -- ring operations --------------------------------------------------------

    def __mul__(self, other):
        a, b = self.vs, self._coerce(other).vs
        if not a or not b:
            return UPoly.zero(self.base)
        kernel = poly_kernel(self.base, min(len(a), len(b)))
        return UPoly._of(self.base, kernel.product(a, b))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.deg < other.deg:
            return UPoly.zero(self.base), self
        # a monic divisor, like every l^n and Ben-Or modulus, needs no inverse
        inv = None if other.is_monic() else other.leading().inverse().v
        kernel = poly_kernel(self.base, other.deg)
        q, r = kernel.divide(kernel.pack(self.vs),
                             kernel.divisor(other.vs, inv))
        count = self.deg - other.deg + 1
        return (UPoly._of(self.base, kernel.unpack(q, count)),
                UPoly._of(self.base, kernel.unpack(r, other.deg)))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "UPoly":
        mul, p = self.base._mul, self.base.p
        return UPoly._of(self.base, [mul(v, i % p)
                                     for i, v in enumerate(self.vs) if i])

    def eval(self, x: FFElem) -> FFElem:
        """Horner evaluation; x may live in an extension of the base field."""
        field = x.field
        vs = self.vs
        if field != self.base:
            vs = map(ff_embed(self.base, field)._image, vs)
        mul, add, acc = field._mul, field._add, 0
        for c in reversed(list(vs)):
            acc = add(mul(acc, x.v), c)
        return FFElem(field, acc)

    def to_lists(self):
        return [c.to_list() for c in self.coeffs]

    def to_text(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        coeffs = self.coeffs
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            if self.base.n == 1:
                cs = str(c.encode())
                unit = cs == "1"
            else:
                cs = "[" + ",".join(str(v) for v in c.coeffs) + "]"
                unit = c == self.base.one
            if i == 0:
                parts.append(cs)
            else:
                head = "" if unit else cs + "*"
                parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
        return "+".join(parts)

    def __repr__(self):
        return f"UPoly({self.to_text('x')})"


# ---------------------------------------------------------------------------
# gcd family

def upoly_xgcd(a: UPoly, b: UPoly):
    """(g, s, t) with s*a + t*b = g, g monic (or zero)."""
    base = a.base
    r0, r1 = a, b
    s0, s1 = UPoly.one(base), UPoly.zero(base)
    t0, t1 = UPoly.zero(base), UPoly.one(base)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = r0.leading().inverse()
    return r0 * inv, s0 * inv, t0 * inv


def upoly_gcd(a: UPoly, b: UPoly) -> UPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def upoly_crt(residues) -> UPoly:
    """Unique representative below the product of pairwise-coprime moduli."""
    if not residues:
        raise ValueError("need at least one residue")
    x, modulus = residues[0][0] % residues[0][1], residues[0][1]
    for v, m in residues[1:]:
        g, s, _ = upoly_xgcd(modulus, m)
        if g.deg != 0:
            raise NonCoprimeModuli(f"moduli share a factor of degree {g.deg}")
        # x + modulus * s * (v - x) solves both congruences
        lift = (s * (v - x)) % m
        x = (x + modulus * lift) % (modulus * m)
        modulus = modulus * m
    return x


def upoly_powmod(a: UPoly, e: int, m: UPoly) -> UPoly:
    """a^e mod m by square-and-multiply on packed remainders; a^0 is 1 mod m.

    Each product is reduced by the kernel's long division, so the kernel
    has room for one product of remainders and the division's deg m sums.
    """
    a = a % m
    kernel = poly_kernel(m.base, 2 * m.deg)
    div = kernel.divisor(m.vs, None if m.is_monic()
                         else m.leading().inverse().v)

    def rem(v):
        return kernel.divide(v, div)[1]

    h = _power(kernel.pack(a.vs), e, rem(1), lambda x, y: rem(x * y))
    return UPoly._of(m.base, kernel.unpack(h, m.deg))


def upoly_det(rows) -> UPoly:
    """Exact determinant of a square matrix of UPoly, by Laplace expansion."""
    if len(rows) == 1:
        return rows[0][0]
    total = UPoly.zero(rows[0][0].base)
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * upoly_det(minor)
        total = total - term if j % 2 else total + term
    return total


def upoly_irreducible(f: UPoly) -> bool:
    """Ben-Or's test: gcd(x^(q^i) - x, f) = 1 for every i <= deg f / 2.

    Over F_p the coefficient ints go to the packed test of `finitefield`.
    """
    if f.deg < 1:
        return False
    if f.base.n == 1:
        return _pirreducible(f.vs, f.base.p)
    x = h = UPoly.x(f.base)
    for _ in range(f.deg // 2):
        h = upoly_powmod(h, f.base.size, f)
        if upoly_gcd(h - x, f).deg != 0:
            return False
    return True


def upoly_roots(f: UPoly, ext: FField):
    """All roots of f in ext, by exhaustive scan; sorted by encoding."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial vanishes everywhere")
    if ext.size > SCAN_LIMIT:
        raise BoundExceeded("extension too large for an exhaustive root scan")
    emb = ff_embed(f.base, ext)
    g = f.map_field(emb)
    return [x for x in ext.elements() if not g.eval(x)]


@functools.lru_cache(maxsize=64)
def irreducibles_of_degree(base: FField, d: int) -> tuple:
    """The monic irreducibles of degree d, in encoding order, by a sieve.

    The encoding of a monic f of degree d, less q^d, reads base p as e d
    F_p-digits: digit e i + b is coordinate b of f_i (q = p^e).  The
    composites g*h, g irreducible of degree j <= d/2 and h monic of degree
    d - j, are g*x^(d-j) plus the F_p-span of g*w^b*x^i (b < e, i < d - j,
    w generating F_q), each the digit vector of some g*w^b shifted by e i
    digits.  A walk over the span adds one generator per step, the one at
    the p-adic valuation of the step's number.  At p = 2 a vector is an int
    with a bit per digit, its offset, so a step is one XOR and one store;
    above, a vector has a slot per digit (`FField._slots`), and its offset
    is the dot product of its digits with the powers of p.
    """
    if d < 1:
        return ()
    p, e, top = base.p, base.n, base.size ** d
    if top > SCAN_LIMIT:
        raise BoundExceeded(f"{top} monic polynomials of degree {d} are too "
                            "many to sieve")
    slots = base._slots
    elems = [slots.pack(cs[::-1]) for cs in product(range(p), repeat=e)]
    # a vector's bits per coefficient, and a coefficient's digits: at p = 2
    # its encoding, above its element int, which has a slot per digit
    if p == 2:
        width, code = e, {v: c for c, v in enumerate(elems)}.__getitem__
    else:
        width, code = slots.w * e, int

    def vector(vs):
        return sum(code(v) << width * i for i, v in enumerate(vs))

    # ruler[t - 1] is the p-adic valuation of t, for the steps of every walk
    ruler = b""
    for r in range(e * (d - 1)):
        ruler = (ruler + bytes((r,))) * (p - 1) + ruler
    unpack, norm, count = slots.unpack, slots.norm, e * d
    weights = [p ** i for i in range(count)]
    prime = bytearray(b"\x01") * top
    for j in range(1, d // 2 + 1):
        for g in irreducibles_of_degree(base, j):
            rows = [vector([base._mul(v, elems[p ** b]) for v in g.vs])
                    for b in range(e)]
            gens = [row << width * i for i in range(d - j) for row in rows]
            vec = (rows[0] << width * (d - j)) - (1 << width * d)
            steps = ruler[:p ** (e * (d - j)) - 1]
            if p == 2:
                prime[vec] = 0
                for r in steps:
                    vec ^= gens[r]
                    prime[vec] = 0
                continue
            prime[sum(map(operator.mul, unpack(vec, count), weights))] = 0
            for r in steps:
                vec = norm(vec + gens[r])
                prime[sum(map(operator.mul, unpack(vec, count), weights))] = 0
    # the coefficients below and from x^(d/2), tabled by encoding
    low = [vs[::-1] for vs in product(elems, repeat=d // 2)]
    high = [vs[::-1] + (1,) for vs in product(elems, repeat=d - d // 2)]
    return tuple(UPoly._of(base, low[k % len(low)] + high[k // len(low)])
                 for k in compress(range(top), prime))


def monic_irreducibles(base: FField, max_deg: int):
    """All monic irreducibles of degree <= max_deg, ordered by (degree, encoding).

    The top degree is sieved first, so a size bound it exceeds fails at once.
    """
    top = irreducibles_of_degree(base, max_deg)
    return [f for d in range(1, max_deg)
            for f in irreducibles_of_degree(base, d)] + list(top)


def lagrange_interpolator(xs, base: FField):
    """ys -> the unique polynomial of degree < len(xs) through (x_i, y_i).

    The Lagrange basis is built once; each interpolant combines it linearly.
    """
    full = UPoly.one(base)
    for x in xs:
        full = full * UPoly(base, [-x, base.one])
    basis = []
    for xi in xs:
        # the basis numerator prod_{j != i} (x - x_j), scaled to 1 at x_i
        num = full // UPoly(base, [-xi, base.one])
        basis.append(num * num.eval(xi).inverse())
    return lambda ys: sum((b * y for b, y in zip(basis, ys)),
                          UPoly.zero(base))


def upoly_resultant(f: UPoly, g: UPoly) -> FFElem:
    """Resultant over the base field via the Euclidean recurrence."""
    base = f.base
    if f.is_zero() or g.is_zero():
        return base.zero
    res = base.one
    a, b = f, g
    while True:
        if b.deg == 0:
            return res * b.leading() ** a.deg
        r = a % b
        if r.is_zero():
            return base.zero
        res = res * b.leading() ** (a.deg - r.deg)
        if (a.deg * b.deg) % 2:
            res = -res
        a, b = b, r


# ---------------------------------------------------------------------------
# text parsing: sparse sums like "t^2+t+1", "3*t^4+2", "[0,1]*t+[1,1]"

_TERM_RE = re.compile(r"^(?:(\d+|\[\d+(?:,\d+)*\])\*?)?"
                      r"(?:([A-Za-z])(?:\^(\d+))?)?$")


def parse_upoly(text: str, base: FField, var: str = "t") -> UPoly:
    """Parse a sparse polynomial.  A coefficient is an integer, read in F_p,
    or [c_0,...,c_(n-1)], the element sum c_i x^i that to_text writes."""
    s = text.replace(" ", "").replace("-", "+-")
    if not s or s == "+":
        raise ParseError(f"empty polynomial text: {clip(text)!r}")
    coeffs: dict[int, int] = {}  # exponent -> element int
    for raw in s.split("+"):
        if not raw:
            continue
        negate = raw.startswith("-")
        if negate:
            raw = raw[1:]
        m = _TERM_RE.match(raw)
        if not m or (m.group(2) is None and m.group(1) is None):
            raise ParseError(f"bad term {clip(raw)!r} in {clip(text)!r}")
        cs = m.group(1) or "1"
        c = base.element([int(v) for v in cs[1:-1].split(",")]
                         if cs.startswith("[") else int(cs))
        if m.group(2) is not None and m.group(2) != var:
            raise ParseError(f"unexpected variable {m.group(2)!r}; want {var!r}")
        exp = 0 if m.group(2) is None else int(m.group(3) or 1)
        if exp > SCAN_LIMIT:
            raise BoundExceeded(f"exponent {exp} is above {SCAN_LIMIT}")
        if negate:
            c = -c
        coeffs[exp] = base._add(coeffs.get(exp, 0), c.v)
    # a sparse text may name x^(2^21): build elements for its terms only
    vs = [0] * (max(coeffs) + 1 if coeffs else 0)
    for e, v in coeffs.items():
        vs[e] = v
    return UPoly._of(base, vs)
