"""Finite fields F_{p^n} presented as F_p[x]/(modulus), with embeddings.

Every field is immutable once built.  Moduli come from a deterministic
seeded search, so identical parameters reproduce identical fields with no
external tables.  Elements are coefficient vectors over F_p stored as
tuples of ints.
"""

from __future__ import annotations

import operator

from . import linalg
from .errors import (BoundExceeded, DivisionByZero, FieldMismatch,
                     NoEmbedding, NotFound, NotPrime, Reducible)
from .intutil import _power, factorize, is_prime

FIELD_SIZE_LIMIT = 2 ** 40
SCAN_LIMIT = 2 ** 21  # cap for exhaustive element enumeration


# ---------------------------------------------------------------------------
# polynomial helpers over F_p on raw int tuples (low-to-high coefficients)

def _trim(c):
    k = len(c)
    while k and c[k - 1] == 0:
        k -= 1
    return tuple(c[:k])


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pdivmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            f = c * inv % p
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return _trim(q), _trim(a[:db])


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(c * inv % p for c in a)
    return a


def _ppowmod(a, e, m, p):
    return _power(_pmod(a, m, p), e, (1,),
                  lambda u, v: _pmod(_pmul(u, v, p), m, p))


def _pirreducible(f, p):
    """Ben-Or's test: gcd(x^(p^i) - x, f) = 1 for every i <= deg f / 2."""
    n = len(f) - 1
    if n < 1 or f[-1] == 0:
        return False
    h = (0, 1)
    for _ in range(n // 2):
        h = _ppowmod(h, p, f, p)
        if _pgcd(_padd(h, (0, p - 1), p), f, p) != (1,):
            return False
    return True


def _check_size(p, n):
    """Raise BoundExceeded when F_{p^n} has more than 2^40 elements."""
    # p >= 2, so any n above 40 exceeds 2^40 without computing p^n
    if n > 40 or p ** n > FIELD_SIZE_LIMIT:
        raise BoundExceeded(f"F_{p}^{n} has more than 2^40 elements")


# ---------------------------------------------------------------------------

class FField:
    """The finite field with p**n elements."""

    __slots__ = ("p", "n", "modulus", "size", "_red")

    def __init__(self, p, n, modulus):
        modulus = tuple(modulus)
        if not all(isinstance(v, int) for v in (p, n) + modulus):
            raise TypeError("field parameters must be integers")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        modulus = _trim(tuple(c % p for c in modulus))
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        _check_size(p, n)
        if not _pirreducible(modulus, p):
            raise Reducible("modulus is reducible")
        self.p = p
        self.n = n
        self.modulus = modulus
        self.size = p ** n
        # reduction table: x^k mod modulus for k in [n, 2n-2]
        red = []
        cur = modulus[:-1]
        cur = tuple((-c) % p for c in cur)  # x^n = -(low part)
        for _ in range(n, 2 * n - 1):
            red.append(cur + (0,) * (n - len(cur)))
            cur = self._shift_reduce(cur)
        self._red = tuple(red)

    def _shift_reduce(self, c):
        shifted = (0,) + tuple(c)
        if len(shifted) <= self.n:
            return _trim(shifted)
        p = self.p
        top = shifted[self.n]
        base = list(shifted[: self.n])
        if top:
            for j in range(self.n):
                base[j] = (base[j] - top * self.modulus[j]) % p
        return _trim(base)

    # -- raw tuple arithmetic ------------------------------------------------

    def _add(self, a, b):
        p = self.p
        return tuple((a[i] + b[i]) % p for i in range(self.n))

    def _sub(self, a, b):
        p = self.p
        return tuple((a[i] - b[i]) % p for i in range(self.n))

    def _neg(self, a):
        p = self.p
        return tuple((-a[i]) % p for i in range(self.n))

    def _mul(self, a, b):
        p, n = self.p, self.n
        conv = [0] * (2 * n - 1)
        for i in range(n):
            ai = a[i]
            if ai:
                for j in range(n):
                    bj = b[j]
                    if bj:
                        conv[i + j] = (conv[i + j] + ai * bj) % p
        out = conv[:n]
        for k in range(n, 2 * n - 1):
            c = conv[k]
            if c:
                row = self._red[k - n]
                for j in range(n):
                    out[j] = (out[j] + c * row[j]) % p
        return tuple(v % p for v in out)

    def _inv(self, a):
        if not any(a):
            raise DivisionByZero("inverse of zero")
        g, s = self._xgcd_mod(_trim(a))
        if g != (1,):
            raise Reducible("element shares a factor with the modulus")
        return tuple(s[i] if i < len(s) else 0 for i in range(self.n))

    def _xgcd_mod(self, a):
        p = self.p
        r0, r1 = self.modulus, a
        s0, s1 = (), (1,)
        while r1:
            q, r = _pdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _padd(s0, tuple((-c) % p for c in _pmul(q, s1, p)), p)
        inv = pow(r0[-1], -1, p)
        return tuple(c * inv % p for c in r0), tuple(c * inv % p for c in s0)

    # -- element construction -------------------------------------------------

    def element(self, coeffs) -> "FFElem":
        if isinstance(coeffs, FFElem):
            if coeffs.field != self:
                raise FieldMismatch("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            vec = [0] * self.n
            vec[0] = coeffs % self.p
            return FFElem(self, tuple(vec))
        vec = list(coeffs)
        if not all(isinstance(c, int) for c in vec):
            raise TypeError(f"coefficients must be integers: {coeffs!r}")
        vec += [0] * (self.n - len(vec))
        return FFElem(self, tuple(c % self.p for c in vec[: self.n]))

    @property
    def zero(self):
        return FFElem(self, (0,) * self.n)

    @property
    def one(self):
        return self.element(1)

    @property
    def gen(self):
        """The class of x, i.e. a root of the modulus."""
        if self.n == 1:
            return self.element([(-self.modulus[0]) % self.p])
        return self.element([0, 1])

    def from_encoding(self, k: int) -> "FFElem":
        digits = []
        for _ in range(self.n):
            digits.append(k % self.p)
            k //= self.p
        return FFElem(self, tuple(digits))

    def elements(self):
        """All elements in encoding order.  Guarded by the scan limit."""
        if self.size > SCAN_LIMIT:
            raise BoundExceeded(f"field too large to enumerate ({self.size})")
        for k in range(self.size):
            yield self.from_encoding(k)

    def span(self, basis):
        """The F_p-span of the given elements, sorted by encoding."""
        add = self._add
        points = [(0,) * self.n]
        for b in basis:
            multiples = [b.coeffs]
            for _ in range(2, self.p):
                multiples.append(add(multiples[-1], b.coeffs))
            points = points + [add(q, s) for s in multiples for q in points]
        elems = [FFElem(self, t) for t in points]
        elems.sort(key=FFElem.encode)
        return elems

    def subfield_elements(self, m: int):
        """All elements of the subfield with p**m elements, sorted by encoding."""
        if self.n % m:
            raise NoEmbedding(f"no subfield of degree {m} in degree {self.n}")
        if self.p ** m > SCAN_LIMIT:
            raise BoundExceeded("subfield too large to enumerate")
        # the subfield is the kernel of Frob^m - 1; column j is g^j - x^j
        g = self.element([0, 1]).p_power(m)
        cols, gj = [], self.one
        for j in range(self.n):
            cols.append([(c - (i == j)) % self.p
                         for i, c in enumerate(gj.coeffs)])
            gj = gj * g
        rows = [list(row) for row in zip(*cols)]
        basis = linalg.nullspace(rows, self.p)
        if len(basis) != m:
            raise NoEmbedding(f"fixed space of Frob^{m} has dimension "
                              f"{len(basis)}, not {m}")
        return self.span([FFElem(self, tuple(b)) for b in basis])

    # -- misc -----------------------------------------------------------------

    def to_dict(self):
        mod = list(self.modulus) + [0] * (self.n + 1 - len(self.modulus))
        return {"p": self.p, "n": self.n, "modulus": mod}

    @classmethod
    def from_dict(cls, d):
        return cls(d["p"], d["n"], tuple(d["modulus"]))

    def __eq__(self, other):
        return (isinstance(other, FField)
                and (self.p, self.n, self.modulus)
                == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"FField(p={self.p}, n={self.n})"


class FFElem:
    """An element of an FField; immutable coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        """other as an element of this field, or NotImplemented."""
        if isinstance(other, FFElem):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, (int, list, tuple)):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return FFElem(self.field, self.field._add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return FFElem(self.field, self.field._sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else other - self

    def __neg__(self):
        return FFElem(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return FFElem(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else other / self

    def inverse(self):
        return FFElem(self.field, self.field._inv(self.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, self.field.one, operator.mul)

    def p_power(self, i: int):
        """Frobenius power x -> x^(p^i)."""
        return self ** (self.field.p ** (i % self.field.n))

    def p_root(self, i: int):
        """Unique p^i-th root (the field is perfect)."""
        n = self.field.n
        return self.p_power((-i) % n)

    def encode(self) -> int:
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (isinstance(other, FFElem) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.n))

    def to_list(self):
        return list(self.coeffs)

    def __repr__(self):
        if self.field.n == 1:
            return str(self.coeffs[0])
        return str(list(self.coeffs))


# ---------------------------------------------------------------------------
# constructors, embeddings

_FIELD_CACHE: dict = {}
_EMBED_CACHE: dict = {}


def ff_make(p: int, n: int, seed: int = 0) -> FField:
    """The field F_{p^n} with a deterministically chosen modulus.

    The seed offsets the start of the search, so distinct seeds may pick
    distinct moduli while the same (p, n, seed) always reproduces the same
    field.
    """
    key = (p, n, seed)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree must be >= 1")
    _check_size(p, n)
    span = p ** n
    for j in range(span):
        digits = []
        k = (seed + j) % span
        for _ in range(n):
            digits.append(k % p)
            k //= p
        # FField checks the irreducibility of each candidate
        try:
            field = FField(p, n, tuple(digits) + (1,))
        except Reducible:
            continue
        _FIELD_CACHE[key] = field
        return field
    raise NotFound(span)  # pragma: no cover - irreducibles always exist


class FieldEmbedding:
    """Ring embedding of one finite field into another, fixed on F_p."""

    __slots__ = ("sub", "sup", "gen_image", "_powers")

    def __init__(self, sub, sup, gen_image):
        self.sub = sub
        self.sup = sup
        self.gen_image = gen_image
        powers = [sup.one]
        for _ in range(1, sub.n):
            powers.append(powers[-1] * gen_image)
        self._powers = tuple(powers)

    def __call__(self, elem: FFElem) -> FFElem:
        if elem.field != self.sub:
            raise FieldMismatch("element not in the source field")
        acc = self.sup.zero
        for c, w in zip(elem.coeffs, self._powers):
            if c:
                acc = acc + w * c
        return acc

    def preimage(self, elem: FFElem):
        """The element of sub mapping to elem, or None if elem is not an image."""
        if elem.field != self.sup:
            return None
        rows = [[w.coeffs[i] for w in self._powers] for i in range(self.sup.n)]
        sol = linalg.solve(rows, list(elem.coeffs), self.sup.p)
        return None if sol is None else self.sub.element(sol)

    def __repr__(self):
        return f"FieldEmbedding({self.sub!r} -> {self.sup!r})"


def ff_embed(sub: FField, sup: FField) -> FieldEmbedding:
    """The embedding sending sub's generator to the least root of its modulus."""
    if sub.p != sup.p or sup.n % sub.n != 0:
        raise NoEmbedding(f"no embedding F_{sub.p}^{sub.n} -> F_{sup.p}^{sup.n}")
    key = ((sub.p, sub.n, sub.modulus), (sup.p, sup.n, sup.modulus))
    cached = _EMBED_CACHE.get(key)
    if cached is not None:
        return cached
    if sub == sup:
        emb = FieldEmbedding(sub, sup, sup.gen)
    else:
        root = None
        for z in sup.subfield_elements(sub.n):
            acc = sup.zero
            for c in reversed(sub.modulus):
                acc = acc * z + c
            if not acc:
                root = z
                break
        if root is None:  # pragma: no cover - a root always exists
            raise NoEmbedding("modulus has no root in the target subfield")
        emb = FieldEmbedding(sub, sup, root)
    _EMBED_CACHE[key] = emb
    return emb


def ff_generator(field: FField) -> FFElem:
    """The generator of the multiplicative group with the least encoding."""
    target = field.size - 1
    primes = list(factorize(target))
    # above F_p, skip the prime-field constants: their orders divide p - 1
    for k in range(field.p if field.n > 1 else 1, field.size):
        g = field.from_encoding(k)
        if all(g ** (target // q) != field.one for q in primes):
            return g
    raise NotFound(field.size)  # pragma: no cover


def extension_of(field: FField, m: int, seed: int = 0):
    """Degree-m extension together with the embedding of `field` into it."""
    if m == 1:
        return field, ff_embed(field, field)
    ext = ff_make(field.p, field.n * m, seed)
    return ext, ff_embed(field, ext)
