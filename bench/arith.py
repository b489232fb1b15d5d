"""Finite-field and polynomial arithmetic owned by the benchmark.

The checkers recompute every expected answer with this module and never
with the library under test, so a fault in the library's arithmetic cannot
make a wrong answer look right.  Sizes here are tiny (fields of degree at
most a few dozen), so clarity wins over speed.
"""

from __future__ import annotations


class Field:
    """F_p[x]/(modulus); elements are tuples of n ints, lowest degree first."""

    def __init__(self, p: int, modulus):
        modulus = [c % p for c in modulus]
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.modulus = tuple(modulus)
        self.n = len(modulus) - 1
        self.size = p ** self.n
        self.zero = (0,) * self.n
        self.one = (1,) + (0,) * (self.n - 1)

    def elem(self, coeffs) -> tuple:
        coeffs = [coeffs] if isinstance(coeffs, int) else list(coeffs)
        if len(coeffs) > self.n:
            raise ValueError("element has more coefficients than the degree")
        return tuple(c % self.p for c in coeffs + [0] * (self.n - len(coeffs)))

    def scalar(self, c: int) -> tuple:
        return self.elem([c])

    def gen(self) -> tuple:
        """The class of x."""
        return self.elem([-self.modulus[0]] if self.n == 1 else [0, 1])

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        p, n, mod = self.p, self.n, self.modulus
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):
            c = conv[k] % p
            if c:
                for j in range(n):
                    conv[k - n + j] -= c * mod[j]
        return tuple(c % p for c in conv[:n])

    def pow(self, a, e: int):
        result, base = self.one, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.size - 2)

    def in_prime_field(self, a) -> bool:
        return not any(a[1:])


def prime_field(p: int) -> Field:
    return Field(p, [0, 1])


# -- polynomials: lists of field elements, lowest degree first, trimmed ------

def ptrim(f, F: Field):
    f = list(f)
    while f and f[-1] == F.zero:
        f.pop()
    return f


def padd(f, g, F: Field):
    n = max(len(f), len(g))
    f = list(f) + [F.zero] * (n - len(f))
    g = list(g) + [F.zero] * (n - len(g))
    return ptrim([F.add(a, b) for a, b in zip(f, g)], F)


def psub(f, g, F: Field):
    return padd(f, [F.neg(c) for c in g], F)


def pmul(f, g, F: Field):
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a != F.zero:
            for j, b in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return ptrim(out, F)


def pdivmod(f, g, F: Field):
    g = ptrim(g, F)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = ptrim(f, F)
    lead_inv = F.inv(g[-1])
    quot = [F.zero] * max(len(rem) - len(g) + 1, 0)
    while len(rem) >= len(g):
        shift = len(rem) - len(g)
        c = F.mul(rem[-1], lead_inv)
        quot[shift] = c
        rem = psub(rem, [F.zero] * shift + [F.mul(c, b) for b in g], F)
    return ptrim(quot, F), rem


def pmod(f, g, F: Field):
    return pdivmod(f, g, F)[1]


def pmonic(f, F: Field):
    inv = F.inv(f[-1])
    return [F.mul(c, inv) for c in f]


def pgcd(f, g, F: Field):
    f, g = ptrim(f, F), ptrim(g, F)
    while g:
        f, g = g, pmod(f, g, F)
    return pmonic(f, F) if f else f


def ppow(f, e: int, F: Field):
    result = [F.one]
    for _ in range(e):
        result = pmul(result, f, F)
    return result


def ppowmod(f, e: int, m, F: Field):
    result, base = [F.one], pmod(f, m, F)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, F), m, F)
        base = pmod(pmul(base, base, F), m, F)
        e >>= 1
    return result


def peval(f, x, F: Field):
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def monic_polys(F: Field, d: int):
    """All monic polynomials of degree d over F."""
    elems = elements(F)
    for k in range(F.size ** d):
        low = []
        for _ in range(d):
            low.append(elems[k % F.size])
            k //= F.size
        yield low + [F.one]


def elements(F: Field):
    out = []
    for k in range(F.size):
        digits = []
        for _ in range(F.n):
            digits.append(k % F.p)
            k //= F.p
        out.append(tuple(digits))
    return out


def monic_irreducibles(F: Field, max_deg: int):
    return [f for d in range(1, max_deg + 1) for f in monic_polys(F, d)
            if is_irreducible(f, F)]


def prime_divisors(n: int):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f, F: Field) -> bool:
    """Rabin's test: f | x^(q^n) - x and gcd(x^(q^(n/r)) - x, f) = 1."""
    f = ptrim(f, F)
    n = len(f) - 1
    if n < 1 or f[-1] != F.one:
        return False
    x = [F.zero, F.one]

    def frob_power(k):  # x^(q^k) mod f
        acc = x
        for _ in range(k):
            acc = ppowmod(acc, F.size, f, F)
        return acc

    if n == 1:
        return True
    if psub(frob_power(n), x, F):
        return False
    return all(len(pgcd(psub(frob_power(n // r), x, F), f, F)) == 1
               for r in prime_divisors(n))
