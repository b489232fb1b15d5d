"""The twisted polynomial ring L{tau} with tau*c = c^p*tau.

Elements act on extensions of L as additive polynomials x -> sum c_i
x^(p^i); kernels are F_p-subspaces, by linear algebra over F_p.  Products,
divisions, values and kernel columns add element products unreduced (at
p = 2 each by an AND) and reduce every output once (`FField._fold`).
"""

from __future__ import annotations

from .errors import DivisionByZero, Inseparable, NotFound, ZeroPolynomial
from .finitefield import (FIELD_SIZE_LIMIT, FFElem, FField, KernelSpace,
                          ff_embed)
from .upoly import DensePoly


class OrePoly(DensePoly):
    """sum coeffs[i] * tau^i over a finite field, with the p-power twist."""

    __slots__ = ()
    NOUN = "operator"

    @classmethod
    def tau(cls, base, i: int = 1):
        return cls._of(base, (0,) * i + (1,))

    @classmethod
    def scalar(cls, c: FFElem):
        return cls(c.field, (c,))

    def __mul__(self, other):
        other = self._coerce(other)
        field = self.base
        norm, fold = field._norm, field._fold
        out = [0] * (len(self.vs) + len(other.vs) - 1)
        # tau^i * c = sigma^i(c) * tau^i, and sigma^n is the identity on L
        twisted = [other]
        for i, a in enumerate(self.vs):
            if not a:
                continue
            while len(twisted) <= i % field.n:
                twisted.append(twisted[-1].frobenius(1))
            for j, b in enumerate(twisted[i % field.n].vs, i):
                if b:
                    out[j] = norm(out[j] + a * b)
        return OrePoly._of(field, [fold(c) for c in out])

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __call__(self, x: FFElem) -> FFElem:
        return ore_eval(self, x)

    def to_dict(self):
        return {"field": self.base.to_dict(),
                "coeffs": [c.to_list() for c in self.coeffs]}

    @classmethod
    def from_dict(cls, d):
        base = FField.from_dict(d["field"])
        return cls(base, [base.element(c) for c in d["coeffs"]])

    def __repr__(self):
        if self.is_zero():
            return "OrePoly(0)"
        parts = []
        coeffs = self.coeffs
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            body = "" if (c == self.base.one and i > 0) else repr(c)
            if i == 0:
                parts.append(repr(c))
            else:
                parts.append(f"{body}{'*' if body else ''}tau"
                             + (f"^{i}" if i > 1 else ""))
        return "OrePoly(" + " + ".join(parts) + ")"


def _left_divider(b: OrePoly):
    """a's coefficients -> (q, r) lists with a = q*b + r and deg r < deg b.

    tau^k * b = sigma^k(b) tau^k and sigma^n is the identity on L: each twist
    of b, and the inverse of its leading coefficient (a p-power of the
    first), is made once per divisor, when a division first needs it.
    """
    field, db = b.base, b.deg
    mul, neg, norm, fold = field._mul, field._neg, field._norm, field._fold
    # sigma^j(b) with minus the inverse of its leading coefficient appended
    twisted = [OrePoly._of(field, b.vs + (neg(b.leading().inverse().v),))]

    def divide(vs):
        r = list(vs)
        q = [0] * max(len(r) - db, 0)
        for k in range(len(q) - 1, -1, -1):
            top = fold(r.pop())  # r holds sums of products, reduced when read
            if top:
                j = k % field.n
                while len(twisted) <= j:
                    twisted.append(twisted[-1].frobenius(1))
                tb = twisted[j].vs
                q[k] = c = mul(top, tb[-1])  # minus the quotient coefficient
                for i in range(db):
                    if tb[i]:
                        r[k + i] = norm(r[k + i] + c * tb[i])
        r = [fold(c) for c in r]
        while r and not r[-1]:
            r.pop()
        return [neg(c) for c in q], r

    return divide


def ore_divmod_left(a: OrePoly, b: OrePoly):
    """(q, r) with a = q*b + r and deg r < deg b."""
    if b.is_zero():
        raise DivisionByZero("division by the zero operator")
    q, r = _left_divider(a._coerce(b))(a.vs)
    return OrePoly._of(a.base, q), OrePoly._of(a.base, r)


def ore_divmod_right(a: OrePoly, b: OrePoly):
    """(q, r) with a = b*q + r and deg r < deg b."""
    if b.is_zero():
        raise DivisionByZero("division by the zero operator")
    field = a.base
    b = a._coerce(b)
    q = OrePoly.zero(field)
    r = a
    db, lead = b.deg, b.leading()
    while not r.is_zero() and r.deg >= db:
        k = r.deg - db
        # leading term of b * (c tau^k) is lead * c^(p^db) tau^(deg r)
        c = (r.leading() / lead).p_root(db)
        mono = OrePoly(field, (0,) * k + (c,))
        q = q + mono
        r = r - b * mono
    return q, r


def _value(field, vs, chain):
    """sum vs[i] x^(p^i) for chain [x, x^p, ...], extended in place."""
    while len(chain) < len(vs):
        chain.append(field._frobenius(chain[-1], 1 % field.n))
    norm, acc = field._norm, 0
    for c, x in zip(vs, chain):
        if c:
            acc = norm(acc + c * x)
    return field._fold(acc)


def ore_eval(f: OrePoly, x: FFElem) -> FFElem:
    """Apply the additive polynomial: sum c_i x^(p^i)."""
    field = x.field
    if field != f.base:
        f = f.map_field(ff_embed(f.base, field))
    return FFElem(field, _value(field, f.vs, [x.v]))


def ore_kernel(f: OrePoly, ext: FField) -> KernelSpace:
    """All roots of f in ext, with an F_p-basis; |kernel| divides p^deg."""
    if f.is_zero():
        raise ZeroPolynomial("kernel of the zero operator is everything")
    g = f if ext == f.base else f.map_field(ff_embed(f.base, ext))
    p, w, chains, cols = ext.p, ext._slots.w, [], []
    for j in range(ext.n):
        # column f(x^j); for p | j, (x^j)^(p^i) = (x^(j/p))^(p^(i+1))
        reuse = chains[j // p][2:] if j and not j % p else []
        chains.append([1 << w * j] + reuse)
        cols.append(_value(ext, g.vs, chains[-1]))
    return KernelSpace(ext, ext.kernel(cols))


def frobenius_order(step, start, size: int, cap: int) -> int:
    """Least m <= cap with step^m(start) == start; NotFound past the cap.

    step is the Frobenius of a field of the given size, so m is an extension
    degree, and the desk-scale bound size^m <= 2^40 acts as a cap too.
    """
    x = start
    for m in range(1, cap + 1):
        if size ** m > FIELD_SIZE_LIMIT:
            raise NotFound(m - 1,
                           f"extension degree {m} leaves the desk scale")
        x = step(x)
        if x == start:
            return m
    raise NotFound(cap, f"no full kernel within extension degree {cap}")


def ore_splitting_degree(f: OrePoly, cap: int) -> int:
    """Minimal extension degree of the base field where f has p^deg roots.

    A separable f splits in F_{p^N} exactly when it right-divides tau^N - 1,
    so this is the least m with tau^(n m) = 1 mod f, where n = [L : F_p].
    """
    if f.is_zero():
        raise ZeroPolynomial("zero operator")
    if not f.constant():
        raise Inseparable("vanishing constant term: kernel cannot be full")
    L = f.base
    divide = _left_divider(f)
    shift = [0] * L.n
    # from 1 mod f (0 when f is a constant); tau^n fixes L, so tau^n * r
    # is r moved up n places
    return frobenius_order(lambda r: divide(shift + r)[1],
                           divide([1])[1], L.size, cap)


def separable_part(f: OrePoly):
    """(g, s) with f = Frob^s o g and g having nonzero constant term."""
    if f.is_zero():
        raise ZeroPolynomial("zero operator")
    s = 0
    while not f.vs[s]:
        s += 1
    return OrePoly._of(f.base, f.vs[s:]).frobenius(-s), s
