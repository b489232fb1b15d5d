"""Rational functions over a finite field, in lowest terms.

The ambient field for Frobenius-recovery questions: constants are exactly
the base-field elements, everything else is transcendental.
"""

from __future__ import annotations

from .errors import (FieldMismatch, ParseError, RootDoesNotExist,
                     ZeroDenominator)
from .finitefield import FField
from .upoly import UPoly, parse_upoly, upoly_gcd


class RationalFunction:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly):
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        if num.base != den.base:
            raise FieldMismatch("numerator and denominator over different fields")
        if num.is_zero():
            num, den = UPoly.zero(num.base), UPoly.one(num.base)
        else:
            if den.deg > 0:
                g = upoly_gcd(num, den)
                if g.deg > 0:
                    num, den = num // g, den // g
            if not den.is_monic():
                lead = den.leading().inverse()
                num, den = num * lead, den * lead
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, poly: UPoly):
        return cls(poly, UPoly.one(poly.base))

    @classmethod
    def constant(cls, base: FField, c):
        return cls(UPoly(base, [c]), UPoly.one(base))

    @property
    def base(self) -> FField:
        return self.num.base

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.deg <= 0 and self.den.deg == 0

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.base != self.base:
                raise FieldMismatch("different base fields")
            return other
        if isinstance(other, UPoly):
            return RationalFunction.from_poly(other)
        return RationalFunction.constant(self.base, other)

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDenominator("division by zero")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return (RationalFunction(self.den, self.num)) ** (-e)
        return RationalFunction(self.num ** e, self.den ** e)

    def frobenius_power(self, k: int) -> "RationalFunction":
        """self^(p^k); negative k extracts the unique p^(-k)-th root."""
        if k >= 0:
            return RationalFunction(_poly_p_power(self.num, k),
                                    _poly_p_power(self.den, k))
        return RationalFunction(_poly_p_root(self.num, -k),
                                _poly_p_root(self.den, -k))

    def has_p_power_root(self, k: int) -> bool:
        """Whether a p^k-th root exists in the rational function field."""
        if k <= 0:
            return True
        p = self.base.p
        step = p ** k
        return (all(i % step == 0 or not c
                    for i, c in enumerate(self.num.vs))
                and all(i % step == 0 or not c
                        for i, c in enumerate(self.den.vs)))

    def __eq__(self, other):
        if not isinstance(other, (RationalFunction, UPoly, int)):
            return NotImplemented
        other = self._coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def to_text(self, var: str = "u") -> str:
        if self.den.deg == 0:
            return self.num.to_text(var)
        return f"({self.num.to_text(var)})/({self.den.to_text(var)})"

    def __repr__(self):
        return f"RationalFunction({self.to_text()})"


def _poly_p_power(poly: UPoly, k: int) -> UPoly:
    """(sum c_i x^i)^(p^k) = sum c_i^(p^k) x^(i p^k)."""
    if poly.is_zero() or k == 0:
        return poly
    step = poly.base.p ** k
    out = [0] * (poly.deg * step + 1)
    out[::step] = poly.frobenius(k).vs
    return UPoly._of(poly.base, out)


def _poly_p_root(poly: UPoly, k: int) -> UPoly:
    if poly.is_zero() or k == 0:
        return poly
    step = poly.base.p ** k
    for i, c in enumerate(poly.vs):
        if c and i % step:
            raise RootDoesNotExist(
                f"no p^{k}-th root: exponent {i} not divisible by {step}")
    return UPoly._of(poly.base, poly.vs[::step]).frobenius(-k)


def parse_ratfunc(text: str, base: FField, var: str = "u") -> RationalFunction:
    """Parse "num" or "num/den" with sparse integer-coefficient parts."""
    s = text.strip()
    if not s:
        raise ParseError("empty rational function")
    if "/" in s:
        top, _, bottom = s.partition("/")
        top = top.strip().strip("()")
        bottom = bottom.strip().strip("()")
        return RationalFunction(parse_upoly(top, base, var),
                                parse_upoly(bottom, base, var))
    return RationalFunction.from_poly(parse_upoly(s.strip("()"), base, var))
