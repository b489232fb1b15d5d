"""One-parameter Drinfeld families over F_q[theta] and their specializations.

A family fixes the characteristic map t -> g(theta) and polynomial
structure coefficients a_1(theta)..a_r(theta); reduction at a monic
irreducible place keeps the rank whenever the leading coefficient
survives.
"""

from __future__ import annotations

from .dmodule import DrinfeldModule
from .errors import BadReduction, FieldMismatch
from .finitefield import FField, ff_embed, ff_make
from .upoly import UPoly, upoly_irreducible


class DrinfeldFamily:
    """Family with structure map t -> g(theta) + sum a_i(theta) tau^(e i)."""

    __slots__ = ("constants", "r", "delta_poly", "coeffs")

    def __init__(self, constants: FField, delta_poly: UPoly, coeffs):
        coeffs = tuple(c if isinstance(c, UPoly) else UPoly(constants, c)
                       for c in coeffs)
        if delta_poly.base != constants:
            raise FieldMismatch("delta polynomial not over the constants field")
        if not coeffs or coeffs[-1].is_zero():
            raise ValueError("leading family coefficient must be nonzero")
        for c in coeffs:
            if c.base != constants:
                raise FieldMismatch("coefficient not over the constants field")
        self.constants = constants
        self.r = len(coeffs)
        self.delta_poly = delta_poly
        self.coeffs = coeffs

    @property
    def p(self):
        return self.constants.p

    @property
    def q(self):
        return self.constants.size

    @property
    def e(self):
        return self.constants.n

    def is_good(self, prime: UPoly) -> bool:
        return not (self.coeffs[-1] % prime).is_zero()

    def specialize(self, prime: UPoly, seed: int = 0):
        """(module over F_q[theta]/(prime), the image theta_bar of theta)."""
        if prime.base != self.constants:
            raise FieldMismatch("place not over the constants field")
        if not prime.is_monic() or not upoly_irreducible(prime):
            raise ValueError("place must be monic irreducible")
        if not self.is_good(prime):
            raise BadReduction(
                f"leading coefficient vanishes at {prime.to_text('x')}")
        residue_field = ff_make(self.p, self.e * prime.deg, seed)
        emb = ff_embed(self.constants, residue_field)
        lifted = prime.map_field(emb)
        theta_bar = next(x for x in residue_field.elements()
                         if not lifted.eval(x))
        module = DrinfeldModule(
            residue_field,
            self.delta_poly.map_field(emb).eval(theta_bar),
            [a.map_field(emb).eval(theta_bar) for a in self.coeffs],
            constants=self.constants)
        return module, theta_bar

    def to_dict(self):
        return {"p": self.p, "e": self.e, "r": self.r,
                "delta": self.delta_poly.to_lists(),
                "coeffs": [c.to_lists() for c in self.coeffs]}

    @classmethod
    def from_dict(cls, d, seed: int = 0):
        constants = ff_make(d["p"], d.get("e", 1), seed)

        def poly(entries):
            return UPoly(constants, [constants.element(c) for c in entries])

        return cls(constants, poly(d["delta"]), [poly(c) for c in d["coeffs"]])

    def __repr__(self):
        return (f"DrinfeldFamily(q={self.q}, r={self.r}, "
                f"delta={self.delta_poly.to_text('x')})")


def carlitz_family(p: int, e: int = 1, seed: int = 0) -> DrinfeldFamily:
    """The family t -> theta + tau^e (the generic rank-1 case)."""
    constants = ff_make(p, e, seed)
    return DrinfeldFamily(constants, UPoly.x(constants),
                          [UPoly.one(constants)])


def family_specialize(family: DrinfeldFamily, prime: UPoly,
                      seed: int = 0) -> DrinfeldModule:
    return family.specialize(prime, seed)[0]


def dm_residual_frobenius_check(family: DrinfeldFamily, prime: UPoly,
                                seed: int = 0):
    """Least k with g(theta) = theta^(p^k) at the place, or None.

    Since t generates F_q[t] over the constants, the single congruence at
    the generator settles the for-all-a statement.
    """
    module, theta_bar = family.specialize(prime, seed)
    orbit = theta_bar.conjugates()
    return orbit.index(module.theta) if module.theta in orbit else None


def dm_unit_valuation_check(family: DrinfeldFamily, prime: UPoly,
                            ell: UPoly, h: int = 1, seed: int = 0) -> bool:
    """True iff delta(l) is a unit at the place; requires deg l > deg place."""
    if h != 1:
        raise ValueError("F_q[t] is principal: h must be 1")
    if ell.base != family.constants:
        raise FieldMismatch("l not over the constants field")
    if ell.deg <= prime.deg:
        raise ValueError("requires deg l > deg of the place")
    module, _ = family.specialize(prime, seed)
    return bool(ell.eval(module.theta))
