"""Drinfeld modules for A = F_q[t] over a finite field L.

A module is the data of the structure operator
phi_t = theta + a_1 tau^e + ... + a_r tau^(r e) together with the action of
the constants c in F_q as multiplication by c^(p^twist).
"""

from __future__ import annotations

from .errors import FieldMismatch, InvariantError
from .finitefield import FFElem, FField, ff_embed, ff_make
from .ore import OrePoly
from .upoly import UPoly


class DrinfeldModule:
    """Rank-r module over F_q[t] with base field L and characteristic theta."""

    __slots__ = ("L", "constants", "const_embedding", "theta", "coeffs",
                 "twist", "_phi_t", "_char_poly", "_motive_norm",
                 "_motive_frobenius")

    def __init__(self, L: FField, theta: FFElem, coeffs,
                 constants: FField | None = None, twist: int = 0,
                 seed: int = 0):
        if constants is None:
            constants = ff_make(L.p, 1, seed)
        if L.p != constants.p or L.n % constants.n:
            raise FieldMismatch("constants field does not embed in L")
        coeffs = tuple(L.element(c) for c in coeffs)
        if not coeffs or not coeffs[-1]:
            raise ValueError("leading structure coefficient must be nonzero")
        if theta.field != L:
            raise FieldMismatch("theta must live in L")
        if not isinstance(twist, int) or not 0 <= twist < constants.n:
            raise ValueError("twist index out of range")
        self.L = L
        self.constants = constants
        self.const_embedding = ff_embed(constants, L)
        self.theta = theta
        self.coeffs = coeffs
        self.twist = twist
        self._phi_t = None
        self._char_poly = None
        # the motive's Frobenius norm and matrix, kept by motive.py
        self._motive_norm = self._motive_frobenius = None

    # -- derived parameters ----------------------------------------------------

    @property
    def p(self):
        return self.L.p

    @property
    def q(self):
        return self.constants.size

    @property
    def e(self):
        return self.constants.n

    @property
    def r(self):
        return len(self.coeffs)

    rank = r

    @property
    def d(self):
        """Degree of L over the constants field."""
        return self.L.n // self.constants.n

    @property
    def phi_t(self) -> OrePoly:
        if self._phi_t is None:
            e = self.e
            vec = [self.L.zero] * (self.r * e + 1)
            vec[0] = self.theta
            for i, a in enumerate(self.coeffs, start=1):
                vec[i * e] = a
            self._phi_t = OrePoly(self.L, vec)
        return self._phi_t

    # -- the structure morphism -------------------------------------------------

    def constant_action(self, c: FFElem) -> FFElem:
        """Image in L of a constant c in F_q, i.e. c^(p^twist)."""
        return self.lift(UPoly(self.constants, [c])).constant()

    def lift(self, a: UPoly) -> UPoly:
        """a in F_q[t] as a polynomial over L: each coefficient c becomes
        c^(p^twist), embedded in L."""
        if a.base != self.constants:
            raise FieldMismatch("coefficient polynomial not over F_q")
        return a.frobenius(self.twist).map_field(self.const_embedding)

    def descend(self, f: UPoly) -> UPoly:
        """Inverse of lift, for f over L with coefficients in the image."""
        coeffs = [self.const_embedding.preimage(c) for c in f.coeffs]
        if None in coeffs:
            raise InvariantError("polynomial has a coefficient outside F_q")
        return UPoly(self.constants, coeffs).frobenius(-self.twist)

    def phi(self, a: UPoly) -> OrePoly:
        """Operator of a in F_q[t], by Horner over phi_t."""
        acc = OrePoly.zero(self.L)
        for c in reversed(self.lift(a).coeffs):
            acc = acc * self.phi_t + OrePoly.scalar(c)
        return acc

    def delta(self, a: UPoly) -> FFElem:
        """Characteristic morphism: constant term of the operator of a."""
        return self.lift(a).eval(self.theta)

    @property
    def char_poly(self) -> UPoly:
        """Monic irreducible generator of ker(delta) in F_q[t]: the product
        of t - c over the distinct conjugates c = theta^(q^i), descended,
        is theta's minimal polynomial over F_q, so it needs no test."""
        if self._char_poly is None:
            L, m = self.L, UPoly.one(self.L)
            for c in self.theta.conjugates(self.e):
                m = m * UPoly(L, [-c, L.one])
            self._char_poly = self.descend(m)
        return self._char_poly

    # -- misc --------------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, DrinfeldModule)
                and (self.L, self.constants, self.theta, self.coeffs,
                     self.twist)
                == (other.L, other.constants, other.theta, other.coeffs,
                    other.twist))

    def __hash__(self):
        return hash((self.L, self.constants, self.theta, self.coeffs,
                     self.twist))

    def to_dict(self):
        return {"field": self.L.to_dict(),
                "theta": self.theta.to_list(),
                "coeffs": [c.to_list() for c in self.coeffs],
                "e": self.e,
                "twist": self.twist}

    @classmethod
    def from_dict(cls, d, seed: int = 0):
        L = FField.from_dict(d["field"])
        constants = ff_make(L.p, d.get("e", 1), seed)
        return cls(L, L.element(d["theta"]),
                   [L.element(c) for c in d["coeffs"]],
                   constants=constants, twist=d.get("twist", 0))

    def __repr__(self):
        return (f"DrinfeldModule(q={self.q}, r={self.r}, "
                f"L=F_{self.p}^{self.L.n})")


def dm_phi(E: DrinfeldModule, a: UPoly) -> OrePoly:
    return E.phi(a)


def dm_characteristic(E: DrinfeldModule):
    """(theta, monic generator of the characteristic ideal)."""
    return E.theta, E.char_poly


def carlitz_module(L: FField, theta=None, constants=None,
                   seed: int = 0) -> DrinfeldModule:
    """Rank-1 module with phi_t = theta + tau^e."""
    if constants is None:
        constants = ff_make(L.p, 1, seed)
    if theta is None:
        theta = L.gen
    return DrinfeldModule(L, theta, [L.one], constants=constants)
