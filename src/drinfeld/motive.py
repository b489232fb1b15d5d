"""Matrix presentation of the module of additive morphisms attached to a
Drinfeld module, its rank-1 exterior determinant, the Frobenius norm read
off that determinant, the torsion splitting degrees read off the motive's
Frobenius, and the torsion-side verification that the two constructions
agree.

The operator acts on column vectors over L[t] as v -> M * sigma(v), where
sigma raises coefficients to the q-th power and fixes t.  In the companion
basis the matrix determinant has t-degree exactly 1 with root theta; the
scalar in front transports to the rank-1 module below.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .dmodule import DrinfeldModule
from .errors import InvariantError
from .ore import frobenius_order
from .polykernel import ResidueRing
from .torsion import dm_frobenius_det, dm_torsion, splitting_degree
from .upoly import UPoly, upoly_det


@dataclass(frozen=True)
class MotiveMatrix:
    """Companion-basis matrix of the semilinear operator, entries in L[t]."""

    module: DrinfeldModule
    entries: tuple  # r x r rows of UPoly over L

    @property
    def size(self):
        return self.module.r

    def sigma(self, poly: UPoly, k: int = 1) -> UPoly:
        """Coefficient q^k-power twist, fixing t."""
        return poly.frobenius(self.module.e * k)

    def apply(self, vector):
        """One application of the operator to a vector of L[t]-polynomials."""
        twisted = [self.sigma(v) for v in vector]
        return tuple(
            sum((row[j] * twisted[j] for j in range(self.size)),
                UPoly.zero(self.entries[0][0].base))
            for row in self.entries)

    def det(self) -> UPoly:
        return upoly_det(self.entries)


@dataclass(frozen=True)
class DetMotive:
    """Rank-1 determinant data: the operator is c*(t - theta) twisted by sigma."""

    module: DrinfeldModule
    unit: object          # nonzero FFElem c
    factor: UPoly         # t - theta


def motive_matrix(E: DrinfeldModule) -> MotiveMatrix:
    """Companion matrix in the basis (1, tau^e, ..., tau^(e(r-1)))."""
    L = E.L
    r = E.r
    lead_inv = E.coeffs[-1].inverse()
    t_minus_theta = UPoly(L, [-E.theta, L.one])
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            if j == r - 1:
                if i == 0:
                    row.append(t_minus_theta * lead_inv)
                else:
                    row.append(UPoly(L, [-(lead_inv * E.coeffs[i - 1])]))
            elif i == j + 1:
                row.append(UPoly.one(L))
            else:
                row.append(UPoly.zero(L))
        rows.append(tuple(row))
    return MotiveMatrix(module=E, entries=tuple(rows))


def motive_det(E: DrinfeldModule) -> DetMotive:
    """Determinant of the companion matrix; degree 1 in t with root theta."""
    M = motive_matrix(E)
    det = M.det()
    if det.deg != 1:
        raise InvariantError("determinant is not linear in t")
    unit = det.leading()
    factor = det * unit.inverse()
    if factor.eval(E.theta):
        raise InvariantError("determinant root differs from theta")
    return DetMotive(module=E, unit=unit, factor=factor)


def motive_frobenius_norm(E: DrinfeldModule) -> UPoly:
    """The Frobenius norm s in F_q[t]: the determinant of Frobenius on the motive.

    The q^d-Frobenius acts as M*sigma(M)*...*sigma^(d-1)(M), and det is
    multiplicative, so s = prod_{i<d} sigma^i(c*(t - theta)) with c*(t - theta)
    = det M (the closed form of Gekeler, Trans. AMS 2008).
    """
    data = motive_det(E)
    det = data.factor * data.unit
    s = UPoly.one(det.base)
    for _ in range(E.d):
        s = s * det
        det = det.frobenius(E.e)
    coeffs = [E.const_embedding.preimage(c) for c in s.coeffs]
    if None in coeffs:
        raise InvariantError("motive norm has a coefficient outside F_q")
    # constants act on L as c -> c^(p^twist), as in char_poly
    s = UPoly(E.constants, coeffs).frobenius(-E.twist)
    if s.deg != E.d:
        raise InvariantError(f"motive norm has degree {s.deg}, not {E.d}")
    return s


def motive_frobenius(E: DrinfeldModule):
    """Rows over L[t] of the q^d-Frobenius A = M*sigma(M)*...*sigma^(d-1)(M).

    With P_a the product of the first a factors, binary sigma-powering
    P_(a+b) = P_a*sigma^a(P_b) builds A in O(log d) matrix products.
    """
    M = motive_matrix(E)
    zero = UPoly.zero(E.L)

    def times(P, Q, a):  # P * sigma^a(Q)
        return tuple(tuple(sum((x * M.sigma(Q[k][j], a)
                                for k, x in enumerate(row)), zero)
                           for j in range(E.r)) for row in P)

    P, a = M.entries, 1
    for bit in bin(E.d)[3:]:
        P, a = times(P, P, a), 2 * a
        if bit == "1":
            P, a = times(P, M.entries, a), a + 1
    return P


def motive_splitting_degree(E: DrinfeldModule, frob, ell: UPoly, n: int,
                            cap: int) -> int:
    """torsion.splitting_degree, read off frob = motive_frobenius(E).

    M/l^n M is L{tau}/L{tau}phi_(l^n), where frob acts on (L[t]/l^n)^r as
    the central tau^[L:F_p]; so it fixes e_1 = 1 only as the identity, and
    the walk v -> frob*v from e_1 returns at the L{tau} walk's m.  It runs
    on tuples of packed residues mod l^n (polykernel.ResidueRing).
    """
    L = E.L

    def walk(lam):
        # constant_action on every coefficient: the twist, then the embedding
        lam = lam.frobenius(E.twist).map_field(E.const_embedding)
        ring = ResidueRing(L, lam.vs, E.r)
        A = [[ring.pack(x.vs) for x in row] for row in frob]
        count = 2 * ring.D - 1
        return frobenius_order(
            lambda v: tuple(ring.reduce(sum(map(mul, row, v)), count)
                            for row in A),
            (1,) + (0,) * (E.r - 1), L.size, cap)

    return splitting_degree(E, ell, n, cap, walk)


def det_drinfeld(E: DrinfeldModule) -> DrinfeldModule:
    """The rank-1 module whose matrix presentation realizes the determinant."""
    c = motive_det(E).unit
    return DrinfeldModule(E.L, E.theta, [c.inverse()],
                          constants=E.constants, twist=E.twist)


def verify_tate_det(E: DrinfeldModule, ell: UPoly, n: int, cap: int = 12,
                    seed: int = 0) -> bool:
    """Compare det(Frobenius on E[l^n]) with the Frobenius scalar of det E.

    Both sides are computed independently through the torsion machinery.
    """
    T = dm_torsion(E, ell, n, cap=cap, seed=seed)
    lhs = dm_frobenius_det(T)[1]
    TD = dm_torsion(det_drinfeld(E), ell, n, cap=cap, seed=seed)
    return lhs == dm_frobenius_det(TD)[1]
