"""Matrix presentation of the module of additive morphisms attached to a
Drinfeld module, its rank-1 exterior determinant, the Frobenius norm read
off that determinant, the torsion splitting degrees read off the motive's
Frobenius (off the norm alone in rank 1), and the torsion-side
verification that the two constructions agree.

The operator acts on column vectors over L[t] as v -> M * sigma(v), where
sigma raises coefficients to the q-th power and fixes t.  In the companion
basis the matrix determinant is c*(t - theta), read off in closed form; the
scalar c transports to the rank-1 module below.
"""

from __future__ import annotations

from operator import mul

from .dmodule import DrinfeldModule
from .ore import frobenius_order
from .polykernel import poly_kernel
from .torsion import dm_frobenius_det, dm_torsion, splitting_degree
from .upoly import UPoly


def motive_matrix(E: DrinfeldModule) -> tuple:
    """Companion matrix in the basis (1, tau^e, ..., tau^(e(r-1))): r rows
    of r polynomials over L."""
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
    return tuple(rows)


def motive_det(E: DrinfeldModule) -> UPoly:
    """Determinant c*(t - theta) of the companion matrix, c = (-1)^(r-1)/a_r:
    its first row is zero but for (t - theta)/a_r in the last column, whose
    minor is the identity.  .leading() is c and .monic() is t - theta."""
    c = E.coeffs[-1].inverse()
    return UPoly(E.L, [-E.theta, E.L.one]) * (c if E.r % 2 else -c)


def motive_frobenius_norm(E: DrinfeldModule) -> UPoly:
    """The Frobenius norm s = N(c)*p^(d/deg p) in F_q[t], p = E.char_poly:
    the determinant of Frobenius on the motive (Gekeler, Trans. AMS 2008).
    Built once per module and kept on it.

    det A = lift(s) for A = motive_frobenius(E).  A is the product of the
    sigma^i(M), i < d; det is multiplicative and sigma a ring map of L[t],
    so det A = prod_{i<d} sigma^i(c*(t - theta))
    = N(c)*prod_{i<d}(t - theta^(q^i)) with N(c) = c^((q^d-1)/(q-1)).
    N(c) is fixed by sigma^1, so it lies in the image of F_q and
    lift(descend(N(c))) = N(c); and the product is d/deg p rounds of the
    q-orbit of theta, each the lift of p, so deg s = d by construction.
    """
    if E._motive_norm is None:
        c = motive_det(E).leading()
        norm = c ** ((E.q ** E.d - 1) // (E.q - 1))
        E._motive_norm = (E.descend(UPoly(E.L, [norm]))
                          * E.char_poly ** (E.d // E.char_poly.deg))
    return E._motive_norm


def motive_frobenius(E: DrinfeldModule):
    """Rows over L[t] of the q^d-Frobenius A = M*sigma(M)*...*sigma^(d-1)(M),
    built once per module and kept on it.

    With P_a the product of the first a factors, binary sigma-powering
    P_(a+b) = P_a*sigma^a(P_b) builds A in O(log d) matrix products.
    """
    if E._motive_frobenius is not None:
        return E._motive_frobenius
    M = motive_matrix(E)
    zero = UPoly.zero(E.L)

    def times(P, Q, a):  # P * sigma^a(Q)
        return tuple(tuple(sum((x * Q[k][j].frobenius(E.e * a)
                                for k, x in enumerate(row)), zero)
                           for j in range(E.r)) for row in P)

    P, a = M, 1
    for bit in bin(E.d)[3:]:
        P, a = times(P, P, a), 2 * a
        if bit == "1":
            P, a = times(P, M, a), a + 1
    E._motive_frobenius = P
    return P


def motive_splitting_degree(E: DrinfeldModule, ell: UPoly, n: int,
                            cap: int) -> int:
    """torsion.splitting_degree, read off the motive's q^d-Frobenius A.

    M/l^n M is L{tau}/L{tau}phi_(l^n), where A acts on (L[t]/l^n)^r as
    the central tau^[L:F_p]; so E[l^n] lies in E(L_m) exactly when
    A^m = 1 there.  A fixes e_1 = 1 only as the identity, and the walk
    v -> A*v from e_1 returns at the L{tau} walk's m.  Any
    e_(j+1) = tau^(ej) would do: Frobenius is central and tau^k is
    injective on E[l^n], so (pi^m - 1) tau^k lies in L{tau}phi_(l^n)
    exactly when pi^m - 1 does.

    det A = lift(s), s = motive_frobenius_norm(E), and lift is an
    injective ring map F_q[t] -> L[t] (l^n divides s^m - 1 exactly when
    lift(l^n) divides its lift), so A^m = 1 forces s^m = 1 mod l^n: m is a
    multiple of o, the order of s mod l^n.  o is found first, under the
    same cap and bound, on packed remainders in F_q[t]; a prime whose o
    leaves them leaves them with m.  In rank 1, A = lift(s) and m = o, so
    no L[t] work is done.  Above, the walk from e_1 runs on tuples of
    packed remainders mod lift(l^n).  Each product is reduced by the
    kernel's long division (`PolyKernel.divide`), so a kernel has room for
    the products summed in a step and the division's deg l^n sums.
    """
    s = motive_frobenius_norm(E)

    def remainders(field, modulus, sums):
        kernel = poly_kernel(field, sums * modulus.deg)
        div = kernel.divisor(modulus.vs)  # l^n is monic, and so is its lift
        return kernel, lambda v: kernel.divide(v, div)[1]

    def walk(lam):
        kernel, rem = remainders(E.constants, lam, 2)
        g = rem(kernel.pack(s.vs))
        o = frobenius_order(lambda v: rem(v * g), 1, E.L.size, cap)
        if E.r == 1:
            return o
        kernel, rem = remainders(E.L, E.lift(lam), E.r + 1)
        A = [[rem(kernel.pack(x.vs)) for x in row]
             for row in motive_frobenius(E)]
        return frobenius_order(
            lambda v: tuple(rem(sum(map(mul, row, v))) for row in A),
            (1,) + (0,) * (E.r - 1), E.L.size, cap)

    return splitting_degree(E, ell, n, cap, walk)


def det_drinfeld(E: DrinfeldModule) -> DrinfeldModule:
    """The rank-1 module whose matrix presentation realizes the determinant."""
    c = motive_det(E).leading()
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
