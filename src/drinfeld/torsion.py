"""Torsion modules of a Drinfeld module and Frobenius matrices on them.

E[l^n] is the kernel of phi_(l^n) in the minimal splitting extension, its
points indexed, not built, and certified free of rank r over A/l^n by an
explicit basis drawn among them, whose F_p-generators are
kept in reduced echelon form; the coordinates of a point come from one
solve against them, so the Frobenius action becomes a matrix extraction.
Its splitting degree alone needs no extension.  The Frobenius determinant
mod l^n is what reports.dm_frobenius_norm lifts by CRT to the norm.
"""

from __future__ import annotations

import random

from .dmodule import DrinfeldModule
from .errors import CapExceeded, CharacteristicIdeal, InvariantError, NotFound
from .finitefield import FIELD_SIZE_LIMIT, _eliminate, _solve, extension_of
from .ore import ore_eval, ore_kernel, ore_splitting_degree, separable_part
from .upoly import UPoly, upoly_det, upoly_gcd, upoly_irreducible

BASIS_RETRY_LIMIT = 100


class TorsionModule:
    """E[l^n] with a certified A/l^n-basis of size r."""

    __slots__ = ("module", "ell", "n", "ext", "embedding", "points", "basis",
                 "_pivots")

    def __init__(self, module, ell, n, ext, embedding, points, basis, pivots):
        self.module = module
        self.ell = ell
        self.n = n
        self.ext = ext
        self.embedding = embedding
        self.points = points
        self.basis = basis
        # of the columns u_b phi_t^j(b_i), in (i, j, b) order: see dm_torsion
        self._pivots = pivots

    @property
    def modulus(self) -> UPoly:
        return self.ell ** self.n

    def coordinates(self, x):
        """The residues a_i mod l^n with x = sum a_i b_i; ValueError if x is
        not in E[l^n]."""
        k = self.ext._slots
        tag = _solve(x.v, self._pivots, k) if x.field == self.ext else None
        if tag is None:
            raise ValueError("point outside E[l^n]")
        # the F_p-digits of column (i, j, b) make the x^b-coefficient of the
        # t^j-coefficient of a_i
        Fq = self.module.constants
        e, width = Fq.n, self.n * self.ell.deg
        digits = k.unpack(tag, len(self._pivots))
        coeffs = [Fq.element(digits[c:c + e]).v
                  for c in range(0, len(digits), e)]
        return tuple(UPoly._of(Fq, coeffs[c:c + width])
                     for c in range(0, len(coeffs), width))

    def frobenius_matrix(self):
        """Matrix of x -> x^|L| on the basis, entries in A/l^n."""
        n = self.module.L.n
        cols = [self.coordinates(b.p_power(n)) for b in self.basis]
        return tuple(tuple(col[i] for col in cols)
                     for i in range(len(self.basis)))

    def __repr__(self):
        return (f"TorsionModule(l={self.ell.to_text()}, n={self.n}, "
                f"|points|={len(self.points)})")


def _validate_ell(E: DrinfeldModule, ell: UPoly):
    if ell.base != E.constants:
        raise ValueError("l must be a polynomial over the constants field")
    if not ell.is_monic() or not upoly_irreducible(ell):
        raise ValueError("l must be monic irreducible")
    if ell == E.char_poly:
        raise CharacteristicIdeal(
            f"l = {ell.to_text()} is the characteristic ideal")


def splitting_degree(E: DrinfeldModule, ell: UPoly, n: int, cap: int,
                     walk=None) -> int:
    """Degree over L of the field where E[l^n] splits; CapExceeded above cap.

    l must be a valid torsion prime (see _validate_ell).  walk(l^n) returns
    the degree or raises NotFound; the default walks L{tau}, and
    motive.motive_splitting_degree walks the motive under the same guards.
    """
    # |E[l^n]| = q^(r n deg l), and its splitting field is at least as large
    k = E.r * n * ell.deg
    if k > 40 or E.q ** k > FIELD_SIZE_LIMIT:
        raise CapExceeded(
            lambda: f"E[({ell.to_text()})^{n}] has over 2^40 points")
    lam = ell ** n
    try:
        if walk is None:
            return ore_splitting_degree(E.phi(lam), cap)
        return walk(lam)
    except NotFound as exc:
        raise CapExceeded(lambda: f"splitting degree of E[{lam.to_text()}] "
                                  f"exceeds {cap}") from exc


def dm_torsion(E: DrinfeldModule, ell: UPoly, n: int, cap: int = 12,
               seed: int = 0) -> TorsionModule:
    """The module E[l^n] in its splitting extension, with basis and coordinates."""
    _validate_ell(E, ell)
    if n < 1:
        raise ValueError("torsion exponent must be >= 1")
    phi_lam = None

    def walk(lam):  # the default L{tau} walk, keeping phi_(l^n) for the kernel
        nonlocal phi_lam
        phi_lam = E.phi(lam)
        return ore_splitting_degree(phi_lam, cap)

    m = splitting_degree(E, ell, n, cap, walk)
    ext, emb = extension_of(E.L, m, seed)
    kernel = ore_kernel(phi_lam, ext)

    phi_t_ext = E.phi_t.map_field(emb)
    # the images u_b in ext of the F_p-basis x^b of the constants
    Fq = E.constants
    units = [emb(E.constant_action(Fq.from_encoding(Fq.p ** b))).v
             for b in range(Fq.n)]
    mul = ext._mul

    rng = random.Random(seed)
    basis: list = []
    pivots: list = []
    tries = 0
    while len(basis) < E.r:
        tries += 1
        if tries > BASIS_RETRY_LIMIT:
            raise NotFound(BASIS_RETRY_LIMIT,
                           "basis sampling failed to certify freeness")
        z = rng.choice(kernel)
        # z is free over the basis so far exactly when the F_p-generators
        # u_b phi_t^j(z) of its orbit are independent of the pivots so far
        cols, w = [], z
        for j in range(n * ell.deg):
            if j:
                w = ore_eval(phi_t_ext, w)
            cols += [mul(u, w.v) for u in units]
        grown, dependent = _eliminate(cols, ext._slots, pivots)
        if not dependent:
            basis.append(z)
            pivots = grown

    if len(pivots) != kernel.dim:  # pragma: no cover - freeness guarantees this
        raise NotFound(BASIS_RETRY_LIMIT, "span does not exhaust the kernel")
    return TorsionModule(E, ell, n, ext, emb, kernel, tuple(basis), pivots)


def dm_frobenius_det(T: TorsionModule):
    """The base-field Frobenius on T's basis: its matrix and its determinant
    mod l^n, which must be a unit mod l."""
    m = T.frobenius_matrix()
    det = upoly_det(m) % T.modulus
    if upoly_gcd(det, T.ell).deg != 0:
        raise InvariantError("Frobenius matrix is singular modulo l")
    return m, det


def dm_frobenius_matrix(T: TorsionModule):
    """Matrix of the base-field Frobenius on T's basis; must be invertible."""
    return dm_frobenius_det(T)[0]


def torsion_point_count(E: DrinfeldModule, a: UPoly, cap: int = 12):
    """|E[a]| and the extension degree where it is attained.

    Works for any nonzero a, including powers of the characteristic ideal:
    the inseparable layer is stripped before the splitting search.
    """
    phi_a = E.phi(a)
    g, _ = separable_part(phi_a)
    if g.deg == 0:
        return 1, 1
    m = ore_splitting_degree(g, cap)
    return E.p ** g.deg, m
