"""The closed forms of the motive determinant and the Frobenius norm against
the definitions they replace: the Laplace determinant of the companion
matrix, the product of its d sigma-twists, and the determinant of the
motive's q^d-Frobenius."""

from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (DrinfeldModule, UPoly, ff_embed, ff_make, motive_det,
                      motive_frobenius_norm, motive_matrix)
from drinfeld.motive import motive_frobenius
from drinfeld.upoly import upoly_det

# (p, e, [L : F_p]): L and the constants run over F_2, F_3, F_4, F_8, F_9,
# F_16, F_27 and F_64, with e = 1-3
FIELDS = ((2, 1, 1), (3, 1, 1), (2, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 2),
          (3, 2, 2), (2, 1, 4), (2, 2, 4), (3, 1, 3), (2, 3, 3), (3, 3, 3),
          (2, 3, 6))


@st.composite
def modules(draw):
    """Ranks 1-3, every twist, theta drawn from a subfield of L over F_q,
    so that deg p < d whenever the subfield is proper."""
    p, e, n = draw(st.sampled_from(FIELDS))
    L, constants = ff_make(p, n, 0), ff_make(p, e, 0)
    k = draw(st.sampled_from([k for k in range(e, n + 1, e) if n % k == 0]))
    sub = ff_make(p, k, 0)
    theta = ff_embed(sub, L)(sub.from_encoding(
        draw(st.integers(0, sub.size - 1))))
    r = draw(st.integers(1, 3))
    coeffs = [L.from_encoding(draw(st.integers(0, L.size - 1)))
              for _ in range(r - 1)]
    coeffs.append(L.from_encoding(draw(st.integers(1, L.size - 1))))
    twist = draw(st.integers(0, e - 1))
    return DrinfeldModule(L, theta, coeffs, constants=constants, twist=twist)


def _norm_by_products(E):
    """s = prod_{i<d} sigma^i(det M), descended to F_q."""
    det, s = upoly_det(motive_matrix(E)), UPoly.one(E.L)
    for _ in range(E.d):
        s = s * det
        det = det.frobenius(E.e)
    return E.descend(s)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(E=modules())
def test_closed_forms_match_their_definitions(E):
    assert motive_det(E) == upoly_det(motive_matrix(E))
    assert motive_frobenius_norm(E) == _norm_by_products(E)



@settings(max_examples=150, deadline=None, derandomize=True)
@given(E=modules())
def test_frobenius_determinant_is_the_lifted_norm(E):
    # the splitting search reads ord(s mod l^n) in F_q[t] because of this
    assert upoly_det(motive_frobenius(E)) == E.lift(motive_frobenius_norm(E))
