import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (DrinfeldModule, OrePoly, UPoly, carlitz_module,
                      dm_characteristic, dm_phi, ff_embed, ff_make,
                      upoly_irreducible)
from drinfeld.errors import FieldMismatch, InvariantError
from test_field_linalg import solve

# (p, [F_q : F_p], [L : F_q]): F_4 in F_16, F_8 in F_64, F_9 in F_81
TWISTED_FIELDS = ((2, 2, 2), (2, 3, 2), (3, 2, 2))


def _rand_coeff_poly(field, rng, max_deg):
    return UPoly(field, [field.from_encoding(rng.randrange(field.size))
                         for _ in range(rng.randrange(max_deg + 2))])


def test_carlitz_structure_operator(F2, F4, carlitz_f4):
    t = UPoly.x(F2)
    w = F4.gen
    assert dm_phi(carlitz_f4, t) == OrePoly(F4, [w, F4.one])


def test_phi_t_squared_against_ore_multiplication(F2, carlitz_f4):
    t = UPoly.x(F2)
    phi_t = dm_phi(carlitz_f4, t)
    assert dm_phi(carlitz_f4, t * t) == phi_t * phi_t
    w = carlitz_f4.L.gen
    assert dm_phi(carlitz_f4, t * t) == OrePoly(
        carlitz_f4.L, [w * w, carlitz_f4.L.one, carlitz_f4.L.one])


def test_phi_unit_and_zero(F2, carlitz_f4):
    assert dm_phi(carlitz_f4, UPoly.one(F2)) == OrePoly.one(carlitz_f4.L)
    assert dm_phi(carlitz_f4, UPoly.zero(F2)).is_zero()


def test_characteristic_examples(F2, F4, carlitz_f4):
    theta, char = dm_characteristic(carlitz_f4)
    assert theta == F4.gen
    # oracle: smallest monic polynomial over F_2 vanishing at w, found by
    # enumerating monic polynomials in degree order
    expected = None
    for deg in (1, 2):
        for low in range(2 ** deg):
            digits = [(low >> i) & 1 for i in range(deg)]
            cand = UPoly(F2, digits + [1])
            if not cand.map_field(ff_embed(F2, F4)).eval(F4.gen):
                expected = cand
                break
        if expected:
            break
    assert char == expected
    assert dm_characteristic(DrinfeldModule(F2, F2.zero, [F2.one]))[1] == \
        UPoly.x(F2)
    assert dm_characteristic(DrinfeldModule(F2, F2.one, [F2.one]))[1] == \
        UPoly.x(F2) + 1


def test_phi_is_ring_morphism_random(F2, carlitz_f4, rank2_f2):
    rng = random.Random(41)
    for E in (carlitz_f4, rank2_f2):
        for _ in range(50):
            a = _rand_coeff_poly(F2, rng, 4)
            b = _rand_coeff_poly(F2, rng, 4)
            assert E.phi(a + b) == E.phi(a) + E.phi(b)
            assert E.phi(a * b) == E.phi(a) * E.phi(b)
            assert E.phi(a) * E.phi(b) == E.phi(b) * E.phi(a)


def test_constant_term_is_delta(F2, rank2_f4):
    rng = random.Random(43)
    for _ in range(50):
        a = _rand_coeff_poly(F2, rng, 4)
        assert rank2_f4.phi(a).constant() == rank2_f4.delta(a)


def test_degree_law(F2, carlitz_f4, rank2_f2, rank2_f4):
    rng = random.Random(47)
    for E in (carlitz_f4, rank2_f2, rank2_f4):
        for _ in range(40):
            a = _rand_coeff_poly(F2, rng, 4)
            if a.is_zero():
                continue
            assert E.phi(a).deg == E.r * E.e * a.deg


def test_constants_act_by_twisted_power():
    F4 = ff_make(2, 2, 0)
    F16 = ff_make(2, 4, 0)
    emb = ff_embed(F4, F16)
    for twist in (0, 1):
        E = DrinfeldModule(F16, emb(F4.gen), [F16.one], constants=F4,
                           twist=twist)
        for c in F4.elements():
            op = E.phi(UPoly(F4, [c]))
            assert op.deg <= 0
            assert op.constant() == emb(c.p_power(twist))


def test_twisted_characteristic_still_kills_delta():
    F4 = ff_make(2, 2, 0)
    F16 = ff_make(2, 4, 0)
    emb = ff_embed(F4, F16)
    E = DrinfeldModule(F16, emb(F4.gen), [F16.one], constants=F4, twist=1)
    char = E.char_poly
    assert char.is_monic() and upoly_irreducible(char)
    assert not E.delta(char)


def test_phi_lives_in_tau_e_subring():
    F4 = ff_make(2, 2, 0)
    F16 = ff_make(2, 4, 0)
    emb = ff_embed(F4, F16)
    E = DrinfeldModule(F16, emb(F4.gen), [F16.one], constants=F4)
    rng = random.Random(53)
    for _ in range(25):
        a = UPoly(F4, [F4.from_encoding(rng.randrange(4)) for _ in range(3)])
        op = E.phi(a)
        for i, c in enumerate(op.coeffs):
            if i % E.e:
                assert not c


def test_leading_coefficient_must_be_nonzero(F2):
    with pytest.raises(ValueError):
        DrinfeldModule(F2, F2.one, [F2.one, F2.zero])


def test_coefficients_must_live_in_L(F2, F4):
    with pytest.raises(FieldMismatch):
        DrinfeldModule(F4, F2.one, [F4.one])


def test_module_serialization_roundtrip(rank2_f4):
    d = rank2_f4.to_dict()
    again = DrinfeldModule.from_dict(d)
    assert again == rank2_f4


def test_carlitz_helper(F4, carlitz_f4):
    E = carlitz_module(F4)
    assert E == carlitz_f4 and E.r == 1 and E.q == 2


def test_phi_rejects_wrong_coefficient_field(F4, carlitz_f4):
    with pytest.raises(FieldMismatch):
        carlitz_f4.phi(UPoly.one(F4))


def _minimal_polynomial_by_solves(elem, sub, emb):
    """Oracle: solve for the first power of elem in the span of the lower ones."""
    sup = elem.field
    sub_basis = [emb(sub.from_encoding(sub.p ** i)) for i in range(sub.n)]
    powers = [sup.one]
    for _ in range(sup.n // sub.n):
        powers.append(powers[-1] * elem)
    for j in range(1, len(powers)):
        cols = [(b * powers[i]).coeffs for i in range(j) for b in sub_basis]
        rows = [[col[r] for col in cols] for r in range(sup.n)]
        sol = solve(rows, list(powers[j].coeffs), sup.p)
        if sol is not None:
            return UPoly(sub, [-sub.element(sol[i * sub.n:(i + 1) * sub.n])
                               for i in range(j)] + [sub.one])
    raise AssertionError("no relation below the field degree")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(TWISTED_FIELDS), st.data())
def test_lift_and_descend_carry_the_twist(fields, data):
    # at e = 3 a twist of the wrong sign is another automorphism of F_q
    p, e, d = fields
    Fq, L = ff_make(p, e, 0), ff_make(p, e * d, 0)
    emb = ff_embed(Fq, L)
    theta = L.from_encoding(data.draw(st.integers(0, L.size - 1)))
    twist = data.draw(st.integers(0, e - 1))
    E = DrinfeldModule(L, theta, [L.one], constants=Fq, twist=twist)
    polys = st.lists(st.integers(0, Fq.size - 1), max_size=4).map(
        lambda ks: UPoly(Fq, [Fq.from_encoding(k) for k in ks]))
    a, b = data.draw(polys), data.draw(polys)
    assert E.descend(E.lift(a)) == a
    assert E.lift(a * b) == E.lift(a) * E.lift(b)
    c = Fq.from_encoding(data.draw(st.integers(0, Fq.size - 1)))
    assert E.constant_action(c) == emb(c.p_power(twist))
    assert E.phi(a).constant() == E.delta(a)
    oracle = _minimal_polynomial_by_solves(theta, Fq, emb)
    assert E.char_poly == oracle.frobenius(-twist)
    assert not E.delta(E.char_poly)


def test_descend_rejects_a_coefficient_outside_fq():
    F4, F16 = ff_make(2, 2, 0), ff_make(2, 4, 0)
    E = DrinfeldModule(F16, ff_embed(F4, F16)(F4.gen), [F16.one],
                       constants=F4, twist=1)
    with pytest.raises(InvariantError, match="outside F_q"):
        E.descend(UPoly(F16, [F16.one, F16.gen]))
