import pytest

from drinfeld import (DrinfeldFamily, UPoly, carlitz_family,
                      dm_residual_frobenius_check, dm_unit_valuation_check,
                      family_specialize, monic_irreducibles, parse_upoly)
from drinfeld.errors import BadReduction


def test_carlitz_specializes_to_the_f4_module(F2, F4, carlitz_f4):
    fam = carlitz_family(2)
    P = parse_upoly("x^2+x+1", F2, var="x")
    E = family_specialize(fam, P)
    assert E.L == F4
    assert E.theta == F4.gen
    assert E.coeffs == (F4.one,)
    assert E.char_poly == parse_upoly("t^2+t+1", F2)


def test_bad_reduction_when_leading_coefficient_dies(F2):
    theta = UPoly.x(F2)
    fam = DrinfeldFamily(F2, theta, [UPoly.one(F2), theta])
    with pytest.raises(BadReduction):
        fam.specialize(theta)
    assert not fam.is_good(theta)
    assert fam.is_good(theta + 1)


def test_square_characteristic_map(F2):
    theta = UPoly.x(F2)
    fam = DrinfeldFamily(F2, theta ** 2, [UPoly.one(F2)])
    E, theta_bar = fam.specialize(theta + 1)
    assert theta_bar == E.L.one
    assert E.theta == E.L.one  # g(1) = 1


def test_rank_preserved_under_specialization(F2):
    theta = UPoly.x(F2)
    fam = DrinfeldFamily(F2, theta, [theta + 1, UPoly.one(F2)])
    for P in monic_irreducibles(F2, 2):
        E = family_specialize(fam, P)
        assert E.r == 2


def test_residual_exponent_generic_family(F2):
    fam = carlitz_family(2)
    for P in monic_irreducibles(F2, 3):
        assert dm_residual_frobenius_check(fam, P) == 0


def test_residual_exponent_frobenius_family(F2):
    theta = UPoly.x(F2)
    fam = DrinfeldFamily(F2, theta ** 2, [UPoly.one(F2)])
    for P in monic_irreducibles(F2, 3):
        k = dm_residual_frobenius_check(fam, P)
        # the exponent is only pinned modulo the residue degree: at the two
        # prime-field places the least representative of 1 collapses to 0
        assert k == (0 if P.deg == 1 else 1)
        _, theta_bar = fam.specialize(P)
        assert theta_bar ** (2 ** k) == theta_bar ** 2


def test_residual_exponent_square_map_over_f4():
    # g = theta^2 over F_4: at x and x+1, theta_bar lies in F_2, whose
    # orbit is shorter than e * deg P, so the least k is 0 there
    fam = DrinfeldFamily.from_dict({"p": 2, "e": 2, "r": 1,
                                    "delta": [[0, 0], [0, 0], [1, 0]],
                                    "coeffs": [[[1, 0]]]})
    ks = {P.to_text("x"): dm_residual_frobenius_check(fam, P)
          for P in monic_irreducibles(fam.constants, 2)}
    assert len(ks) == 10
    assert {P for P, k in ks.items() if k != 1} == {"x", "x+[1,0]"}
    assert ks["x"] == ks["x+[1,0]"] == 0


def test_residual_exponent_fails_for_shifted_map(F2):
    theta = UPoly.x(F2)
    fam = DrinfeldFamily(F2, theta + 1, [UPoly.one(F2)])
    assert dm_residual_frobenius_check(fam, theta) is None


def test_unit_valuation_examples(F2):
    fam = carlitz_family(2)
    theta = UPoly.x(F2)
    assert dm_unit_valuation_check(fam, theta, parse_upoly("t^2+t+1", F2))
    assert dm_unit_valuation_check(fam, parse_upoly("x^2+x+1", F2, var="x"),
                                   parse_upoly("t^3+t+1", F2))


def test_unit_valuation_degree_gate(F2):
    fam = carlitz_family(2)
    theta = UPoly.x(F2)
    with pytest.raises(ValueError):
        dm_unit_valuation_check(fam, theta, UPoly.x(F2))
    with pytest.raises(ValueError):
        dm_unit_valuation_check(fam, theta, parse_upoly("t^2+t+1", F2), h=2)


def test_family_descriptor_roundtrip(F2):
    theta = UPoly.x(F2)
    fam = DrinfeldFamily(F2, theta, [theta + 1, UPoly.one(F2)])
    again = DrinfeldFamily.from_dict(fam.to_dict())
    assert again.delta_poly == fam.delta_poly
    assert again.coeffs == fam.coeffs
    assert again.r == 2


def test_specialization_deterministic(F2):
    fam = carlitz_family(2)
    P = parse_upoly("x^3+x+1", F2, var="x")
    a = fam.specialize(P)[1]
    b = fam.specialize(P)[1]
    assert a == b
