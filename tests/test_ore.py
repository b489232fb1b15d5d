import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (FFElem, FField, OrePoly, UPoly, extension_of, ff_embed,
                      ff_make, ore_divmod_left, ore_divmod_right, ore_eval,
                      ore_kernel, ore_splitting_degree, separable_part)
from drinfeld.errors import (DivisionByZero, FieldMismatch, Inseparable,
                             NotFound, ZeroPolynomial)


def _rand_ore(field, rng, max_deg):
    return OrePoly(field, [field.from_encoding(rng.randrange(field.size))
                           for _ in range(rng.randrange(max_deg + 2))])


def _scan_kernel(f, ext):
    """Independent oracle: exhaustive evaluation over the whole field."""
    return sorted(x.encode() for x in ext.elements() if not ore_eval(f, x))


def test_twist_relation(F4):
    w = F4.gen
    tau = OrePoly.tau(F4)
    assert tau * OrePoly.scalar(w) == OrePoly(F4, [F4.zero, w * w])


def test_carlitz_square_expansion(F4):
    w = F4.gen
    f = OrePoly(F4, [w, F4.one])
    assert f * f == OrePoly(F4, [w * w, F4.one, F4.one])


def test_multiplicative_identity_random(F4):
    rng = random.Random(2)
    one = OrePoly.one(F4)
    for _ in range(30):
        a = _rand_ore(F4, rng, 4)
        assert a * one == a and one * a == a


def test_left_division_example(F2):
    a = OrePoly(F2, [1, 0, 1])    # tau^2 + 1
    b = OrePoly(F2, [1, 1])       # tau + 1
    q, r = ore_divmod_left(a, b)
    assert q == b and r.is_zero()


def test_division_by_self(F4):
    a = OrePoly(F4, [F4.gen, F4.one, F4.gen])
    q, r = ore_divmod_left(a, a)
    assert q == OrePoly.one(F4) and r.is_zero()


def test_left_division_twist_adjusted(F4):
    w = F4.gen
    q, r = ore_divmod_left(OrePoly.tau(F4), OrePoly(F4, [F4.zero, w]))
    assert r.is_zero()
    assert q * OrePoly(F4, [F4.zero, w]) == OrePoly.tau(F4)
    assert q == OrePoly.scalar(w.inverse())


def test_division_by_zero(F4):
    with pytest.raises(DivisionByZero):
        ore_divmod_left(OrePoly.tau(F4), OrePoly.zero(F4))


def test_division_roundtrips_random(F4, F9):
    rng = random.Random(13)
    for field in (F4, F9):
        for _ in range(50):
            a = _rand_ore(field, rng, 5)
            b = _rand_ore(field, rng, 3)
            if b.is_zero():
                continue
            q, r = ore_divmod_left(a, b)
            assert q * b + r == a and r.deg < b.deg
            q2, r2 = ore_divmod_right(a, b)
            assert b * q2 + r2 == a and r2.deg < b.deg


def _divmod_left_by_products(a, b):
    """Oracle: subtract (c tau^k) * b, formed by operator multiplication."""
    field = a.base
    q = OrePoly.zero(field)
    r = a
    db, lead = b.deg, b.leading()
    while not r.is_zero() and r.deg >= db:
        k = r.deg - db
        c = r.leading() / lead.p_power(k)
        mono = OrePoly(field, (0,) * k + (c,))
        q = q + mono
        r = r - mono * b
    return q, r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       a_codes=st.lists(st.integers(0, 8), max_size=14),
       b_codes=st.lists(st.integers(0, 8), min_size=1, max_size=6))
def test_left_division_matches_product_oracle(shape, a_codes, b_codes):
    # quotients longer than [L : F_p] reuse the twists of b cyclically
    L = ff_make(*shape)
    a = OrePoly(L, [L.from_encoding(c) for c in a_codes])
    b = OrePoly(L, [L.from_encoding(c) for c in b_codes[:-1]]
                + [L.from_encoding(1 + b_codes[-1] % (L.size - 1))])
    q, r = ore_divmod_left(a, b)
    assert q * b + r == a and r.deg < b.deg
    assert (q, r) == _divmod_left_by_products(a, b)


def test_associativity_random(F9):
    rng = random.Random(17)
    for _ in range(60):
        a, b, c = (_rand_ore(F9, rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_eval_tau_is_frobenius(F9):
    tau = OrePoly.tau(F9)
    x = F9.from_encoding(5)
    assert ore_eval(tau, x) == x ** 3


def test_carlitz_eval_at_w(F4):
    w = F4.gen
    assert not ore_eval(OrePoly(F4, [w, F4.one]), w)


def test_eval_is_additive_and_fp_linear(F9):
    rng = random.Random(23)
    for _ in range(40):
        f = _rand_ore(F9, rng, 3)
        x = F9.from_encoding(rng.randrange(9))
        y = F9.from_encoding(rng.randrange(9))
        assert ore_eval(f, x + y) == ore_eval(f, x) + ore_eval(f, y)
        for c in range(3):
            assert ore_eval(f, x * c) == ore_eval(f, x) * c


def test_eval_intertwines_composition(F4):
    rng = random.Random(29)
    F16 = ff_make(2, 4, 0)
    for _ in range(40):
        a, b = _rand_ore(F4, rng, 3), _rand_ore(F4, rng, 3)
        x = F16.from_encoding(rng.randrange(16))
        assert ore_eval(a * b, x) == ore_eval(a, ore_eval(b, x))


def test_kernel_examples(F2, F4):
    w = F4.gen
    k = ore_kernel(OrePoly(F4, [w, F4.one]), F4)
    assert [x.encode() for x in k] == [0, w.encode()]
    assert k.dim == 1
    assert tuple(ore_kernel(OrePoly.tau(F4), F4)) == (F4.zero,)
    k2 = ore_kernel(OrePoly(F2, [0, 1, 1]), F2)
    assert [x.encode() for x in k2] == [0, 1]


def test_kernel_matches_exhaustive_scan(F4):
    rng = random.Random(31)
    F16 = ff_make(2, 4, 0)
    for _ in range(25):
        f = _rand_ore(F4, rng, 3)
        if f.is_zero():
            continue
        k = ore_kernel(f, F16)
        assert sorted(x.encode() for x in k) == _scan_kernel(f, F16)


def test_kernel_size_divides_p_to_degree(F4):
    rng = random.Random(37)
    F16 = ff_make(2, 4, 0)
    for _ in range(25):
        f = _rand_ore(F4, rng, 4)
        if f.is_zero():
            continue
        size = len(ore_kernel(f, F16))
        assert (2 ** f.deg) % size == 0


def test_splitting_degree_examples(F2, F4):
    w = F4.gen
    assert ore_splitting_degree(OrePoly(F4, [w, F4.one]), 12) == 1
    assert ore_splitting_degree(OrePoly(F2, [1, 1]), 12) == 1
    m = ore_splitting_degree(OrePoly(F4, [w, F4.zero, F4.one]), 12)
    assert m == 3
    # oracle: scan the tower until four roots appear
    counts = []
    for j in (1, 2, 3):
        ext, _ = extension_of(F4, j)
        counts.append(len(_scan_kernel(OrePoly(F4, [w, F4.zero, F4.one]),
                                       ext)))
    assert counts == [1, 1, 4]


def test_full_kernel_at_splitting_field(F4):
    w = F4.gen
    f = OrePoly(F4, [w, F4.zero, F4.one])
    ext, _ = extension_of(F4, ore_splitting_degree(f, 12))
    assert ore_kernel(f, ext).dim == f.deg


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]),
       codes=st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_splitting_degree_matches_kernel_search(shape, codes):
    # oracle: the least extension of degree <= 6 with a full kernel
    L = ff_make(*shape)
    const = L.from_encoding(1 + codes[0] % (L.size - 1))
    f = OrePoly(L, [const] + [L.from_encoding(c % L.size) for c in codes[1:]])
    dims = [ore_kernel(f, extension_of(L, m)[0]).dim for m in range(1, 7)]
    if f.deg in dims:
        assert ore_splitting_degree(f, 6) == dims.index(f.deg) + 1
    else:
        with pytest.raises(NotFound) as exc:
            ore_splitting_degree(f, 6)
        assert exc.value.cap == 6


def test_splitting_degree_stops_at_the_field_bound():
    # 1 + tau + tau^3 splits over F_{2^7}, so over F_{2^8} at degree 7;
    # 2^(8*6) already exceeds the 2^40 field bound
    F256 = ff_make(2, 8)
    f = OrePoly(F256, [1, 1, 0, 1])
    with pytest.raises(NotFound, match="extension degree 6 leaves") as exc:
        ore_splitting_degree(f, 12)
    assert exc.value.cap == 5


def test_splitting_degree_builds_no_field(F4, monkeypatch):
    w = F4.gen
    f = OrePoly(F4, [w, F4.zero, F4.one])
    g = OrePoly(F4, [w, w, w, F4.one])

    def refuse(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(FField, "__init__", refuse)
    assert ore_splitting_degree(f, 12) == 3
    assert ore_splitting_degree(OrePoly.scalar(w), 12) == 1
    with pytest.raises(NotFound):
        ore_splitting_degree(g, 1)


def test_inseparable_rejected(F4):
    with pytest.raises(Inseparable):
        ore_splitting_degree(OrePoly(F4, [F4.zero, F4.one]), 5)


def test_separable_part(F4):
    g, s = separable_part(OrePoly(F4, [F4.zero, F4.zero, F4.one]))
    assert s == 2 and g == OrePoly.one(F4)
    w = F4.gen
    g2, s2 = separable_part(OrePoly(F4, [F4.zero, w, F4.one]))
    assert s2 == 1 and g2.constant()
    # recompose: Frob^s o g agrees pointwise
    f = OrePoly(F4, [F4.zero, w, F4.one])
    for k in range(4):
        x = F4.from_encoding(k)
        assert ore_eval(g2, x) ** (2 ** s2) == ore_eval(f, x)


def test_serialization_roundtrip(F4):
    f = OrePoly(F4, [F4.gen, F4.one])
    assert OrePoly.from_dict(f.to_dict()) == f


def test_eval_requires_registered_embedding(F4):
    from drinfeld.errors import NoEmbedding

    F8 = ff_make(2, 3, 0)
    with pytest.raises(NoEmbedding):
        ore_eval(OrePoly(F4, [F4.gen, F4.one]), F8.gen)


def test_power_matches_repeated_multiplication(F4):
    w = F4.gen
    for a in (OrePoly(F4, [w, F4.one]), OrePoly(F4, [F4.zero, w]),
              OrePoly.one(F4)):
        acc = OrePoly.one(F4)
        for e in range(71):
            assert a ** e == acc
            acc = acc * a
        with pytest.raises(ValueError):
            a ** -1


def test_polynomials_and_operators_share_storage_not_identity(F4, F9):
    c = [F4.gen, F4.one]
    f, g = UPoly(F4, c), OrePoly(F4, c)
    assert f.coeffs == g.coeffs and f.base == g.base == F4
    assert f != g and g != f
    with pytest.raises(TypeError):
        f + g
    with pytest.raises(TypeError):
        g + f


def test_each_container_keeps_its_wording(F4, F9):
    for cls, noun in ((UPoly, "polynomial"), (OrePoly, "operator")):
        with pytest.raises(FieldMismatch) as info:
            cls.one(F4) + cls.one(F9)
        assert str(info.value) == f"{noun}s over different fields"
        with pytest.raises(ZeroPolynomial) as info:
            cls.zero(F4).leading()
        assert str(info.value) == f"zero {noun} has no leading coefficient"


def test_operator_map_field_checks_the_source(F4):
    F16 = ff_make(2, 4, 0)
    f = OrePoly(F4, [F4.gen, F4.one])
    assert f.map_field(ff_embed(F4, F16)).base == F16
    with pytest.raises(FieldMismatch, match="does not start at the base"):
        f.map_field(ff_embed(ff_make(2, 1, 0), F16))


def test_divisions_by_one_operator_share_one_inversion(monkeypatch):
    # a walk divides by f once per step, and every quotient term needs the
    # inverse leading coefficient of some sigma^k(f): one inversion serves
    L = ff_make(2, 4, 0)
    rng = random.Random(11)
    calls = []
    inverse = FFElem.inverse
    monkeypatch.setattr(FFElem, "inverse",
                        lambda c: calls.append(c) or inverse(c))
    for _ in range(6):
        f = OrePoly(L, [L.from_encoding(rng.randrange(1, L.size))
                        for _ in range(4)])
        del calls[:]
        ore_splitting_degree(f, 12)
        assert 0 < len(calls) <= L.n
    a, b = _rand_ore(L, rng, 9), OrePoly(L, [L.gen, L.one, L.gen])
    del calls[:]
    q, r = ore_divmod_left(a, b)
    assert q * b + r == a and r.deg < b.deg and len(calls) == 1
