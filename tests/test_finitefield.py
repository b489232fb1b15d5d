import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import FField, extension_of, ff_embed, ff_generator, ff_make
from drinfeld import finitefield
from drinfeld.errors import BoundExceeded, NoEmbedding, NotPrime, Reducible
from drinfeld.intutil import _power, factorize, is_prime


def test_prime_field_modulus_is_x():
    assert ff_make(2, 1, 0).modulus == (0, 1)


def test_f4_modulus_is_unique_irreducible_quadratic():
    assert ff_make(2, 2, 0).modulus == (1, 1, 1)


def test_f9_modulus_irreducible_by_exhaustive_evaluation():
    F9 = ff_make(3, 2, 0)
    m = F9.modulus
    assert len(m) == 3 and m[-1] == 1
    # a monic quadratic over F_3 is irreducible iff it has no root there
    for a in range(3):
        assert (m[0] + m[1] * a + m[2] * a * a) % 3 != 0


def test_same_parameters_reproduce_same_field():
    assert ff_make(3, 2, 0) == ff_make(3, 2, 0)
    assert ff_make(3, 2, 0).modulus == FField.from_dict(
        ff_make(3, 2, 0).to_dict()).modulus


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        ff_make(4, 1, 0)


def test_size_bound_enforced():
    with pytest.raises(BoundExceeded):
        ff_make(2, 41, 0)


def test_oversized_field_fails_before_any_candidate(monkeypatch):
    def fail(*args):
        raise AssertionError("no candidate may be built")

    monkeypatch.setattr(finitefield, "FField", fail)
    for n in (41, 10 ** 8, 10 ** 10, 2 ** 70):
        with pytest.raises(BoundExceeded, match=f"F_2\\^{n} has more than"):
            ff_make(2, n, 0)
    with pytest.raises(BoundExceeded, match="F_3\\^26 has more than"):
        ff_make(3, 26, 0)


@pytest.mark.parametrize("p, n, terms", [
    (2, 12, {12: 1, 3: 1, 0: 1}),
    (2, 24, {24: 1, 4: 1, 3: 1, 1: 1, 0: 1}),
    (2, 36, {36: 1, 5: 1, 4: 1, 2: 1, 0: 1}),
    (2, 40, {40: 1, 5: 1, 4: 1, 3: 1, 0: 1}),
    (3, 12, {12: 1, 2: 1, 0: 2}),
    (3, 20, {20: 1, 3: 1, 1: 2, 0: 1}),
    (5, 12, {12: 1, 1: 1, 0: 4}),
])
def test_seeded_moduli_are_pinned(p, n, terms):
    # every printed field depends on these moduli ({exponent: coefficient})
    expected = [0] * (n + 1)
    for e, c in terms.items():
        expected[e] = c
    assert ff_make(p, n, 0).modulus == tuple(expected)


# ff_make(p, n).modulus for n = 1, 2, ... up to the 2^40 bound, recorded
# with the tuple kernel: the modulus minus x^n as its base-p encoding
PINNED_MODULI = {
    2: [0, 3, 3, 3, 5, 3, 3, 27, 3, 9, 5, 9, 27, 33, 3, 43, 9, 9, 39, 9, 5,
        3, 33, 27, 9, 27, 39, 3, 5, 3, 9, 141, 75, 27, 5, 53, 63, 99, 17,
        57],
    3: [0, 1, 7, 5, 7, 5, 11, 11, 64, 19, 11, 11, 7, 5, 11, 37, 7, 34, 11,
        34, 31, 37, 31, 83, 55],
    5: [0, 2, 6, 2, 21, 7, 6, 2, 38, 33, 11, 9, 42, 77, 27, 2, 39],
    7: [0, 1, 2, 8, 10, 2, 43, 10, 2, 17, 10, 58, 52, 11],
}


@pytest.mark.parametrize("p", sorted(PINNED_MODULI))
def test_every_searched_modulus_within_the_bound_is_pinned(p):
    codes = PINNED_MODULI[p]
    assert p ** len(codes) <= 2 ** 40 < p ** (len(codes) + 1)
    for n, code in enumerate(codes, start=1):
        low = tuple(code // p ** i % p for i in range(n))
        assert ff_make(p, n).modulus == low + (1,), n


def test_non_integer_parameters_rejected(F4):
    for args in ((2.0, 2, (1, 1, 1)), (2, 2.0, (1, 1, 1)),
                 (2, 2, (1, 1.0, 1)), (2, 2, (1, None, 1)), (2, 2, 1.5)):
        with pytest.raises(TypeError):
            FField(*args)
    for coeffs in (1.5, [0.5, 1], [True, 1.5], "w", None, [[1], 0]):
        with pytest.raises(TypeError):
            F4.element(coeffs)
    assert F4.element([1, 2 ** 70 + 1]) == F4.element([1, 1])


def test_coefficients_past_the_degree_must_vanish(F4):
    assert F4.element([1, 1, 0, 2, 4]) == F4.element([1, 1])
    for coeffs in ([1, 1, 1], [0, 0, 0, 3]):
        with pytest.raises(ValueError, match="nonzero coefficient of x\\^"):
            F4.element(coeffs)
    with pytest.raises(ValueError, match="x\\^2 in an element of F_2\\^2"):
        F4.gen + [0, 1, 1]


def test_reducible_modulus_rejected():
    with pytest.raises(Reducible, match="modulus is reducible"):
        FField(2, 2, (1, 0, 1))


def test_search_tests_each_candidate_once(monkeypatch):
    # from seed 1 the candidates are x^2+1, x^2+x, then x^2+x+1; the first
    # two have a root 1 or 0, so only the third reaches Ben-Or's test
    calls = []
    irreducible = finitefield._pirreducible

    def counting(f, p):
        calls.append(f)
        return irreducible(f, p)

    finitefield._field.cache_clear()
    monkeypatch.setattr(finitefield, "_pirreducible", counting)
    assert ff_make(2, 2, 1).modulus == (1, 1, 1)
    assert calls == [(1, 1, 1)]
    # from seed 5: x^4+x^2+1 = (x^2+x+1)^2 has no root, so Ben-Or rejects
    # it; x^4+x^2+x, x^4+x^2+x+1 and x^4+x^3 have one; x^4+x^3+1 passes
    calls.clear()
    assert ff_make(2, 4, 5).modulus == (1, 0, 0, 1, 1)
    assert calls == [(1, 0, 1, 0, 1), (1, 0, 0, 1, 1)]
    # degree 1 keeps the candidates x and x + 1
    calls.clear()
    assert ff_make(2, 1, 0).modulus == (0, 1)
    assert calls == [(0, 1)]


def _first_irreducible(p, n, seed):
    """Ben-Or's test on every monic candidate of degree n, in encoding
    order from the seed, with no filter on roots."""
    span = p ** n
    for j in range(span):
        k = (seed + j) % span
        modulus = tuple(k // p ** i % p for i in range(n)) + (1,)
        if finitefield._pirreducible(modulus, p):
            return modulus
    raise AssertionError("no irreducible of degree n")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_search_picks_the_first_irreducible_from_the_seed(p):
    # the root filter skips only candidates with a root 0, 1 or -1
    for n in range(1, 9):
        for seed in range(4):
            finitefield._field.cache_clear()
            assert ff_make(p, n, seed).modulus == _first_irreducible(p, n,
                                                                     seed)


def test_prime_subfield_embedding_fixes_constants(F2, F4):
    emb = ff_embed(F2, F4)
    assert emb(F2.zero) == F4.zero
    assert emb(F2.one) == F4.one


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_embedding_matches_the_root_scan(p):
    for seed in range(2):
        Fp = ff_make(p, 1, seed)  # modulus x, then x + 1: roots 0, -1
        for n in range(1, 7):
            sup = ff_make(p, n)
            # the scan route: the least root of Fp's modulus in sup's F_p
            root = next(z for z in sup.subfield_elements(1)
                        if not z * Fp.modulus[1] + Fp.modulus[0])
            emb = ff_embed(Fp, sup)
            assert emb.gen_image == root
            assert [emb(c) for c in Fp.elements()] == \
                [sup.element(c.v) for c in Fp.elements()]


def test_embedding_image_satisfies_source_modulus(F4):
    F16 = ff_make(2, 4, 0)
    img = ff_embed(F4, F16)(F4.gen)
    # independent oracle: scan all 16 elements for roots of x^2+x+1
    roots = [z for z in F16.elements() if z * z + z + F16.one == F16.zero]
    assert len(roots) == 2 and img in roots


def test_no_embedding_when_degrees_incompatible(F4):
    with pytest.raises(NoEmbedding):
        ff_embed(F4, ff_make(2, 3, 0))


def test_embedding_is_ring_morphism_on_random_pairs(F4):
    F16 = ff_make(2, 4, 0)
    emb = ff_embed(F4, F16)
    rng = random.Random(7)
    for _ in range(100):
        x = F4.from_encoding(rng.randrange(4))
        y = F4.from_encoding(rng.randrange(4))
        assert emb(x * y) == emb(x) * emb(y)
        assert emb(x + y) == emb(x) + emb(y)


def test_embedding_injective(F4):
    F16 = ff_make(2, 4, 0)
    emb = ff_embed(F4, F16)
    images = {emb(z).encode() for z in F4.elements()}
    assert len(images) == 4


def test_tower_composition_is_embedding(F2, F4):
    F16 = ff_make(2, 4, 0)
    lo = ff_embed(F2, F4)
    hi = ff_embed(F4, F16)
    for x in F2.elements():
        for y in F2.elements():
            assert hi(lo(x * y)) == hi(lo(x)) * hi(lo(y))
            assert hi(lo(x + y)) == hi(lo(x)) + hi(lo(y))


def test_generator_of_f2_is_one(F2):
    assert ff_generator(F2) == F2.one


def test_generator_of_f4_has_order_three(F4):
    g = ff_generator(F4)
    assert g != F4.one and g ** 3 == F4.one


def test_generator_order_exhaustive_f9(F9):
    g = ff_generator(F9)
    powers = set()
    acc = F9.one
    for _ in range(8):
        acc = acc * g
        powers.add(acc.encode())
    assert len(powers) == 8  # order exactly |F| - 1


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                                 (2, 6)])
def test_generator_is_the_first_from_encoding_one(p, n):
    F = ff_make(p, n, 0)
    target = F.size - 1
    first = next(g for g in map(F.from_encoding, range(1, F.size))
                 if all(g ** (target // q) != F.one for q in factorize(target)))
    assert ff_generator(F) == first


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
def test_generator_order_via_factoring(p, n):
    F = ff_make(p, n, 0)
    g = ff_generator(F)
    target = F.size - 1
    for q in factorize(target):
        assert g ** (target // q) != F.one
    assert g ** target == F.one


def _naive_factorization(n):
    out, q = {}, 2
    while n > 1:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    return out


def test_factorize_matches_naive_trial_division():
    for n in range(1, 10 ** 4):
        fac = factorize(n)
        assert fac == _naive_factorization(n)
        assert list(fac) == sorted(fac)


def test_factorize_field_orders_up_to_desk_bound():
    for p in (2, 3, 5, 7, 11, 13):
        m = 1
        while p ** m <= 2 ** 40 + 1:
            n = p ** m - 1
            fac = factorize(n)
            product = 1
            for q, e in fac.items():
                assert is_prime(q)
                product *= q ** e
            assert product == n and list(fac) == sorted(fac)
            m += 1


def test_serialization_bit_exact_roundtrip(F9):
    d = F9.to_dict()
    assert d == {"p": 3, "n": 2, "modulus": list(F9.modulus)}
    again = FField.from_dict(d)
    assert again == F9 and again.to_dict() == d
    x = F9.from_encoding(7)
    assert F9.element(x.to_list()) == x


def test_extension_of_builds_compatible_tower(F4):
    ext, emb = extension_of(F4, 3)
    assert ext.n == 6
    w = F4.gen
    assert emb(w) ** 3 == ext.one  # order preserved
    assert emb(w * w + w) == emb(w) * emb(w) + emb(w)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 8), b=st.integers(0, 8), c=st.integers(0, 8))
def test_field_ring_laws_f9(a, b, c):
    F9 = ff_make(3, 2, 0)
    x, y, z = (F9.from_encoding(k) for k in (a, b, c))
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


@settings(max_examples=40, deadline=None)
@given(a=st.integers(1, 8))
def test_inverse_cancels_f9(a):
    F9 = ff_make(3, 2, 0)
    x = F9.from_encoding(a)
    assert x * x.inverse() == F9.one


def test_p_power_and_root_are_inverse(F9):
    for k in range(9):
        x = F9.from_encoding(k)
        assert x.p_power(1).p_root(1) == x
        assert x.p_power(1) == x ** 3


@pytest.mark.parametrize("p, n", [(3, 2), (2, 8)])
def test_power_matches_repeated_multiplication(p, n):
    F = ff_make(p, n, 0)
    rng = random.Random(n)
    for x in [F.zero, F.one] + [F.from_encoding(rng.randrange(F.size))
                                for _ in range(4)]:
        acc = F.one
        for e in range(71):
            assert x ** e == acc
            assert _power(x, e, F.one, operator.mul) == acc
            acc = acc * x


@pytest.mark.parametrize("p, n", [(2, 8), (3, 4)])
def test_p_power_is_frobenius_and_p_root_undoes_it(p, n):
    F = ff_make(p, n, 0)
    rng = random.Random(p)
    for x in [F.gen] + [F.from_encoding(rng.randrange(F.size))
                        for _ in range(6)]:
        for i in range(n + 1):
            assert x.p_power(i) == x ** (p ** i)
            assert x.p_power(i).p_root(i) == x


CONJUGATE_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6),
                    (2, 12), (3, 5), (7, 3)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), field=st.sampled_from(CONJUGATE_FIELDS))
def test_conjugates_walk_the_frobenius_orbit_once(data, field):
    # elements of proper subfields have orbits shorter than [F : F_p]
    p, n = field
    F = ff_make(p, n, 0)
    m = data.draw(st.sampled_from([m for m in range(1, n + 1) if n % m == 0]))
    sub = F.subfield_elements(m)
    x = sub[data.draw(st.integers(0, len(sub) - 1))]
    for i in range(1, n):
        orbit = x.conjugates(i)
        assert orbit[0] == x
        assert len(set(orbit)) == len(orbit) and m % len(orbit) == 0
        assert all(b == a.p_power(i) for a, b in zip(orbit, orbit[1:]))
        assert orbit[-1].p_power(i) == x


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_subfield_elements_match_exhaustive_scan(m):
    F = ff_make(2, 6, 0)
    fixed = [x for x in F.elements() if x ** (2 ** m) == x]
    assert list(F.subfield_elements(m)) == fixed


def test_squaring_and_cubing_cost_one_and_two_products(monkeypatch):
    F = ff_make(2, 8, 0)
    calls = []
    mul = FField._mul

    def counting(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FField, "_mul", counting)
    x = F.from_encoding(77)
    x ** 2
    assert len(calls) == 1
    x ** 3
    assert len(calls) == 3


def test_an_element_defers_to_a_polynomial_operand():
    from drinfeld import OrePoly, UPoly

    F4 = ff_make(2, 2, 0)
    w, tau, x = F4.gen, OrePoly.tau(F4), UPoly.x(F4)
    assert w * tau == OrePoly(F4, [w]) * tau
    assert w * tau != tau * OrePoly(F4, [w])
    assert w * x == x * w == UPoly(F4, [0, w])
    assert w + x == x + w and w - x == UPoly(F4, [w]) - x
    with pytest.raises(TypeError):
        w * "a"


def test_equality_coerces_what_arithmetic_coerces(F4):
    w = F4.gen
    assert w - [0, 1] == 0 and w == [0, 1] and w == (0, 1)
    assert w != [1, 0] and F4.one == 1 and F4.one == [1] and F4.one == (1,)
    # the trailing zero pads; a nonzero x^2 or a non-integer names no element
    assert w == [0, 1, 0] and w != [0, 1, 1] and w != ["a", 1]
    assert F4.zero == [] and F4.zero != "0"


def _bounded_field_cache(monkeypatch, maxsize):
    """finitefield._field's search behind a fresh cache of maxsize fields."""
    search = finitefield._field.__wrapped__
    monkeypatch.setattr(finitefield, "_field",
                        functools.lru_cache(maxsize=maxsize)(search))


def test_lru_cache_keeps_the_most_recently_used(monkeypatch):
    _bounded_field_cache(monkeypatch, 2)
    a, b = ff_make(2, 3, 0), ff_make(2, 3, 1)
    assert ff_make(2, 3, 0) is a  # a is now the most recent
    ff_make(2, 3, 2)
    assert ff_make(2, 3, 0) is a
    assert ff_make(2, 3, 1) is not b and ff_make(2, 3, 1) == b
    finitefield._field.cache_clear()
    assert finitefield._field.cache_info().currsize == 0


def test_module_caches_are_bounded(monkeypatch):
    for cache in (finitefield._field, finitefield._embedding):
        assert 0 < cache.cache_info().maxsize <= 256
    _bounded_field_cache(monkeypatch, 4)
    fields = [ff_make(2, 3, seed) for seed in range(10)]
    assert finitefield._field.cache_info().currsize == 4
    assert ff_make(2, 3, 9) is fields[9]
    assert ff_make(2, 3, 0) is not fields[0] and ff_make(2, 3, 0) == fields[0]
    # the default seed is the same cache entry as seed 0
    assert ff_make(2, 3) is ff_make(2, 3, 0)
