"""The packed-integer field kernel against schoolbook arithmetic on tuples.

The reference below is the tuple arithmetic the kernel replaced: O(n^2)
loops over coefficient lists, each entry reduced mod p at every step.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import FField, ff_make
from drinfeld.errors import DivisionByZero, Reducible
from drinfeld.finitefield import (_pdivmod, _pgcd, _pirreducible, _slots,
                                 _width)


# ---------------------------------------------------------------------------
# schoolbook reference on coefficient tuples, low to high

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_add(a, b, p):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim((x + y) % p for x, y in zip(a, b))


def ref_neg(a, p):
    return tuple(-c % p for c in a)


def ref_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def ref_divmod(a, b, p):
    b = _trim(b)
    if not b:
        raise ZeroDivisionError
    a, db = list(_trim(a)), len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        f = a[i] * inv % p
        q[i - db] = f
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return _trim(q), _trim(a[:db])


def ref_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, ref_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(c * inv % p for c in a)
    return a


def ref_powmod(a, e, m, p):
    result, a = (1,), ref_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = ref_divmod(ref_mul(result, a, p), m, p)[1]
        a = ref_divmod(ref_mul(a, a, p), m, p)[1]
        e >>= 1
    return ref_divmod(result, m, p)[1]


def ref_irreducible(f, p):
    """Ben-Or's test, one gcd per i <= deg f / 2."""
    f = _trim(f)
    n = len(f) - 1
    if n < 1:
        return False
    h = (0, 1)
    for _ in range(n // 2):
        h = ref_powmod(h, p, f, p)
        if ref_gcd(ref_add(h, (0, p - 1), p), f, p) != (1,):
            return False
    return True


def pad(c, n):
    return tuple(c) + (0,) * (n - len(c))


def field_mul(F, a, b):
    return pad(ref_divmod(ref_mul(a, b, F.p), F.modulus, F.p)[1], F.n)


def field_pow(F, a, e):
    return pad(ref_powmod(a, e, F.modulus, F.p), F.n)


# ---------------------------------------------------------------------------
# the fields: every degree within the 2^40 bound, dense moduli, slot edges

PRIMES = (2, 3, 5, 7, 13, 251, 257, 65537)


def _bound(p):
    n = 1
    while p ** (n + 1) <= 2 ** 40:
        n += 1
    return n


SEARCHED = [(p, n) for p in PRIMES for n in range(1, _bound(p) + 1)]
# n p^2 crosses 2^8 between the two degrees of each p = 5, 7, 11, 13 pair
# and 2^16 between those of p = 127 and p = 251
EDGES = [(5, 10), (5, 11), (7, 5), (7, 6), (11, 2), (11, 3), (13, 1),
         (13, 2), (127, 4), (127, 5), (251, 1), (251, 2)]
DENSE = sorted({(p, n) for p in PRIMES
                for n in (2, 3, 4, _bound(p) // 2, _bound(p))
                if 2 <= n <= _bound(p)} | {e for e in EDGES if e[1] >= 2})


@functools.lru_cache(maxsize=None)
def dense_field(p, n):
    """A field whose modulus has x^(n-1) and 1 and random other terms."""
    rng = random.Random(f"dense {p} {n}")
    while True:
        low = [rng.randrange(p) for _ in range(n)]
        low[0] = low[0] or 1
        low[-1] = low[-1] or 1
        try:
            return FField(p, n, low + [1])
        except Reducible:
            continue


KEYS = ([("searched",) + k for k in SEARCHED]
        + [("searched",) + k for k in EDGES if k not in SEARCHED]
        + [("dense",) + k for k in DENSE])


def field_of(key):
    kind, p, n = key
    return ff_make(p, n) if kind == "searched" else dense_field(p, n)


def samples(F, count, seed):
    p, n = F.p, F.n
    rng = random.Random(seed)
    fixed = [(0,) * n, (1,) + (0,) * (n - 1), (p - 1,) * n,
             pad((0, 1), n)[:n]]
    return fixed + [tuple(rng.randrange(p) for _ in range(n))
                    for _ in range(count)]


def test_slot_width_rule():
    assert [_width(5, 10), _width(5, 11), _width(7, 5), _width(7, 6)] == \
        [8, 16, 8, 16]
    assert [_width(127, 4), _width(127, 5), _width(251, 1),
            _width(251, 2)] == [16, 32, 16, 32]
    # 2^w must exceed n p^2 strictly
    assert _width(2, 63) == 8 and _width(2, 64) == 16
    assert _width(2, 2 ** 14 - 1) == 16 and _width(2, 2 ** 14) == 32
    assert _width(65537, 2) == 64 and _width(2 ** 40 - 87, 1) == 128


def test_dense_moduli_have_degree_n_minus_1_below_the_top():
    for p, n in DENSE:
        F = dense_field(p, n)
        assert F.modulus[n - 1] != 0 and F.modulus[0] != 0
        assert _pirreducible(F.modulus, p)


@pytest.mark.parametrize("key", KEYS, ids=["-".join(map(str, k))
                                           for k in KEYS])
def test_kernel_matches_schoolbook(key):
    F = field_of(key)
    p, n = F.p, F.n
    elems = samples(F, 3, repr(key))
    for a in elems:
        x = F.element(list(a))
        # one element, however it is built: equal, with equal hashes
        w = F.element(list(elems[-1]))
        built = [F.element(x.coeffs), F.from_encoding(x.encode()),
                 -(-x), x * F.one, (x + w) - w, (x - w) + w]
        assert x.coeffs == a and bool(x) == any(a)
        assert all(z == x and hash(z) == hash(x) for z in built), a
        assert (-x).coeffs == ref_neg(a, p)
        for b in elems:
            y = F.element(list(b))
            assert (x * y).coeffs == field_mul(F, a, b), (a, b)
            assert (x + y).coeffs == pad(ref_add(a, b, p), n)
            assert (x - y).coeffs == pad(ref_add(a, ref_neg(b, p), p), n)
        if any(a):
            assert field_mul(F, a, x.inverse().coeffs) == pad((1,), n)
        else:
            with pytest.raises(DivisionByZero):
                x.inverse()
    for a in elems[2:4]:
        x = F.element(list(a))
        # every Frobenius power, each the schoolbook p-th power of the last
        expected = a
        for i in range(n + 1):
            assert x.p_power(i).coeffs == expected
            assert x.p_root(i).p_power(i) == x
            expected = field_pow(F, expected, p)
        assert x.p_root(1).coeffs == field_pow(F, a, p ** ((n - 1) % n))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_schoolbook_on_drawn_elements(data):
    key = data.draw(st.sampled_from(KEYS))
    F = field_of(key)
    p, n = F.p, F.n
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    a, b = tuple(data.draw(vec)), tuple(data.draw(vec))
    x, y = F.element(list(a)), F.element(list(b))
    assert (x * y).coeffs == field_mul(F, a, b)
    assert (x + y).coeffs == pad(ref_add(a, b, p), n)
    assert (x - y).coeffs == pad(ref_add(a, ref_neg(b, p), p), n)
    assert (-x).coeffs == ref_neg(a, p)
    i = data.draw(st.integers(0, n))
    assert x.p_power(i).coeffs == field_pow(F, a, p ** (i % n))
    if any(a):
        assert field_mul(F, a, x.inverse().coeffs) == pad((1,), n)


@pytest.mark.parametrize("p,n", [e for e in EDGES if e[0] in (5, 7, 11, 13)])
def test_all_p_minus_1_products_at_the_byte_slot_edge(p, n):
    # all-(p - 1) elements reach the largest slot sum of a product,
    # n (p - 1)^2, on both sides of each w = 8 / w = 16 pair
    fields = [ff_make(p, n)] + ([dense_field(p, n)] if n >= 2 else [])
    a = (p - 1,) * n
    for F in fields:
        x, w = F.element(list(a)), F._slots.w
        raw = x.v * x.v  # before normalization: slot n - 1 is the largest
        assert max(raw >> w * i & (1 << w) - 1
                   for i in range(2 * n - 1)) == n * (p - 1) ** 2 < 2 ** w
        assert (x * x).coeffs == field_mul(F, a, a)
        assert (x * -x).coeffs == field_mul(F, a, ref_neg(a, p))
        y = F.element(list(ref_neg(F.modulus[:n], p)))  # x^n
        assert (x * y).coeffs == field_mul(F, a, y.coeffs)


def _random_monic(rng, p, d):
    return tuple(rng.randrange(p) for _ in range(d)) + (1,)


@pytest.mark.parametrize("p, max_deg", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_ben_or_matches_schoolbook_exhaustively(p, max_deg):
    for d in range(max_deg + 1):
        for k in range(p ** d):
            f = pad([k // p ** i % p for i in range(d)], d) + (1,)
            assert _pirreducible(f, p) == ref_irreducible(f, p), f


@pytest.mark.parametrize("p", PRIMES + (11, 127))
def test_ben_or_matches_schoolbook_up_to_the_bound(p):
    rng = random.Random(p)
    top = min(_bound(p), 24)
    cases = []
    for d in sorted({1, 2, 3, top // 2, top - 1, top} - {0}):
        cases.append(_random_monic(rng, p, d))
        # a non-monic multiple of a random polynomial
        lead = rng.randrange(1, p)
        cases.append(tuple(c * lead % p for c in _random_monic(rng, p, d)))
    # products whose least factor has degree about n/2, so the test must
    # reach its last block, and searched moduli, which pass every block
    for d in sorted({2, 3, top // 2}):
        if 2 * d <= _bound(p):
            f, g = ff_make(p, d).modulus, ff_make(p, d, 1).modulus
            cases.append(ref_mul(f, g, p))
            cases.append(ref_mul(f, (1, 1), p))
    cases += [ff_make(p, d).modulus for d in range(1, top + 1)]
    for f in cases:
        assert _pirreducible(f, p) == ref_irreducible(f, p), f


def test_ben_or_at_the_degree_40_bound():
    F = ff_make(2, 40)
    g = ff_make(2, 20).modulus
    h = ff_make(2, 20, 7).modulus
    assert _pirreducible(F.modulus, 2) and ref_irreducible(F.modulus, 2)
    assert not _pirreducible(ref_mul(g, h, 2), 2)
    assert not ref_irreducible(ref_mul(g, h, 2), 2)


# ---------------------------------------------------------------------------
# division and gcd of packed polynomials

# (p, greatest divisor degree): slots of one byte for p = 2, 3, 5 (each
# degree the most that fits), struct words for p = 11 and 65537
DIVISION_CASES = [(2, 40), (3, 28), (5, 10), (11, 40), (65537, 40)]


def _unpacked(k, v):
    return _trim(k.unpack(v, -(-v.bit_length() // k.w)))


def _division_inputs(p, max_deg):
    rng = random.Random(f"division {p}")

    def poly(d):
        lead = rng.randrange(1, p)
        return tuple(rng.randrange(p) for _ in range(d)) + (lead,)

    pairs = [(poly(rng.randrange(41)), poly(rng.randrange(max_deg + 1)))
             for _ in range(60)]
    b = poly(max_deg)
    pairs += [((), b), ((), poly(0)), (poly(max_deg - 1), b),
              (poly(40), poly(0)), (poly(0), poly(0))]
    # sparse dividends x^n + (a short tail)
    for n in (max_deg, 33, 40):
        tail = tuple(rng.randrange(p) for _ in range(3))
        pairs += [(pad(tail, n) + (1,), b), (pad(tail, n) + (1,), poly(3))]
    return pairs


@pytest.mark.parametrize("p, max_deg", DIVISION_CASES)
def test_packed_division_and_gcd_match_schoolbook(p, max_deg):
    k = _slots(p, _width(p, max_deg))
    assert (k.w == 8) == (p < 11)
    for a, b in _division_inputs(p, max_deg):
        pa, pb = k.pack(a), k.pack(b)
        q, r = (_unpacked(k, v) for v in _pdivmod(pa, pb, k))
        assert len(r) < len(b)  # deg r < deg b
        assert ref_add(ref_mul(q, b, p), r, p) == _trim(a)
        assert (q, r) == ref_divmod(a, b, p)
        for x, y in ((pa, pb), (pb, pa)):
            g = _unpacked(k, _pgcd(x, y, k))
            assert g == ref_gcd(a, b, p)
            assert g[-1] == 1
            assert not ref_divmod(a, g, p)[1] and not ref_divmod(b, g, p)[1]
    assert _pgcd(0, 0, k) == 0
    with pytest.raises(DivisionByZero):
        _pdivmod(1, 0, k)


def test_inverse_at_p_2():
    F = ff_make(2, 8)
    for v in range(1, F.size):
        x = F.from_encoding(v)
        assert field_mul(F, x.coeffs, x.inverse().coeffs) == pad((1,), 8)
    F = ff_make(2, 40)
    rng = random.Random(40)
    for _ in range(200):
        x = F.from_encoding(rng.randrange(1, F.size))
        assert field_mul(F, x.coeffs, x.inverse().coeffs) == pad((1,), 40)
