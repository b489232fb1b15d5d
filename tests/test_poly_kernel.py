"""The packed kernel for F_{p^e}[t] against schoolbook arithmetic.

The reference below is the `UPoly` product and division the kernel
replaced: double loops over field elements, one field operation per pair
of coefficients.  The kernel packs a polynomial into one int, 2e - 1 slots
per coefficient, so the cases reach the lengths where its slot width must
grow (`polykernel.poly_kernel`).  The same schoolbook style checks the
twisted product, left division and evaluation of `OrePoly`, which run on
the element ints the polynomials store.
"""

import random
from itertools import product

import pytest

from drinfeld import (OrePoly, UPoly, extension_of, ff_make, ore_divmod_left,
                      ore_eval)
from drinfeld.errors import DivisionByZero, FieldMismatch
from drinfeld.finitefield import FFElem, _slot_width
from drinfeld.polykernel import poly_kernel
from drinfeld.upoly import upoly_irreducible, upoly_powmod


# ---------------------------------------------------------------------------
# schoolbook reference on lists of field elements, low to high

def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def ref_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def ref_divmod(F, a, b):
    db = len(b) - 1
    if len(a) <= db:
        return [], _trim(a)
    rem, inv = list(a), b[-1].inverse()
    q = [F.zero] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        f = rem[i] * inv
        q[i - db] = f
        for j in range(db + 1):
            rem[i - db + j] = rem[i - db + j] - f * b[j]
    return _trim(q), _trim(rem[:db])


# ---------------------------------------------------------------------------
# fields and lengths: p in {2, 3, 5, 7, 13, 251, 65537}, e = 1-6 within 2^40

PRIMES = (2, 3, 5, 7, 13, 251, 65537)
FIELDS = [(p, e) for p in PRIMES for e in range(1, 7) if p ** e <= 2 ** 40]
LONGEST = 130  # the schoolbook reference is quadratic in the length


def _room(p, e, w):
    """The most sums n a w-bit slot holds: (p - 1) + n e (p - 1)^2 < 2^w."""
    return ((1 << w) - p) // (e * (p - 1) ** 2)


def edges(p, e):
    """Lengths on both sides of each slot-width step within LONGEST."""
    out = {1, 2, 3, 5}
    w = _slot_width(p - 1 + e * (p - 1) ** 2)
    while _room(p, e, w) < LONGEST:
        n = _room(p, e, w)
        out |= {n, n + 1}
        w *= 2
    return sorted(k for k in out if 1 <= k <= LONGEST)


def draw(F, rng, length, zeros=0.0):
    """A list of `length` elements with a nonzero top; others may be 0."""
    out = [F.zero if rng.random() < zeros
           else F.from_encoding(rng.randrange(F.size))
           for _ in range(length - 1)]
    return out + [F.from_encoding(rng.randrange(1, F.size))] if length else []


def test_slot_widths_step_where_the_room_runs_out():
    for p, e in FIELDS:
        F = ff_make(p, e)
        for n in edges(p, e):
            w = poly_kernel(F, n).k.w
            assert (p - 1) + n * e * (p - 1) ** 2 < 1 << w
            assert w == 8 or (p - 1) + n * e * (p - 1) ** 2 >= 1 << w // 2
    assert poly_kernel(ff_make(2, 1), 254).k.w == 8
    assert poly_kernel(ff_make(2, 1), 255).k.w == 16
    assert poly_kernel(ff_make(13, 2), 1).k.w == 16
    assert poly_kernel(ff_make(65537, 2), 1).k.w == 64


@pytest.mark.parametrize("p, e", FIELDS, ids=[f"{p}^{e}" for p, e in FIELDS])
def test_product_and_division_match_schoolbook(p, e):
    F = ff_make(p, e)
    rng = random.Random(f"{p}^{e}")
    lengths = edges(p, e)
    for la in lengths:
        for lb in (1, 2, la - 1, la, la + 1):
            if lb < 1:
                continue
            for zeros in (0.0, 0.5):
                a, b = draw(F, rng, la, zeros), draw(F, rng, lb, zeros)
                A, Bp = UPoly(F, a), UPoly(F, b)
                assert list((A * Bp).coeffs) == ref_mul(F, a, b), (la, lb)
                # non-monic, then monic divisors; deg a < deg b included
                for div in (b, [c * b[-1].inverse() for c in b]):
                    q, r = divmod(A, UPoly(F, div))
                    rq, rr = ref_divmod(F, a, div)
                    assert (list(q.coeffs), list(r.coeffs)) == (rq, rr), \
                        (la, lb)


@pytest.mark.parametrize("p, e", [(2, 1), (2, 5), (3, 2), (13, 2), (251, 1),
                                  (65537, 2)])
def test_products_and_quotients_with_zero_coefficients(p, e):
    F = ff_make(p, e)
    rng = random.Random(p * e)
    zero, one = UPoly.zero(F), UPoly.one(F)
    x = UPoly.x(F)
    for length in (1, 4, 9):
        coeffs = draw(F, rng, length, zeros=0.8)
        a = UPoly(F, coeffs)
        assert a * zero == zero == zero * a and a * one == a
        assert divmod(a, one) == (a, zero)
        assert divmod(zero, a) == (zero, zero)
        # x^5 a over x^3 is x^2 a, both built by padding the coefficients
        assert divmod(UPoly(F, [F.zero] * 5 + coeffs), x ** 3) == \
            (UPoly(F, [F.zero] * 2 + coeffs), zero)
        c = F.from_encoding(rng.randrange(1, F.size))
        assert divmod(a, UPoly(F, [c])) == (a * c.inverse(), zero)
    with pytest.raises(DivisionByZero):
        divmod(x, zero)


@pytest.mark.parametrize("p, e", [(2, 1), (2, 3), (2, 6), (3, 2), (5, 2),
                                  (7, 4), (13, 2), (251, 2), (65537, 1)])
def test_residue_ring_matches_schoolbook(p, e):
    # remainders mod f in F[t]/(f) by the kernel's long division, on raw
    # sums of products of residues and on canonical inputs of any length
    F = ff_make(p, e)
    rng = random.Random(f"ring {p}^{e}")
    for D in (1, 2, 5, 11):
        f = draw(F, rng, D + 1)  # not monic in general
        for terms in (1, 3):
            # room for the products and the division's D sums
            kernel = poly_kernel(F, (terms + 1) * D)
            div = kernel.divisor([c.v for c in f], f[-1].inverse().v)

            def divide(v, count):
                q, r = kernel.divide(v, div)
                return (_trim(FFElem(F, c) for c in kernel.unpack(q, count)),
                        _trim(FFElem(F, c) for c in kernel.unpack(r, D)))

            xs = [draw(F, rng, D, zeros=0.3) for _ in range(2 * terms)]
            packed = [kernel.pack([c.v for c in v]) for v in xs]
            total, ref = 0, []
            for k in range(terms):
                total += packed[2 * k] * packed[2 * k + 1]
                ref = _add(F, ref, ref_mul(F, xs[2 * k], xs[2 * k + 1]))
            assert divide(total, 2 * D) == ref_divmod(F, ref, f)
            for length in (D, D + 1, 2 * D + 1, 4 * D + 3):
                v = draw(F, rng, length, zeros=0.3)
                assert divide(kernel.pack([c.v for c in v]), length) == \
                    ref_divmod(F, v, f)


def _add(F, a, b):
    n = max(len(a), len(b))
    a, b = a + [F.zero] * (n - len(a)), b + [F.zero] * (n - len(b))
    return _trim(x + y for x, y in zip(a, b))


def test_remainder_needs_a_nonzero_modulus():
    # the zero modulus is a typed error; modulo a unit every remainder is 0
    F = ff_make(3, 2)
    x, zero = UPoly.x(F), UPoly.zero(F)
    with pytest.raises(DivisionByZero):
        upoly_powmod(x, 2, zero)
    with pytest.raises(DivisionByZero):
        divmod(x, zero)
    v, c = [F.gen, F.one, F.gen + 1], F.gen + 2
    kernel = poly_kernel(F, 0)
    q, r = kernel.divide(kernel.pack([y.v for y in v]),
                         kernel.divisor([c.v], c.inverse().v))
    assert (r, kernel.unpack(q, 3)) == (0, [(y / c).v for y in v])


@pytest.mark.parametrize("p, e", [(2, 1), (2, 4), (3, 2), (13, 2)])
def test_powmod_matches_repeated_products(p, e):
    F = ff_make(p, e)
    rng = random.Random(f"pow {p}^{e}")
    for D in (1, 3, 6):
        m = UPoly(F, draw(F, rng, D + 1))
        a = UPoly(F, draw(F, rng, 2 * D + 2))
        acc = UPoly.one(F)
        for k in range(1, 7):
            acc = acc * a
            assert upoly_powmod(a, k, m) == acc % m
        assert upoly_powmod(a, 0, m) == UPoly.one(F)
    # modulo a unit every residue is 0, a^0 = 1 included; operands must
    # share the field
    for k in (0, 1, 3):
        assert upoly_powmod(UPoly.x(F), k, UPoly.one(F)) == UPoly.zero(F)
    with pytest.raises(FieldMismatch):
        upoly_powmod(UPoly.x(ff_make(5, 1)), 2, UPoly.x(F) ** 2 + 1)


@pytest.mark.parametrize("p, e, deg", [(2, 1, 8), (3, 1, 5), (2, 2, 4),
                                       (3, 2, 3), (5, 1, 3)])
def test_ben_or_on_the_ring_matches_a_root_and_factor_search(p, e, deg):
    # every monic of degree deg is irreducible exactly when it has no
    # monic factor of degree 1..deg/2, found by schoolbook division
    F = ff_make(p, e)
    small = [UPoly(F, list(coeffs) + [F.one]) for k in range(1, deg // 2 + 1)
             for coeffs in product(list(F.elements()), repeat=k)]
    rng = random.Random(f"ben-or {p}^{e}")
    for _ in range(40):
        f = UPoly(F, draw(F, rng, deg) + [F.one])
        coeffs = list(f.coeffs)
        split = any(not ref_divmod(F, coeffs, list(g.coeffs))[1]
                    for g in small)
        assert upoly_irreducible(f) == (not split), f


# ---------------------------------------------------------------------------
# L{tau}: tau c = c^p tau, on FFElem lists

def ref_twisted_mul(F, a, b):
    """sum a_i tau^i * sum b_j tau^j = sum a_i b_j^(p^i) tau^(i+j)."""
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y ** (F.p ** i)
    return _trim(out)


def ref_left_divmod(F, a, b):
    """(q, r) with a = q*b + r: c tau^k * b has top c b_d^(p^k) tau^(k+d)."""
    db = len(b) - 1
    rem = list(a)
    q = [F.zero] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem[k + db] / b[-1] ** (F.p ** k)
        q[k] = c
        for j, y in enumerate(b):
            rem[k + j] = rem[k + j] - c * y ** (F.p ** k)
    return _trim(q), _trim(rem[:db])


def ref_ore_eval(a, x, emb):
    """sum a_i x^(p^i), the coefficients mapped into x's field."""
    acc = x.field.zero
    for i, c in enumerate(a):
        acc = acc + emb(c) * x ** (x.field.p ** i)
    return acc


ORE_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 8), (13, 2)]


@pytest.mark.parametrize("p, e", ORE_FIELDS,
                         ids=[f"{p}^{e}" for p, e in ORE_FIELDS])
def test_twisted_product_division_and_eval_match_schoolbook(p, e):
    F = ff_make(p, e)
    ext, emb = extension_of(F, 2)
    rng = random.Random(f"ore {p}^{e}")
    for la in (0, 1, 2, 3, 5, 8, 13):
        for lb in (1, 2, 4, 7):
            for zeros in (0.0, 0.5):
                a, b = draw(F, rng, la, zeros), draw(F, rng, lb, zeros)
                A, B = OrePoly(F, a), OrePoly(F, b)
                assert list((A * B).coeffs) == ref_twisted_mul(F, a, b)
                assert list((B * A).coeffs) == ref_twisted_mul(F, b, a)
                q, r = ore_divmod_left(A, B)
                assert (list(q.coeffs), list(r.coeffs)) == \
                    ref_left_divmod(F, a, b), (la, lb)
                for x in (F.from_encoding(rng.randrange(F.size)),
                          ext.from_encoding(rng.randrange(ext.size))):
                    own = emb if x.field is ext else (lambda c: c)
                    assert ore_eval(A, x) == ref_ore_eval(a, x, own)
