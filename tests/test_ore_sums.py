"""The Ore layer's unreduced sums against schoolbook oracles.

Products, left division, evaluation and kernel columns sum products of
element ints unreduced and reduce each output once (`FField._fold`).  The
oracles here use only FFElem arithmetic, one reduced operation at a time;
the hypothesis runs also compare with the per-coefficient loops the
product and the division ran before, kept here as references.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (OrePoly, ff_embed, ff_make, ore_divmod_left, ore_eval,
                      ore_kernel)
from drinfeld.errors import DivisionByZero, ZeroPolynomial
from drinfeld.finitefield import FField, KernelSpace

# byte slots (Barrett; inline ANDs at p = 2), then word slots (rows);
# F_{11^2} has 2 * 11^2 = 242, the fullest byte slots of any field
FIELDS = ((2, 1), (2, 2), (3, 2), (2, 8), (3, 5), (2, 36), (11, 2),
          (13, 2), (7, 6))


def _rand(L, rng, deg, monic=False):
    cs = [L.from_encoding(rng.randrange(L.size)) for _ in range(deg)]
    top = L.one if monic else L.from_encoding(rng.randrange(1, L.size))
    return OrePoly(L, cs + [top])


def _mono(L, k):
    """A nonzero coefficient times tau^k."""
    return OrePoly(L, [L.zero] * k + [L.from_encoding(L.size - 1)])


def _school_mul(a, b):
    """sum_{i,j} a_i b_j^(p^i) tau^(i+j), one FFElem operation at a time."""
    L = a.base
    out = [L.zero] * (max(a.deg + b.deg, 0) + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y ** (L.p ** (i % L.n))
    return OrePoly(L, out)


def _school_divmod(a, b):
    """Left division: clear the top of r with c tau^k b, term by term."""
    L = a.base
    q = [L.zero] * max(a.deg - b.deg + 1, 0)
    r = list(a.coeffs)
    lead = b.leading()
    while len(r) > b.deg and any(r):
        while not r[-1]:
            r.pop()
        if len(r) <= b.deg:
            break
        k = len(r) - 1 - b.deg
        twist = L.p ** (k % L.n)
        c = r[-1] / lead ** twist
        q[k] = c
        for j, y in enumerate(b.coeffs):
            r[k + j] = r[k + j] - c * y ** twist
        r.pop()
    return OrePoly(L, q), OrePoly(L, r)


def _school_eval(f, x):
    acc = x.field.zero
    for i, c in enumerate(f.coeffs):
        acc = acc + c * x ** (x.field.p ** (i % x.field.n))
    return acc


def _school_kernel(f, ext):
    """The kernel from columns f(x^j), each by `_school_eval`."""
    x = ext.gen
    cols = [_school_eval(f, x ** j).v for j in range(ext.n)]
    return KernelSpace(ext, ext.kernel(cols))


# the per-coefficient loops the product and the left division ran before
# their sums were reduced once per coefficient

def _loop_mul(a, b):
    L = a.base
    if a.is_zero() or b.is_zero():
        return OrePoly.zero(L)
    out = [0] * (len(a.vs) + len(b.vs) - 1)
    twisted = [b]
    for i, x in enumerate(a.vs):
        if not x:
            continue
        while len(twisted) <= i % L.n:
            twisted.append(twisted[-1].frobenius(1))
        for j, y in enumerate(twisted[i % L.n].vs, i):
            if y:
                out[j] = L._add(out[j], L._mul(x, y))
    return OrePoly._of(L, out)


def _loop_divmod(a, b):
    L, db = b.base, b.deg
    twisted = [OrePoly._of(L, b.vs + (b.leading().inverse().v,))]
    r = list(a.vs)
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        k = len(r) - 1 - db
        while len(twisted) <= k % L.n:
            twisted.append(twisted[-1].frobenius(1))
        tb = twisted[k % L.n].vs
        q[k] = c = L._mul(r[-1], tb[-1])
        for i in range(db):
            if tb[i]:
                r[k + i] = L._sub(r[k + i], L._mul(c, tb[i]))
        r.pop()
        while r and not r[-1]:
            r.pop()
    return OrePoly._of(L, q), OrePoly._of(L, r)


@pytest.mark.parametrize("shape", FIELDS)
def test_products_match_the_schoolbook(shape):
    L = ff_make(*shape)
    rng = random.Random(f"mul {shape}")
    zero = OrePoly.zero(L)
    mono = _mono(L, 5)
    scalar = OrePoly.scalar(L.from_encoding(rng.randrange(1, L.size)))
    cases = [(zero, _rand(L, rng, 3)), (_rand(L, rng, 3), zero),
             (mono, _rand(L, rng, 4)), (_rand(L, rng, 4), mono),
             (scalar, _rand(L, rng, 6)), (_rand(L, rng, 6), scalar),
             (scalar, scalar)]
    cases += [(_rand(L, rng, rng.randrange(25)),
               _rand(L, rng, rng.randrange(25))) for _ in range(4)]
    for a, b in cases:
        assert a * b == _school_mul(a, b)


def test_long_products_stay_within_their_slots():
    # 41 x 41 terms over F_{11^2}: each output coefficient sums up to 41
    # products into byte slots that hold 2 * 11^2 = 242
    L = ff_make(11, 2)
    rng = random.Random(5)
    top = L.from_encoding(L.size - 1)
    a = OrePoly(L, [top] * 41)
    b = _rand(L, rng, 40)
    assert a * b == _school_mul(a, b)
    q, r = ore_divmod_left(b * a, a)
    assert (q, r) == (b, OrePoly.zero(L))


@pytest.mark.parametrize("shape", FIELDS)
def test_left_division_matches_the_schoolbook(shape):
    L = ff_make(*shape)
    rng = random.Random(f"div {shape}")
    zero = OrePoly.zero(L)
    mono = _mono(L, 3)
    scalar = OrePoly.scalar(L.from_encoding(rng.randrange(1, L.size)))
    cases = [(zero, _rand(L, rng, 3)),               # zero dividend
             (_rand(L, rng, 9), mono),                # monomial divisor
             (mono, _rand(L, rng, 1)),                # monomial dividend
             (_rand(L, rng, 7), scalar),              # degree-0 divisor
             (scalar, _rand(L, rng, 2)),              # degree-0 dividend
             (_rand(L, rng, 3), _rand(L, rng, 8)),    # divisor longer
             (_rand(L, rng, 40), _rand(L, rng, 8, monic=True))]
    cases += [(_rand(L, rng, rng.randrange(20)),
               _rand(L, rng, rng.randrange(1, 8))) for _ in range(4)]
    for a, b in cases:
        q, r = ore_divmod_left(a, b)
        assert (q, r) == _school_divmod(a, b)
        assert q * b + r == a and r.deg < b.deg
    with pytest.raises(DivisionByZero):
        ore_divmod_left(_rand(L, rng, 2), zero)


@pytest.mark.parametrize("shape", FIELDS)
def test_eval_matches_the_schoolbook(shape):
    L = ff_make(*shape)
    rng = random.Random(f"eval {shape}")
    fs = [OrePoly.zero(L), _mono(L, 4), _rand(L, rng, 12),
          OrePoly.scalar(L.from_encoding(rng.randrange(1, L.size)))]
    xs = [L.zero, L.one, L.gen] + [L.from_encoding(rng.randrange(L.size))
                                   for _ in range(3)]
    for f in fs:
        for x in xs:
            assert ore_eval(f, x) == _school_eval(f, x)


@pytest.mark.parametrize("shape", FIELDS)
def test_kernel_columns_match_the_schoolbook(shape):
    # the kernel's reduced echelon basis is a function of its columns
    L = ff_make(*shape)
    rng = random.Random(f"kernel {shape}")
    ext = L if L.n > 4 else ff_make(L.p, 3 * L.n)
    fs = [_mono(L, 3), _rand(L, rng, 6),
          OrePoly.scalar(L.from_encoding(rng.randrange(1, L.size))),
          OrePoly(L, [L.from_encoding(rng.randrange(1, L.size)), L.zero,
                      L.one])]
    for f in fs:
        g = f.map_field(ff_embed(L, ext))
        assert ore_kernel(f, ext).basis == _school_kernel(g, ext).basis
    with pytest.raises(ZeroPolynomial):
        ore_kernel(OrePoly.zero(L), ext)


@st.composite
def _operators(draw, max_deg):
    L = ff_make(*draw(st.sampled_from(FIELDS)))
    deg = draw(st.integers(-1, max_deg))
    codes = draw(st.lists(st.integers(0, L.size - 1), min_size=deg + 1,
                          max_size=deg + 1))
    return L, [L.from_encoding(c) for c in codes]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_matches_the_loop(data):
    L, a = data.draw(_operators(18))
    b = [L.from_encoding(c) for c in data.draw(
        st.lists(st.integers(0, L.size - 1), max_size=19))]
    a, b = OrePoly(L, a), OrePoly(L, b)
    assert a * b == _loop_mul(a, b)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_division_matches_the_loop(data):
    L, a = data.draw(_operators(30))
    b = [L.from_encoding(c) for c in data.draw(
        st.lists(st.integers(0, L.size - 1), max_size=9))]
    b.append(L.from_encoding(data.draw(st.integers(1, L.size - 1))))
    a, b = OrePoly(L, a), OrePoly(L, b)
    assert ore_divmod_left(a, b) == _loop_divmod(a, b)


def test_a_value_is_reduced_once(monkeypatch):
    # f(x) sums 8 products and reduces once; at p = 3 the p-powers of x
    # are applications of the Frobenius rows, not reductions
    L = ff_make(3, 5)
    rng = random.Random(3)
    f, x = _rand(L, rng, 7), L.from_encoding(rng.randrange(1, L.size))
    expected = _school_eval(f, x)
    calls = []
    fold = FField._fold
    monkeypatch.setattr(FField, "_fold",
                        lambda self, c: calls.append(c) or fold(self, c))
    assert ore_eval(f, x) == expected and len(calls) == 1
