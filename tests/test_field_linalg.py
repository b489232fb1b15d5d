"""Linear algebra over F_p on packed element ints, against schoolbook lists.

The reference is the list row reduction the packed elimination replaced:
`rref`, `nullspace` and `solve` on int matrices, each entry reduced mod p
at every step.  The packed kernel must return exactly the reduced row
echelon kernel basis, in the same order, since `ore kernel` prints it.
"""

import random
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld import (FFElem, OrePoly, ff_embed, ff_make, finitefield,
                      ore_kernel)
from drinfeld.finitefield import (KernelSpace, _eliminate, _pirreducible,
                                  _Slots, _slots, _solve)

RUN = settings(derandomize=True, max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# schoolbook reference on lists of rows

def rref(rows, p):
    """Row-reduce a copy; returns (matrix, pivot column list)."""
    m = [row[:] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(m[i][j] - f * m[r][j]) % p for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows, p):
    """The reduced row echelon basis of the right kernel."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-reduced[r][fc]) % p
        basis.append(v)
    return basis


def solve(rows, rhs, p):
    """The solution of rows * x = rhs that is 0 off the pivots, or None."""
    if not rows:
        return [] if not any(rhs) else None
    ncols = len(rows[0])
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    reduced, pivots = rref(aug, p)
    if ncols in pivots:  # a pivot in the last column: inconsistent
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols] % p
    return x


# ---------------------------------------------------------------------------
# packed columns <-> lists

FIELDS = [(2, 1), (2, 4), (2, 12), (2, 36), (3, 1), (3, 5), (3, 24),
          (5, 3), (5, 11), (7, 6), (13, 2), (13, 5), (65537, 1), (65537, 2)]


def digits(F, v, count):
    return list(F._slots.unpack(v, count))


def random_columns(rng, F, count, rank):
    """count element ints spanning a space of dimension at most rank."""
    span = [rng.randrange(F.size) for _ in range(rank)]
    cols = []
    for _ in range(count):
        acc = F.zero
        for b in span:
            acc = acc + F.from_encoding(b) * rng.randrange(F.p)
        cols.append(acc.v)
    return cols


def rows_of(F, cols):
    return [list(r) for r in zip(*(digits(F, c, F.n) for c in cols))]


@RUN
@given(data=st.data())
def test_kernel_is_the_reduced_echelon_basis(data):
    p, n = data.draw(st.sampled_from(FIELDS))
    F = ff_make(p, n)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    count = data.draw(st.integers(1, n + 3))
    rank = data.draw(st.integers(0, min(count, n)))
    cols = random_columns(rng, F, count, rank)
    assert ([digits(F, v, count) for v in F.kernel(cols)]
            == nullspace(rows_of(F, cols), p))


@pytest.mark.parametrize("p,n", FIELDS)
def test_full_rank_and_zero_columns(p, n):
    F = ff_make(p, n)
    unit = [1 << F._slots.w * j for j in range(n)]
    assert F.kernel(unit) == []
    assert ([digits(F, v, n) for v in F.kernel([0] * n)]
            == [[int(i == j) for i in range(n)] for j in range(n)])


@RUN
@given(data=st.data())
def test_reduce_solves_like_the_schoolbook_solve(data):
    p, n = data.draw(st.sampled_from(FIELDS))
    F = ff_make(p, n)
    k = F._slots
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    count = data.draw(st.integers(1, n + 2))
    cols = random_columns(rng, F, count, data.draw(st.integers(0, n)))
    rhs = F.from_encoding(rng.randrange(F.size))
    if data.draw(st.booleans()):  # a right-hand side in the column span
        rhs = F.zero
        for c in cols:
            rhs = rhs + FFElem(F, c) * rng.randrange(p)
    rhs = rhs.v
    tag = _solve(rhs, _eliminate(cols, k)[0], k)
    expect = solve(rows_of(F, cols), digits(F, rhs, n), p)
    if expect is None:
        assert tag is None
    else:
        assert digits(F, tag, count) == expect


@RUN
@given(data=st.data())
def test_elimination_continues_from_earlier_pivots(data):
    p, n = data.draw(st.sampled_from(FIELDS))
    F = ff_make(p, n)
    k = F._slots
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    cols = random_columns(rng, F, data.draw(st.integers(1, n + 2)),
                          data.draw(st.integers(0, n)))
    split = data.draw(st.integers(0, len(cols)))
    first, kernel = _eliminate(cols[:split], k)
    # the new columns are numbered after the pivots, so after every column
    # of an independent first part
    assume(not kernel)
    assert _eliminate(cols[split:], k, first) == _eliminate(cols, k)
    assert first == _eliminate(cols[:split], k)[0]  # left as it was


@pytest.mark.parametrize("p,m,n", [(2, 2, 4), (2, 3, 6), (2, 4, 12),
                                   (3, 2, 4), (5, 1, 3), (7, 2, 6),
                                   (13, 1, 2), (65537, 1, 2)])
def test_preimage_matches_the_schoolbook_solve(p, m, n):
    sub, sup = ff_make(p, m), ff_make(p, n)
    emb = ff_embed(sub, sup)
    rows = [[w.coeffs[i] for w in emb._powers] for i in range(n)]
    rng = random.Random(f"{p} {m} {n}")
    images = [emb(sub.from_encoding(rng.randrange(sub.size)))
              for _ in range(20)]
    others = [sup.from_encoding(rng.randrange(sup.size)) for _ in range(40)]
    misses = 0
    for x in images + others + [sup.zero, sup.one]:
        sol = solve(rows, list(x.coeffs), p)
        got = emb.preimage(x)
        if sol is None:
            misses += 1
            assert got is None
        else:
            assert got == sub.element(sol) and emb(got) == x
    assert misses  # the None branch is reached
    assert emb.preimage(sub.one) is None  # an element of another field


# ---------------------------------------------------------------------------
# one AND at p = 2

def reference_norm(w, v):
    """Every w-bit slot of v mod 2 through bytes.translate or struct."""
    slots = -(-v.bit_length() // w) or 1
    raw = v.to_bytes(slots * w // 8, "little")
    if w == 8:
        return int.from_bytes(raw.translate(bytes(range(2)) * 128), "little")
    if w in (16, 32, 64):
        code = {16: "H", 32: "I", 64: "Q"}[w]
        words = struct.unpack(f"<{slots}{code}", raw)
        return int.from_bytes(struct.pack(f"<{slots}{code}",
                                          *(c % 2 for c in words)), "little")
    size = w // 8
    slot = (int.from_bytes(raw[i:i + size], "little")
            for i in range(0, len(raw), size))
    return int.from_bytes(b"".join((c % 2).to_bytes(size, "little")
                                   for c in slot), "little")


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128])
def test_norm_at_p_2_is_one_and(w):
    k = _Slots(2, w)
    old = _Slots(2, w)
    old.ones = 0  # the translate, struct and byte paths
    rng = random.Random(w)
    for bits in (0, 1, w, 3 * w + 5, 200 * w, 1000 * w + 3):
        reach = k.reach
        v = rng.getrandbits(bits) if bits else 0
        assert k.norm(v) == reference_norm(w, v) == old.norm(v)
        assert k.reach >= max(reach, v.bit_length())
    assert _slots(2, w).norm(1 << 70 * w) == 1 << 70 * w


@RUN
@given(w=st.sampled_from([8, 16, 32, 64]), v=st.integers(0, 2 ** 6000))
def test_norm_at_p_2_on_drawn_ints(w, v):
    assert _slots(2, w).norm(v) == reference_norm(w, v)


# ---------------------------------------------------------------------------
# the indexable span against the enumeration it replaced

def span_oracle(F, basis):
    """Every point of the F_p-span of element ints, sorted by encoding."""
    add = F._add
    points = [0]
    for b in basis:
        multiples = [b]
        for _ in range(2, F.p):
            multiples.append(add(multiples[-1], b))
        points = points + [add(q, s) for s in multiples for q in points]
    points.sort()  # int order is encoding order
    return [FFElem(F, v) for v in points]


def echelon_by_top_slot(F, elems):
    """A basis of the span of element ints: reduced echelon form by top
    slot, monic there, top slots ascending."""
    rows = [digits(F, v, F.n)[::-1] for v in elems]
    reduced, pivots = rref(rows, F.p)
    return [F.element(row[::-1]).v for row in reduced[:len(pivots)]][::-1]


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 6), (13, 2)])
def test_span_is_sorted_by_encoding(p, n):
    F = ff_make(p, n)
    rng = random.Random(f"{p} {n}")
    for dim in range(3):
        basis = echelon_by_top_slot(
            F, [F.from_encoding(rng.randrange(1, F.size)).v
                for _ in range(dim)])
        pts = list(KernelSpace(F, basis))
        assert pts == sorted(pts, key=FFElem.encode)
        assert len(set(pts)) == len(pts) == p ** len(basis)


@RUN
@given(data=st.data())
def test_span_indexes_the_sorted_enumeration(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 13]))
    # dims 0-8, as long as the oracle enumerates at most 2^13 points
    dim = data.draw(st.integers(0, max(d for d in range(9)
                                       if p ** d <= 2 ** 13)))
    F = ff_make(p, data.draw(st.integers(max(dim, 1), dim + 3)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    # the kernel basis of a map of rank n - dim, as `ore_kernel` gets it,
    # is already in echelon form by top slot
    kernel = F.kernel(random_columns(rng, F, F.n, F.n - dim))
    assert kernel == echelon_by_top_slot(F, kernel)
    drawn = echelon_by_top_slot(F, [F.from_encoding(rng.randrange(F.size)).v
                                    for _ in range(dim)])
    for basis in (kernel, drawn):
        span, points = KernelSpace(F, basis), span_oracle(F, basis)
        assert len(span) == len(points) == p ** len(basis)
        assert [span[k] for k in range(len(span))] == points
        assert list(span) == points
        with pytest.raises(IndexError):
            span[len(span)]


# ---------------------------------------------------------------------------
# the modulus search

def brute_force_modulus(p, n, seed):
    """The first candidate from the seed on that passes Ben-Or's test."""
    span = p ** n
    for j in range(span):
        k = (seed + j) % span
        modulus = tuple(k // p ** i % p for i in range(n)) + (1,)
        if _pirreducible(modulus, p):
            return modulus
    raise AssertionError("no irreducible")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_modulus_search_matches_a_brute_force_scan(p):
    for n in range(1, 11):
        # seeds at the end of the span and past it, where candidates wrap
        for seed in (0, 1, 2, 3, p ** n - 2, p ** n - 1, p ** n + 1):
            finitefield._field.cache_clear()
            assert ff_make(p, n, seed).modulus == brute_force_modulus(p, n,
                                                                      seed)
    # degree 1 keeps x and x + 1
    assert ff_make(2, 1, 0).modulus == (0, 1)
    assert ff_make(2, 1, 1).modulus == (1, 1)


def test_ore_kernel_of_a_tau_degree_8_operator():
    F = ff_make(2, 24)
    rng = random.Random(8)
    f = OrePoly(F, [F.from_encoding(rng.randrange(1, F.size))
                    for _ in range(9)])
    ker = ore_kernel(f, F)
    rows = rows_of(F, [f(F.from_encoding(2 ** j)).v for j in range(F.n)])
    assert [b.to_list() for b in ker.basis] == nullspace(rows, 2)
    assert all(not f(x) for x in ker)
