import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld import (DrinfeldModule, FField, FFElem, OrePoly, TorsionModule,
                      UPoly, carlitz_family, choose_prime_sets,
                      dm_frobenius_matrix, dm_frobenius_norm, dm_torsion,
                      extension_of, ff_make, monic_irreducibles, ore_eval,
                      ore_kernel, parse_upoly, torsion_point_count, upoly_crt)
from drinfeld import reports, torsion
from drinfeld.errors import (CapExceeded, CharacteristicIdeal,
                             InsufficientModulus, InvariantError)
from drinfeld.reports import _crt_lift, _independent
from drinfeld.upoly import upoly_det


def _mat_mul_mod(a, b, mod):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                           UPoly.zero(mod.base)) % mod
                       for j in range(n)) for i in range(n))


def test_carlitz_t_torsion(F2, F4, carlitz_f4):
    T = dm_torsion(carlitz_f4, UPoly.x(F2), 1)
    assert [x.encode() for x in T.points] == [0, F4.gen.encode()]
    assert len(T.basis) == 1
    assert T.ext == F4


def test_carlitz_frobenius_matrix_is_identity(F2, F4, carlitz_f4):
    T = dm_torsion(carlitz_f4, UPoly.x(F2), 1)
    m = dm_frobenius_matrix(T)
    assert m == ((UPoly.one(F2),),)
    T2 = dm_torsion(carlitz_f4, UPoly.x(F2) + 1, 1)
    assert dm_frobenius_matrix(T2) == ((UPoly.one(F2),),)
    assert [x.encode() for x in T2.points] == [0, (F4.gen ** 2).encode()]


def test_a_2_to_the_32_point_module_is_drawn_by_index(F4):
    # rank 2 over F_4, coefficients (1, 1): E[(t^8+t^6+t^5+t^3+1)^2] splits
    # in degree 20 over F_4, and no point is built but those drawn
    E = DrinfeldModule(F4, F4.gen, [F4.one, F4.one])
    ell = parse_upoly("t^8+t^6+t^5+t^3+1", E.constants)
    T = dm_torsion(E, ell, 2, cap=20)
    assert len(T.points) == 2 ** 32 and T.ext.n == 40
    phi = E.phi(ell ** 2).map_field(T.embedding)
    for k in (0, 1, 2 ** 31 - 1, 2 ** 32 - 1):
        assert not ore_eval(phi, T.points[k])
    assert T.points[2 ** 32 - 1].encode() > T.points[2 ** 32 - 2].encode()
    assert len(T.basis) == 2 and dm_frobenius_matrix(T)


def test_characteristic_ideal_rejected(F2, carlitz_f4):
    with pytest.raises(CharacteristicIdeal):
        dm_torsion(carlitz_f4, parse_upoly("t^2+t+1", F2), 1)


def test_kernel_at_characteristic_is_trivial(F2, carlitz_f4):
    char = parse_upoly("t^2+t+1", F2)
    assert carlitz_f4.phi(char) == OrePoly(carlitz_f4.L, [0, 0, 1])
    count, _ = torsion_point_count(carlitz_f4, char)
    assert count == 1
    assert count < carlitz_f4.q ** (carlitz_f4.r * char.deg)


def test_torsion_cardinality_law(F2, carlitz_f4, rank2_f2):
    for E, ell_text, n in [(carlitz_f4, "t", 1), (carlitz_f4, "t", 2),
                           (rank2_f2, "t", 1), (rank2_f2, "t", 2)]:
        ell = parse_upoly(ell_text, F2)
        T = dm_torsion(E, ell, n, cap=12)
        assert len(T.points) == E.q ** (E.r * n * ell.deg)
        assert len(T.basis) == E.r


def test_coprime_point_count(F2, carlitz_f4):
    a = UPoly.x(F2) * (UPoly.x(F2) + 1)
    count, _ = torsion_point_count(carlitz_f4, a, cap=12)
    assert count == carlitz_f4.q ** (carlitz_f4.r * a.deg)


def test_basis_annihilator_exact(F2, rank2_f2):
    ell = UPoly.x(F2)
    T = dm_torsion(rank2_f2, ell, 2, cap=12)
    lam = ell ** 2
    for b in T.basis:
        assert not ore_eval(rank2_f2.phi(lam).map_field(T.embedding), b)
        assert ore_eval(rank2_f2.phi(ell).map_field(T.embedding), b)


def test_frobenius_commutes_with_t_action(F2, carlitz_f4, rank2_f2):
    for E, ell_text, n in [(carlitz_f4, "t", 2), (rank2_f2, "t", 1)]:
        T = dm_torsion(E, parse_upoly(ell_text, F2), n, cap=12)
        frob = T.frobenius_matrix()
        phi_t = E.phi_t.map_field(T.embedding)
        cols = [T.coordinates(ore_eval(phi_t, b)) for b in T.basis]
        tmat = tuple(tuple(col[i] for col in cols)
                     for i in range(len(T.basis)))
        mod = T.modulus
        assert _mat_mul_mod(frob, tmat, mod) == _mat_mul_mod(tmat, frob, mod)


def test_carlitz_norm_reconstruction(F2, carlitz_f4):
    t = UPoly.x(F2)
    rep = dm_frobenius_norm(carlitz_f4, [(t, 1), (t + 1, 1)])
    assert rep.s_exact == parse_upoly("t^2+t+1", F2)
    assert rep.independence and rep.degree_ok and rep.char_divides
    assert rep.char_power == 1
    assert not carlitz_f4.delta(rep.s_exact)


def test_norm_residue_consistency(F2, carlitz_f4):
    t = UPoly.x(F2)
    rep = dm_frobenius_norm(carlitz_f4, [(t, 1), (t + 1, 1)])
    for ell, n, det in rep.residues:
        assert rep.s_exact % (ell ** n) == det


def test_rank2_norm_degree_one(F2, rank2_f2):
    t = UPoly.x(F2)
    rep = dm_frobenius_norm(rank2_f2, [(t, 1), (parse_upoly("t^2+t+1", F2), 1)],
                            cap=20)
    assert rep.s_exact.deg == 1
    assert rep.s_monic == t + 1  # the characteristic ideal
    assert rep.all_ok


def test_frobenius_det_rejects_a_matrix_singular_mod_a_degree_one_prime(
        F2, rank2_f2, monkeypatch):
    # det 0 mod l = t shares all of l, a factor of degree 1
    T = dm_torsion(rank2_f2, UPoly.x(F2), 1)
    one = UPoly.one(F2)
    monkeypatch.setattr(TorsionModule, "frobenius_matrix",
                        lambda self: ((one, one), (one, one)))
    with pytest.raises(InvariantError, match="singular modulo l"):
        dm_frobenius_matrix(T)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_torsion_builds_its_operator_once(F2, rank2_f2, monkeypatch):
    # phi_(l^n) serves both the splitting search and the kernel
    built = _count_calls(monkeypatch, DrinfeldModule, "phi")
    ell = UPoly.x(F2)
    for n in (1, 2):
        dm_torsion(rank2_f2, ell, n)
    assert [a for _, a in built] == [ell, ell ** 2]


def test_norm_takes_one_determinant_per_prime(F2, rank2_f2, monkeypatch):
    t = UPoly.x(F2)
    primes = [(t, 1), (parse_upoly("t^2+t+1", F2), 1)]
    dets = _count_calls(monkeypatch, torsion, "upoly_det")
    dm_frobenius_norm(rank2_f2, primes, cap=20)
    assert len(dets) == len(primes)


def _independent_by_subsets(entries, s, d):
    """Every subset with modulus degree above d lifts to s, by direct CRT."""
    for mask in range(1, 1 << len(entries)):
        subset = [e for i, e in enumerate(entries) if mask >> i & 1]
        if (sum(m.deg for _, m in subset) > d
                and upoly_crt(subset) != s):
            return False
    return True


def test_independence_matches_subset_lifts():
    rng = random.Random(23)
    checked = falses = 0
    for p, n in ((2, 1), (3, 1), (2, 2)):
        F = ff_make(p, n, 0)
        pool = monic_irreducibles(F, 2 if F.size > 2 else 3)
        for _ in range(120):
            entries = []
            for ell in rng.sample(pool, rng.randrange(1, 5)):
                m = ell ** rng.randrange(1, 3)
                entries.append((UPoly(F, [rng.randrange(F.size)
                                          for _ in range(m.deg)]), m))
            d = rng.randrange(1, 7)
            try:
                s = _crt_lift(entries, d, F.size)
            except InsufficientModulus:
                continue
            if rng.randrange(4) == 0:  # also a lift that misses a congruence
                s = s + UPoly(F, [rng.randrange(1, F.size)])
            expected = _independent_by_subsets(entries, s, d)
            assert _independent(entries, s, d) == expected
            checked += 1
            falses += not expected
    assert checked > 200 and falses > 50


def test_norm_requires_enough_modulus(F3):
    E = DrinfeldModule(F3, F3.one, [F3.one])
    t = UPoly.x(F3)
    # q = 3 and total degree d: the lift is ambiguous
    with pytest.raises(InsufficientModulus):
        dm_frobenius_norm(E, [(t, 1)])


def test_norm_rejects_repeated_prime(F2, carlitz_f4):
    t = UPoly.x(F2)
    with pytest.raises(ValueError):
        dm_frobenius_norm(carlitz_f4, [(t, 1), (t, 2)])


def test_cap_exceeded_surfaces(F2, rank2_f2):
    with pytest.raises(CapExceeded):
        dm_torsion(rank2_f2, parse_upoly("t^2+t+1", F2), 1, cap=5)


def test_oversized_torsion_fails_before_the_splitting_search(
        F2, carlitz_f4, rank2_f2, monkeypatch):
    def fail(*args):
        raise AssertionError("no splitting search may run")

    monkeypatch.setattr(torsion, "ore_splitting_degree", fail)
    t = UPoly.x(F2)
    # |E[l^n]| = q^(r n deg l) > 2^40
    for E, ell, n in ((carlitz_f4, t, 41), (carlitz_f4, t, 3000),
                      (rank2_f2, t * t + t + 1, 11)):
        with pytest.raises(CapExceeded, match="over 2\\^40 points"):
            dm_torsion(E, ell, n, cap=10 ** 6)


def _count_motive_walks(monkeypatch):
    walked = []
    walk = reports.motive_splitting_degree

    def counting(E, ell, n, cap):
        code = sum(c.encode() * ell.base.size ** i
                   for i, c in enumerate(ell.coeffs))
        walked.append((code, n))
        return walk(E, ell, n, cap)

    monkeypatch.setattr(reports, "motive_splitting_degree", counting)
    return walked


def test_prime_set_search_tests_each_candidate_once(monkeypatch):
    # the Carlitz module at x needs pool degree d + 2 = 3 at cap 8; the
    # second set fills at t^3+t+1 (encoding 11), so the scan stops there
    family = carlitz_family(2)
    E = family.specialize(parse_upoly("x", family.constants, "x"))[0]
    walked = _count_motive_walks(monkeypatch)
    built = []
    listing = reports.irreducibles_of_degree

    def recording(base, k):
        built.append(k)
        return listing(base, k)

    monkeypatch.setattr(reports, "irreducibles_of_degree", recording)
    assert len(choose_prime_sets(E, cap=8)) == 2
    assert len(walked) == len(set(walked))
    assert max(enc for enc, _ in walked) == 11
    assert max(built) == 3


def test_failing_prime_set_search_splits_each_candidate_once(monkeypatch):
    # rank 2 over F_8, coefficients (theta, theta + 1): all four passes fail
    F8 = ff_make(2, 3, 0)
    E = DrinfeldModule(F8, F8.gen, [F8.gen, F8.gen + 1])
    walked = _count_motive_walks(monkeypatch)
    ore_walks = []
    monkeypatch.setattr(torsion, "ore_splitting_degree",
                        lambda *args: ore_walks.append(args))
    with pytest.raises(InsufficientModulus, match="within cap 24"):
        choose_prime_sets(E, cap=24)
    assert len(walked) == len(set(walked)) > 0
    assert ore_walks == []


def test_prime_sets_reach_the_last_pool_degree():
    # rank 2 over F_16 with d = 4: the second set needs a prime of degree
    # 8 = d + 4, which only the last pass admits
    L = FField(2, 4, (1, 1, 0, 0, 1))
    E = DrinfeldModule(L, L.element([1, 1, 0, 0]),
                       [L.element([0, 0, 1, 0]), L.element([0, 0, 1, 1])])
    sets = choose_prime_sets(E, cap=24)
    assert [[(ell.to_text(), n) for ell, n in acc] for acc in sets] == [
        [("t", 1), ("t+1", 1), ("t^2+t+1", 1), ("t^4+t^3+1", 1)],
        [("t^4+t^3+t^2+t+1", 1), ("t^8+t^5+t^3+t+1", 1)]]


def test_determinant_helper(F2):
    t = UPoly.x(F2)
    mod = t ** 3
    one, zero = UPoly.one(F2), UPoly.zero(F2)
    m = ((t % mod, one), (one, zero))
    assert upoly_det(m) % mod == (t * zero - one * one) % mod
    # 3x3: expand along the first row by hand
    a, b, c = t + 1, t * t, one
    m3 = ((a, b, c), (one, t, zero), (t, one, t + 1))
    by_hand = (a * (t * (t + 1) - zero * one)
               - b * (one * (t + 1) - zero * t)
               + c * (one * one - t * t))
    assert upoly_det(m3) == by_hand
    assert upoly_det(m3) % mod == by_hand % mod


def test_points_closed_under_module_actions(F2, carlitz_f4):
    T = dm_torsion(carlitz_f4, UPoly.x(F2), 2, cap=12)
    points = set(T.points)
    phi_t = carlitz_f4.phi_t.map_field(T.embedding)
    for x in T.points:
        assert ore_eval(phi_t, x) in points
        for c in carlitz_f4.constants.elements():
            assert T.embedding(carlitz_f4.constant_action(c)) * x in points


def test_coordinates_reject_a_point_outside_the_torsion(F2, F4, carlitz_f4):
    T = dm_torsion(carlitz_f4, UPoly.x(F2), 1)
    assert T.coordinates(F4.gen) == (UPoly.one(F2),)
    for x in (F4.one, ff_make(2, 3).gen):  # not killed by phi_t; another field
        with pytest.raises(ValueError, match="outside E"):
            T.coordinates(x)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_coordinates_rebuild_every_point(data):
    # x = sum phi_(a_i)(b_i), evaluated on the extension, not by a solve
    p, n = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3),
                                      (3, 2)]))
    L = ff_make(p, n)
    constants = L if n > 1 and data.draw(st.booleans()) else None
    r = data.draw(st.integers(1, 3))
    element = st.integers(0, L.size - 1).map(L.from_encoding)
    coeffs = data.draw(st.lists(element, min_size=r - 1, max_size=r - 1))
    coeffs.append(L.from_encoding(data.draw(st.integers(1, L.size - 1))))
    E = DrinfeldModule(L, data.draw(element), coeffs, constants=constants)
    ell = UPoly.x(E.constants) + data.draw(st.integers(0, 1))
    exponent = data.draw(st.integers(1, 2))
    assume(E.q ** (r * exponent) <= 729)
    try:
        T = dm_torsion(E, ell, exponent, cap=24, seed=data.draw(
            st.integers(0, 3)))
    except (CapExceeded, CharacteristicIdeal):
        assume(False)
    ops = {}
    for x in T.points:
        acc = T.ext.zero
        for a, b in zip(T.coordinates(x), T.basis):
            if a not in ops:
                ops[a] = E.phi(a).map_field(T.embedding)
            acc = acc + ore_eval(ops[a], b)
        assert acc == x


def test_torsion_determinism(F2, rank2_f2):
    t = UPoly.x(F2)
    a = dm_torsion(rank2_f2, t, 1, cap=12, seed=0)
    b = dm_torsion(rank2_f2, t, 1, cap=12, seed=0)
    assert a.basis == b.basis and tuple(a.points) == tuple(b.points)


# ---------------------------------------------------------------------------
# the basis sampler on element ints against its FFElem reference

def _reference_sampler(E, ell, n, seed, cap=24):
    """dm_torsion's points, basis and coordinates by FFElem sums."""
    ext, emb = extension_of(E.L, torsion.splitting_degree(E, ell, n, cap),
                            seed)
    points = tuple(sorted(ore_kernel(E.phi(ell ** n), ext),
                          key=FFElem.encode))
    width = n * ell.deg
    residues = tuple(UPoly(E.constants, coeffs[::-1]) for coeffs
                     in product(list(E.constants.elements()), repeat=width))
    phi_t_ext = E.phi_t.map_field(emb)
    scalars = {c: emb(E.constant_action(c)) for c in E.constants.elements()}
    rng = random.Random(seed)
    basis, span = [], {ext.zero: ()}
    while len(basis) < E.r:
        z = rng.choice(points)
        w_chain = [z]
        for _ in range(width - 1):
            w_chain.append(ore_eval(phi_t_ext, w_chain[-1]))
        table = []
        for rep in residues:
            acc = ext.zero
            for k in range(width):
                c = rep.coeff(k)
                if c:
                    acc = acc + scalars[c] * w_chain[k]
            table.append(acc)
        new_span = {}
        for pt, coord in span.items():
            for idx, v in enumerate(table):
                if pt + v in new_span:
                    break
                new_span[pt + v] = coord + (idx,)
            else:
                continue
            break
        else:
            basis.append(z)
            span = new_span
    coords = {pt: tuple(residues[i] for i in idxs)
              for pt, idxs in span.items()}
    Q = E.L.size
    cols = [coords[b ** Q] for b in basis]
    matrix = tuple(tuple(col[i] for col in cols) for i in range(len(basis)))
    return points, tuple(basis), coords, matrix


def _sampler_modules():
    F3, F4, F8, F9 = (ff_make(p, n) for p, n in ((3, 1), (2, 2), (2, 3),
                                                   (3, 2)))
    return [
        DrinfeldModule(F3, F3.one * 2, [F3.one, F3.one]),
        DrinfeldModule(F4, F4.gen, [F4.one, F4.gen]),
        DrinfeldModule(F4, F4.gen, [F4.gen, F4.one], constants=F4),
        DrinfeldModule(F8, F8.gen, [F8.one, F8.gen + 1]),
        DrinfeldModule(F9, F9.gen, [F9.gen, F9.one]),
        DrinfeldModule(F9, F9.gen, [F9.one, F9.gen], constants=F9),
    ]


@pytest.mark.parametrize("index", range(6))
def test_int_sampler_matches_the_ffelem_reference(index):
    E = _sampler_modules()[index]
    t = UPoly.x(E.constants)
    checked = 0
    for ell, n in ((t, 1), (t + 1, 1), (t, 2)):
        for seed in range(4):
            try:
                T = dm_torsion(E, ell, n, cap=24, seed=seed)
            except (CapExceeded, CharacteristicIdeal):
                continue
            points, basis, coords, matrix = _reference_sampler(E, ell, n,
                                                               seed)
            assert tuple(T.points) == points and T.basis == basis
            assert len(coords) == len(points)
            assert all(T.coordinates(pt) == coords[pt] for pt in points)
            assert dm_frobenius_matrix(T) == matrix
            checked += 1
    assert checked >= 4
