"""Acceptance battery: each test covers one release criterion, checks exact
values at the stated scale, enforces the stated time budget, and prints a
one-line verdict (visible with pytest -s)."""

import functools
import io
import random
import time
from itertools import product

from drinfeld import (DrinfeldFamily, DrinfeldModule, OrePoly, UPoly,
                      carlitz_family, carlitz_module,
                      dm_residual_frobenius_check, dm_torsion, ff_make,
                      frobenius_target, monic_irreducibles, ore_divmod_left,
                      ore_divmod_right, ore_eval, parse_ratfunc,
                      recover_monomial_exponent, strip_p_powers,
                      theorem_frob_res, torsion_point_count, upoly_crt,
                      verify_tate_det)
from drinfeld.bivar import BivarPoly
from drinfeld.cli import main as cli_main
from drinfeld.errors import CapExceeded
from drinfeld.frobrec import (NOT_FROBENIUS, XTOY, YTOX,
                              classify_frobenius_bivariate)
from drinfeld.reports import choose_prime_sets, place_report
from drinfeld.upoly import upoly_gcd


def criterion(name, budget):
    """Time the body and print exactly one [acceptance] verdict line."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.monotonic() - start
                print(f"[acceptance] {name}: FAIL ({elapsed:.2f}s)")
                raise
            elapsed = time.monotonic() - start
            if elapsed >= budget:
                print(f"[acceptance] {name}: FAIL "
                      f"({elapsed:.2f}s over the {budget}s budget)")
                raise AssertionError(f"{name} exceeded {budget}s")
            print(f"[acceptance] {name}: PASS ({elapsed:.2f}s, "
                  f"budget {budget}s)")
        return wrapper
    return decorate


def _test_modules():
    F2 = ff_make(2, 1, 0)
    F4 = ff_make(2, 2, 0)
    F3 = ff_make(3, 1, 0)
    return [
        carlitz_module(F4),                                  # (2,1,1)
        DrinfeldModule(F2, F2.one, [F2.one, F2.one]),        # (2,1,2)
        DrinfeldModule(F4, F4.gen, [F4.one], constants=F4),  # (2,2,1)
        DrinfeldModule(F3, F3.one, [F3.one, F3.one]),        # (3,1,2)
    ]


def _random_coeff_poly(field, rng, max_deg):
    return UPoly(field, [field.from_encoding(rng.randrange(field.size))
                         for _ in range(rng.randrange(max_deg + 2))])


@criterion("1 structure-map laws", 5.0)
def test_criterion_1_structure_map_laws():
    rng = random.Random(1)
    for E in _test_modules():
        Fq = E.constants
        polys = [_random_coeff_poly(Fq, rng, 4) for _ in range(100)]
        for a in polys:
            op = E.phi(a)
            assert op.constant() == E.delta(a)
            if not a.is_zero():
                assert op.deg == E.r * E.e * a.deg
        for i in range(0, 100, 2):
            a, b = polys[i], polys[i + 1]
            assert E.phi(a + b) == E.phi(a) + E.phi(b)
            assert E.phi(a * b) == E.phi(a) * E.phi(b)
            assert E.phi(a) * E.phi(b) == E.phi(b) * E.phi(a)
        for c in Fq.elements():
            op = E.phi(UPoly(Fq, [c]))
            assert op.deg <= 0
            assert op.constant() == E.const_embedding(c.p_power(E.twist))


@criterion("2 torsion freeness", 20.0)
def test_criterion_2_torsion_freeness():
    cap = 12
    for E in _test_modules():
        computed = 0
        for ell in monic_irreducibles(E.constants, 2):
            if ell == E.char_poly:
                continue
            for n in (1, 2):
                try:
                    T = dm_torsion(E, ell, n, cap=cap)
                except CapExceeded:
                    continue
                computed += 1
                assert len(T.points) == E.q ** (E.r * n * ell.deg)
                assert len(T.basis) == E.r
                coords = {T.coordinates(x) for x in T.points}
                assert len(coords) == len(T.points)
        assert computed >= 2  # the criterion must not hold vacuously
        char = E.char_poly
        count, _ = torsion_point_count(E, char, cap=cap)
        assert count < E.q ** (E.r * char.deg)


def _brute_force_frobenius_polynomial(E, report):
    """All a in F_q[t] of degree <= d acting as the base Frobenius on every
    reconstruction torsion point; independent of the matrix/CRT path."""
    Fq = E.constants
    d = E.d
    torsions = [dm_torsion(E, ell, n, cap=24) for ell, n, _ in
                report.residues]
    matches = []
    for coeffs in product(list(Fq.elements()), repeat=d + 1):
        a = UPoly(Fq, coeffs[::-1])
        ok = True
        for T in torsions:
            op = E.phi(a).map_field(T.embedding)
            size = E.L.size
            for x in T.points:
                if ore_eval(op, x) != x ** size:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            matches.append(a)
    return matches


@criterion("3 Frobenius norm", 30.0)
def test_criterion_3_frobenius_norm():
    for p, max_deg in ((2, 3), (3, 2)):
        family = carlitz_family(p)
        for prime in monic_irreducibles(family.constants, max_deg):
            report = place_report(family, prime, cap=24)
            E, _ = family.specialize(prime)
            assert report.degree_ok and report.s_exact.deg == prime.deg
            assert report.char_divides
            assert report.independence
            # monic associate equals the monic generator of the
            # characteristic ideal (= the place polynomial here)
            assert report.s_monic.coeffs == prime.coeffs
            assert report.s_monic == E.char_poly
            # two disjoint reconstruction sets agree exactly
            set1, set2 = choose_prime_sets(E, cap=24)
            assert not set(ell for ell, _ in set1) & set(
                ell for ell, _ in set2)
            lifts = []
            for subset in (set1, set2):
                residues = [(det, ell ** n)
                            for ell, n, det in report.residues
                            if (ell, n) in subset]
                assert len(residues) == len(subset)
                rep = upoly_crt(residues)
                big = residues[0][1]
                for _, m in residues[1:]:
                    big = big * m
                lifts.append(rep if rep.deg == E.d else rep + big)
            assert lifts[0] == lifts[1] == report.s_exact
            # brute-force annihilator agrees
            assert _brute_force_frobenius_polynomial(E, report) == \
                [report.s_exact]


@criterion("4 Tate determinant", 30.0)
def test_criterion_4_tate_determinant():
    F2 = ff_make(2, 1, 0)
    F4 = ff_make(2, 2, 0)
    modules = [
        DrinfeldModule(F2, F2.one, [F2.one, F2.one]),
        DrinfeldModule(F4, F4.gen, [F4.one, F4.gen]),
        DrinfeldModule(F2, F2.one, [F2.one, F2.zero, F2.one]),
        DrinfeldModule(F4, F4.gen, [F4.one, F4.one, F4.one]),
    ]
    t = UPoly.x(F2)
    checked = 0
    for E in modules:
        for ell in (t, t + 1):
            if ell == E.char_poly:
                continue
            for n in (1, 2):
                assert verify_tate_det(E, ell, n, cap=24)
                checked += 1
    assert checked == 12


@criterion("5 residual Frobenius", 5.0)
def test_criterion_5_residual_frobenius():
    F2 = ff_make(2, 1, 0)
    theta = UPoly.x(F2)
    generic = carlitz_family(2)
    frob = DrinfeldFamily(F2, theta ** 2, [UPoly.one(F2)])
    shifted = DrinfeldFamily(F2, theta + 1, [UPoly.one(F2)])
    for prime in monic_irreducibles(F2, 3):
        assert dm_residual_frobenius_check(generic, prime) == 0
        k = dm_residual_frobenius_check(frob, prime)
        _, theta_bar = frob.specialize(prime)
        # the congruence pins k modulo the residue degree only
        assert theta_bar ** (2 ** k) == theta_bar ** 2
        if prime.deg >= 2:
            assert k == 1
    assert dm_residual_frobenius_check(shifted, theta) is None


def _random_non_frobenius(rng):
    """Certified-irreducible bivariate polynomials outside both shapes."""
    while True:
        p = rng.choice((2, 3, 5))
        base = ff_make(p, 1, 0)
        kind = rng.randrange(3)
        if kind == 0:
            # Y - f(X): linear in Y, content 1; f with >= 2 terms
            deg = rng.randrange(2, 6)
            terms = {(deg, 0): rng.randrange(1, p), (0, 1): p - 1}
            for _ in range(rng.randrange(1, 3)):
                terms[(rng.randrange(deg), 0)] = rng.randrange(1, p)
            P = BivarPoly(p, terms)
            if len([1 for (_, j) in P.terms if j == 0]) < 2:
                continue
        elif kind == 1:
            # A(X) Y + B(X) with A linear and gcd(A, B) = 1
            c = rng.randrange(p)
            A = UPoly(base, [c, 1])
            B = UPoly(base, [rng.randrange(p) for _ in range(4)] + [1])
            if not B.eval(base.element(-c)):
                continue
            terms = {(i, 1): co.encode() for i, co in enumerate(A.coeffs)
                     if co}
            for i, co in enumerate(B.coeffs):
                if co:
                    terms[(i, 0)] = co.encode()
            P = BivarPoly(p, terms)
        else:
            # Eisenstein at X: Y^2 + X a(X) Y + X b(X), X does not divide b
            a = [rng.randrange(p) for _ in range(2)]
            a[0] = max(a[0], 1)
            b = [rng.randrange(p) for _ in range(2)]
            b[0] = max(b[0], 1)
            terms = {(0, 2): 1}
            for i, co in enumerate(a):
                if co:
                    terms[(i + 1, 1)] = co
            for i, co in enumerate(b):
                if co:
                    terms[(i + 1, 0)] = co
            P = BivarPoly(p, terms)
        return P


def _witness_checks_out(P, witness):
    field, x, root = witness
    Q, _ = strip_p_powers(P)
    if Q.eval_x(x).eval(root):
        return False
    orbit = set()
    val = x
    for _ in range(field.n):
        orbit.add(val)
        val = val ** field.p
    return root not in orbit


@criterion("6 Frobenius recovery", 60.0)
def test_criterion_6_frobenius_recovery():
    rng = random.Random(6)

    # 50 literal targets across p in {2,3,5}, k <= 4, both orientations
    combos = [(p, k, kind) for p in (2, 3, 5) for k in range(5)
              for kind in (XTOY, YTOX)]
    targets = combos + [rng.choice(combos) for _ in range(50 - len(combos))]
    for p, k, kind in targets:
        cls = classify_frobenius_bivariate(frobenius_target(p, kind, k))
        same_poly = frobenius_target(p, XTOY, k) == frobenius_target(
            p, YTOX, k)
        assert (cls.kind, cls.k) == (kind, k) or (same_poly and cls.k == k)

    # 50 certified-irreducible non-Frobenius inputs, each with a witness
    for _ in range(50):
        P = _random_non_frobenius(rng)
        cls = classify_frobenius_bivariate(P)
        assert cls.kind == NOT_FROBENIUS
        assert _witness_checks_out(P, cls.witness)

    # exponent recovery: exact for all |n| <= 10, Fail on 50 non-monomials
    for p in (2, 3, 5):
        base = ff_make(p, 1, 0)
        x = UPoly.x(base)
        for n in range(-10, 11):
            assert recover_monomial_exponent(x ** max(n, 0),
                                             x ** max(-n, 0)) == n
    rejected = 0
    while rejected < 50:
        p = rng.choice((2, 3, 5))
        base = ff_make(p, 1, 0)
        num = UPoly(base, [rng.randrange(p)
                           for _ in range(rng.randrange(2, 7))])
        if len([c for c in num.coeffs if c]) < 2 or not num.constant():
            continue
        den = UPoly.x(base) ** rng.randrange(0, 3)
        if upoly_gcd(num, den).deg != 0:
            continue
        assert recover_monomial_exponent(num, den) is None
        rejected += 1

    # the morphism-level decision
    for p, k in ((2, 2), (3, 1), (5, 1)):
        base = ff_make(p, 1, 0)
        u = parse_ratfunc("u", base)
        out = theorem_frob_res([u], [u ** (p ** k)])
        assert out.ok and out.k == k
    base = ff_make(2, 1, 0)
    out = theorem_frob_res([parse_ratfunc("u", base)],
                           [parse_ratfunc("u+1", base)])
    assert not out.ok


@criterion("7 Ore substrate", 5.0)
def test_criterion_7_ore_substrate():
    F4 = ff_make(2, 2, 0)
    F9 = ff_make(3, 2, 0)
    rng = random.Random(7)

    def rand_ore(field, max_deg):
        return OrePoly(field, [field.from_encoding(rng.randrange(field.size))
                               for _ in range(rng.randrange(max_deg + 2))])

    for _ in range(200):
        field = F4 if rng.random() < 0.5 else F9
        a, b = rand_ore(field, 4), rand_ore(field, 3)
        if b.is_zero():
            continue
        q, r = ore_divmod_left(a, b)
        assert q * b + r == a and r.deg < b.deg
        q2, r2 = ore_divmod_right(a, b)
        assert b * q2 + r2 == a and r2.deg < b.deg
    for _ in range(200):
        field = F4 if rng.random() < 0.5 else F9
        a, b, c = (rand_ore(field, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
    for _ in range(200):
        field = F4 if rng.random() < 0.5 else F9
        a, b = rand_ore(field, 3), rand_ore(field, 3)
        x = field.from_encoding(rng.randrange(field.size))
        assert ore_eval(a * b, x) == ore_eval(a, ore_eval(b, x))


@criterion("8 CLI determinism", 60.0)
def test_criterion_8_cli_determinism():
    carlitz_json = '{"p":2,"e":1,"r":1,"delta":[[0],[1]],"coeffs":[[[1]]]}'
    rank2_module = ('{"field":{"p":2,"n":2,"modulus":[1,1,1]},'
                    '"theta":[0,1],"coeffs":[[1,0],[0,1]],"e":1,"twist":0}')
    battery = [
        (["--seed", "0", "carlitz", "table", "--p", "2",
          "--max-prime-degree", "2"], ""),
        (["--seed", "0", "carlitz", "table", "--p", "3",
          "--max-prime-degree", "1", "--format", "csv"], ""),
        (["--seed", "0", "carlitz", "table", "--p", "2",
          "--max-prime-degree", "2", "--format", "text"], ""),
        (["--seed", "0", "type2", "report", "--max-prime-degree", "2"],
         carlitz_json),
        (["--seed", "0", "residual", "check", "--max-prime-degree", "3"],
         carlitz_json),
        (["--seed", "0", "motive", "det", "--module", "-"], rank2_module),
        (["--seed", "0", "frobrec", "classify", "--p", "2", "--poly",
          "Y+X^4"], ""),
        (["--seed", "0", "frobrec", "theorem", "--p", "2", "--gens", "u",
          "--images", "u^4"], ""),
    ]

    def run_all():
        chunks = []
        for argv, stdin_text in battery:
            out = io.StringIO()
            code = cli_main(argv, stdin=io.StringIO(stdin_text), stdout=out)
            chunks.append((code, out.getvalue()))
        return chunks

    first = run_all()
    second = run_all()
    assert first == second
    assert all(code == 0 for code, _ in first)


@criterion("Frobenius theorem at image degree 2^20", 5.0)
def test_frontier_theorem_accepts_without_annihilators():
    # an accepted decision builds no pair annihilator, whose evaluation at
    # images of degree 2^20 would take tens of seconds and about 1 GB
    out = io.StringIO()
    code = cli_main(["frobrec", "theorem", "--p", "2", "--gens", "u^2,u^3",
                     "--images", "u^1048576,u^1572864"], stdout=out)
    assert (code, out.getvalue()) == (0, '{"k":19,"ok":true}\n')


@criterion("Frobenius classification of a degree-2^20 non-shape", 5.0)
def test_frontier_classify_rejects_a_dense_degree_2_20_row():
    # content, gcd and monomial tests run on rows of 2^20 + 1 coefficients,
    # stored as element ints
    out = io.StringIO()
    code = cli_main(["frobrec", "classify", "--p", "2", "--poly",
                     "X^1048576+X-Y"], stdout=out)
    assert (code, out.getvalue()) == (
        0, '{"variant":"NotFrobenius","witness":{"field":{"modulus":[1,1,1],'
           '"n":2,"p":2},"root":[0,0],"x":[0,1]}}\n')


@criterion("Frobenius theorem rejection with generators in F_7(u^49)", 5.0)
def test_frontier_theorem_rejects_through_p_th_roots():
    # both generators are 49th powers, so the relation comes from the
    # resultant of u^2+u and u^3+1, not of polynomials of degree 147
    out = io.StringIO()
    code = cli_main(["frobrec", "theorem", "--p", "7", "--gens",
                     "u^98+u^49,u^147+1", "--images", "u^2+u,u^3+3"],
                    stdout=out)
    assert (code, out.getvalue()) == (
        2, '{"error":"images break the relation '
           'Y^2+3*X*Y+6*Y+6*X^3+4*X"}\n')
