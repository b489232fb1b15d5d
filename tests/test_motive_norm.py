"""The Frobenius norm from the determinant motive, against the torsion route,
and the norm commands that now build no torsion."""

import io
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import drinfeld
from drinfeld import (DrinfeldFamily, DrinfeldModule, UPoly, choose_prime_sets,
                      dm_frobenius_norm, ff_embed, ff_make,
                      motive_frobenius_norm, norm_report, parse_upoly,
                      upoly_crt)
from drinfeld.cli import main
from drinfeld.errors import InsufficientModulus, InvariantError

CARLITZ_FAMILY = '{"p":2,"e":1,"r":1,"delta":[[0],[1]],"coeffs":[[[1]]]}'
RANK2_FAMILY = '{"p":2,"e":1,"r":2,"delta":[[0],[1]],"coeffs":[[[1]],[[1]]]}'
RANK2_F4_MODULE = ('{"field":{"p":2,"n":2,"modulus":[1,1,1]},'
                   '"theta":[0,1],"coeffs":[[1,0],[0,1]],"e":1,"twist":0}')

# The rank-2 modules and family places of the benchmark's rank2_modules
# workload: (p, modulus of L, theta, (a_1, a_2)).
MODULES = (
    (2, [1, 1, 0, 1], [0, 1, 0], ([1, 0, 0], [0, 1, 0])),
    (2, [1, 1, 0, 1], [0, 1, 0], ([0, 0, 0], [1, 0, 0])),
    (2, [1, 1, 0, 1], [0, 1, 0], ([0, 1, 0], [1, 0, 0])),
    (2, [1, 1, 0, 1], [0, 1, 0], ([0, 0, 1], [1, 0, 0])),
    (2, [1, 1, 1], [0, 1], ([1, 0], [1, 0])),
    (2, [1, 1, 1], [0, 1], ([0, 1], [1, 0])),
    (3, [0, 1], [1], ([1], [1])),
    (3, [0, 1], [2], ([1], [2])),
    (3, [0, 1], [1], ([0], [1])),
    (3, [0, 1], [2], ([2], [1])),
)
# (p, (a_1(theta), a_2(theta)), places as coefficient lists)
FAMILIES = (
    (2, ([1], [1]), ([0, 1], [1, 1], [1, 1, 1])),
    (2, ([0, 1], [1]), ([0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1])),
    (3, ([1], [1]), ([0, 1], [1, 1], [2, 1])),
)


def _run(argv, stdin_text):
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


def _torsion_norm(E, cap=24):
    """s rebuilt from Frobenius on torsion, over one reconstruction set.

    Any set of degree above d rebuilds s, and some modules here have only
    one, so the search is asked for one set, not the reports' two.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drinfeld.reports, "PRIME_SETS", 1)
        (primes,) = choose_prime_sets(E, cap=cap)
    return dm_frobenius_norm(E, primes, cap=cap).s_exact


def _benchmark_modules():
    for p, modulus, theta, coeffs in MODULES:
        L = drinfeld.FField(p, len(modulus) - 1, modulus)
        yield DrinfeldModule(L, L.element(theta),
                             [L.element(c) for c in coeffs])
    for p, coeffs, places in FAMILIES:
        Fp = ff_make(p, 1, 0)
        family = DrinfeldFamily(Fp, UPoly.x(Fp), [UPoly(Fp, c)
                                                  for c in coeffs])
        for place in places:
            yield family.specialize(UPoly(Fp, place))[0]


def test_motive_norm_matches_torsion_on_benchmark_modules():
    modules = list(_benchmark_modules())
    assert len(modules) == 20
    for E in modules:
        s = motive_frobenius_norm(E)
        assert s.base == E.constants and s.deg == E.d
        assert s == _torsion_norm(E)


@st.composite
def modules(draw):
    """Ranks 1-3 over F_2, F_3, F_4, F_8 and F_9, and F_4 over F_4 twisted."""
    p, n, e = draw(st.sampled_from([(2, 1, 1), (3, 1, 1), (2, 2, 1),
                                    (2, 3, 1), (3, 2, 1), (2, 2, 2)]))
    L = ff_make(p, n, 0)
    constants = ff_make(p, e, 0)
    twist = draw(st.integers(0, e - 1))
    r = draw(st.integers(1, 3))
    theta = L.from_encoding(draw(st.integers(0, L.size - 1)))
    coeffs = [L.from_encoding(draw(st.integers(0, L.size - 1)))
              for _ in range(r - 1)]
    coeffs.append(L.from_encoding(draw(st.integers(1, L.size - 1))))
    return DrinfeldModule(L, theta, coeffs, constants=constants, twist=twist)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(E=modules())
def test_motive_norm_matches_torsion(E):
    s = motive_frobenius_norm(E)
    try:
        expected = _torsion_norm(E)
    except InsufficientModulus:
        assume(False)
    assert s == expected


def test_motive_norm_with_extension_constants():
    # F_4 in F_16 at rank 2, and F_8 in F_64 at rank 1, where sigma^t and
    # sigma^(-t) differ for t = 1, 2
    for e, rank, twists in ((2, 2, (0, 1)), (3, 1, (0, 1, 2))):
        Fq, L = ff_make(2, e, 0), ff_make(2, 2 * e, 0)
        theta = ff_embed(Fq, L)(Fq.gen)
        for twist in twists:
            E = DrinfeldModule(L, theta, [L.gen, L.one][:rank],
                               constants=Fq, twist=twist)
            s = motive_frobenius_norm(E)
            assert s.monic() == E.char_poly ** (E.d // E.char_poly.deg)
            assert s == _torsion_norm(E)


NORM_COMMANDS = [
    (["carlitz", "table", "--p", "2", "--max-prime-degree", "3",
      "--cap", "24"] + fmt, "")
    for fmt in ([], ["--format", "csv"], ["--format", "text"])
] + [
    (["type2", "report", "--max-prime-degree", "3", "--cap", "24"],
     RANK2_FAMILY),
    (["drinfeld", "frobnorm", "--module", "-", "--cap", "24"],
     RANK2_F4_MODULE),
    (["drinfeld", "frobnorm", "--family", "-", "--at", "x^5+x^2+1",
      "--cap", "24"], CARLITZ_FAMILY),
]


def test_norm_commands_build_no_torsion(monkeypatch):
    expected = [_run(argv, text) for argv, text in NORM_COMMANDS]
    assert [code for code, _ in expected] == [0, 0, 0, 1, 0, 0]

    def refuse(*args, **kwargs):
        raise AssertionError("the norm route must build no torsion")

    for name in ("dm_torsion", "ore_kernel", "extension_of"):
        for modname, module in list(sys.modules.items()):
            if modname.startswith("drinfeld.") and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [_run(argv, text) for argv, text in NORM_COMMANDS] == expected


def test_norm_commands_lift_nothing_by_crt(monkeypatch):
    expected = [_run(argv, text) for argv, text in NORM_COMMANDS]

    def refuse(*args, **kwargs):
        raise AssertionError("the motive norm needs no CRT lift")

    for modname, module in list(sys.modules.items()):
        if modname.startswith("drinfeld.") and hasattr(module, "upoly_crt"):
            monkeypatch.setattr(module, "upoly_crt", refuse)
    assert [_run(argv, text) for argv, text in NORM_COMMANDS] == expected


def test_frobnorm_primes_still_reads_torsion(monkeypatch):
    argv = ["drinfeld", "frobnorm", "--family", "-", "--at", "x^2+x+1",
            "--primes", "t:2,t+1:1"]
    code, out = _run(argv, CARLITZ_FAMILY)
    assert code == 0 and '"s":"t^2+t+1"' in out

    def refuse(*args, **kwargs):
        raise InvariantError("torsion was read")

    monkeypatch.setattr(drinfeld.reports, "dm_torsion", refuse)
    assert _run(argv, CARLITZ_FAMILY) == (
        2, '{"error":"torsion was read"}\n')


def test_frobnorm_primes_reports_a_wrong_residue(monkeypatch):
    # a zero residue mod t+1 lifts to t+1 in place of s = t^2+t+1, which the
    # characteristic ideal t^2+t+1 does not divide
    argv = ["drinfeld", "frobnorm", "--family", "-", "--at", "x^2+x+1",
            "--primes", "t:2,t+1:1"]
    true_det = drinfeld.reports.dm_frobenius_det

    def wrong_det(T):
        m, det = true_det(T)
        return m, UPoly.zero(det.base) if T.n == 1 else det

    monkeypatch.setattr(drinfeld.reports, "dm_frobenius_det", wrong_det)
    code, out = _run(argv, CARLITZ_FAMILY)
    assert code == 1
    assert '"char_divides":false' in out and '"s":"t+1"' in out


def test_printed_residues_are_the_motive_norm_mod_each_prime():
    family = drinfeld.carlitz_family(3)
    places = [parse_upoly(place, family.constants, "x")
              for place in ("x^2+1", "x^2+x+2")]
    reports = [(family.specialize(prime)[0],
                drinfeld.place_report(family, prime, cap=24))
               for prime in places]
    rank2 = list(_benchmark_modules())[:len(MODULES)]
    reports += [(E, norm_report(E, cap=24)) for E in rank2]
    for E, rep in reports:
        s = motive_frobenius_norm(E)
        assert rep.s_exact == s
        assert all(det == s % ell ** n for ell, n, det in rep.residues)
        # the residues determine s: their CRT lift gives it back
        assert upoly_crt([(det, ell ** n)
                          for ell, n, det in rep.residues]) == s
