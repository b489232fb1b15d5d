"""The benchmark's workloads: one round of CLI items each, built from a seed.

An item is a user's argv and stdin payload for `drinfeld.cli.main`, the
checker that judges its stdout, and the expected answer that checker uses,
derived here from closed forms (see checks.py).  Every item runs at
`--cap 24`, where all of them pass at the commit that defined the benchmark.

The seed never changes what is computed, only how it is asked and in what
order: item order, the spelling of polynomial arguments (sparse text or a
JSON coefficient list), and, for the Frobenius decisions, the random
coefficients of generators and perturbations of a fixed degree shape.  The
cost of a round therefore barely depends on the seed, which keeps runs with
different seeds comparable.
"""

from __future__ import annotations

import json
import random

import arith
import checks
from arith import Field, prime_field
from checks import ptext

CAP = ["--cap", "24"]
# F_4 = F_2[w]/(w^2+w+1): the only irreducible quadratic over F_2, hence
# also the presentation the library picks for its F_4 constants.
F4_MODULUS = [1, 1, 1]


def _item(label, argv, stdin, check, **expect):
    return {"label": label, "argv": argv, "stdin": stdin, "check": check,
            "expect": {"code": 0, **expect}}


def _ints(poly):
    return [c[0] for c in poly]


def _poly_arg(rng, coeffs, var):
    """A polynomial argument as sparse text or as a JSON coefficient list."""
    if all(len(c) == 1 for c in coeffs) and rng.random() < 0.5:
        return ptext(_ints(coeffs), var)
    return json.dumps([list(c) for c in coeffs])


def _family(p, e, coeffs):
    """Family descriptor t -> theta + sum a_i(theta) tau^(e i)."""
    Fq = prime_field(p) if e == 1 else Field(p, F4_MODULUS)
    return json.dumps({"p": p, "e": e, "r": len(coeffs),
                       "delta": [list(Fq.zero), list(Fq.one)],
                       "coeffs": [[list(Fq.scalar(c)) for c in a]
                                  for a in coeffs]})


# -- carlitz_tables ------------------------------------------------------------

CARLITZ_TABLES = ((2, 1, 5), (3, 1, 2), (5, 1, 2), (2, 2, 2))  # (p, e, max deg)


def carlitz_tables(rng):
    items = []
    for p, e, max_deg in CARLITZ_TABLES:
        Fq = prime_field(p) if e == 1 else Field(p, F4_MODULUS)
        family = _family(p, e, [[1]])
        for P in arith.monic_irreducibles(Fq, max_deg):
            items.append(_item(
                f"carlitz q={Fq.size} at {[list(c) for c in P]}",
                ["drinfeld", "frobnorm", "--family", "-",
                 "--at", _poly_arg(rng, P, "x")] + CAP,
                family, "norm", p=p, e=e, constants=F4_MODULUS,
                s=[list(c) for c in P], d=len(P) - 1))
    return items


# -- rank2_modules -------------------------------------------------------------

# (p, modulus of L over F_p, theta, (a_1, a_2)), all with q = p
RANK2_MODULES = {
    "F8:1,th": (2, [1, 1, 0, 1], [0, 1, 0], ([1, 0, 0], [0, 1, 0])),
    "F8:0,1": (2, [1, 1, 0, 1], [0, 1, 0], ([0, 0, 0], [1, 0, 0])),
    "F8:th,1": (2, [1, 1, 0, 1], [0, 1, 0], ([0, 1, 0], [1, 0, 0])),
    "F8:th2,1": (2, [1, 1, 0, 1], [0, 1, 0], ([0, 0, 1], [1, 0, 0])),
    "F4:1,1": (2, [1, 1, 1], [0, 1], ([1, 0], [1, 0])),
    "F4:th,1": (2, [1, 1, 1], [0, 1], ([0, 1], [1, 0])),
    "F3:th=1:1,1": (3, [0, 1], [1], ([1], [1])),
    "F3:th=2:1,2": (3, [0, 1], [2], ([1], [2])),
    "F3:th=1:0,1": (3, [0, 1], [1], ([0], [1])),
    "F3:th=2:2,1": (3, [0, 1], [2], ([2], [1])),
}

# (p, (a_1(theta), a_2(theta)) as coefficient lists, places)
RANK2_FAMILIES = (
    (2, ([1], [1]), ([0, 1], [1, 1], [1, 1, 1])),
    (2, ([0, 1], [1]), ([0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1])),
    (3, ([1], [1]), ([0, 1], [1, 1], [2, 1])),
)

# (module, l as coefficients in t, n)
TORSION_QUERIES = (
    ("F8:1,th", [0, 1], 3), ("F8:1,th", [1, 1], 3),
    ("F8:1,th", [1, 1, 1], 1), ("F8:1,th", [1, 1, 1], 2),
    ("F8:0,1", [0, 1], 2), ("F8:0,1", [1, 1, 1], 2),
    ("F4:1,1", [0, 1], 3), ("F4:1,1", [1, 1], 3),
    ("F8:th,1", [1, 1, 1], 2), ("F8:th2,1", [1, 1, 1], 2),
    ("F3:th=1:1,1", [0, 1], 3), ("F3:th=1:1,1", [1, 1], 2),
    ("F3:th=1:1,1", [1, 1], 3), ("F3:th=2:2,1", [0, 1], 3),
)

TATE_QUERIES = (
    ("F8:1,th", [1, 1], 3), ("F8:1,th", [1, 1, 1], 2), ("F8:0,1", [0, 1], 2),
    ("F4:1,1", [0, 1], 3), ("F3:th=1:1,1", [0, 1], 2),
    ("F3:th=1:1,1", [1, 1], 2),
)


def _module_payload(p, modulus, theta, coeffs):
    return json.dumps({"field": {"p": p, "n": len(modulus) - 1,
                                 "modulus": modulus},
                       "theta": theta, "coeffs": [list(c) for c in coeffs]})


def _module_norm(p, modulus, theta, coeffs):
    L = Field(p, modulus)
    return _ints(checks.norm_closed_form(L, L.elem(theta),
                                         L.elem(coeffs[-1]), len(coeffs)))


def rank2_modules(rng):
    items = []
    norms = {}
    for name, (p, modulus, theta, coeffs) in RANK2_MODULES.items():
        norms[name] = _module_norm(p, modulus, theta, coeffs)
        items.append(_item(
            f"frobnorm {name}",
            ["drinfeld", "frobnorm", "--module", "-"] + CAP,
            _module_payload(p, modulus, theta, coeffs), "norm",
            p=p, s=[[c] for c in norms[name]], d=len(modulus) - 1))
    for p, coeffs, places in RANK2_FAMILIES:
        Fp = prime_field(p)
        family = _family(p, 1, coeffs)
        for P in places:
            # residue field F_p[x]/(P) with theta -> the class of x
            L = Field(p, P)
            a_r = arith.peval([Fp.scalar(c) for c in coeffs[-1]], L.gen(), L)
            s = checks.norm_closed_form(L, L.gen(), a_r, len(coeffs))
            items.append(_item(
                f"frobnorm family p={p} {coeffs} at {P}",
                ["drinfeld", "frobnorm", "--family", "-",
                 "--at", _poly_arg(rng, [[c] for c in P], "x")] + CAP,
                family, "norm", p=p, s=[list(c) for c in s], d=len(P) - 1))
    Fp2 = {p: prime_field(p) for p in (2, 3)}
    for name, ell, n in TORSION_QUERIES:
        p, modulus, theta, coeffs = RANK2_MODULES[name]
        Fp = Fp2[p]
        ell_n = arith.ppow([Fp.scalar(c) for c in ell], n, Fp)
        items.append(_item(
            f"torsion {name} l={ell} n={n}",
            ["drinfeld", "torsion", "--module", "-",
             "--ell", _poly_arg(rng, [[c] for c in ell], "t"),
             "--n", str(n)] + CAP,
            _module_payload(p, modulus, theta, coeffs), "torsion",
            p=p, r=len(coeffs), count=p ** (len(coeffs) * n * (len(ell) - 1)),
            s=[[c] for c in norms[name]], ell_n=_ints(ell_n)))
    for name, ell, n in TATE_QUERIES:
        p, modulus, theta, coeffs = RANK2_MODULES[name]
        items.append(_item(
            f"verify-tate-det {name} l={ell} n={n}",
            ["motive", "verify-tate-det", "--module", "-",
             "--ell", _poly_arg(rng, [[c] for c in ell], "t"),
             "--n", str(n)] + CAP,
            _module_payload(p, modulus, theta, coeffs), "tate",
            ell=ptext(ell, "t"), levels=n))
    return items


# -- frobrec_decisions ---------------------------------------------------------

# (p, k, degrees of the generators); None marks the fixed heaviest item
THEOREM_SHAPES = (
    (2, 3, None), (2, 2, (3, 5)), (2, 3, (2, 3)), (2, 1, (5,)),
    (3, 2, (2, 3)), (3, 1, (4, 5)), (5, 1, (2, 3)), (7, 1, (2, 3)),
    (7, 1, (4, 5)), (2, 0, (2, 3)),
)
HEAVIEST_GENS = ([0, 1, 0, 1], [0, 0, 0, 0, 0, 1])  # (u^3+u, u^5)
# k of the perturbed graphs, per p
PERTURB_K = {2: 3, 3: 2, 5: 2, 7: 1}
CLASSIFY_MAX_Q = 4096


def _random_poly(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def _frobenius_image(coeffs, p, k):
    """b(u)^(p^k) for b over F_p: u^i -> u^(i p^k), coefficients fixed."""
    out = [0] * ((len(coeffs) - 1) * p ** k + 1)
    for i, c in enumerate(coeffs):
        out[i * p ** k] = c
    return out


def _bivar_text(rng, terms):
    """Sparse X/Y text of (i, j, c) terms in a seeded order."""
    terms = list(terms)
    rng.shuffle(terms)
    parts = []
    for i, j, c in terms:
        mono = "*".join(m for m in (
            "" if i == 0 else "X" if i == 1 else f"X^{i}",
            "" if j == 0 else "Y" if j == 1 else f"Y^{j}") if m)
        parts.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(parts)


def _classify_item(rng, label, p, terms, variant, **expect):
    terms = [(i, j, c % p) for i, j, c in terms]
    if variant == "NotFrobenius":
        expect.update(p=p, terms=terms)
    return _item(f"classify p={p} {label}",
                 ["frobrec", "classify", "--p", str(p),
                  "--poly", _bivar_text(rng, terms)],
                 "", "classify", variant=variant, **expect)


def frobrec_decisions(rng):
    items = []
    for p, k, degrees in THEOREM_SHAPES:
        gens = (HEAVIEST_GENS if degrees is None
                else [_random_poly(rng, p, d) for d in degrees])
        images = [_frobenius_image(g, p, k) for g in gens]
        items.append(_item(
            f"theorem p={p} k={k} degrees={[len(g) - 1 for g in gens]}",
            ["frobrec", "theorem", "--p", str(p),
             "--gens", ",".join(ptext(g, "u") for g in gens),
             "--images", ",".join(ptext(b, "u") for b in images)],
            "", "theorem", ok=True, k=k))
    for p in (2, 3, 5, 7):
        # u -> h(u) with two or more terms is never a Frobenius power
        h = _random_poly(rng, p, 3)
        h[rng.randrange(1, 3)] = rng.randrange(1, p)
        items.append(_item(
            f"theorem p={p} u -> {h}",
            ["frobrec", "theorem", "--p", str(p), "--gens", "u",
             "--images", ptext(h, "u")],
            "", "theorem", code=1, ok=False, p=p, h=h))
    for p in (2, 3, 5, 7):
        k, q = 1, p
        while q <= CLASSIFY_MAX_Q:
            items.append(_classify_item(rng, f"X^{q}-Y", p,
                                        [(q, 0, 1), (0, 1, -1)],
                                        variant="XtoY", k=k))
            items.append(_classify_item(rng, f"Y^{q}-X", p,
                                        [(0, q, 1), (1, 0, -1)],
                                        variant="YtoX", k=k))
            k, q = k + 1, q * p
        k = PERTURB_K[p]
        q = p ** k
        j, c = rng.randrange(2, q), rng.randrange(1, p)
        for label, terms in (
                (f"X^{q}+{c}X^{j}-Y", [(q, 0, 1), (j, 0, c), (0, 1, -1)]),
                (f"Y^{q}-X-{c}X^{j}", [(0, q, 1), (1, 0, -1), (j, 0, -c)])):
            items.append(_classify_item(rng, label, p, terms,
                                        variant="NotFrobenius"))
        if p > 2:
            u = rng.randrange(2, p)
            items.append(_classify_item(rng, f"{u}(X^{q}-Y)", p,
                                        [(q, 0, u), (0, 1, -u)],
                                        variant="XtoY", k=k, unit=u))
            items.append(_classify_item(rng, f"{u}(Y^{q}-X)", p,
                                        [(0, q, u), (1, 0, -u)],
                                        variant="YtoX", k=k, unit=u))
    return items


WORKLOADS = {
    "carlitz_tables": carlitz_tables,
    "rank2_modules": rank2_modules,
    "frobrec_decisions": frobrec_decisions,
}

# Run once before timing: its first use of the library pulls in sympy, a
# cost every CLI user pays at start-up and that setup_s therefore includes.
WARMUP = _item("warm-up", ["frobrec", "recover-monomial", "--p", "2",
                           "--num", "X^3", "--den", "1"],
               "", "monomial", n=3)


def build(workload: str, seed: int):
    """One round of the workload's items, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOADS[workload](rng)
    rng.shuffle(items)
    return items
