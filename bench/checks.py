"""Independent checks of the CLI's answers.

Every expected value is derived from a closed form with the benchmark's own
arithmetic (arith.py), never from a stored copy of the program's output:

* norm: the Frobenius norm s of a rank-r module over L with [L:F_q] = d is
  (-1)^(rd-d) * N_{L/F_q}(a_r)^(-1) * pp^(d/deg pp), pp the characteristic
  polynomial (Gekeler, Trans. AMS 2008).  For the Carlitz module this is
  the place polynomial P(t) itself.
* torsion: |E[l^n]| = q^(r n deg l), and det of the printed Frobenius matrix
  is s modulo l^n.
* tate: det E and E have the same Frobenius determinant on l^n-torsion.
* theorem / classify: the exponent k is known by construction, and every
  NotFrobenius witness is re-verified: Q(x, root) = 0 and root is not
  x^(p^j) for any j.
"""

from __future__ import annotations

import json
import re

import arith
from arith import Field, pmod, pmul, prime_field, psub


class CheckFailed(Exception):
    """The program's answer disagrees with the independently derived one."""


class OperationFailed(Exception):
    """The program gave no answer: it exited with an unexpected code."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


_POLY_TERM = re.compile(
    r"(?P<c>\d+|\[[0-9,]+\])?(?:\*?(?P<v>[a-z])(?:\^(?P<e>\d+))?)?")


def parse_poly(text: str, F: Field, var: str = "t"):
    """Read the library's polynomial text ("[1,1]*t^2+t+1") over F."""
    if text == "0":
        return []
    coeffs = {}
    for term in text.split("+"):
        m = _POLY_TERM.fullmatch(term)
        _require(m and term and (m["v"] in (None, var)),
                 f"unreadable polynomial term {term!r} in {text!r}")
        raw = m["c"]
        if raw is None:
            c = F.one
        elif raw.startswith("["):
            c = F.elem(json.loads(raw))
        else:
            _require(F.n == 1, f"integer coefficient {raw} over F_{F.size}")
            c = F.scalar(int(raw))
        exp = 0 if m["v"] is None else int(m["e"] or 1)
        _require(exp not in coeffs, f"repeated exponent in {text!r}")
        coeffs[exp] = c
    out = [F.zero] * (max(coeffs) + 1)
    for exp, c in coeffs.items():
        out[exp] = c
    _require(out[-1] != F.zero, f"zero leading coefficient in {text!r}")
    return out


def norm_closed_form(L: Field, theta, lead, r: int):
    """Frobenius norm over F_p of a rank-r module over L (q = p)."""
    Fp = prime_field(L.p)
    d = L.n
    conjugates = [theta]
    while True:
        nxt = L.pow(conjugates[-1], L.p)
        if nxt == theta:
            break
        conjugates.append(nxt)
    char_poly = [L.one]
    for c in conjugates:
        char_poly = pmul(char_poly, [L.neg(c), L.one], L)
    norm = L.one
    conj = lead
    for _ in range(d):
        norm = L.mul(norm, conj)
        conj = L.pow(conj, L.p)
    if not (L.in_prime_field(norm)
            and all(L.in_prime_field(c) for c in char_poly)):
        raise ValueError("norm data outside the prime field")  # never: Galois
    pp = [Fp.scalar(c[0]) for c in char_poly]
    sign = -1 if (r * d - d) % 2 else 1
    unit = Fp.mul(Fp.scalar(sign), Fp.inv(Fp.scalar(norm[0])))
    return [Fp.mul(unit, c) for c in arith.ppow(pp, d // len(conjugates), Fp)]


# -- checkers: each takes (expect, exit code, stdout text) and raises ---------

def check_norm(expect, out):
    """frobnorm: s equals the closed form, over F_q with q = p^e."""
    e = expect.get("e", 1)
    Fq = prime_field(expect["p"]) if e == 1 else Field(expect["p"],
                                                       expect["constants"])
    s = parse_poly(out["s"], Fq)
    want = [Fq.elem(c) for c in expect["s"]]
    _require(s == want, f"s = {out['s']}, closed form gives {want}")
    _require(out["d"] == expect["d"], f"d = {out['d']}, want {expect['d']}")


def check_torsion(expect, out):
    """torsion: point count and det(Frobenius) = s mod l^n."""
    Fp = prime_field(expect["p"])
    _require(out["count"] == expect["count"],
             f"|E[l^n]| = {out['count']}, want {expect['count']}")
    _require(len(out["basis"]) == expect["r"],
             f"basis of size {len(out['basis'])}, want rank {expect['r']}")
    matrix = [[parse_poly(x, Fp) for x in row]
              for row in out["frobenius_matrix"]]
    modulus = [Fp.elem(c) for c in expect["ell_n"]]
    det = pmod(_det(matrix, Fp), modulus, Fp)
    s = pmod([Fp.elem(c) for c in expect["s"]], modulus, Fp)
    _require(det == s, f"det Frobenius = {det}, want s mod l^n = {s}")


def _det(matrix, F):
    if len(matrix) == 1:
        return matrix[0][0]
    total = []
    for j, entry in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = pmul(entry, _det(minor, F), F)
        total = psub(total, term, F) if j % 2 else arith.padd(total, term, F)
    return total


def check_tate(expect, out):
    """verify-tate-det: both routes agree at every level 1..n."""
    want = {f"n={n}": True for n in range(1, expect["levels"] + 1)}
    _require(out == {"ell": expect["ell"], "results": want},
             f"verify-tate-det printed {out}")


def _witness(p, data):
    """(field, x, root) from a printed witness, with the field validated."""
    fd = data["field"]
    _require(fd["p"] == p and len(fd["modulus"]) == fd["n"] + 1,
             f"witness field {fd} does not match p = {p}")
    Fp = prime_field(p)
    _require(arith.is_irreducible([Fp.scalar(c) for c in fd["modulus"]], Fp),
             f"witness modulus {fd['modulus']} is not monic irreducible")
    F = Field(p, fd["modulus"])
    _require(len(data["x"]) == F.n and len(data["root"]) == F.n,
             "witness elements have the wrong length")
    return F, F.elem(data["x"]), F.elem(data["root"])


def _outside_orbit(F, x, root):
    orbit, val = set(), x
    for _ in range(F.n):
        orbit.add(val)
        val = F.pow(val, F.p)
    _require(root not in orbit, "witness root is a Frobenius power of x")


def _eval_terms(F, terms, x, y):
    acc = F.zero
    for i, j, c in terms:
        acc = F.add(acc, F.mul(F.scalar(c), F.mul(F.pow(x, i), F.pow(y, j))))
    return acc


def strip_y(p, terms):
    """Q with P(X, Y) = Q(X, Y^(p^N)), N maximal."""
    y_exps = [j for _, j, _ in terms if j]
    step = 1
    while y_exps and all(j % (step * p) == 0 for j in y_exps):
        step *= p
    return [(i, j // step, c) for i, j, c in terms]


def check_theorem(expect, out):
    """frobrec theorem: k by construction, or a re-verified witness."""
    if expect["ok"]:
        _require(out == {"ok": True, "k": expect["k"]},
                 f"decision {out}, want k = {expect['k']}")
        return
    _require(out.get("ok") is False
             and out.get("reason") == "annihilator is not a Frobenius graph",
             f"decision {out}, want a NotFrobenius witness")
    p = expect["p"]
    F, x, root = _witness(p, out["witness"])
    # the only generator is u, so the annihilator is Y - h(X)
    hx = arith.peval([F.scalar(c) for c in expect["h"]], x, F)
    _require(root == hx, "witness root does not satisfy Y = h(X)")
    _outside_orbit(F, x, root)


def check_classify(expect, out):
    """frobrec classify: the known shape, or a re-verified witness."""
    if expect["variant"] != "NotFrobenius":
        want = {"variant": expect["variant"], "k": expect["k"]}
        if expect.get("unit", 1) != 1:
            want["unit"] = expect["unit"]
        _require(out == want, f"classification {out}, want {want}")
        return
    _require(out.get("variant") == "NotFrobenius" and "witness" in out,
             f"classification {out}, want NotFrobenius with a witness")
    p = expect["p"]
    F, x, root = _witness(p, out["witness"])
    Q = strip_y(p, expect["terms"])
    _require(_eval_terms(F, Q, x, root) == F.zero,
             "witness root is not a root of Q(x, Y)")
    _outside_orbit(F, x, root)


def check_monomial(expect, out):
    """frobrec recover-monomial: the exponent n of num/den = X^n."""
    _require(out == {"n": expect["n"], "ok": True},
             f"recover-monomial printed {out}, want n = {expect['n']}")


CHECKERS = {
    "norm": check_norm,
    "torsion": check_torsion,
    "tate": check_tate,
    "theorem": check_theorem,
    "classify": check_classify,
    "monomial": check_monomial,
}


def check(item, code: int, text: str):
    """Raise unless the item's exit code and output are right."""
    expect = item["expect"]
    if code != expect["code"]:
        raise OperationFailed(
            f"exit code {code}, want {expect['code']}: {text[:200]}")
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc
    CHECKERS[item["check"]](expect, out)


def ptext(coeffs, var: str) -> str:
    """Sparse text with integer coefficients, as the CLI reads it."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        mono = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        if not mono:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(parts) or "0"

