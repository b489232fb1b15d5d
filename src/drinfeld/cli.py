"""Batch command-line front end.

Subcommands mirror the library: ore arithmetic, Drinfeld-module queries,
Carlitz and family norm tables, residual congruence checks, motive
determinants, and Frobenius-graph classification.  Output is JSON by
default (CSV/text projections available) and byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bivar import parse_bivar
from .dmodule import DrinfeldModule, dm_characteristic
from .errors import (BadReduction, BoundExceeded, DrinfeldError, ParseError,
                     clip)
from .family import DrinfeldFamily, carlitz_family
from .finitefield import SCAN_LIMIT, FField, extension_of, ff_make
from .frobrec import (classify_frobenius_bivariate, recover_monomial_exponent,
                      theorem_frob_res)
from .motive import det_drinfeld, motive_det, verify_tate_det
from .ore import (OrePoly, ore_divmod_left, ore_divmod_right, ore_eval,
                  ore_kernel)
from .ratfunc import parse_ratfunc
from .reports import (RESIDUAL_CSV_HEADER, FrobeniusReport,
                      dm_frobenius_norm, family_norm_table, norm_report,
                      norm_rows, residual_rows, residual_table)
from .torsion import dm_frobenius_matrix, dm_torsion
from .upoly import UPoly, parse_upoly, upoly_gcd


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_payload(path_or_dash, stdin):
    if path_or_dash in (None, "-"):
        return stdin.read()
    with open(path_or_dash, "r", encoding="utf-8") as fh:
        return fh.read()


def _decode_json(text, what):
    """text read as JSON; bad or too deeply nested JSON is a ParseError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def _poly_arg(text, base, var="t") -> UPoly:
    """A JSON list of coefficient vectors if the text parses as one, else
    sparse text: [0,1] is t, so a constant of F_q, e > 1, is [[0,1]]."""
    stripped = text.strip()
    try:
        data = json.loads(stripped) if stripped.startswith("[") else None
    except (ValueError, RecursionError):  # then sparse text
        data = None
    if data is not None:
        flat = [v for c in data for v in (c if isinstance(c, list) else [c])]
        if not all(isinstance(v, int) for v in flat):
            raise ParseError(f"bad coefficient list: {clip(stripped)}")
        return UPoly(base, [base.element(c) for c in data])
    return parse_upoly(stripped, base, var)


def _split_outside_brackets(text):
    """text cut at the commas that no [...] encloses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if ch == "," and not depth:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _required(args, name):
    """A per-op option, which argparse cannot mark as required."""
    value = getattr(args, name)
    if value is None:
        raise ParseError(f"{args.command} {args.op} needs --{name}")
    return value


def _load_family(args, stdin) -> DrinfeldFamily:
    raw = _read_payload(getattr(args, "family", None), stdin)
    try:
        return DrinfeldFamily.from_dict(
            _decode_json(raw, "family descriptor"), seed=args.seed)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad family descriptor: {exc}") from exc


def _load_module(args, stdin, seed) -> DrinfeldModule:
    module_path = getattr(args, "module", None)
    if module_path is not None:
        raw = _read_payload(module_path, stdin)
        try:
            return DrinfeldModule.from_dict(
                _decode_json(raw, "module descriptor"), seed=seed)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad module descriptor: {exc}") from exc
    family = _load_family(args, stdin)
    if getattr(args, "at", None) is None:
        raise ParseError("need --module, or --family together with --at")
    prime = _poly_arg(args.at, family.constants, "x")
    return family.specialize(prime, seed)[0]


# ---------------------------------------------------------------------------
# tables

def _render_rows(fmt, header, rows, out):
    """Write rows (ok, JSON object, CSV cells, text line); 1 if any failed."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells for _, _, cells, _ in rows)
    elif fmt == "text":
        out.writelines(line + "\n" for _, _, _, line in rows)
    else:
        out.write(_dump_json([obj for _, obj, _, _ in rows]))
    return 0 if all(ok for ok, _, _, _ in rows) else 1


# ---------------------------------------------------------------------------
# subcommand handlers

def _ore_inputs(op, payload):
    """The operands of an ore op, read from its JSON payload."""
    if op in ("mul", "divmod"):
        return OrePoly.from_dict(payload["a"]), OrePoly.from_dict(payload["b"])
    f = OrePoly.from_dict(payload["f"])
    if op == "eval":
        xfield = (FField.from_dict(payload["x_field"])
                  if "x_field" in payload else f.base)
        return f, xfield.element(payload["x"])
    ext_degree = payload.get("ext_degree", 1)
    if not isinstance(ext_degree, int):
        raise TypeError("ext_degree must be an integer")
    return f, ext_degree


def _cmd_ore(args, stdin, out):
    payload = _decode_json(_read_payload(args.json, stdin), "ore payload")
    op = args.op
    try:
        inputs = _ore_inputs(op, payload)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad ore payload: {exc}") from exc
    if op == "mul":
        a, b = inputs
        out.write(_dump_json((a * b).to_dict()))
    elif op == "divmod":
        a, b = inputs
        side = payload.get("side", "left")
        if side not in ("left", "right"):
            raise ParseError(f'side must be "left" or "right", not {side!r}')
        q, r = (ore_divmod_left(a, b) if side == "left"
                else ore_divmod_right(a, b))
        out.write(_dump_json({"q": q.to_dict(), "r": r.to_dict(),
                              "side": side}))
    elif op == "eval":
        f, x = inputs
        out.write(_dump_json({"value": ore_eval(f, x).to_list()}))
    elif op == "kernel":
        f, ext_degree = inputs
        ext, _ = extension_of(f.base, ext_degree, args.seed)
        ker = ore_kernel(f, ext)
        if len(ker) > SCAN_LIMIT:
            raise BoundExceeded(f"kernel too large to print "
                                f"({len(ker)} points)")
        out.write(_dump_json({
            "field": ext.to_dict(),
            "dim": ker.dim,
            "basis": [b.to_list() for b in ker.basis],
            "points": [x.to_list() for x in ker]}))
    return 0


def _cmd_drinfeld(args, stdin, out):
    E = _load_module(args, stdin, args.seed)
    if args.op == "phi":
        a = _poly_arg(_required(args, "a"), E.constants, "t")
        theta, char = dm_characteristic(E)
        out.write(_dump_json({"phi": E.phi(a).to_dict(),
                              "delta": E.delta(a).to_list(),
                              "char": char.to_text()}))
        return 0
    if args.op == "torsion":
        ell = _poly_arg(_required(args, "ell"), E.constants, "t")
        T = dm_torsion(E, ell, args.n, cap=args.cap, seed=args.seed)
        out.write(_dump_json({
            "ext": T.ext.to_dict(),
            "count": len(T.points),
            "basis": [b.to_list() for b in T.basis],
            "frobenius_matrix": [[e.to_text() for e in row]
                                 for row in dm_frobenius_matrix(T)]}))
        return 0
    if args.op == "frobnorm":
        if args.primes:
            primes = []
            for chunk in _split_outside_brackets(args.primes):
                text, _, power = chunk.partition(":")
                primes.append((_poly_arg(text, E.constants, "t"),
                               int(power) if power else 1))
            rep = dm_frobenius_norm(E, primes, cap=args.cap, seed=args.seed)
        else:
            rep = norm_report(E, cap=args.cap)
        out.write(_dump_json(rep.to_dict()))
        return 0 if rep.all_ok else 1
    raise ParseError(f"unknown drinfeld op {args.op}")


def _cmd_norm_table(args, stdin, out):
    family = (carlitz_family(args.p, args.e, args.seed)
              if args.command == "carlitz" else _load_family(args, stdin))
    rows = family_norm_table(family, args.max_prime_degree, cap=args.cap,
                             seed=args.seed)
    return _render_rows(args.format, FrobeniusReport.CSV_HEADER,
                        norm_rows(rows), out)


def _cmd_residual(args, stdin, out):
    family = _load_family(args, stdin)
    rows = residual_table(family, args.max_prime_degree, seed=args.seed)
    return _render_rows(args.format, RESIDUAL_CSV_HEADER,
                        residual_rows(rows), out)


def _cmd_motive(args, stdin, out):
    E = _load_module(args, stdin, args.seed)
    if args.op == "det":
        det = motive_det(E)
        psi = det_drinfeld(E)
        out.write(_dump_json({
            "c": det.leading().to_list(),
            "factor": det.monic().to_text(),
            "psi_t": psi.to_dict()}))
        return 0
    if args.op == "verify-tate-det":
        ell = _poly_arg(_required(args, "ell"), E.constants, "t")
        if args.n < 1:
            raise ParseError("motive verify-tate-det needs --n >= 1")
        results = {}
        ok = True
        for n in range(1, args.n + 1):
            value = verify_tate_det(E, ell, n, cap=args.cap, seed=args.seed)
            results[f"n={n}"] = value
            ok = ok and value
        out.write(_dump_json({"ell": ell.to_text(), "results": results}))
        return 0 if ok else 1
    raise ParseError(f"unknown motive op {args.op}")


def _cmd_frobrec(args, stdin, out):
    base = ff_make(args.p, 1, args.seed)
    if args.op == "classify":
        P = parse_bivar(_required(args, "poly"), args.p)
        cls = classify_frobenius_bivariate(P, seed=args.seed)
        out.write(_dump_json(cls.to_dict()))
        return 0
    if args.op == "recover-monomial":
        num = parse_upoly(_required(args, "num"), base, "X")
        den = parse_upoly(args.den, base, "X")
        g = upoly_gcd(num, den)
        if g.deg > 0:
            num, den = num // g, den // g
        n = recover_monomial_exponent(num, den)
        out.write(_dump_json({"n": n, "ok": n is not None}))
        return 0 if n is not None else 1
    if args.op == "theorem":
        gens = [parse_ratfunc(g, base, "u")
                for g in _required(args, "gens").split(",")]
        images = [parse_ratfunc(g, base, "u")
                  for g in _required(args, "images").split(",")]
        decision = theorem_frob_res(gens, images, seed=args.seed)
        out.write(_dump_json(decision.to_dict()))
        return 0 if decision.ok else 1
    raise ParseError(f"unknown frobrec op {args.op}")


# ---------------------------------------------------------------------------

def _common_options(**defaults):
    """The options every command takes; one not given sets only `defaults`."""
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int)
    common.add_argument("--cap", type=int,
                        help="max splitting-extension degree")
    common.add_argument("--format", choices=("json", "csv", "text"))
    common.add_argument("--output",
                        help="write to this path instead of stdout")
    common.set_defaults(**defaults)
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        parents=[_common_options(seed=0, cap=12, format="json",
                                 output=None)],
        description="Exact arithmetic for twisted polynomials, Drinfeld "
                    "modules over F_q[t], and Frobenius recovery.")
    sub = parser.add_subparsers(dest="command", required=True)
    # a subcommand's copies set nothing unless given, so a common option
    # works before or after the subcommand, and after it wins
    common = _common_options()

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p_ore = add_parser("ore", help="twisted-polynomial arithmetic")
    p_ore.add_argument("op", choices=("mul", "divmod", "eval", "kernel"))
    p_ore.add_argument("--json", default=None,
                       help="payload path ('-' or omitted: stdin)")

    p_dr = add_parser("drinfeld", help="Drinfeld-module queries")
    p_dr.add_argument("op", choices=("phi", "torsion", "frobnorm"))
    _module_inputs(p_dr)
    p_dr.add_argument("--a", default=None, help="element of F_q[t]")
    p_dr.add_argument("--ell", default=None, help="monic irreducible in t")
    p_dr.add_argument("--n", type=int, default=1)
    p_dr.add_argument("--primes", default=None,
                      help="comma list like 't:1,t+1:2' or 't+[1,0]:1'")

    p_ca = add_parser("carlitz", help="norm table for t -> theta + tau^e")
    p_ca.add_argument("op", choices=("table",))
    p_ca.add_argument("--p", type=int, required=True)
    p_ca.add_argument("--e", type=int, default=1)
    p_ca.add_argument("--max-prime-degree", type=int, default=2)

    p_t2 = add_parser("type2", help="norm table for a family descriptor")
    p_t2.add_argument("op", choices=("report",))
    p_t2.add_argument("--family", default=None)
    p_t2.add_argument("--max-prime-degree", type=int, default=2)

    p_re = add_parser("residual",
                      help="residual Frobenius-congruence checks")
    p_re.add_argument("op", choices=("check",))
    p_re.add_argument("--family", default=None)
    p_re.add_argument("--max-prime-degree", type=int, default=2)

    p_mo = add_parser("motive", help="determinant module computations")
    p_mo.add_argument("op", choices=("det", "verify-tate-det"))
    _module_inputs(p_mo)
    p_mo.add_argument("--ell", default=None)
    p_mo.add_argument("--n", type=int, default=1,
                      help="verify levels 1..n")

    p_fr = add_parser("frobrec", help="Frobenius-graph recovery")
    p_fr.add_argument("op", choices=("classify", "recover-monomial",
                                     "theorem"))
    p_fr.add_argument("--p", type=int, required=True)
    p_fr.add_argument("--poly", default=None,
                      help="bivariate like 'Y^2+X'")
    p_fr.add_argument("--num", default=None)
    p_fr.add_argument("--den", default="1")
    p_fr.add_argument("--gens", default=None)
    p_fr.add_argument("--images", default=None)
    return parser


def _module_inputs(parser):
    parser.add_argument("--module", default=None,
                        help="module JSON path ('-': stdin)")
    parser.add_argument("--family", default=None,
                        help="family JSON path ('-': stdin)")
    parser.add_argument("--at", default=None,
                        help="specialize the family at this place")


# built on the first main call, then reused: a parser holds no per-run state
_PARSER = None

_HANDLERS = {
    "ore": _cmd_ore,
    "drinfeld": _cmd_drinfeld,
    "carlitz": _cmd_norm_table,
    "type2": _cmd_norm_table,
    "residual": _cmd_residual,
    "motive": _cmd_motive,
    "frobrec": _cmd_frobrec,
}


def main(argv=None, stdin=None, stdout=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    out_stream = stdout if stdout is not None else sys.stdout
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    buffer = io.StringIO()
    try:
        if args.cap < 1:
            raise ParseError("--cap must be >= 1")
        code = _HANDLERS[args.command](args, stdin, buffer)
    except BadReduction as exc:
        buffer.write(_dump_json({"error": f"bad reduction: {exc}"}))
        code = 1
    except (DrinfeldError, ValueError) as exc:
        buffer.write(_dump_json({"error": str(exc)}))
        code = 2
    text = buffer.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out_stream.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
