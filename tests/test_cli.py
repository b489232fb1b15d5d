import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drinfeld
from drinfeld import UPoly, cli
from drinfeld.cli import main
from drinfeld.errors import InvariantError

CARLITZ_FAMILY = '{"p":2,"e":1,"r":1,"delta":[[0],[1]],"coeffs":[[[1]]]}'
RANK2_FAMILY = '{"p":2,"e":1,"r":2,"delta":[[0],[1]],"coeffs":[[[1]],[[1]]]}'
SHIFT_FAMILY = '{"p":2,"e":1,"r":1,"delta":[[1],[1]],"coeffs":[[[1]]]}'
BAD_LEAD_FAMILY = '{"p":2,"e":1,"r":1,"delta":[[0],[1]],"coeffs":[[[0],[1]]]}'
CARLITZ_F4_MODULE = ('{"field":{"p":2,"n":2,"modulus":[1,1,1]},'
                     '"theta":[0,1],"coeffs":[[1,0]],"e":1,"twist":0}')
RANK2_F4_MODULE = ('{"field":{"p":2,"n":2,"modulus":[1,1,1]},'
                   '"theta":[0,1],"coeffs":[[1,0],[0,1]],"e":1,"twist":0}')


def run_cli(argv, stdin_text=""):
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


def test_ore_mul_json_roundtrip():
    payload = json.dumps({
        "a": {"field": {"p": 2, "n": 2, "modulus": [1, 1, 1]},
              "coeffs": [[0, 1], [1, 0]]},
        "b": {"field": {"p": 2, "n": 2, "modulus": [1, 1, 1]},
              "coeffs": [[0, 1], [1, 0]]}})
    code, out = run_cli(["ore", "mul"], payload)
    assert code == 0
    assert json.loads(out)["coeffs"] == [[1, 1], [1, 0], [1, 0]]


def test_ore_divmod_and_eval():
    payload = json.dumps({
        "a": {"field": {"p": 2, "n": 1, "modulus": [0, 1]},
              "coeffs": [[1], [0], [1]]},
        "b": {"field": {"p": 2, "n": 1, "modulus": [0, 1]},
              "coeffs": [[1], [1]]},
        "side": "left"})
    code, out = run_cli(["ore", "divmod"], payload)
    assert code == 0
    data = json.loads(out)
    assert data["q"]["coeffs"] == [[1], [1]] and data["r"]["coeffs"] == []
    payload = json.dumps({
        "f": {"field": {"p": 2, "n": 2, "modulus": [1, 1, 1]},
              "coeffs": [[0, 1], [1, 0]]},
        "x": [0, 1]})
    code, out = run_cli(["ore", "eval"], payload)
    assert code == 0 and json.loads(out)["value"] == [0, 0]


def test_ore_bad_payload_is_parse_error():
    f4 = {"p": 2, "n": 2, "modulus": [1, 1, 1]}
    op = {"field": f4, "coeffs": [[0, 1], [1, 0]]}
    for argv, payload, key in ((["ore", "mul"], {"a": op}, "'b'"),
                               (["ore", "eval"], {"f": op}, "'x'")):
        code, out = run_cli(argv, json.dumps(payload))
        assert code == 2
        assert json.loads(out) == {"error": f"bad ore payload: {key}"}
    for x in ("w", [0.5, 1]):
        code, out = run_cli(["ore", "eval"], json.dumps({"f": op, "x": x}))
        assert code == 2 and "bad ore payload" in json.loads(out)["error"]


@pytest.mark.parametrize("side, code", [("left", 0), ("right", 0),
                                        ("middle", 2), (["left"], 2)])
def test_ore_divmod_accepts_only_left_or_right(side, code):
    f2 = {"p": 2, "n": 1, "modulus": [0, 1]}
    payload = json.dumps({"a": {"field": f2, "coeffs": [[1], [0], [1]]},
                          "b": {"field": f2, "coeffs": [[1], [1]]},
                          "side": side})
    got, out = run_cli(["ore", "divmod"], payload)
    assert got == code
    if code:
        assert json.loads(out) == {
            "error": f'side must be "left" or "right", not {side!r}'}
    else:
        assert json.loads(out)["side"] == side


DEEP = "[" * 3000 + "]" * 3000


@pytest.mark.parametrize("argv, stdin_text, message", [
    (["ore", "mul"], DEEP, "bad ore payload"),
    (["drinfeld", "phi", "--module", "-", "--a", "t"], DEEP,
     "bad module descriptor"),
    (["drinfeld", "phi", "--family", "-", "--at", "x", "--a", "t"], DEEP,
     "bad family descriptor"),
    # a text that is no JSON is read as sparse text, which this is not
    (["drinfeld", "phi", "--module", "-", "--a", DEEP], CARLITZ_F4_MODULE,
     "bad term"),
    (["drinfeld", "frobnorm", "--module", "-", "--primes", DEEP + ":1"],
     CARLITZ_F4_MODULE, "bad term"),
], ids=["ore", "module", "family", "a", "primes"])
def test_deeply_nested_json_is_a_parse_error(argv, stdin_text, message):
    code, out = run_cli(argv, stdin_text)
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out)["error"].startswith(message)


def test_ore_kernel():
    payload = json.dumps({
        "f": {"field": {"p": 2, "n": 2, "modulus": [1, 1, 1]},
              "coeffs": [[0, 1], [1, 0]]},
        "ext_degree": 1})
    code, out = run_cli(["ore", "kernel"], payload)
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 1 and [0, 1] in data["points"]


def test_ore_kernel_too_large_to_print_fails_fast():
    # tau^22 + 1 fixes all of F_{2^22}: 2^22 points, above the scan limit
    payload = json.dumps({
        "f": {"field": {"p": 2, "n": 1, "modulus": [0, 1]},
              "coeffs": [[1]] + [[0]] * 21 + [[1]]},
        "ext_degree": 22})
    code, out = run_cli(["ore", "kernel"], payload)
    assert code == 2
    assert json.loads(out) == {"error": "kernel too large to print "
                                        "(4194304 points)"}


def test_drinfeld_torsion_counts_2_to_the_32_points():
    module = ('{"field":{"p":2,"n":2,"modulus":[1,1,1]},"theta":[0,1],'
              '"coeffs":[[1,0],[1,0]]}')
    code, out = run_cli(["drinfeld", "torsion", "--module", "-", "--ell",
                         "t^8+t^6+t^5+t^3+1", "--n", "2", "--cap", "20"],
                        module)
    assert code == 0 and '"count":4294967296' in out


def test_drinfeld_phi_from_module_json():
    code, out = run_cli(["drinfeld", "phi", "--module", "-", "--a", "t^2"],
                        CARLITZ_F4_MODULE)
    assert code == 0
    data = json.loads(out)
    assert data["phi"]["coeffs"] == [[1, 1], [1, 0], [1, 0]]
    assert data["char"] == "t^2+t+1"


def test_drinfeld_torsion_from_family():
    code, out = run_cli(["drinfeld", "torsion", "--family", "-",
                         "--at", "x^2+x+1", "--ell", "t", "--n", "1"],
                        CARLITZ_FAMILY)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["frobenius_matrix"] == [["1"]]


def test_drinfeld_frobnorm():
    code, out = run_cli(["drinfeld", "frobnorm", "--family", "-",
                         "--at", "x^2+x+1"], CARLITZ_FAMILY)
    assert code == 0
    data = json.loads(out)
    assert data["s"] == "t^2+t+1" and data["char_power"] == 1


def test_carlitz_table_and_exit_code():
    code, out = run_cli(["carlitz", "table", "--p", "2", "--e", "1",
                         "--max-prime-degree", "2"])
    assert code == 0
    rows = json.loads(out)
    assert [r["place"] for r in rows] == ["x", "x+1", "x^2+x+1"]
    assert all(r["independence"] and r["degree_ok"] and r["char_divides"]
               for r in rows)
    row = rows[2]
    assert row["s"] == "t^2+t+1"


@pytest.mark.parametrize("argv, stdin_text", [
    (["drinfeld", "phi", "--module", "-", "--a", DEEP], CARLITZ_F4_MODULE),
    (["frobrec", "classify", "--p", "2", "--poly", "Y+" + "Z" * 5000], ""),
    (["frobrec", "classify", "--p", "2", "--poly", " " * 5000], ""),
    (["frobrec", "theorem", "--p", "2", "--gens", "u/(" + " " * 5000 + ")",
      "--images", "u"], ""),
    (["drinfeld", "frobnorm", "--module", "-", "--primes", "t:" + "Z" * 3000],
     CARLITZ_F4_MODULE),
], ids=["phi", "classify", "empty-bivariate", "empty-denominator",
        "prime-power"])
def test_error_lines_quote_at_most_40_characters_of_input(argv, stdin_text):
    code, out = run_cli(argv, stdin_text)
    assert code == 2 and out.count("\n") == 1
    assert len(out.encode()) < 200 and "..." in json.loads(out)["error"]


def test_a_prime_power_that_is_not_an_integer_is_a_parse_error():
    code, out = run_cli(["drinfeld", "frobnorm", "--module", "-",
                         "--primes", "t:x"], CARLITZ_F4_MODULE)
    assert (code, out) == (2, '{"error":"bad prime power: x"}\n')


def test_carlitz_table_p3():
    code, out = run_cli(["carlitz", "table", "--p", "3",
                         "--max-prime-degree", "1"])
    assert code == 0
    rows = json.loads(out)
    assert [r["place"] for r in rows] == ["x", "x+1", "x+2"]
    assert [r["s"] for r in rows] == ["t", "t+1", "t+2"]


def test_type2_report_reads_stdin_and_csv():
    code, out = run_cli(["type2", "report", "--max-prime-degree", "1",
                         "--format", "csv", "--cap", "20"], RANK2_FAMILY)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "place,d,ells,s,independence,deg_check," \
                       "char_divides_check"
    assert len(lines) == 3


CARLITZ_F9_FAMILY = ('{"p":3,"e":2,"r":1,"delta":[[0,0],[1,0]],'
                     '"coeffs":[[[1,0]]]}')


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_family_constants_follow_the_seed(seed):
    # the Carlitz descriptor over F_9 reads F_9 as carlitz table does
    opts = ["--max-prime-degree", "2", "--cap", "24", "--seed", seed]
    family = run_cli(["type2", "report", "--family", "-", *opts],
                     CARLITZ_F9_FAMILY)
    assert family == run_cli(["carlitz", "table", "--p", "3", "--e", "2",
                              *opts])


def test_type2_report_surfaces_bad_reduction_rows():
    code, out = run_cli(["type2", "report", "--max-prime-degree", "1"],
                        BAD_LEAD_FAMILY)
    assert code == 1
    rows = json.loads(out)
    assert any("error" in r for r in rows)
    assert any("place" in r and "s" in r for r in rows)  # good rows remain


def test_residual_check_pass_and_fail():
    code, out = run_cli(["residual", "check", "--max-prime-degree", "2"],
                        CARLITZ_FAMILY)
    assert code == 0
    assert all(r["k"] == 0 for r in json.loads(out))
    code, out = run_cli(["residual", "check", "--max-prime-degree", "1"],
                        SHIFT_FAMILY)
    assert code == 1
    rows = json.loads(out)
    assert rows[0]["place"] == "x" and rows[0]["k"] is None


# a_1 = theta vanishes at x; delta(t) = theta + 1 gives k = None elsewhere
SHIFT_LEAD_FAMILY = ('{"p":2,"e":1,"r":1,"delta":[[1],[1]],'
                     '"coeffs":[[[0],[1]]]}')
# rank 2 with a_2 = theta: bad at x, and no prime sets split within cap 6
RANK2_LEAD_FAMILY = ('{"p":2,"e":1,"r":2,"delta":[[0],[1]],'
                     '"coeffs":[[[1]],[[0],[1]]]}')
SKIP = ("skipped: cannot assemble 2 reconstruction sets of degree {} "
        "within cap 6")
PINNED_TABLES = [
    (["residual", "check", "--max-prime-degree", "3"], SHIFT_LEAD_FAMILY, {
        "json": '[{"k":null,"place":"x","status":"bad reduction"},'
                '{"k":null,"place":"x+1","status":"fail"},'
                '{"k":1,"place":"x^2+x+1","status":"ok"},'
                '{"k":null,"place":"x^3+x+1","status":"fail"},'
                '{"k":null,"place":"x^3+x^2+1","status":"fail"}]\n',
        "csv": "place,k,status\nx,,bad reduction\nx+1,,fail\nx^2+x+1,1,ok\n"
               "x^3+x+1,,fail\nx^3+x^2+1,,fail\n",
        "text": "x: k=None (bad reduction)\nx+1: k=None (fail)\n"
                "x^2+x+1: k=1 (ok)\nx^3+x+1: k=None (fail)\n"
                "x^3+x^2+1: k=None (fail)\n"}),
    (["type2", "report", "--max-prime-degree", "2", "--cap", "6"],
     RANK2_LEAD_FAMILY, {
        "json": '[{"error":"bad reduction","place":"x"},'
                f'{{"error":"{SKIP.format(2)}","place":"x+1"}},'
                f'{{"error":"{SKIP.format(3)}","place":"x^2+x+1"}}]\n',
        "csv": "place,d,ells,s,independence,deg_check,char_divides_check\n"
               f"x,,,bad reduction,,,\nx+1,,,{SKIP.format(2)},,,\n"
               f"x^2+x+1,,,{SKIP.format(3)},,,\n",
        "text": f"x: bad reduction\nx+1: {SKIP.format(2)}\n"
                f"x^2+x+1: {SKIP.format(3)}\n"}),
    (["type2", "report", "--max-prime-degree", "2", "--cap", "24"],
     RANK2_LEAD_FAMILY, {
        "json": '[{"error":"bad reduction","place":"x"},'
                '{"char_divides":true,"char_power":1,"d":1,"degree_ok":true,'
                '"independence":true,"place":"x+1","primes":['
                '{"det":"1","ell":"t","n":1},'
                '{"det":"t+1","ell":"t^2+t+1","n":1},'
                '{"det":"t+1","ell":"t^3+t^2+1","n":1}],'
                '"s":"t+1","s_monic":"t+1"},'
                '{"char_divides":true,"char_power":1,"d":2,"degree_ok":true,'
                '"independence":true,"place":"x^2+x+1","primes":['
                '{"det":"1","ell":"t","n":1},{"det":"1","ell":"t+1","n":1},'
                '{"det":"t^2+t+1","ell":"t^4+t+1","n":1},'
                '{"det":"t^2+t+1","ell":"t^4+t^3+1","n":1}],'
                '"s":"t^2+t+1","s_monic":"t^2+t+1"}]\n',
        "csv": "place,d,ells,s,independence,deg_check,char_divides_check\n"
               "x,,,bad reduction,,,\n"
               "x+1,1,t;t^2+t+1;t^3+t^2+1,t+1,true,true,true\n"
               "x^2+x+1,2,t;t+1;t^4+t+1;t^4+t^3+1,t^2+t+1,true,true,true\n",
        "text": "x: bad reduction\n"
                "x+1: s=t+1 independence=True deg=True char|s=True\n"
                "x^2+x+1: s=t^2+t+1 independence=True deg=True "
                "char|s=True\n"}),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv,family,expected", PINNED_TABLES)
def test_table_bytes_with_bad_failed_and_skipped_rows(argv, family, expected,
                                                      fmt):
    assert run_cli(argv + ["--format", fmt], family) == (1, expected[fmt])


def test_motive_det_and_verify():
    code, out = run_cli(["motive", "det", "--module", "-"], RANK2_F4_MODULE)
    assert code == 0
    data = json.loads(out)
    assert data["c"] == [1, 1]
    assert data["psi_t"]["coeffs"] == [[0, 1]]
    code, out = run_cli(["motive", "verify-tate-det", "--module", "-",
                         "--ell", "t", "--n", "2", "--cap", "20"],
                        RANK2_F4_MODULE)
    assert code == 0
    assert json.loads(out)["results"] == {"n=1": True, "n=2": True}


def test_degree_8_prime_squared_on_the_torsion_routes():
    # E[l^2] for l of degree 8 over F_4 has 2^32 points, drawn by index
    module = ('{"field":{"p":2,"n":2,"modulus":[1,1,1]},"theta":[0,1],'
              '"coeffs":[[1,0],[1,0]]}')
    ell = "t^8+t^6+t^5+t^3+1"
    code, out = run_cli(["motive", "verify-tate-det", "--module", "-",
                         "--ell", ell, "--n", "2", "--cap", "20"], module)
    assert code == 0 and '"n=2":true' in out
    code, out = run_cli(["drinfeld", "frobnorm", "--module", "-",
                         "--primes", f"{ell}:2", "--cap", "20"], module)
    assert code == 0 and '"s":"t^2+t+1"' in out


def test_frobrec_subcommands():
    code, out = run_cli(["frobrec", "classify", "--p", "2",
                         "--poly", "Y^2+X"])
    assert code == 0
    assert json.loads(out) == {"k": 1, "variant": "YtoX"}
    code, out = run_cli(["frobrec", "classify", "--p", "2",
                         "--poly", "Y+X^3"])
    assert code == 0
    data = json.loads(out)
    assert data["variant"] == "NotFrobenius" and "witness" in data
    code, out = run_cli(["frobrec", "recover-monomial", "--p", "2",
                         "--num", "X^3", "--den", "1"])
    assert code == 0 and json.loads(out)["n"] == 3
    code, out = run_cli(["frobrec", "theorem", "--p", "2", "--gens", "u",
                         "--images", "u^4"])
    assert code == 0 and json.loads(out)["k"] == 2
    code, out = run_cli(["frobrec", "theorem", "--p", "2", "--gens", "u",
                         "--images", "u+1"])
    assert code == 1 and not json.loads(out)["ok"]


def test_parse_error_exit_code():
    code, out = run_cli(["type2", "report"], "not json")
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv, message", [
    (["drinfeld", "torsion", "--module", "-"], "drinfeld torsion needs --ell"),
    (["motive", "verify-tate-det", "--module", "-"],
     "motive verify-tate-det needs --ell"),
    (["drinfeld", "phi", "--module", "-"], "drinfeld phi needs --a"),
    (["frobrec", "classify", "--p", "2"], "frobrec classify needs --poly"),
    (["frobrec", "recover-monomial", "--p", "2"],
     "frobrec recover-monomial needs --num"),
    (["frobrec", "theorem", "--p", "2", "--images", "u"],
     "frobrec theorem needs --gens"),
    (["frobrec", "theorem", "--p", "2", "--gens", "u"],
     "frobrec theorem needs --images"),
    (["drinfeld", "torsion", "--module", "-", "--ell", '["a"]'],
     'bad coefficient list: ["a"]'),
    (["drinfeld", "phi", "--module", "-", "--a", "[1, [0.5]]"],
     "bad coefficient list: [1, [0.5]]"),
    (["drinfeld", "frobnorm", "--module", "-", "--primes", "[[[1]]]"],
     "bad coefficient list: [[[1]]]"),
    (["motive", "verify-tate-det", "--module", "-", "--ell", "t", "--n", "0"],
     "motive verify-tate-det needs --n >= 1"),
    (["motive", "verify-tate-det", "--module", "-", "--ell", "t", "--n", "-1"],
     "motive verify-tate-det needs --n >= 1"),
    # a cap below 1 is rejected before any search, before or after the
    # subcommand
    (["carlitz", "table", "--p", "2", "--max-prime-degree", "2", "--cap",
      "-3"], "--cap must be >= 1"),
    (["drinfeld", "frobnorm", "--module", "-", "--cap", "0"],
     "--cap must be >= 1"),
    (["--cap", "-5", "drinfeld", "torsion", "--module", "-", "--ell", "t"],
     "--cap must be >= 1"),
])
def test_missing_or_ill_typed_argument_is_parse_error(argv, message):
    code, out = run_cli(argv, CARLITZ_F4_MODULE)
    assert code == 2
    assert json.loads(out) == {"error": message}


F8_FIELD = '"field":{"p":2,"n":3,"modulus":[1,1,0,1]}'
FROBNORM_MODULE = ["drinfeld", "frobnorm", "--module", "-"]


@pytest.mark.parametrize("argv, stdin_text, power", [
    # theta = x + x^3 = 1 in F_8; it used to be read as theta = x
    (FROBNORM_MODULE,
     '{%s,"theta":[0,1,0,1],"coeffs":[[1,0,0],[0,1,0]]}' % F8_FIELD, 3),
    (FROBNORM_MODULE,
     '{%s,"theta":[0,1,0],"coeffs":[[1,0,0],[0,1,0,0,1]]}' % F8_FIELD, 4),
    (["ore", "eval"], '{"f":{%s,"coeffs":[[0,1,0]]},"x":[1,0,0,1]}'
     % F8_FIELD, 3),
])
def test_an_element_past_the_field_degree_exits_2(argv, stdin_text, power):
    code, out = run_cli(argv, stdin_text)
    assert code == 2
    assert json.loads(out) == {"error": f"nonzero coefficient of x^{power} "
                                        "in an element of F_2^3 (degree "
                                        "below 3)"}


def test_zero_entries_past_the_field_degree_change_nothing():
    plain = '{%s,"theta":[0,1,0],"coeffs":[[1,0,0],[0,1,0]]}' % F8_FIELD
    padded = '{%s,"theta":[0,1,0,0,0],"coeffs":[[1,0,0,2],[0,1,0]]}' % F8_FIELD
    code, out = run_cli(FROBNORM_MODULE, plain)
    assert code == 0 and run_cli(FROBNORM_MODULE, padded) == (code, out)


@pytest.mark.parametrize("argv, stdin_text, message", [
    (["carlitz", "table", "--p", "2", "--e", "100000000"], "",
     "F_2^100000000 has more than 2^40 elements"),
    (["carlitz", "table", "--p", "2", "--e", "10000000000"], "",
     "F_2^10000000000 has more than 2^40 elements"),
    (["drinfeld", "torsion", "--family", "-", "--at", "x+1", "--ell", "t",
      "--n", "3000"], CARLITZ_FAMILY, "E[(t)^3000] has over 2^40 points"),
    (["drinfeld", "phi", "--module", "-", "--a", "t"],
     CARLITZ_F4_MODULE.replace('"e":1', '"e":%d' % 2 ** 70),
     "F_2^%d has more than 2^40 elements" % 2 ** 70),
    (["type2", "report"], CARLITZ_FAMILY.replace('"e":1', '"e":%d' % 2 ** 70),
     "F_2^%d has more than 2^40 elements" % 2 ** 70),
    (["ore", "kernel"],
     '{"f":{"field":{"p":2,"n":1,"modulus":[0,1]},"coeffs":[[0],[1]]},'
     '"ext_degree":%d}' % 2 ** 70,
     "F_2^%d has more than 2^40 elements" % 2 ** 70),
    (["frobrec", "classify", "--p", "2", "--poly", "X^2199023255552+X-Y"],
     "", "a degree is above 2097152"),
    (["frobrec", "theorem", "--p", "2", "--gens", "u",
      "--images", "u^2199023255552"], "",
     "exponent 2199023255552 is above 2097152"),
    (["frobrec", "recover-monomial", "--p", "2", "--num", "X^4194304"], "",
     "exponent 4194304 is above 2097152"),
    (["drinfeld", "torsion", "--family", "-", "--at", "x^4194304+1",
      "--ell", "t"], CARLITZ_FAMILY, "exponent 4194304 is above 2097152"),
    (["drinfeld", "phi", "--module", "-", "--a", "t^4194304"],
     CARLITZ_F4_MODULE, "exponent 4194304 is above 2097152"),
    # the top degree is sieved first, not after degrees 1..21
    (["carlitz", "table", "--p", "2", "--max-prime-degree", "22",
      "--cap", "24"], "",
     "4194304 monic polynomials of degree 22 are too many to sieve"),
    (["residual", "check", "--max-prime-degree", "22"], CARLITZ_FAMILY,
     "4194304 monic polynomials of degree 22 are too many to sieve"),
    (["type2", "report", "--max-prime-degree", "22"], CARLITZ_FAMILY,
     "4194304 monic polynomials of degree 22 are too many to sieve"),
])
def test_oversized_requests_fail_fast(argv, stdin_text, message):
    start = time.perf_counter()
    code, out = run_cli(argv, stdin_text)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and json.loads(out) == {"error": message}


@pytest.mark.parametrize("argv, expected, seconds", [
    (["frobrec", "classify", "--p", "65537", "--poly", "X-Y"],
     {"k": 0, "variant": "XtoY"}, 1.0),
    (["frobrec", "classify", "--p", "65537", "--poly", "X^65537-Y"],
     {"k": 1, "variant": "XtoY"}, 1.0),
    (["frobrec", "classify", "--p", "2", "--poly", "X^2199023255552-Y"],
     {"k": 41, "variant": "XtoY"}, 1.0),
    # dense polynomials of degree 65537 are parsed and compared
    (["frobrec", "theorem", "--p", "65537", "--gens", "u",
      "--images", "u^65537"], {"k": 1, "ok": True}, 10.0),
    # the unit is P's coefficient at X^p, not a search over F_p
    (["frobrec", "classify", "--p", "2147483647", "--poly",
      "Y-X^2147483647"], {"k": 1, "unit": 2147483646, "variant": "XtoY"},
     1.0),
])
def test_frobenius_shapes_and_images_need_no_field(argv, expected, seconds):
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < seconds
    assert code == 0 and json.loads(out) == expected


def test_common_options_work_before_or_after_the_subcommand():
    table = ["carlitz", "table", "--p", "2", "--max-prime-degree", "2"]
    before = run_cli(["--seed", "1", "--format", "csv"] + table)
    after = run_cli(table + ["--seed", "1", "--format", "csv"])
    assert before == after and before[0] == 0
    assert before[1].startswith("place,")
    args = cli.build_parser().parse_args(
        ["--seed", "3", "--cap", "20", "--format", "csv", "--output", "o",
         "frobrec", "classify", "--p", "2", "--poly", "Y-X"])
    assert (args.seed, args.cap, args.format, args.output) == (3, 20, "csv",
                                                              "o")
    # a value given after the subcommand wins
    args = cli.build_parser().parse_args(
        ["--seed", "3", "frobrec", "classify", "--seed", "5", "--p", "2"])
    assert (args.seed, args.cap, args.format, args.output) == (5, 12, "json",
                                                              None)


def test_rejection_over_a_large_prime_fails_fast():
    # the sampling field F_(65537^2) is too large to scan, and finding its
    # generator skips the 65536 prime-field constants
    start = time.perf_counter()
    code, out = run_cli(["frobrec", "classify", "--p", "65537",
                         "--poly", "Y+X^2"])
    assert time.perf_counter() - start < 2.0
    assert code == 2 and json.loads(out) == {
        "error": "extension too large for an exhaustive root scan"}


def test_resultant_points_above_the_scan_limit_need_no_scan():
    # F_p with p > 2^21 is too large to enumerate, but the relation is a
    # nullspace over F_p and needs no point of it
    start = time.perf_counter()
    code, out = run_cli(["frobrec", "theorem", "--p", "2097169", "--gens",
                         "u^2,u^3", "--images", "u^4,u^5"])
    assert time.perf_counter() - start < 2.0
    assert code == 2 and json.loads(out) == {
        "error": "images break the relation Y^2+2097168*X^3"}


def test_relation_at_the_largest_prime_below_2_to_the_40():
    # the nullspace's slots hold sums of products below rows * p^2 > 2^80,
    # so they are 128 bits wide
    code, out = run_cli(["frobrec", "theorem", "--p", "1099511627689",
                         "--gens", "u^2,u^3", "--images", "u^4,u^5"])
    assert (code, out) == (
        2, '{"error":"images break the relation Y^2+1099511627688*X^3"}\n')


ORE_EVAL_PAYLOAD = ('{"f":{"field":{"p":2,"n":2,"modulus":[1,1,1]},'
                    '"coeffs":[[0,1],[1,0]]},"x":[0,1]}')
PAYLOAD_COMMANDS = [
    (["drinfeld", "phi", "--module", "-", "--a", "t"], RANK2_F4_MODULE),
    (["motive", "det", "--module", "-"], RANK2_F4_MODULE),
    (["drinfeld", "phi", "--family", "-", "--at", "x", "--a", "t"],
     RANK2_FAMILY),
    (["ore", "eval"], ORE_EVAL_PAYLOAD),
]


def _leaf_paths(obj, path=()):
    if isinstance(obj, (dict, list)):
        keys = obj if isinstance(obj, dict) else range(len(obj))
        for key in keys:
            yield from _leaf_paths(obj[key], path + (key,))
    else:
        yield path


def _replace_leaf(obj, path, value):
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _replace_leaf(obj[path[0]], path[1:], value)
    return copy


BAD_LEAVES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.text(max_size=2), st.none(),
                       st.lists(st.integers(0, 2), max_size=2),
                       st.just(2 ** 70))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PAYLOAD_COMMANDS), st.integers(0, 99), BAD_LEAVES)
def test_one_bad_payload_leaf_still_answers_in_json(command, index, leaf):
    argv, text = command
    payload = json.loads(text)
    paths = list(_leaf_paths(payload))
    bad = _replace_leaf(payload, paths[index % len(paths)], leaf)
    code, out = run_cli(argv, json.dumps(bad))
    assert code in (0, 1, 2)
    assert out.count("\n") == 1 and out.endswith("\n")
    json.loads(out)


def test_broken_invariant_exits_2_with_json(monkeypatch):
    def broken_det(E):
        raise InvariantError("injected invariant failure")

    monkeypatch.setattr(cli, "motive_det", broken_det)
    code, out = run_cli(["motive", "det", "--module", "-"], RANK2_F4_MODULE)
    assert code == 2
    assert json.loads(out) == {"error": "injected invariant failure"}


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(["carlitz", "table", "--p", "2",
                         "--max-prime-degree", "1",
                         "--output", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())[0]["place"] == "x"


def test_table_rows_recomputable_from_library():
    from drinfeld import carlitz_family, parse_upoly
    from drinfeld.reports import place_report

    code, out = run_cli(["carlitz", "table", "--p", "2",
                         "--max-prime-degree", "2", "--cap", "12"])
    assert code == 0
    rows = json.loads(out)
    family = carlitz_family(2)
    for row in rows:
        prime = parse_upoly(row["place"], family.constants, var="x")
        rep = place_report(family, prime, cap=12)
        assert rep.to_dict() == row


def test_byte_identical_reruns():
    battery = [
        (["carlitz", "table", "--p", "2", "--max-prime-degree", "2",
          "--seed", "0"], ""),
        (["residual", "check", "--max-prime-degree", "2"], CARLITZ_FAMILY),
        (["frobrec", "classify", "--p", "3", "--poly", "Y+X^9"], ""),
        (["motive", "det", "--module", "-"], RANK2_F4_MODULE),
    ]
    first = [run_cli(argv, text) for argv, text in battery]
    second = [run_cli(argv, text) for argv, text in battery]
    assert first == second


def test_one_parser_serves_many_commands(monkeypatch, capsys):
    battery = [
        (["frobrec", "classify", "--p", "2", "--poly", "X^2-Y"], ""),
        (["frobrec", "classify", "--poly", "X^2-Y"], ""),  # no --p: exit 2
        (["motive", "det", "--module", "-"], RANK2_F4_MODULE),
        (["carlitz", "table", "--p", "2", "--format", "csv"], ""),
        (["frobrec", "theorem", "--p", "2", "--gens", "u"], ""),
        (["drinfeld", "phi", "--module", "-", "--a", "t^2"], CARLITZ_F4_MODULE),
    ]

    def run(argv, text):
        try:
            result = run_cli(argv, text)
        except SystemExit as exc:
            result = ("exit", exc.code)
        return result, capsys.readouterr()

    first = []
    for argv, text in battery:
        monkeypatch.setattr(cli, "_PARSER", None)
        first.append(run(argv, text))
    assert [r[0][0] for r in first] == [0, "exit", 0, 0, 2, 0]
    assert first[1][0][1] == 2 and "--p" in first[1][1].err
    monkeypatch.setattr(cli, "_PARSER", None)
    assert [run(argv, text) for argv, text in battery] == first
    assert cli._PARSER is not None


def test_recover_monomial_loads_no_sympy():
    script = ("import sys\n"
              "from drinfeld.cli import main\n"
              "main(['frobrec', 'recover-monomial', '--p', '2', "
              "'--num', 'X^3'])\n"
              "print('sympy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(drinfeld.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ['{"n":3,"ok":true}', "False"]


# recorded before prime sets were chosen on the motive
CARLITZ_TABLE_5_CSV = (
    "place,d,ells,s,independence,deg_check,char_divides_check\n"
    "x,1,t+1;t^2+t+1;t^3+t+1,t,true,true,true\n"
    "x+1,1,t;t^2+t+1;t^3+t+1,t+1,true,true,true\n"
    "x^2+x+1,2,t;t+1;t^3+t+1;t^3+t^2+1,t^2+t+1,true,true,true\n"
    "x^3+x+1,3,t;t+1;t^2+t+1;t^3+t^2+1;t^4+t^3+1,t^3+t+1,true,true,true\n"
    "x^3+x^2+1,3,t;t+1;t^2+t+1;t^3+t+1;t^4+t^3+t^2+t+1,t^3+t^2+1,"
    "true,true,true\n"
    "x^4+x+1,4,t;t+1;t^2+t+1;t^3+t+1;t^3+t^2+1;t^4+t^3+1,t^4+t+1,"
    "true,true,true\n"
    "x^4+x^3+1,4,t;t+1;t^2+t+1;t^3+t+1;t^3+t^2+1;t^4+t+1,t^4+t^3+1,"
    "true,true,true\n"
    "x^4+x^3+x^2+x+1,4,t;t+1;t^2+t+1;t^3+t+1;t^3+t^2+1;t^4+t+1,"
    "t^4+t^3+t^2+t+1,true,true,true\n"
    "x^5+x^2+1,5,t;t+1;t^2+t+1;t^3+t+1;t^3+t^2+1;t^4+t^3+t^2+t+1,"
    "t^5+t^2+1,true,true,true\n"
    "x^5+x^3+1,5,t;t+1;t^2+t+1;t^3+t+1;t^3+t^2+1;t^4+t+1,t^5+t^3+1,"
    "true,true,true\n"
    "x^5+x^3+x^2+x+1,5,t;t+1;t^2+t+1;t^3+t+1;t^3+t^2+1;t^6+t^4+t^2+t+1,"
    "t^5+t^3+t^2+t+1,true,true,true\n"
    "x^5+x^4+x^2+x+1,5,t;t+1;t^2+t+1;t^3+t+1;t^3+t^2+1;t^4+t^3+1,"
    "t^5+t^4+t^2+t+1,true,true,true\n"
    "x^5+x^4+x^3+x+1,5,t;t+1;t^2+t+1;t^3+t+1;t^3+t^2+1;t^6+t+1,"
    "t^5+t^4+t^3+t+1,true,true,true\n"
    "x^5+x^4+x^3+x^2+1,5,t;t+1;t^2+t+1;t^3+t+1;t^3+t^2+1;t^4+t+1,"
    "t^5+t^4+t^3+t^2+1,true,true,true\n")


def test_carlitz_table_to_degree_5_bytes():
    argv = ["carlitz", "table", "--p", "2", "--max-prime-degree", "5",
            "--cap", "24", "--format", "csv"]
    assert run_cli(argv) == (0, CARLITZ_TABLE_5_CSV)


def test_table_lists_the_irreducibles_of_each_degree_once():
    listing = drinfeld.upoly.irreducibles_of_degree
    listing.cache_clear()
    code, _ = run_cli(["carlitz", "table", "--p", "2",
                       "--max-prime-degree", "5"])
    info = listing.cache_info()
    assert code == 0 and info.hits > 0
    assert info.misses == info.currsize < info.maxsize


F4_IN_F16_MODULE = ('{"field":{"p":2,"n":4,"modulus":[1,1,0,0,1]},'
                    '"theta":[0,1,0,0],"coeffs":[[1,0,0,0]],"e":2}')


@pytest.mark.parametrize("primes", [
    "t:1,t+[1,0]:1,t+[0,1]:1,t+[1,1]:1,t^2+t+[1,1]:1",
    "t:1,[[1,0],[1,0]]:1,t+[0,1]:1,t+[1,1]:1,[[1,1],[1,0],[1,0]]:1",
])
def test_frobnorm_primes_read_back_what_frobnorm_prints(primes):
    # q = 4: the primes are the ones the motive route prints, as text and
    # as JSON coefficient lists; the torsion route then finds the same s
    code, out = run_cli(FROBNORM_MODULE, F4_IN_F16_MODULE)
    motive_route = json.loads(out)
    assert code == 0 and motive_route["s"] == "t^2+t+[0,1]"
    code, out = run_cli(FROBNORM_MODULE + ["--primes", primes],
                        F4_IN_F16_MODULE)
    assert (code, json.loads(out)["s"]) == (0, motive_route["s"])
    assert [entry["ell"] for entry in motive_route["primes"]] == [
        "t", "t+[1,0]", "t+[0,1]", "t+[1,1]", "t^2+t+[1,1]"]


def test_phi_reads_a_polynomial_that_starts_with_a_bracket_coefficient():
    # '[0,1]*t+[1,0]' is not JSON, so it is read as text, the form to_text
    # writes; a bare bracket is still a JSON coefficient list
    phi = ["drinfeld", "phi", "--module", "-", "--a"]
    text = run_cli(phi + ["[0,1]*t+[1,0]"], F4_IN_F16_MODULE)
    listed = run_cli(phi + ["[[1,0],[0,1]]"], F4_IN_F16_MODULE)
    assert text == listed and text[0] == 0
    assert json.loads(text[1])["delta"] == [1, 0, 1, 1]
    F4 = drinfeld.ff_make(2, 2, 0)
    assert cli._poly_arg("[0,1]", F4) == UPoly.x(F4)
    assert cli._poly_arg("[[0,1]]", F4) == UPoly(F4, [F4.gen])


@pytest.mark.parametrize("p, n, max_deg", [(2, 1, 3), (3, 1, 3), (2, 2, 2),
                                           (3, 2, 2)])
def test_poly_arg_reads_back_to_text(p, n, max_deg):
    # every f of degree <= max_deg, except a bare constant over F_q with
    # q != p, which reads as a JSON list
    F = drinfeld.ff_make(p, n, 0)
    elems = list(F.elements())
    for code in range(len(elems) ** (max_deg + 1)):
        digits = []
        for _ in range(max_deg + 1):
            code, c = divmod(code, len(elems))
            digits.append(elems[c])
        f = UPoly(F, digits)
        if n > 1 and f.deg == 0:
            continue
        assert cli._poly_arg(f.to_text(), F) == f
