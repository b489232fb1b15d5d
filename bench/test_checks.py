"""Each checker accepts the library's real answer and rejects a wrong one.

    python3 -m pytest bench/test_checks.py -q

The answers come from running cheap items of the real workloads through the
CLI; the wrong answers are those outputs with one value changed.
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys

import pytest

import checks
import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from drinfeld import cli  # noqa: E402


def _find(workload, label):
    for item in workloads.build(workload, 0):
        if item["label"].startswith(label):
            return item
    raise LookupError(label)


def _answer(item):
    out = io.StringIO()
    code = cli.main(item["argv"], io.StringIO(item["stdin"]), out)
    return code, json.loads(out.getvalue())


def _rejects(item, code, out):
    with pytest.raises(checks.CheckFailed):
        checks.check(item, code, json.dumps(out))


def _accepts(item, code, out):
    checks.check(item, code, json.dumps(out))


def test_norm_rejects_a_wrong_carlitz_norm():
    item = _find("carlitz_tables", "carlitz q=3 at [[1], [1]]")
    code, out = _answer(item)
    _accepts(item, code, out)
    _rejects(item, code, dict(out, s="t+2"))
    _rejects(item, code, dict(out, d=2))


def test_norm_rejects_a_wrong_rank2_norm():
    item = _find("rank2_modules", "frobnorm F3:th=1:1,1")
    code, out = _answer(item)
    _accepts(item, code, out)
    assert out["s"] == "2*t+1"  # -(t - 1), the closed form
    _rejects(item, code, dict(out, s="t+2"))


def test_torsion_rejects_a_wrong_count_or_matrix():
    item = _find("rank2_modules", "torsion F4:1,1 l=[0, 1] n=3")
    code, out = _answer(item)
    _accepts(item, code, out)
    _rejects(item, code, dict(out, count=out["count"] // 2))
    # det 1, while s = t^2+t+1 is not 1 modulo t^3
    _rejects(item, code, dict(out, frobenius_matrix=[["1", "0"], ["0", "1"]]))


def test_tate_rejects_a_false_level():
    item = _find("rank2_modules", "verify-tate-det F4:1,1")
    code, out = _answer(item)
    _accepts(item, code, out)
    wrong = copy.deepcopy(out)
    wrong["results"]["n=2"] = False
    _rejects(item, code, wrong)


def test_theorem_rejects_a_wrong_exponent():
    item = _find("frobrec_decisions", "theorem p=2 k=1")
    code, out = _answer(item)
    _accepts(item, code, out)
    _rejects(item, code, dict(out, k=2))


def test_theorem_rejects_a_bad_witness():
    item = _find("frobrec_decisions", "theorem p=2 u ->")
    code, out = _answer(item)
    _accepts(item, code, out)
    wrong = copy.deepcopy(out)
    wrong["witness"]["root"] = wrong["witness"]["x"]  # in the orbit of x
    _rejects(item, code, wrong)
    wrong["witness"]["field"]["modulus"] = [0] * out["witness"]["field"]["n"] + [1]
    _rejects(item, code, wrong)


def test_classify_rejects_a_wrong_shape_or_witness():
    item = _find("frobrec_decisions", "classify p=3 X^9-Y")
    code, out = _answer(item)
    _accepts(item, code, out)
    _rejects(item, code, dict(out, variant="YtoX"))
    item = _find("frobrec_decisions", "classify p=2 Y^8-X-")
    code, out = _answer(item)
    _accepts(item, code, out)
    wrong = copy.deepcopy(out)
    root = wrong["witness"]["root"]
    root[0] ^= 1
    _rejects(item, code, wrong)


def test_monomial_rejects_a_wrong_exponent():
    code, out = _answer(workloads.WARMUP)
    _accepts(workloads.WARMUP, code, out)
    _rejects(workloads.WARMUP, code, dict(out, n=4))


def test_unexpected_exit_code_is_a_failed_operation():
    item = _find("frobrec_decisions", "theorem p=2 k=1")
    code, out = _answer(item)
    with pytest.raises(checks.OperationFailed):
        checks.check(item, 2, json.dumps(out))
