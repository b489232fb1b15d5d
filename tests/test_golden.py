"""Golden digests: the CLI's exit code and stdout, byte for byte.

Each digest is a SHA-256 of (exit code, stdout) for one CLI command run
in-process through `drinfeld.cli.main`.  The commands are every item of the
benchmark's workloads (`bench/workloads.py`) at seeds 1 and 2, plus the
CI smoke step's `carlitz table` and `frobnorm` commands, the degree-8
table, whose later sets need primes above degree d + 1, and six
`frobrec theorem` rejections built on a pair annihilator.  Each command runs
twice, first with every module-level cache of the library emptied, then
warm; both runs must give the committed digest.

A change that alters output bytes on purpose rewrites the digests with

    python tests/test_golden.py --update

which prints the label of every command whose digest changed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SEEDS = (1, 2)

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
try:
    import workloads
finally:
    sys.path.remove(str(ROOT / "bench"))

from drinfeld import cli  # noqa: E402

F4_MODULE = ('{"field":{"p":2,"n":2,"modulus":[1,1,1]},"theta":[0,1],'
             '"coeffs":[[1,0],[1,0]]}')
F16_MODULE = ('{"field":{"p":2,"n":4,"modulus":[1,1,0,0,1]},'
              '"theta":[0,1,0,0],"coeffs":[[1,0,0,0]],"e":2}')
F81_MODULE = ('{"field":{"p":3,"n":4,"modulus":[2,1,0,0,1]},'
              '"theta":[0,1,0,0],"coeffs":[[1,0,0,0]],"e":2,"twist":1}')
CARLITZ_F2 = '{"p":2,"e":1,"r":1,"delta":[[0],[1]],"coeffs":[[[1]]]}'

# (label, argv, stdin): the smoke step's tables and norms, and the degree-8
# table.  The q = 8 failure over F_64 is pinned by CI's error text.
SMOKE = (
    ("carlitz table p=2 degree 6 csv",
     ["carlitz", "table", "--p", "2", "--max-prime-degree", "6",
      "--cap", "24", "--format", "csv"], ""),
    ("carlitz table p=2 degree 7 csv",
     ["carlitz", "table", "--p", "2", "--max-prime-degree", "7",
      "--cap", "24", "--format", "csv"], ""),
    ("carlitz table p=2 degree 8 csv",
     ["carlitz", "table", "--p", "2", "--max-prime-degree", "8",
      "--cap", "24", "--format", "csv"], ""),
    ("frobnorm F4 primes l^2",
     ["drinfeld", "frobnorm", "--module", "-",
      "--primes", "t^8+t^6+t^5+t^3+1:2", "--cap", "20"], F4_MODULE),
    ("frobnorm Carlitz F2 at x^2+x+1 primes",
     ["drinfeld", "frobnorm", "--family", "-", "--at", "x^2+x+1",
      "--primes", "t:2,t+1:1"], CARLITZ_F2),
    ("frobnorm F16 e=2 primes",
     ["drinfeld", "frobnorm", "--module", "-", "--primes",
      "t:1,t+[1,0]:1,t+[0,1]:1,t+[1,1]:1,t^2+t+[1,1]:1"], F16_MODULE),
    ("frobnorm F81 e=2 twist cap 24",
     ["drinfeld", "frobnorm", "--module", "-", "--cap", "24"], F81_MODULE),
) + tuple(
    (f"theorem p={p} {gens} -> {images}",
     ["frobrec", "theorem", "--p", p, "--gens", gens, "--images", images], "")
    for p, gens, images in (
        # five print the relation of two generators, one inseparable
        # (Y^2+X over F_2), one with the Artin-Schreier generator u^3-u;
        # the last classifies the annihilator of u and its image
        ("2", "u^2,u^3", "u^4,u^7"),
        ("2", "u^2,u", "u^2,u^3"),
        ("3", "u^3-u,u^6+u^4", "u,u^2"),
        ("3", "(u^2+1)/(u+2),u^3", "u,u^2"),
        ("5", "u^2+u,u^3", "u^3,u^2"),
        ("2", "u", "u^3+u"),
    ))


def commands():
    """{golden file stem: {label: (argv, stdin)}} for every pinned command."""
    out = {"smoke": {label: (argv, stdin) for label, argv, stdin in SMOKE}}
    for workload in workloads.WORKLOADS:
        out[workload] = {f"seed {seed}: {item['label']}":
                         (item["argv"], item["stdin"])
                         for seed in SEEDS
                         for item in workloads.build(workload, seed)}
    return out


def clear_caches():
    """Empty the library's module-level caches, as a fresh process has them.

    bench/worker.py does the same plus a gc pass, which under pytest costs
    about 6 ms a call, over 2 s for this file.
    """
    for name, mod in list(sys.modules.items()):
        if name != "drinfeld" and not name.startswith("drinfeld."):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif attr.upper().endswith("_CACHE") and hasattr(value, "clear"):
                value.clear()


def digest(argv, stdin):
    out = io.StringIO()
    code = cli.main(argv, io.StringIO(stdin), out)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def run_all(cold):
    """{stem: {label: digest}}, caches emptied before each command if cold."""
    found = {}
    for stem, table in commands().items():
        found[stem] = {}
        for label, (argv, stdin) in table.items():
            if cold:
                clear_caches()
            found[stem][label] = digest(argv, stdin)
    return found


def load():
    return {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(GOLDEN.glob("*.json"))}


def test_cold_and_warm_runs_match_the_golden_digests():
    golden = load()
    for cold in (True, False):
        found = run_all(cold)
        assert found.keys() == golden.keys()
        for stem, table in found.items():
            assert table.keys() == golden[stem].keys(), stem
            changed = [label for label, value in table.items()
                       if value != golden[stem][label]]
            assert not changed, ("cold" if cold else "warm", stem, changed)


def update():
    """Rewrite the digests from a cold run; print what changed."""
    old = load()
    GOLDEN.mkdir(exist_ok=True)
    for stem, table in run_all(cold=True).items():
        before = old.get(stem, {})
        for label in sorted(table.keys() | before.keys()):
            if table.get(label) != before.get(label):
                print(f"{stem}: {label}")
        path = GOLDEN / f"{stem}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite tests/golden/*.json from this checkout")
    if parser.parse_args().update:
        update()
    else:
        parser.print_help()
