"""Invariant checks in the library must survive `python -O`."""

import ast
from pathlib import Path

import drinfeld

SRC = Path(drinfeld.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "raise a typed DrinfeldError instead of assert: " + \
        ", ".join(found)
