"""Static checks on the library source: invariant checks that survive
`python -O`, and imports kept at module level."""

import ast
from pathlib import Path

import drinfeld

SRC = Path(drinfeld.__file__).parent


def _find(predicate):
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if predicate(node)]
    return found


def _raises_runtime_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "RuntimeError"


def test_library_has_no_assert_statements():
    found = _find(lambda node: isinstance(node, ast.Assert))
    assert not found, "raise a typed DrinfeldError instead of assert: " + \
        ", ".join(found)


def _imports_inside(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(inner, (ast.Import, ast.ImportFrom))
                    for inner in ast.walk(node)))


def test_library_imports_only_at_module_level():
    found = _find(_imports_inside)
    assert not found, "move the import to the top of the module: " + \
        ", ".join(found)


def test_library_raises_no_bare_runtime_error():
    found = _find(_raises_runtime_error)
    assert not found, "raise InvariantError instead of RuntimeError: " + \
        ", ".join(found)
