"""Static checks on the library source: invariant checks that survive
`python -O`, imports kept at module level, and no definition that only
tests reach."""

import ast
from pathlib import Path

import drinfeld

SRC = Path(drinfeld.__file__).parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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


# Definitions that no library or script code names, kept on purpose.
UNREFERENCED_ALLOWED = {
    "tau": "OrePoly.tau, the generator of L{tau}: tests build tau^n with it",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _referenced_names():
    names = set()
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name, node.asname})
    return names


def test_library_defines_nothing_only_tests_reach():
    """Every def and class is named somewhere in src/ or scripts/ (the
    package's exports count: they are import aliases in __init__.py)."""
    referenced = _referenced_names() | UNREFERENCED_ALLOWED.keys()
    found = _find(lambda node: isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _is_dunder(node.name) and node.name not in referenced)
    assert not found, "delete it, or allow-list it with its reason: " + \
        ", ".join(found)
