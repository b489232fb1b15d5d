"""Static checks on the library source: invariant checks that survive
`python -O`, imports kept at module level, and no definition that only
tests reach."""

import ast
from pathlib import Path

import drinfeld

SRC = Path(drinfeld.__file__).parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _parsed(folder):
    for path in sorted(folder.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"),
                              filename=str(path))


def _find(predicate):
    return [f"{path.name}:{node.lineno}" for path, tree in _parsed(SRC)
            for node in ast.walk(tree) if predicate(node)]


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


def _references():
    """(names, attributes) in src/ and scripts/: every name and import
    alias, and every attribute read as x.attr."""
    names, attributes = set(), set()
    for _, tree in [*_parsed(SRC), *_parsed(SCRIPTS)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name, node.asname})
    return names, attributes


def test_library_defines_nothing_only_tests_reach():
    """Every def and class is named somewhere in src/ or scripts/ (the
    package's exports count: they are import aliases in __init__.py).  A
    method, a def in a class body, counts only when read as an attribute:
    a local variable of the same name does not reach it."""
    names, attributes = _references()
    found = []
    for path, tree in _parsed(SRC):
        methods = {id(stmt) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for stmt in cls.body}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    or _is_dunder(node.name)
                    or node.name in UNREFERENCED_ALLOWED):
                continue
            seen = attributes if id(node) in methods else names | attributes
            if node.name not in seen:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "delete it, or allow-list it with its reason: " + \
        ", ".join(found)
