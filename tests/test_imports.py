"""Static import hygiene for the package, using only the standard library.

Every name a module imports must be used in that module or re-exported
through its ``__all__``, and every entry of ``frobetti.__all__`` must
resolve.  This catches the imports a deletion leaves behind.  Imports from
the package sit at module level, except where one breaks an import cycle.
"""

import ast
import pathlib

import pytest

import frobetti

SRC = pathlib.Path(frobetti.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))

# (module, imported module) pairs allowed inside a function: ``ring.make_ring``
# needs the engine, which is built on ``ring``.
LOCAL_IMPORTS_ALLOWED = {("ring.py", "groebner")}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    unused = ["%s (line %d)" % (name, line) for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports in %s: %s" % (path.name, ", ".join(unused))


def test_package_exports_resolve():
    assert len(set(frobetti.__all__)) == len(frobetti.__all__)
    missing = [name for name in frobetti.__all__ if not hasattr(frobetti, name)]
    assert not missing


def _function_level_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level:
                    yield node.module, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_are_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = sorted(
        "from .%s (line %d)" % (module, line)
        for module, line in set(_function_level_imports(tree))
        if (path.name, module) not in LOCAL_IMPORTS_ALLOWED
    )
    assert not local, "function-level imports in %s: %s" % (path.name, ", ".join(local))
