"""Static import hygiene for the package, using only the standard library.

Every name a module imports must be used in that module or re-exported
through its ``__all__``, and every entry of ``frobetti.__all__`` must
resolve.  This catches the imports a deletion leaves behind.  Imports from
the package sit at module level, except where one breaks an import cycle.
Every function, class and method of the package is named somewhere outside
its own definition, which catches code nothing calls.  No module binds a
mutable container at module level or rebinds a global, so no cache or memo
outlives the objects it belongs to.
"""

import ast
import collections
import pathlib
import re

import pytest

import frobetti

from conftest import REFERENCE_MODULES

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


# Exports no package code uses: library API that demos and tests call.
EXPORT_ALLOWLIST = {"choose_parameter", "frobenius_power", "groebner_basis", "minimize", "syzygy_generators"}


def test_every_export_is_used_in_the_package_or_listed():
    """Each name of ``frobetti.__all__`` is read by another definition of
    ``src/``, ``cli.py`` included, or is on ``EXPORT_ALLOWLIST``, which holds
    only names that need it."""
    used = set()
    for path in MODULES:
        if path.name != "__init__.py":
            for top in ast.parse(path.read_text(), filename=str(path)).body:
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(top)}
                used |= names - {getattr(top, "name", None)}
    assert set(frobetti.__all__) - used == EXPORT_ALLOWLIST


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


ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = MODULES + [
    path for folder in ("tests", "demos", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))
]


def _definitions(tree):
    """Module-level functions and classes, and the non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield "%s.%s" % (node.name, item.name), item


def test_every_definition_is_referenced():
    # A word match: a definition counts as used when its name occurs in the
    # sources, tests, demos or benchmark anywhere outside its own body.
    texts = {path: path.read_text() for path in CORPUS}
    words = collections.Counter(w for text in texts.values() for w in re.findall(r"\w+", text))
    unused = []
    for path in MODULES:
        lines = texts[path].splitlines()
        for label, node in _definitions(ast.parse(texts[path], filename=str(path))):
            own = re.findall(r"\w+", "\n".join(lines[node.lineno - 1 : node.end_lineno]))
            if words[node.name] == own.count(node.name):
                unused.append("%s:%s" % (path.name, label))
    assert not unused, "never referenced: %s" % ", ".join(unused)


# Module-level mutable containers allowed: the export list and the cache
# schema, which nothing mutates.
MODULE_STATE_ALLOWED = {("__init__.py", "__all__"), ("cli.py", "CACHE_FIELDS")}
MUTABLE_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _module_level(body):
    """Statements that run at import time, outside functions and classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody"):
            yield from _module_level(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _module_level(handler.body)


def _is_mutable(value):
    return isinstance(value, MUTABLE_NODES) or (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "list", "set")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_shared_mutable_module_state(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in _module_level(tree.body):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if not _is_mutable(value):
            continue
        for target in targets:
            name = target.id if isinstance(target, ast.Name) else ast.unparse(target)
            if (path.name, name) not in MODULE_STATE_ALLOWED:
                found.append("%s (line %d)" % (name, node.lineno))
    found += ["global (line %d)" % node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert not found, "shared mutable state in %s: %s" % (path.name, ", ".join(found))


# ``FreeComplex.matrix`` builds Polynomial columns on each call; the library
# reads the stored vectors instead, and only the reference routes of the tests
# call it.  ``minimize`` splits units on the stored vectors, and the CLI
# payload prints them (``vec_to_strings``).
MATRIX_CALLERS = set()


def test_polynomial_matrices_are_built_only_where_needed():
    found = set()
    for path in MODULES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "matrix"
                ):
                    found.add((path.name, getattr(top, "name", "<module>")))
    assert found <= MATRIX_CALLERS, "matrix() called from %s" % sorted(found - MATRIX_CALLERS)


def test_resolution_builds_polynomial_columns_only_on_request():
    """``resolution.py`` works on the stored engine vectors, unit splitting
    included: ``vec_to_column(`` is called only where ``Polynomial`` columns
    are asked for, ``FreeComplex.matrix`` and ``SyzygyPresentation.generators``,
    and nowhere else in the module."""
    tree = ast.parse((SRC / "resolution.py").read_text())

    def calls(node):
        funcs = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
        return sum(getattr(f, "id", getattr(f, "attr", None)) == "vec_to_column" for f in funcs)

    found = {label: calls(fn) for label, fn in _definitions(tree) if isinstance(fn, ast.FunctionDef)}
    found = {label: n for label, n in found.items() if n}
    assert set(found) == {"FreeComplex.matrix", "SyzygyPresentation.generators"}, found
    assert sum(found.values()) == calls(tree)


def test_syzygy_numbers_run_no_engine():
    """Syzygy lengths and dimensions come from the resolution's Hilbert
    series (``MinimalResolution.syzygy_numerator``): ``resolution.py`` builds
    no presentation and measures no cokernel, either of which runs an engine."""
    tree = ast.parse((SRC / "resolution.py").read_text())
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & {"SubmodulePresentation", "cokernel_numerator"}


def test_lengths_read_stepwise_twists():
    """Tor, Ext and hk lengths read the maps and generators twisted one
    Frobenius step at a time (``frobenius.frobenius_vectors`` and
    ``frobenius_step``): no module calls ``twist_complex(`` or
    ``frobenius_power(``, the literal bracket powers, and ``frobenius.py``
    imports nothing from ``resolution``.  hk is the Tor_0 length of R/J, so
    ``asymptotics.py`` twists, measures and reduces nothing itself: it calls
    none of ``frobenius_step(``, ``cokernel_numerator(`` and ``_reduce_vec(``."""
    own = {"asymptotics.py": {"frobenius_step", "cokernel_numerator", "_reduce_vec"}}
    frobenius_tree = ast.parse((SRC / "frobenius.py").read_text())
    assert "resolution" not in {n.module for n in ast.walk(frobenius_tree) if isinstance(n, ast.ImportFrom)}
    for name in (path.name for path in MODULES):
        tree = ast.parse((SRC / name).read_text())
        called = {
            node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert not called & ({"twist_complex", "frobenius_power"} | own.get(name, set())), name


def test_onedim_reads_tor_through_tor_length():
    """Tor_i(M, R/H^0_m(R)) of ``lemma_h0_check`` is a ``tor_length`` at
    level 0, on its memo and composition check: ``onedim.py`` calls neither
    ``homology_length(`` nor ``coefficient_ring(``."""
    tree = ast.parse((SRC / "onedim.py").read_text())
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & {"homology_length", "coefficient_ring"}


def test_ideal_copies_are_laid_out_only_inside_the_engine():
    """A normal form modulo I * G reads the ring's one basis of I at every
    position (``QuotientRing.nf_vec``); the copies g * e_k of ``_ideal_vecs(``
    are laid out only where they become engine elements, in the engine's
    constructor, and ``_syzygy_vecs`` reads them back from its engine.
    ``_definitions`` skips dunder methods, so every method is read here."""
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = list(_definitions(tree)) + [
            ("%s.%s" % (cls.name, item.name), item)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name.startswith("__")
        ]
        for label, fn in functions:
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_ideal_vecs"
                for node in ast.walk(fn)
            ):
                found.add((path.name, label))
    assert found == {("groebner.py", "_Engine.__init__")}


def test_full_engine_runs_start_only_in_run_engine():
    """In the package, ``.run(`` is called only in ``groebner._run_engine``,
    where every full Buchberger run starts (so a wrapper there counts them
    all), and in ``_minimal_generator_indices``, which runs its engine one
    degree at a time."""
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {
            node: "<module>"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "run"
        }
        # ast.walk visits an enclosing function before the ones nested in
        # it, so each call ends up labelled by its innermost function.
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if node in calls:
                        calls[node] = fn.name
        found |= {(path.name, name) for name in calls.values()}
    assert found == {("groebner.py", "_run_engine"), ("groebner.py", "_minimal_generator_indices")}


def test_every_caller_of_the_division_loop_takes_the_reference():
    """Every module whose code calls ``_reduce_vec(`` is one where
    ``conftest.use_reference_kernels`` installs the scanning reference loop,
    so no call path runs the production loop in a reference comparison."""
    calling = {
        path.stem
        for path in MODULES
        if any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_reduce_vec"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    }
    patched = {module.__name__.rpartition(".")[2] for module in REFERENCE_MODULES}
    assert {"groebner", "ring"} <= calling <= patched
